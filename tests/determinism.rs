//! Bitwise determinism of the embedding pipeline.
//!
//! LightNE's kernels are engineered so that a fixed seed produces a
//! byte-identical embedding regardless of scheduling: the concurrent edge
//! table accumulates fixed-point integers (exactly commutative), and every
//! floating-point reduction uses fixed block sizes so the summation
//! bracketing never depends on the thread count.
//!
//! Everything lives in ONE test function on purpose: all tests in a binary
//! share the global rayon pool, and this test resizes it mid-flight.

use lightne::core::{LightNe, LightNeConfig};
use lightne::eval::classify::train_test_split;
use lightne::eval::linkpred::split_edges;
use lightne::gen::sbm::{labelled_sbm, SbmConfig};
use lightne::graph::{Codec, V2Graph, WeightedGraph};
use lightne::utils::parallel::configure_threads;

fn bits(m: &lightne::linalg::DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn same_seed_same_bytes_across_runs_and_thread_counts() {
    let cfg = SbmConfig {
        n: 600,
        communities: 4,
        avg_degree: 16.0,
        mixing: 0.1,
        overlap: 0.0,
        gamma: 2.5,
    };
    let (g, labels) = labelled_sbm(&cfg, 77);
    let gw = WeightedGraph::from_unweighted(&g);
    let pipe = LightNe::new(LightNeConfig {
        dim: 24,
        window: 5,
        sample_ratio: 1.5,
        seed: 42,
        ..Default::default()
    });

    // Two runs in a row, same pool: byte-identical.
    let a1 = pipe.embed(&g);
    let a2 = pipe.embed(&g);
    assert_eq!(bits(&a1.embedding), bits(&a2.embedding), "embed not reproducible");

    let w1 = pipe.embed_weighted(&gw);
    let w2 = pipe.embed_weighted(&gw);
    assert_eq!(bits(&w1.embedding), bits(&w2.embedding), "embed_weighted not reproducible");

    // Thread sweep: 1 worker vs 4 workers must give the same bytes. The
    // earlier runs above used the default pool (one worker per core).
    assert_eq!(configure_threads(1), 1);
    let s1 = pipe.embed(&g);
    let sw1 = pipe.embed_weighted(&gw);
    assert_eq!(configure_threads(4), 4);
    let s4 = pipe.embed(&g);
    let sw4 = pipe.embed_weighted(&gw);

    assert_eq!(bits(&s1.embedding), bits(&s4.embedding), "embed differs across thread counts");
    assert_eq!(
        bits(&sw1.embedding),
        bits(&sw4.embedding),
        "embed_weighted differs across thread counts"
    );
    // And both match the default-pool runs.
    assert_eq!(bits(&a1.embedding), bits(&s1.embedding), "embed differs from default pool");
    assert_eq!(
        bits(&w1.embedding),
        bits(&sw1.embedding),
        "embed_weighted differs from default pool"
    );

    // Seeded evaluation splits are part of the determinism contract too:
    // the train/held-out edge split and the labelled-vertex split must be
    // bitwise identical across thread counts AND across graph backends
    // (CSR and every codec visit neighbours in the same ascending order).
    let byte = V2Graph::from_graph(&g, Codec::Byte);
    let arice = V2Graph::from_graph(&g, Codec::RiceAdaptive);
    let (ref_train, ref_held) = split_edges(&g, 0.2, 91);
    let ref_labels = train_test_split(&labels, 0.5, 91);
    assert!(!ref_held.is_empty(), "holdout split is vacuous");
    for threads in [1usize, 2, 8] {
        assert_eq!(configure_threads(threads), threads);
        for (name, split) in [
            ("csr", split_edges(&g, 0.2, 91)),
            ("byte", split_edges(&byte, 0.2, 91)),
            ("arice", split_edges(&arice, 0.2, 91)),
        ] {
            assert_eq!(split.0, ref_train, "{name} train graph differs at {threads} threads");
            assert_eq!(split.1, ref_held, "{name} held-out edges differ at {threads} threads");
        }
        assert_eq!(
            train_test_split(&labels, 0.5, 91),
            ref_labels,
            "label split differs at {threads} threads"
        );
    }
}
