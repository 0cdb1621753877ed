//! End-to-end byte-identity of the sharded data path.
//!
//! The sparsify→drain→CSR path must produce bit-identical embeddings at
//! every (threads, shards) combination — one shard is the paper's single
//! shared table, and the three facts behind the argument live in
//! `lightne_sparsifier::sharded`'s module docs. This exercises the claim
//! through the full pipeline: sampling, fused NetMF drain, randomized
//! SVD, and spectral propagation, for both an unweighted and a weighted
//! graph, and checks that every run — checkpointing or not — reports the
//! shard counters.
//!
//! Everything lives in ONE test function on purpose: all tests in a
//! binary share the global rayon pool, and this test resizes it
//! mid-flight.

use lightne::core::artifacts::{INITIAL_FILE, NETMF_FILE};
use lightne::core::pipeline::STAGE_SPARSIFIER;
use lightne::core::{LightNe, LightNeConfig, LightNeOutput, RunOptions};
use lightne::gen::generators::erdos_renyi;
use lightne::graph::WeightedGraph;
use lightne::utils::parallel::configure_threads;

fn bits(m: &lightne::linalg::DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// The sparsify stage surfaces its fill/resize counters; returns them.
fn shard_counters(out: &LightNeOutput, shards: usize) -> [u64; 3] {
    let sp = out.stats.get(STAGE_SPARSIFIER).unwrap();
    let n_shards = sp.counter("shards").expect("every run reports its shard count");
    assert!(n_shards >= 1);
    if shards != 0 {
        // Range rounding can merge trailing shards, never split.
        assert!(n_shards <= shards as u64, "{n_shards} > {shards}");
    }
    let resizes = sp.counter("shard_resizes").expect("every run reports shard resizes");
    let distinct_max = sp.counter("shard_distinct_max").unwrap();
    assert!(distinct_max >= 1);
    [n_shards, resizes, distinct_max]
}

#[test]
fn embeddings_are_bitwise_identical_at_every_thread_and_shard_count() {
    let g = erdos_renyi(400, 4_000, 2024);
    let gw = WeightedGraph::from_unweighted(&g);
    let base =
        LightNeConfig { dim: 16, window: 5, sample_ratio: 2.0, seed: 7, ..Default::default() };

    // Reference: one shard — the single shared table — on the default pool.
    let single = LightNe::new(LightNeConfig { shards: 1, ..base }).embed(&g);
    let single_w = LightNe::new(LightNeConfig { shards: 1, ..base }).embed(&gw);
    assert_eq!(shard_counters(&single, 1)[0], 1);

    let dir = std::env::temp_dir().join(format!("lightne_sharded_{}", std::process::id()));
    for threads in [1usize, 2, 8] {
        assert_eq!(configure_threads(threads), threads);
        for shards in [0usize, 1, 4, 32] {
            let engine = LightNe::new(LightNeConfig { shards, ..base });
            let out = engine.embed(&g);
            assert_eq!(
                bits(&single.embedding),
                bits(&out.embedding),
                "unweighted bytes diverge at threads={threads} shards={shards}"
            );

            // A checkpointing run is the same run: same bytes, same
            // counters (stage 1 fills the same table before saving it).
            std::fs::remove_dir_all(&dir).ok();
            let save = RunOptions { save_artifacts: Some(dir.clone()), ..Default::default() };
            let saved = engine.embed_with(&g, save).unwrap();
            assert_eq!(bits(&single.embedding), bits(&saved.embedding));
            assert_eq!(shard_counters(&out, shards), shard_counters(&saved, shards));

            // A run resumed from the sparsifier checkpoint reloads the
            // table and reports it too.
            std::fs::remove_file(dir.join(NETMF_FILE)).unwrap();
            std::fs::remove_file(dir.join(INITIAL_FILE)).unwrap();
            let resume = RunOptions { resume_from: Some(dir.clone()), ..Default::default() };
            let resumed = engine.embed_with(&g, resume).unwrap();
            assert_eq!(bits(&single.embedding), bits(&resumed.embedding));
            // (Same shards, same fill; only its resize history differs.)
            let (fresh, reloaded) =
                (shard_counters(&out, shards), shard_counters(&resumed, shards));
            assert_eq!((fresh[0], fresh[2]), (reloaded[0], reloaded[2]));
        }

        let out_w = LightNe::new(LightNeConfig { shards: 4, ..base }).embed(&gw);
        assert_eq!(
            bits(&single_w.embedding),
            bits(&out_w.embedding),
            "weighted bytes diverge at threads={threads}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
