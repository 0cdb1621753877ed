//! End-to-end byte-identity of the pipeline across graph representations.
//!
//! The whole pipeline is generic over [`lightne::graph::GraphAccess`], and
//! every sampling decision is keyed on arc indices — so the uncompressed
//! CSR and the compressed container under every codec family — the paper's
//! parallel-byte code (`byte`) and the bit-granular ones, heap-owned or
//! memory-mapped — must produce *bit-identical* embeddings. This
//! exercises the claim through the full pipeline (sampling, fused NetMF
//! drain, randomized SVD, spectral propagation) on two generator profiles
//! with different degree structure.
//!
//! Everything lives in ONE test function on purpose: all tests in a
//! binary share the global rayon pool, and byte-identity claims must not
//! race with a pool resize from a sibling test.

use lightne::core::pipeline::STAGE_SPARSIFIER;
use lightne::core::{LightNe, LightNeConfig};
use lightne::gen::profiles::Profile;
use lightne::graph::{Codec, V2Graph};

fn bits(m: &lightne::linalg::DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lightne_formats_{}_{name}", std::process::id()));
    p
}

#[test]
fn all_graph_representations_embed_bit_identically() {
    // Two profiles with different shapes: the scale-free OAG citation
    // analogue and the denser BlogCatalog social analogue.
    for (profile, scale) in [(Profile::Oag, 0.0001), (Profile::BlogCatalog, 0.02)] {
        let g = profile.generate(scale, 11).graph;
        let cfg =
            LightNeConfig { dim: 12, window: 4, sample_ratio: 1.5, seed: 9, ..Default::default() };

        let reference = LightNe::new(cfg).embed(&g);
        let want = bits(&reference.embedding);

        let graph_bytes = |o: &lightne::core::LightNeOutput| {
            o.stats.get(STAGE_SPARSIFIER).unwrap().counter("graph_bytes").unwrap()
        };
        // The stage with the largest heap, and that heap.
        let peak = |o: &lightne::core::LightNeOutput| {
            let s = o.stats.stages.iter().max_by_key(|s| s.heap_bytes).unwrap();
            (s.name.clone(), s.heap_bytes)
        };

        // Across codecs (the arena layout must not leak into the sampled
        // stream), each heap-owned and memory-mapped from disk: same
        // bytes, and zero resident heap for the mapped adjacency — which
        // the engine reports as stage heap, so the mapped run peaks lower.
        for codec in Codec::SWEEP {
            let name = codec.name();
            let path = tmp(&format!("{profile:?}_{name}.lng2"));
            V2Graph::write(&g, codec, 64, &path).unwrap();

            let owned = V2Graph::open(&path).unwrap();
            assert!(owned.resident_bytes() > 0);
            let out_owned = LightNe::new(cfg).embed(&owned);
            assert_eq!(want, bits(&out_owned.embedding), "{profile:?}: {name} diverges from CSR");
            assert_eq!(graph_bytes(&out_owned), owned.resident_bytes() as u64);

            let mapped = V2Graph::open_mmap(&path).unwrap();
            assert!(mapped.is_mapped());
            assert_eq!(mapped.resident_bytes(), 0);
            let out_mapped = LightNe::new(cfg).embed(&mapped);
            assert_eq!(
                want,
                bits(&out_mapped.embedding),
                "{profile:?}: mmap {name} diverges from CSR"
            );
            assert_eq!(graph_bytes(&out_mapped), 0, "mapped container must report no heap");
            // The point of out-of-core loading, given sparsify is the peak.
            let (owned_stage, owned_peak) = peak(&out_owned);
            assert_eq!(owned_stage, STAGE_SPARSIFIER, "{profile:?}/{name}: precondition");
            let (_, mapped_peak) = peak(&out_mapped);
            assert!(
                mapped_peak < owned_peak,
                "{profile:?}/{name}: mmap peak heap {mapped_peak} not below owned {owned_peak}"
            );
            std::fs::remove_file(&path).ok();
        }
        assert!(
            graph_bytes(&reference) >= (g.num_arcs() * 4) as u64,
            "CSR source must account for its neighbor array"
        );
    }
}
