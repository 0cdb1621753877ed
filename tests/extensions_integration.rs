//! Integration tests for the beyond-the-paper extensions: dynamic
//! embedding, weighted pipelines, spectral-gap estimation and the
//! clustering probe — exercised together the way a downstream user would.

use lightne::core::spectral::estimate_spectral_gap;
use lightne::core::{DynamicLightNe, LightNe, LightNeConfig};
use lightne::eval::clustering::{kmeans, nmi};
use lightne::gen::sbm::{labelled_sbm, SbmConfig};
use lightne::graph::WeightedGraph;

fn sbm(n: usize, k: usize, seed: u64) -> (lightne::graph::Graph, lightne::gen::Labels) {
    let cfg =
        SbmConfig { n, communities: k, avg_degree: 22.0, mixing: 0.06, overlap: 0.0, gamma: 2.5 };
    labelled_sbm(&cfg, seed)
}

#[test]
fn kmeans_on_lightne_embedding_recovers_communities() {
    let (g, labels) = sbm(900, 5, 1);
    let out = LightNe::new(LightNeConfig {
        dim: 16,
        window: 10,
        sample_ratio: 3.0,
        ..Default::default()
    })
    .embed(&g);

    let clusters = kmeans(&out.embedding, 5, 100, 2);
    let truth: Vec<u32> = (0..900).map(|v| labels.of(v)[0] as u32).collect();
    let score = nmi(&clusters.assignment, &truth);
    assert!(score > 0.7, "NMI {score} too low — embedding lost community structure");

    // Random embedding control: clustering noise scores near zero.
    let random = lightne::linalg::DenseMatrix::gaussian(900, 16, 3);
    let noise = kmeans(&random, 5, 100, 2);
    let noise_score = nmi(&noise.assignment, &truth);
    assert!(score > noise_score + 0.5, "no margin over noise: {score} vs {noise_score}");
}

#[test]
fn spectral_gap_tracks_community_mixing() {
    // Strong community structure *is* a small spectral gap (λ₂ near 1):
    // the community indicator eigendirections mix slowly. The estimator
    // must rank a well-mixed SBM far above a strongly-clustered one —
    // exactly the distinction a user needs before trusting Theorem 3.2's
    // degree-based downsampling bound.
    let make = |mixing: f64, seed: u64| {
        let cfg = SbmConfig {
            n: 800,
            communities: 4,
            avg_degree: 22.0,
            mixing,
            overlap: 0.0,
            gamma: 2.5,
        };
        labelled_sbm(&cfg, seed).0
    };
    let clustered = estimate_spectral_gap(&make(0.05, 4), 200, 5);
    let mixed = estimate_spectral_gap(&make(0.6, 4), 200, 5);
    assert!(
        mixed.gap > 3.0 * clustered.gap,
        "estimator failed to separate mixed (gap {}) from clustered (gap {})",
        mixed.gap,
        clustered.gap
    );
    assert!(clustered.gap > 0.0 && mixed.gap < 2.0);
}

#[test]
fn dynamic_embedder_tracks_quality_through_growth() {
    let (g, labels) = sbm(700, 5, 6);
    let mut edges = Vec::new();
    for u in 0..g.num_vertices() as u32 {
        for &v in g.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    let cfg = LightNeConfig { dim: 16, window: 5, sample_ratio: 2.0, ..Default::default() };
    let mut dyn_ne = DynamicLightNe::new(700, cfg);

    // Three growth phases; quality should improve (or hold) as the graph
    // completes.
    let cuts = [edges.len() / 2, edges.len() * 3 / 4, edges.len()];
    let mut prev_f1 = 0.0;
    let mut start = 0usize;
    for (phase, &cut) in cuts.iter().enumerate() {
        dyn_ne.insert_edges(&edges[start..cut]);
        start = cut;
        let out = dyn_ne.reembed();
        let f1 =
            lightne::eval::classify::evaluate_node_classification(&out.embedding, &labels, 0.3, 7);
        assert!(
            f1.micro > prev_f1 - 10.0,
            "phase {phase}: quality collapsed {prev_f1} -> {}",
            f1.micro
        );
        prev_f1 = f1.micro;
    }
    assert!(prev_f1 > 60.0, "final quality {prev_f1}");
}

#[test]
fn weighted_pipeline_uses_weights_not_just_topology() {
    // Random topology; the only community signal is in the weights.
    use lightne::utils::rng::XorShiftStream;
    let n = 400usize;
    let half = n / 2;
    let mut rng = XorShiftStream::new(8, 0);
    let mut edges: Vec<(u32, u32, f32)> = Vec::new();
    for _ in 0..n * 12 {
        let u = rng.bounded_usize(n) as u32;
        let v = rng.bounded_usize(n) as u32;
        if u != v {
            let same = (u as usize) / half == (v as usize) / half;
            edges.push((u, v, if same { 8.0 } else { 1.0 }));
        }
    }
    let g = WeightedGraph::from_edges(n, &edges);
    let out =
        LightNe::new(LightNeConfig { dim: 8, window: 5, sample_ratio: 5.0, ..Default::default() })
            .embed(&g);

    let truth: Vec<u32> = (0..n).map(|v| (v / half) as u32).collect();
    let clusters = kmeans(&out.embedding, 2, 100, 9);
    let score = nmi(&clusters.assignment, &truth);
    assert!(score > 0.6, "weighted signal not captured: NMI {score}");
}
