//! Cross-crate integration tests: the full embed→evaluate loop, spanning
//! generator, graph substrate, sparsifier, linear algebra, pipeline and
//! evaluation harness.

use lightne::baselines::{ProNe, ProNeConfig};
use lightne::core::{LightNe, LightNeConfig};
use lightne::eval::classify::evaluate_node_classification;
use lightne::gen::profiles::Profile;
use lightne::gen::sbm::{labelled_sbm, SbmConfig};
use lightne::graph::{Codec, V2Graph};
use lightne::linalg::DenseMatrix;

fn small_labelled() -> (lightne::graph::Graph, lightne::gen::Labels) {
    let cfg = SbmConfig {
        n: 1200,
        communities: 6,
        avg_degree: 24.0,
        mixing: 0.08,
        overlap: 0.1,
        gamma: 2.5,
    };
    labelled_sbm(&cfg, 2024)
}

#[test]
fn lightne_classification_beats_chance_by_wide_margin() {
    let (g, labels) = small_labelled();
    let out = LightNe::new(LightNeConfig {
        dim: 32,
        window: 10,
        sample_ratio: 3.0,
        ..Default::default()
    })
    .embed(&g);
    let f1 = evaluate_node_classification(&out.embedding, &labels, 0.3, 7);

    // Chance baseline: random embedding through the same classifier.
    let random = DenseMatrix::gaussian(g.num_vertices(), 32, 99);
    let chance = evaluate_node_classification(&random, &labels, 0.3, 7);

    assert!(
        f1.micro > chance.micro + 20.0,
        "LightNE micro {} vs chance {}",
        f1.micro,
        chance.micro
    );
    assert!(f1.macro_ > chance.macro_ + 10.0);
}

#[test]
fn propagation_does_not_hurt_classification() {
    // Table 4's qualitative claim: propagation enhances the NetSMF
    // embedding (LightNE > raw factorization on classification).
    let (g, labels) = small_labelled();
    let out = LightNe::new(LightNeConfig {
        dim: 32,
        window: 10,
        sample_ratio: 1.0,
        ..Default::default()
    })
    .embed(&g);
    let with = evaluate_node_classification(&out.embedding, &labels, 0.3, 3);
    let without = evaluate_node_classification(out.initial(), &labels, 0.3, 3);
    assert!(
        with.micro >= without.micro - 2.0,
        "propagation degraded micro-F1: {} -> {}",
        without.micro,
        with.micro
    );
}

#[test]
fn compressed_pipeline_is_bit_compatible() {
    let (g, _) = small_labelled();
    let cg = V2Graph::from_graph(&g, Codec::Byte);
    let cfg = LightNeConfig { dim: 16, window: 5, sample_ratio: 1.0, ..Default::default() };
    let a = LightNe::new(cfg).embed(&g);
    let b = LightNe::new(cfg).embed(&cg);
    assert!(
        a.embedding.max_abs_diff(&b.embedding) < 1e-4,
        "representations disagree: {}",
        a.embedding.max_abs_diff(&b.embedding)
    );
    assert_eq!(a.sampler.trials, b.sampler.trials);
    assert_eq!(a.sampler.kept, b.sampler.kept);
}

#[test]
fn peak_stage_heap_stays_within_the_committed_budget() {
    // The §5.2.4 ablation point on the tiny OAG profile. The peak is the
    // sparsifier table's exact capacity (⌈distinct guess / 0.7⌉ slots of
    // 16 B) plus the graph, deterministic in the seed: 5 856 424 B since
    // the table keeps one slot per unordered pair (11 496 408 B with one
    // per ordered pair, 16 993 592 B with power-of-two slot arrays). The
    // budget holds it with less than 2× to spare, so a table that doubles
    // fails.
    const BUDGET: usize = 8 << 20;
    let g = Profile::Oag.generate(0.000035, 42).graph;
    let base = LightNeConfig { dim: 32, window: 5, sample_ratio: 2.0, ..Default::default() };
    let peak = |downsample| {
        let out = LightNe::new(LightNeConfig { downsample, ..base }).embed(&g);
        out.stats.stages.iter().map(|s| s.heap_bytes).max().unwrap()
    };
    let peak = peak(false).max(peak(true));
    assert!(peak <= BUDGET, "peak stage heap {peak} bytes exceeds the {BUDGET}-byte budget");
    assert!(peak > BUDGET / 2, "peak stage heap {peak} bytes: halve the budget so it still binds");
}

#[test]
fn lightne_more_samples_never_much_worse() {
    // Figure 2's monotone trade-off, coarse version: 10x the samples must
    // not lose more than noise-level accuracy.
    let (g, labels) = small_labelled();
    let run = |ratio: f64| {
        let out = LightNe::new(LightNeConfig {
            dim: 32,
            window: 10,
            sample_ratio: ratio,
            ..Default::default()
        })
        .embed(&g);
        evaluate_node_classification(&out.embedding, &labels, 0.3, 11).micro
    };
    let lo = run(0.2);
    let hi = run(4.0);
    assert!(hi > lo - 3.0, "more samples much worse: {lo} -> {hi}");
}

#[test]
fn prone_and_lightne_share_propagation_quality_band() {
    // LightNE-Small vs ProNE+ (Table 4): comparable, LightNE usually a
    // touch better. Allow a small tolerance in either direction — the
    // assertion is that both land in the same band, far above chance.
    let (g, labels) = small_labelled();
    let ln = LightNe::new(LightNeConfig {
        dim: 32,
        window: 10,
        sample_ratio: 0.5,
        ..Default::default()
    })
    .embed(&g);
    let pr = ProNe::new(ProNeConfig { dim: 32, ..Default::default() }).embed(&g);
    let f_ln = evaluate_node_classification(&ln.embedding, &labels, 0.3, 5);
    let f_pr = evaluate_node_classification(&pr.embedding, &labels, 0.3, 5);
    assert!(f_ln.micro > 50.0 && f_pr.micro > 50.0, "ln {} pr {}", f_ln.micro, f_pr.micro);
    assert!(
        (f_ln.micro - f_pr.micro).abs() < 25.0,
        "suspicious gap: LightNE {} vs ProNE+ {}",
        f_ln.micro,
        f_pr.micro
    );
}
