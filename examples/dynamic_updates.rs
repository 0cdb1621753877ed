//! Dynamic re-embedding — the paper's future-work scenario.
//!
//! ```text
//! cargo run --release --example dynamic_updates
//! ```
//!
//! Simulates the Alibaba/LinkedIn loop from the paper's introduction:
//! edges arrive in batches, and the embedding must be refreshed after
//! each batch. `DynamicLightNe` keeps the sparsifier hash table alive
//! across batches, samples only the new edges, and re-runs just the
//! factorization — compare its cost and quality against a full rebuild.

use lightne::core::{DynamicLightNe, LightNeConfig};
use lightne::eval::classify::evaluate_node_classification;
use lightne::gen::sbm::{labelled_sbm, SbmConfig};
use std::time::Instant;

fn main() {
    // Ground-truth graph whose edges will "arrive" over time.
    let cfg = SbmConfig {
        n: 3000,
        communities: 10,
        avg_degree: 24.0,
        mixing: 0.1,
        overlap: 0.15,
        gamma: 2.5,
    };
    let (graph, labels) = labelled_sbm(&cfg, 11);
    let mut edges = Vec::new();
    for u in 0..graph.num_vertices() as u32 {
        for &v in graph.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    println!("stream of {} edges over 5 batches (60% bootstrap + 4x10%)", edges.len());

    let ne_cfg = LightNeConfig { dim: 32, window: 5, sample_ratio: 2.0, ..Default::default() };
    let mut dyn_ne = DynamicLightNe::new(cfg.n, ne_cfg);

    let bootstrap = edges.len() * 6 / 10;
    dyn_ne.insert_edges(&edges[..bootstrap]);

    println!(
        "\n{:>6} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "batch", "edges", "incr time", "incr F1", "full time", "full F1"
    );
    let batch_size = edges.len() / 10;
    for (i, batch) in edges[bootstrap..].chunks(batch_size).enumerate() {
        dyn_ne.insert_edges(batch);

        #[expect(
            clippy::disallowed_methods,
            reason = "the example reports the incremental re-embed's wall-clock time"
        )]
        let t0 = Instant::now();
        let incremental = dyn_ne.reembed();
        let t_inc = t0.elapsed();

        #[expect(
            clippy::disallowed_methods,
            reason = "the example reports the full rebuild's wall-clock time"
        )]
        let t0 = Instant::now();
        let full = dyn_ne.full_rebuild();
        let t_full = t0.elapsed();

        let f_inc = evaluate_node_classification(&incremental.embedding, &labels, 0.3, 5);
        let f_full = evaluate_node_classification(&full.embedding, &labels, 0.3, 5);
        println!(
            "{:>6} {:>9} {:>11.2}s {:>12.2} {:>11.2}s {:>12.2}",
            i + 1,
            dyn_ne.num_edges(),
            t_inc.as_secs_f64(),
            f_inc.micro,
            t_full.as_secs_f64(),
            f_full.micro
        );
    }
    println!(
        "\nincremental refresh skips re-sampling old edges; quality should track the full rebuild."
    );
}
