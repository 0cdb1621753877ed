//! Extension experiments (beyond the paper's evaluation):
//!
//! 1. **Spectral gaps of the workload profiles** — the Theorem 3.2
//!    precondition for degree-based downsampling, measured per dataset
//!    (the paper cites BlogCatalog's gap ≈ 0.43 as justification).
//! 2. **Clustering probe** — k-means/NMI of LightNE vs ProNE+ embeddings
//!    on community workloads.
//! 3. **Dynamic embedding** — incremental refresh vs full rebuild as
//!    edges stream in (the paper's stated future work).

use lightne_baselines::{ProNe, ProNeConfig};
use lightne_bench::harness::{header, timed, Args};
use lightne_core::spectral::estimate_spectral_gap;
use lightne_core::{DynamicLightNe, LightNe, LightNeConfig};
use lightne_eval::classify::evaluate_node_classification;
use lightne_eval::clustering::{kmeans, nmi};
use lightne_gen::profiles::Profile;

fn main() {
    let args = Args::from_env(0.0001, 32);

    header("spectral gaps of the dataset profiles (Theorem 3.2 precondition)");
    println!("{:<18} {:>9} {:>9}", "profile", "lambda2", "gap");
    for p in [
        Profile::BlogCatalog,
        Profile::YouTube,
        Profile::LiveJournal,
        Profile::Oag,
        Profile::ClueWebSym,
    ] {
        let scale = match p {
            Profile::BlogCatalog => 0.3,
            Profile::ClueWebSym => args.scale / 10.0,
            _ => args.scale * 20.0,
        };
        let d = p.generate(scale, args.seed);
        let s = estimate_spectral_gap(&d.graph, 150, args.seed);
        println!("{:<18} {:>9.3} {:>9.3}", d.name, s.lambda2, s.gap);
    }
    println!("(paper: BlogCatalog ≈ 0.43; disconnected graphs report ~0)");

    header("clustering probe: k-means NMI on OAG-like communities");
    let data = Profile::Oag.generate(args.scale, args.seed);
    let labels = data.labels.as_ref().unwrap();
    let truth: Vec<u32> = (0..data.graph.num_vertices()).map(|v| labels.of(v)[0] as u32).collect();
    let k = labels.num_labels();
    for (name, emb) in [
        (
            "LightNE (2Tm)",
            LightNe::new(LightNeConfig {
                dim: args.dim,
                window: 10,
                sample_ratio: 2.0,
                ..Default::default()
            })
            .embed(&data.graph)
            .embedding,
        ),
        (
            "ProNE+",
            ProNe::new(ProNeConfig { dim: args.dim, ..Default::default() })
                .embed(&data.graph)
                .embedding,
        ),
    ] {
        let clusters = kmeans(&emb, k, 60, args.seed + 1);
        println!("{:<14} NMI {:.3}", name, nmi(&clusters.assignment, &truth));
    }

    header("dynamic embedding: incremental refresh vs full rebuild");
    let data = Profile::Oag.generate(args.scale, args.seed + 2);
    let labels = data.labels.as_ref().unwrap();
    let mut edges = Vec::new();
    for u in 0..data.graph.num_vertices() as u32 {
        for &v in data.graph.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    let cfg = LightNeConfig { dim: args.dim, window: 5, sample_ratio: 2.0, ..Default::default() };
    let mut dyn_ne = DynamicLightNe::new(data.graph.num_vertices(), cfg);
    let bootstrap = edges.len() * 7 / 10;
    dyn_ne.insert_edges(&edges[..bootstrap]);

    println!(
        "{:>6} {:>9} {:>11} {:>9} {:>11} {:>9}",
        "batch", "edges", "incr time", "incr F1", "full time", "full F1"
    );
    for (i, batch) in edges[bootstrap..].chunks(edges.len() / 10).enumerate() {
        let (stats, t_ins) = timed(|| dyn_ne.insert_edges(batch));
        let (inc, t_inc) = timed(|| dyn_ne.reembed());
        let (full, t_full) = timed(|| dyn_ne.full_rebuild());
        let f_inc = evaluate_node_classification(&inc.embedding, labels, 0.1, 9);
        let f_full = evaluate_node_classification(&full.embedding, labels, 0.1, 9);
        println!(
            "{:>6} {:>9} {:>10.2}s {:>9.2} {:>10.2}s {:>9.2}   (+{} samples in {:.2}s)",
            i + 1,
            dyn_ne.num_edges(),
            t_inc.as_secs_f64(),
            f_inc.micro,
            t_full.as_secs_f64(),
            f_full.micro,
            stats.trials,
            t_ins.as_secs_f64(),
        );
    }
    println!("\nincremental refresh re-samples only new edges; F1 should track the rebuild.");
}
