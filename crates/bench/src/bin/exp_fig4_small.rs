//! Figure 4 — predictive performance on the small graphs.
//!
//! BlogCatalog and YouTube, Micro/Macro-F1 as a function of the training
//! ratio, six methods: GraphVite and PBG (skip-gram SGD stand-ins at two
//! operating points), NetSMF, ProNE+, NRP (no-log factorization) and
//! LightNE. Paper shape: LightNE at or near the top everywhere, ProNE+
//! consistently below LightNE, NRP below the log-based factorizations.
//!
//! Profiles are scaled to ~1.5–2k vertices so the exact-NetMF-class
//! baselines remain tractable on one core; BlogCatalog's ratios (10–90%)
//! and YouTube's (1–10%) follow the paper's two panels.

use lightne_baselines::{
    nrp_embed, DeepWalk, DeepWalkConfig, NetSmf, NetSmfConfig, NrpConfig, ProNe, ProNeConfig,
};
use lightne_bench::harness::{header, Args};
use lightne_core::{LightNe, LightNeConfig};
use lightne_eval::classify::evaluate_node_classification;
use lightne_gen::profiles::Profile;
use lightne_linalg::DenseMatrix;

fn main() {
    let args = Args::from_env(0.15, 32);

    let panels: [(Profile, f64, Vec<f64>); 2] = [
        (Profile::BlogCatalog, args.scale, vec![0.1, 0.3, 0.5, 0.7, 0.9]),
        (Profile::YouTube, args.scale / 100.0, vec![0.02, 0.04, 0.06, 0.08, 0.10]),
    ];

    for (profile, scale, ratios) in panels {
        let data = profile.generate(scale, args.seed);
        let labels = data.labels.as_ref().unwrap();
        header(&format!("Figure 4: {} ({} vertices)", data.name, data.graph.num_vertices()));

        let window = 10;
        let methods: Vec<(&str, DenseMatrix)> = vec![
            (
                "GraphVite*",
                DeepWalk::new(DeepWalkConfig {
                    dim: args.dim,
                    walks_per_vertex: 10,
                    walk_length: 40,
                    window: 5,
                    negatives: 5,
                    epochs: 2,
                    lr: 0.05,
                    seed: args.seed,
                })
                .embed(&data.graph)
                .embedding,
            ),
            (
                "PBG*",
                // PBG's LiveJournal config is LINE-flavored: window 1.
                DeepWalk::new(DeepWalkConfig {
                    dim: args.dim,
                    walks_per_vertex: 10,
                    walk_length: 40,
                    window: 1,
                    negatives: 5,
                    epochs: 2,
                    lr: 0.05,
                    seed: args.seed,
                })
                .embed(&data.graph)
                .embedding,
            ),
            (
                "NetSMF",
                NetSmf::new(NetSmfConfig {
                    dim: args.dim,
                    window,
                    sample_ratio: 4.0,
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
            (
                "NRP",
                nrp_embed(
                    &data.graph,
                    &NrpConfig { dim: args.dim, window, sample_ratio: 4.0, seed: args.seed },
                ),
            ),
            (
                "LightNE",
                LightNe::new(LightNeConfig {
                    dim: args.dim,
                    window,
                    sample_ratio: 10.0,
                    ..Default::default()
                })
                .embed(&data.graph)
                .embedding,
            ),
        ];

        for metric in ["micro", "macro"] {
            println!("\n{metric}-F1 (%)");
            print!("{:<12}", "method");
            for r in &ratios {
                print!(" {:>7.0}%", 100.0 * r);
            }
            println!();
            for (name, emb) in &methods {
                print!("{name:<12}");
                for &r in &ratios {
                    let s = evaluate_node_classification(emb, labels, r, args.seed + 9);
                    let v = if metric == "micro" { s.micro } else { s.macro_ };
                    print!(" {v:>8.2}");
                }
                println!();
            }
        }
        println!(
            "\npaper shape: LightNE top-tier on both metrics; ProNE+ < LightNE;\n\
             NRP below log-based methods."
        );
    }
}
