//! Table 4 — NetSMF / ProNE+ / LightNE-Small / LightNE-Large on OAG.
//!
//! Paper's rows (Micro-F1 at 0.001/0.01/0.1/1% labels, then Macro-F1):
//!
//! ```text
//! NetSMF (M=8Tm)   22.4 h    30.43 31.66 35.77 38.88
//! ProNE+           21 min    23.56 29.32 31.17 31.46
//! LightNE-Small    20.9 min  23.89 30.23 32.16 32.35
//! LightNE-Large    1.53 h    44.50 52.89 54.98 55.23
//! ```
//!
//! Shape targets: LightNE-Large dominates everything; LightNE-Small edges
//! out ProNE+ at comparable time; NetSMF needs far more time for less
//! accuracy than LightNE-Large.
//!
//! The label ratios are scaled up (1–50%) because our synthetic OAG has
//! thousands, not 67M, of vertices; the paper's 0.001% of 67M ≈ 700
//! training points, and our 1% of ~7k is the same order.

use lightne_baselines::{NetSmf, NetSmfConfig, ProNe, ProNeConfig};
use lightne_bench::harness::{fmt_time, header, timed, Args};
use lightne_core::{LightNe, LightNeConfig};
use lightne_eval::classify::{evaluate_node_classification, F1Scores};
use lightne_gen::profiles::Profile;
use lightne_linalg::DenseMatrix;
use std::time::Duration;

fn eval_all(
    emb: &DenseMatrix,
    labels: &lightne_gen::Labels,
    ratios: &[f64],
    seed: u64,
) -> Vec<F1Scores> {
    ratios.iter().map(|&r| evaluate_node_classification(emb, labels, r, seed)).collect()
}

fn print_rows(title: &str, rows: &[(String, Duration, Vec<F1Scores>)], ratios: &[f64]) {
    header(title);
    print!("{:<16} {:>10}", "Method", "Time");
    for r in ratios {
        print!(" {:>7.1}%", 100.0 * r);
    }
    println!();
    for (name, time, scores) in rows {
        print!("{:<16} {:>10}", name, fmt_time(*time));
        for s in scores {
            print!(" {:>8.2}", s.micro);
        }
        println!("  (micro)");
        print!("{:<16} {:>10}", "", "");
        for s in scores {
            print!(" {:>8.2}", s.macro_);
        }
        println!("  (macro)");
    }
}

fn main() {
    let args = Args::from_env(0.0001, 32);
    let window = 10;
    let ratios = [0.01, 0.05, 0.10, 0.50];

    let data = Profile::Oag.generate(args.scale, args.seed);
    let labels = data.labels.as_ref().unwrap();
    println!("{}", data.stats_row());

    let mut rows: Vec<(String, Duration, Vec<F1Scores>)> = Vec::new();

    // NetSMF at the paper's maximum affordable M = 8Tm.
    let (netsmf, t) = timed(|| {
        NetSmf::new(NetSmfConfig { dim: args.dim, window, sample_ratio: 8.0, ..Default::default() })
            .embed(&data.graph)
    });
    rows.push((
        "NetSMF (M=8Tm)".into(),
        t,
        eval_all(&netsmf.embedding, labels, &ratios, args.seed + 1),
    ));

    // ProNE+.
    let (prone, t) = timed(|| {
        ProNe::new(ProNeConfig { dim: args.dim, ..Default::default() }).embed(&data.graph)
    });
    rows.push(("ProNE+".into(), t, eval_all(&prone.embedding, labels, &ratios, args.seed + 1)));

    // LightNE-Small (M = 0.1Tm) and LightNE-Large (M = 20Tm).
    for (name, ratio) in [("LightNE-Small", 0.1), ("LightNE-Large", 20.0)] {
        let (out, t) = timed(|| {
            LightNe::new(LightNeConfig {
                dim: args.dim,
                window,
                sample_ratio: ratio,
                ..Default::default()
            })
            .embed(&data.graph)
        });
        rows.push((name.into(), t, eval_all(&out.embedding, labels, &ratios, args.seed + 1)));
    }

    print_rows("Table 4: OAG node classification", &rows, &ratios);

    println!(
        "\npaper shape checks:\n\
         - LightNE-Large best accuracy across all ratios\n\
         - LightNE-Small ≈ ProNE+ time, slightly better accuracy\n\
         - NetSMF slower than LightNE-Large yet less accurate"
    );
}
