//! Figure 2 — the efficiency-effectiveness trade-off curve of LightNE.
//!
//! The paper sweeps the sample count `M` from `0.1Tm` to `20Tm` on OAG and
//! plots runtime against Micro/Macro-F1 at two label ratios, showing
//! (a) a clean monotone trade-off and (b) that the curve Pareto-dominates
//! both ProNE+ and NetSMF. This binary prints the same series as CSV-ish
//! rows; baselines are included as reference points.

use lightne_baselines::{NetSmf, NetSmfConfig, ProNe, ProNeConfig};
use lightne_bench::harness::{header, timed, Args};
use lightne_core::{LightNe, LightNeConfig};
use lightne_eval::classify::evaluate_node_classification;
use lightne_gen::profiles::Profile;

fn main() {
    let args = Args::from_env(0.0001, 32);
    let window = 10;
    let ratios = [0.01, 0.10]; // scaled analogues of the paper's two panels

    let data = Profile::Oag.generate(args.scale, args.seed);
    let labels = data.labels.as_ref().unwrap();
    println!("{}", data.stats_row());

    header("Figure 2: LightNE sample-ratio sweep (time vs F1)");
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "series", "time_s", "micro@1%", "macro@1%", "micro@10%", "macro@10%"
    );

    for ratio in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0] {
        let (out, t) = timed(|| {
            LightNe::new(LightNeConfig {
                dim: args.dim,
                window,
                sample_ratio: ratio,
                ..Default::default()
            })
            .embed(&data.graph)
        });
        let s: Vec<_> = ratios
            .iter()
            .map(|&r| evaluate_node_classification(&out.embedding, labels, r, args.seed + 1))
            .collect();
        println!(
            "{:<14} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            format!("LightNE M={ratio}Tm"),
            t.as_secs_f64(),
            s[0].micro,
            s[0].macro_,
            s[1].micro,
            s[1].macro_
        );
    }

    // Baseline reference points.
    let (p, t) = timed(|| {
        ProNe::new(ProNeConfig { dim: args.dim, ..Default::default() }).embed(&data.graph)
    });
    let s: Vec<_> = ratios
        .iter()
        .map(|&r| evaluate_node_classification(&p.embedding, labels, r, args.seed + 1))
        .collect();
    println!(
        "{:<14} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
        "ProNE+",
        t.as_secs_f64(),
        s[0].micro,
        s[0].macro_,
        s[1].micro,
        s[1].macro_
    );

    for ratio in [1.0, 4.0, 8.0] {
        let (nf, t) = timed(|| {
            NetSmf::new(NetSmfConfig {
                dim: args.dim,
                window,
                sample_ratio: ratio,
                ..Default::default()
            })
            .embed(&data.graph)
        });
        let s: Vec<_> = ratios
            .iter()
            .map(|&r| evaluate_node_classification(&nf.embedding, labels, r, args.seed + 1))
            .collect();
        println!(
            "{:<14} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            format!("NetSMF M={ratio}Tm"),
            t.as_secs_f64(),
            s[0].micro,
            s[0].macro_,
            s[1].micro,
            s[1].macro_
        );
    }

    println!(
        "\npaper shape: LightNE's curve should be Pareto-optimal — for any\n\
         baseline point there is a LightNE configuration both faster and better."
    );
}
