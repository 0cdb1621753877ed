//! Figure 3 — HITS@K vs number of samples on the very large graphs.
//!
//! On ClueWeb-Sym and Hyperlink2014-Sym the paper trains LightNE with
//! `T = 2`, `d = 32`, *no* spectral propagation (memory), holds out
//! 0.00001% of edges, and sweeps the sample count up to the 1.5 TB
//! ceiling; HITS@{1,10,50} rise monotonically with samples. We reproduce
//! the sweep on R-MAT analogues (holdout fraction scaled up so there are
//! enough positives to rank at laptop size).

use lightne_bench::harness::{fmt_time, header, timed, Args};
use lightne_core::{LightNe, LightNeConfig};
use lightne_eval::linkpred::{rank_held_out, split_edges};
use lightne_gen::profiles::Profile;

fn main() {
    let args = Args::from_env(0.00002, 32);

    for profile in [Profile::ClueWebSym, Profile::Hyperlink2014Sym] {
        let data = profile.generate(args.scale, args.seed);
        header(&format!("Figure 3: {} (T=2, d={}, no propagation)", data.name, args.dim));
        println!("{}", data.stats_row());
        let (train, held) = split_edges(&data.graph, 0.002, args.seed + 1);
        println!("held-out positives: {}", held.len());

        println!(
            "{:>10} {:>12} {:>9} {:>9} {:>9} {:>10}",
            "M/Tm", "samples", "HITS@1", "HITS@10", "HITS@50", "time"
        );
        for ratio in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let (out, t) = timed(|| {
                LightNe::new(LightNeConfig {
                    dim: args.dim,
                    window: 2,
                    sample_ratio: ratio,
                    propagation: None,
                    ..Default::default()
                })
                .embed(&train)
            });
            let m = rank_held_out(&out.embedding, &held, 100, &[1, 10, 50], args.seed + 2);
            println!(
                "{:>10} {:>12} {:>9.2} {:>9.2} {:>9.2} {:>10}",
                ratio,
                out.sampler.trials,
                100.0 * m.hits_at(1).unwrap(),
                100.0 * m.hits_at(10).unwrap(),
                100.0 * m.hits_at(50).unwrap(),
                fmt_time(t)
            );
        }
        println!("paper shape: all three HITS@K curves rise with the sample count");
    }
}
