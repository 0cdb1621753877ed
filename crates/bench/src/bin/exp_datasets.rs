//! Table 3 (dataset statistics) and Table 2 (hardware/pricing).
//!
//! Prints the synthetic analogue generated for each of the paper's nine
//! datasets next to the original's statistics, plus the Azure pricing
//! table the cost model uses.
//!
//! ```text
//! cargo run --release -p lightne-bench --bin exp_datasets -- --scale 0.001
//! ```

use lightne_bench::harness::{header, Args};
use lightne_eval::cost::CostModel;
use lightne_gen::profiles::Profile;

fn main() {
    let args = Args::from_env(0.001, 32);

    header("Table 2: hardware configurations and Azure pricing");
    print!("{}", CostModel::table2());

    header(&format!("Table 3: dataset statistics (synthetic analogues at scale {})", args.scale));
    for p in Profile::ALL {
        // The very large profiles get an extra 10x reduction so the
        // default invocation stays fast on small machines.
        let scale = match p {
            Profile::ClueWebSym | Profile::Hyperlink2014Sym => args.scale / 10.0,
            _ => args.scale,
        };
        let d = p.generate(scale, args.seed);
        println!("{}", d.stats_row());
        if let Some(labels) = &d.labels {
            println!(
                "{:<18} classes={} mean labels/vertex={:.2}",
                "",
                labels.num_labels(),
                labels.mean_labels()
            );
        }
    }
}
