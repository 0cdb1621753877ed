//! Section 5.2.4 — ablation on affordable sample size.
//!
//! The paper's accounting on OAG: NetSMF (per-thread buffers, no
//! downsampling) affords `8Tm` samples in 1.7 TB; switching to the shared
//! hash table raises the ceiling by 56.3% (to `12.5Tm` in 1.5 TB), and
//! downsampling adds another 60% (to `20Tm`). The mechanism: buffer
//! memory grows linearly with the sample count forever, while the hash
//! table's grows only until the distinct `T`-hop pairs saturate — so the
//! gap opens in the high-sample regime the paper operates in. We measure
//! both laws, report the affordable sample count under a fixed budget,
//! and quantify the (small) accuracy cost of downsampling at fixed `M`.
//!
//! Memory is *measured*, not computed from capacities: each point runs in
//! a child process of this binary (`--measure <samples> <ds> <buffers>`
//! before the usual flags), which generates the graph, resets the
//! kernel's peak-RSS record (`5` to `/proc/self/clear_refs`), samples
//! into the aggregator, and reports `VmHWM` minus the resident set at the
//! reset — the sampler's and its aggregator's peak bytes, growth copies
//! and all. Where the kernel refuses the reset, the figure is the whole
//! child's peak and the table says so.

use lightne_baselines::netsmf::ThreadLocalAggregator;
use lightne_bench::harness::{header, Args};
use lightne_core::{LightNe, LightNeConfig};
use lightne_eval::classify::evaluate_node_classification;
use lightne_gen::profiles::Profile;
use lightne_hash::ShardedEdgeTable;
use lightne_sparsifier::construct::{sample_into, SamplerConfig};
use lightne_utils::mem::human_bytes;
use std::process::Command;

const WINDOW: usize = 5;
const DEFAULT_SCALE: f64 = 0.000035;
const DEFAULT_DIM: usize = 32;

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse::<usize>().ok().map(|kb| kb * 1024)
}

/// The child's side: one sampling run into one aggregator, its peak bytes
/// printed on stdout as `<bytes> <reset: 0|1>`.
fn measure_here(args: &Args, samples: u64, downsample: bool, buffers: bool) {
    let g = Profile::Oag.generate(args.scale, args.seed).graph;
    let cfg = SamplerConfig {
        window: WINDOW,
        samples,
        downsample,
        seed: args.seed,
        ..Default::default()
    };
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    let before = if reset { status_bytes("VmRSS:").unwrap_or(0) } else { 0 };
    if buffers {
        let agg = ThreadLocalAggregator::new();
        sample_into(&g, &cfg, &agg).expect("sampling failed");
        std::hint::black_box(&agg);
    } else {
        let agg = ShardedEdgeTable::new(g.num_vertices(), 1, 1024);
        sample_into(&g, &cfg, &agg).expect("sampling failed");
        std::hint::black_box(&agg);
    }
    let peak = status_bytes("VmHWM:").expect("no VmHWM in /proc/self/status");
    println!("{} {}", peak.saturating_sub(before), u8::from(reset));
}

/// Peak bytes of one sampling run, measured in a fresh child process; and
/// whether the child could reset its peak.
fn measure(args: &Args, samples: u64, downsample: bool, buffers: bool) -> (usize, bool) {
    let exe = std::env::current_exe().expect("own executable");
    let out = Command::new(exe)
        .args(["--measure", &samples.to_string(), &downsample.to_string(), &buffers.to_string()])
        .args(["--scale", &args.scale.to_string(), "--seed", &args.seed.to_string()])
        .output()
        .expect("spawn the measuring child");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fields = text.split_whitespace();
    let parsed = (|| Some((fields.next()?.parse().ok()?, fields.next()? == "1")))();
    parsed.unwrap_or_else(|| {
        panic!("measuring child failed: {}", String::from_utf8_lossy(&out.stderr).trim())
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [first, samples, downsample, buffers, rest @ ..] = argv.as_slice() {
        if first == "--measure" {
            let args = Args::parse(rest, DEFAULT_SCALE, DEFAULT_DIM).expect("child arguments");
            let samples = samples.parse().expect("child sample count");
            measure_here(&args, samples, downsample == "true", buffers == "true");
            return;
        }
    }
    // Smaller, denser analogue: the contrast needs samples ≫ distinct
    // T-hop pairs, which the paper's billion-edge graphs satisfy
    // naturally and a scaled-down graph only reaches at high ratios.
    let args = Args::from_env(DEFAULT_SCALE, DEFAULT_DIM);
    let window = WINDOW;
    let data = Profile::Oag.generate(args.scale, args.seed);
    let g = &data.graph;
    let labels = data.labels.as_ref().unwrap();
    println!("{}", data.stats_row());
    let m = g.num_edges() as f64;
    let tm = (window as f64 * m) as u64;

    header("aggregation memory vs sample count (the §5.2.4 mechanism)");
    let mut whole_process = false;
    let mut peak = |samples, downsample, buffers| {
        let (bytes, reset) = measure(&args, samples, downsample, buffers);
        whole_process |= !reset;
        bytes
    };
    println!("measured peak resident bytes of sampling into each aggregator");
    println!(
        "{:<10} {:>22} {:>22} {:>22}",
        "M/Tm", "buffers,no-ds (NetSMF)", "table,no-ds", "table+ds (LightNE)"
    );
    for ratio in [4u64, 16, 64, 128] {
        let samples = ratio * tm;
        println!(
            "{:<10} {:>22} {:>22} {:>22}",
            ratio,
            human_bytes(peak(samples, false, true)),
            human_bytes(peak(samples, false, false)),
            human_bytes(peak(samples, true, false)),
        );
    }

    header("affordable samples under a fixed memory budget");
    let budget = peak(16 * tm, false, true);
    println!("budget = NetSMF buffer memory at 16Tm = {}", human_bytes(budget));
    for (name, downsample, buffers) in [
        ("NetSMF (buffers)", false, true),
        ("+ shared hash table", false, false),
        ("+ downsampling", true, false),
    ] {
        let mut affordable = 0u64;
        let mut ratio = 4u64;
        while ratio <= 1024 {
            if peak(ratio * tm, downsample, buffers) > budget {
                break;
            }
            affordable = ratio;
            ratio *= 2;
        }
        let label = if ratio > 1024 { format!("> {affordable}") } else { format!("{affordable}") };
        println!("{:<22} affords {:>6}Tm samples", name, label);
    }
    if whole_process {
        println!("(the kernel refused to reset the peak: figures are whole-process peaks)");
    }

    header("downsampling accuracy effect at fixed M (should be small)");
    for downsample in [false, true] {
        let out = LightNe::new(LightNeConfig {
            dim: args.dim,
            window,
            sample_ratio: 2.0,
            downsample,
            ..Default::default()
        })
        .embed(g);
        let f1 = evaluate_node_classification(&out.embedding, labels, 0.1, args.seed + 1);
        println!(
            "downsample={:<5}  micro {:>6.2}  macro {:>6.2}  kept {:>10}  distinct {:>9}",
            downsample, f1.micro, f1.macro_, out.sampler.kept, out.sampler.distinct_entries
        );
    }
}
