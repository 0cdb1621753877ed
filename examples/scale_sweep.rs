//! Scalability sweep — the "Lightweight" claim in miniature.
//!
//! ```text
//! cargo run --release --example scale_sweep
//! ```
//!
//! Runs the full LightNE pipeline on successively larger R-MAT graphs
//! (the paper's very-large-graph family) with compressed and uncompressed
//! representations, printing runtime, stage breakdown and the memory of
//! graph + sparsifier — the quantities that let the paper fit a 124B-edge
//! graph into 1.5 TB.

use lightne::core::{LightNe, LightNeConfig};
use lightne::gen::generators::{rmat, RmatParams};
use lightne::graph::{Codec, V2Graph};
use lightne::utils::mem::{human_bytes, MemUsage};
use std::time::Instant;

fn main() {
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>10} {:>12}",
        "scale", "edges", "graph raw", "compressed", "time", "sparsifier"
    );
    for scale in [12u32, 14, 16] {
        let m = (1usize << scale) * 16;
        let g = rmat(scale, m, RmatParams::default(), 5);
        let cg = V2Graph::from_graph(&g, Codec::Byte);

        let cfg = LightNeConfig {
            dim: 32,
            window: 5,
            sample_ratio: 1.0,
            propagation: None, // matches the paper's very-large-graph runs
            ..Default::default()
        };
        let start = Instant::now();
        let out = LightNe::new(cfg).embed(&cg);
        let elapsed = start.elapsed();

        println!(
            "{:>6} {:>10} {:>12} {:>12} {:>9.1}s {:>12}",
            format!("2^{scale}"),
            g.num_edges(),
            human_bytes(g.heap_bytes()),
            human_bytes(cg.heap_bytes()),
            elapsed.as_secs_f64(),
            human_bytes(out.sampler.aggregator_bytes)
        );
    }
    println!(
        "\ncompression should hold steady near 2-3x; runtime should scale ~linearly in edges."
    );
}
