//! Quickstart: embed a graph with LightNE in a dozen lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a small social-style graph, runs the full LightNE pipeline
//! (downsampled NetSMF sparsifier → randomized SVD → spectral
//! propagation) and prints the stage breakdown plus a few embedding rows.

use lightne::core::{LightNe, LightNeConfig};
use lightne::gen::generators::barabasi_albert;

fn main() {
    // 1. Get a graph. Any `lightne::graph::Graph` works — load one with
    //    `lightne::graph::io::read_edge_list`, or generate one:
    let graph = barabasi_albert(5_000, 8, 42);
    println!("graph: {} vertices, {} edges", graph.num_vertices(), graph.num_edges());

    // 2. Configure LightNE. `sample_ratio` is the paper's M = ratio·T·m.
    let config = LightNeConfig { dim: 32, window: 10, sample_ratio: 1.0, ..Default::default() };

    // 3. Embed.
    let output = LightNe::new(config).embed(&graph);

    // 4. Inspect the run: per-stage wall clock (the paper's Table 5 rows)
    //    and sampler statistics.
    println!("\nstage breakdown:\n{}", output.stats);
    println!(
        "\nsampler: {} trials, {} kept after downsampling, {} distinct entries",
        output.sampler.trials, output.sampler.kept, output.sampler.distinct_entries
    );
    println!("NetMF matrix non-zeros: {}", output.netmf_nnz);

    // 5. Use the embedding: one row per vertex.
    let x = &output.embedding;
    println!("\nembedding shape: {} x {}", x.rows(), x.cols());
    for v in 0..3 {
        let row: Vec<String> = x.row(v)[..6].iter().map(|f| format!("{f:+.3}")).collect();
        println!("vertex {v}: [{} ...]", row.join(", "));
    }
}
