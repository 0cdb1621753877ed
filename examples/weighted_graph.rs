//! Weighted-graph embedding.
//!
//! ```text
//! cargo run --release --example weighted_graph
//! ```
//!
//! The paper's theory (Theorems 3.1–3.2) is stated for weighted
//! adjacency matrices; this example exercises the weighted pipeline:
//! weight-proportional PathSampling, weighted downsampling probabilities
//! and the weighted NetMF inversion. The graph is two communities whose
//! internal edges are 10× heavier than the noise between them — weights,
//! not topology, carry the signal.

use lightne::core::{LightNe, LightNeConfig};
use lightne::graph::WeightedGraph;
use lightne::utils::rng::XorShiftStream;

fn main() {
    let n = 600usize;
    let half = n / 2;
    let mut rng = XorShiftStream::new(21, 0);
    let mut edges: Vec<(u32, u32, f32)> = Vec::new();

    // Dense random topology everywhere (so the unweighted structure is
    // nearly uninformative)...
    for _ in 0..n * 10 {
        let u = rng.bounded_usize(n) as u32;
        let v = rng.bounded_usize(n) as u32;
        if u != v {
            // ...but intra-community edges are 10x heavier.
            let same = (u as usize) / half == (v as usize) / half;
            edges.push((u, v, if same { 10.0 } else { 1.0 }));
        }
    }
    let g = WeightedGraph::from_edges(n, &edges);
    println!(
        "weighted graph: {} vertices, {} edges, volume {:.0}",
        g.num_vertices(),
        g.num_edges(),
        g.volume()
    );

    let out =
        LightNe::new(LightNeConfig { dim: 16, window: 5, sample_ratio: 5.0, ..Default::default() })
            .embed(&g);
    println!("\nstage breakdown:\n{}", out.stats);

    // Measure separation between the two weight-defined communities.
    let y = &out.embedding;
    let dot =
        |a: &[f32], b: &[f32]| -> f64 { a.iter().zip(b).map(|(&p, &q)| p as f64 * q as f64).sum() };
    let (mut same, mut sn, mut diff, mut dn) = (0.0, 0usize, 0.0, 0usize);
    for i in (0..n).step_by(7) {
        for j in (1..n).step_by(11) {
            if i == j {
                continue;
            }
            let s = dot(y.row(i), y.row(j));
            if i / half == j / half {
                same += s;
                sn += 1;
            } else {
                diff += s;
                dn += 1;
            }
        }
    }
    println!(
        "\nmean cosine: same-community {:.3}, cross-community {:.3}",
        same / sn as f64,
        diff / dn as f64
    );
    println!("(the gap comes entirely from edge weights — topology alone is random)");
}
