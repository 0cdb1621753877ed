//! Integration tests for graph persistence: a graph must survive the text
//! round trip, vertex count included, and embed to identical results
//! afterwards. The container's round trips are `v2`'s unit tests and
//! `tests/graph_formats.rs`.

use lightne::core::{LightNe, LightNeConfig};
use lightne::gen::generators::chung_lu;
use lightne::graph::io::{read_edge_list, write_edge_list};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lightne_persist_{}_{name}", std::process::id()));
    p
}

#[test]
fn text_roundtrip_preserves_embedding() {
    let g = chung_lu(800, 8_000, 2.5, 1);
    let path = tmp("graph.txt");
    write_edge_list(&g, &path).unwrap();
    // No vertex-count hint: the header `write_edge_list` writes carries it.
    let g2 = read_edge_list(&path, 0).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(g, g2);

    let cfg = LightNeConfig { dim: 8, window: 3, sample_ratio: 1.0, ..Default::default() };
    let a = LightNe::new(cfg).embed(&g);
    let b = LightNe::new(cfg).embed(&g2);
    assert!(a.embedding.max_abs_diff(&b.embedding) < 1e-6);
}
