//! Graph serialization: text edge lists.
//!
//! The text format is the de-facto standard of the network-embedding
//! literature (one `u v` pair per line, `#` comments). The one binary graph
//! file is the compressed container ([`crate::v2`], `.lng2`); the raw CSR
//! dump earlier builds wrote is retired, and [`reject_retired_format`]
//! refuses its extension instead of misreading the file.

use crate::{Graph, GraphBuilder, VertexId};
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Extension of the retired binary CSR dump.
const RETIRED_BINARY_EXTENSION: &str = "lne";

/// Errors produced by graph I/O.
#[derive(Debug)]
pub enum GraphIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line in a text edge list (line number, content).
    Parse(usize, String),
    /// The weights at this vertex, each finite on its own line, merge
    /// (duplicate edges are summed) or accumulate past the `f32` range.
    WeightOverflow(VertexId),
    /// A text edge list names vertex id `u32::MAX` (line number, id): the
    /// vertex count `id + 1` does not fit the `u32` id space.
    IdSpace(usize, VertexId),
    /// The path names the retired binary CSR dump, which this build
    /// neither reads nor writes.
    RetiredBinaryFormat,
}

impl fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "i/o error: {e}"),
            GraphIoError::Parse(line, text) => write!(f, "parse error on line {line}: {text:?}"),
            GraphIoError::WeightOverflow(v) => {
                write!(f, "edge weights at vertex {v} sum past the f32 range")
            }
            GraphIoError::IdSpace(line, id) => write!(
                f,
                "vertex id {id} on line {line} leaves no room for the vertex count \
                 (ids must be below {})",
                VertexId::MAX
            ),
            GraphIoError::RetiredBinaryFormat => write!(
                f,
                "the binary CSR graph format (.{RETIRED_BINARY_EXTENSION}) is retired; write a \
                 .lng2 container or a text edge list instead (`lightne generate --out g.lng2` \
                 or `--out g.txt`)"
            ),
        }
    }
}

impl std::error::Error for GraphIoError {}

impl From<io::Error> for GraphIoError {
    fn from(e: io::Error) -> Self {
        GraphIoError::Io(e)
    }
}

/// Fails on a path with the retired binary CSR dump's extension: such a
/// file is neither a container nor a text list, and a reader that took it
/// for one would report garbage.
pub fn reject_retired_format(path: impl AsRef<Path>) -> Result<(), GraphIoError> {
    match path.as_ref().extension() {
        Some(ext) if ext == RETIRED_BINARY_EXTENSION => Err(GraphIoError::RetiredBinaryFormat),
        _ => Ok(()),
    }
}

/// The first line [`write_edge_list`] writes, up to the vertex count.
const HEADER_PREFIX: &str = "# lightne edge list: n=";

/// The vertex count a `# lightne edge list: n=N m=M` line declares;
/// `None` for any other line, a count past the `u32` id space included,
/// which stays a comment.
fn declared_vertices(line: &str) -> Option<usize> {
    let (n, m) = line.strip_prefix(HEADER_PREFIX)?.split_once(" m=")?;
    m.parse::<u64>().ok()?;
    n.parse::<VertexId>().ok().map(|n| n as usize)
}

/// Rejects the one `u32` id that leaves no room for the vertex count.
fn check_id_space(line: usize, id: VertexId) -> Result<VertexId, GraphIoError> {
    if id == VertexId::MAX {
        return Err(GraphIoError::IdSpace(line, id));
    }
    Ok(id)
}

/// The line loop of both text readers: skips blank lines and lines
/// starting with `#` or `%`, parses the first two fields as vertex ids
/// below `u32::MAX`, and makes each line's edge with `edge` from the ids
/// and the remaining fields (`None` is a parse error of the line).
/// Returns the vertex count — the largest of `max id + 1`, `min_vertices`
/// and the count a [`write_edge_list`] header declares, and at least 1 —
/// and the edges in file order.
fn read_edge_lines<E>(
    path: impl AsRef<Path>,
    min_vertices: usize,
    edge: impl Fn(VertexId, VertexId, &mut std::str::SplitWhitespace<'_>) -> Option<E>,
) -> Result<(usize, Vec<E>), GraphIoError> {
    let file = File::open(path)?;
    let reader = BufReader::with_capacity(1 << 20, file);
    let mut edges = Vec::new();
    let mut n = min_vertices.max(1);
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if let Some(declared) = declared_vertices(t) {
            n = n.max(declared);
            continue;
        }
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let bad_line = || GraphIoError::Parse(lineno + 1, t.to_string());
        let parse = |s: Option<&str>| -> Result<VertexId, GraphIoError> {
            let id = s.and_then(|x| x.parse::<VertexId>().ok()).ok_or_else(bad_line)?;
            check_id_space(lineno + 1, id)
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        edges.push(edge(u, v, &mut it).ok_or_else(bad_line)?);
        n = n.max(u.max(v) as usize + 1);
    }
    Ok((n, edges))
}

/// Reads a whitespace-separated edge list. Lines starting with `#` or `%`
/// are comments; blank lines are skipped. Vertex ids must be below
/// `u32::MAX`, so that the vertex count fits the `u32` id space.
/// The number of vertices is `max id + 1` unless `min_vertices`, or the
/// `n` of a [`write_edge_list`] header, is larger.
pub fn read_edge_list(path: impl AsRef<Path>, min_vertices: usize) -> Result<Graph, GraphIoError> {
    let (n, edges) = read_edge_lines(path, min_vertices, |u, v, _| Some((u, v)))?;
    Ok(GraphBuilder::from_edges(n, &edges))
}

/// Reads a weighted edge list (`u v w` per line; `w` optional and
/// defaulting to 1.0, so unweighted files load too). Comments as in
/// [`read_edge_list`]. Weights must be positive and finite, and stay
/// finite once duplicate edges are summed and a vertex's are totalled.
pub fn read_weighted_edge_list(
    path: impl AsRef<Path>,
    min_vertices: usize,
) -> Result<crate::WeightedGraph, GraphIoError> {
    let (n, edges) = read_edge_lines(path, min_vertices, |u, v, rest| {
        let w = match rest.next() {
            None => 1.0,
            Some(s) => s.parse::<f32>().ok().filter(|w| *w > 0.0 && w.is_finite())?,
        };
        Some((u, v, w))
    })?;
    let g = crate::WeightedGraph::from_edges(n, &edges);
    match g.overflowing_vertex() {
        Some(v) => Err(GraphIoError::WeightOverflow(v)),
        None => Ok(g),
    }
}

/// Writes the graph as a text edge list, one undirected edge per line
/// (each edge emitted once, with `u < v`), after a `# lightne edge list:
/// n=N m=M` header: the readers take `N` as the vertex count, so trailing
/// isolated vertices survive the round trip.
pub fn write_edge_list(g: &Graph, path: impl AsRef<Path>) -> Result<(), GraphIoError> {
    let mut w = BufWriter::with_capacity(1 << 20, File::create(path)?);
    writeln!(w, "# lightne edge list: n={} m={}", g.num_vertices(), g.num_edges())?;
    for u in 0..g.num_vertices() as VertexId {
        for &v in g.neighbors(u) {
            if u < v {
                writeln!(w, "{u} {v}")?;
            }
        }
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lightne_io_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        let p = tmp("roundtrip.txt");
        write_edge_list(&g, &p).unwrap();
        let g2 = read_edge_list(&p, 6).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn edge_list_header_keeps_trailing_isolated_vertices() {
        // Vertices 3 and 4 are isolated: only the header's `n` numbers them.
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2)]);
        let p = tmp("isolated.txt");
        write_edge_list(&g, &p).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.starts_with("# lightne edge list: n=5 m=2\n"), "{text}");
        assert_eq!(read_edge_list(&p, 0).unwrap(), g);
        assert_eq!(read_weighted_edge_list(&p, 0).unwrap().num_vertices(), 5);
        // The header is one lower bound of three: ids and `min_vertices`
        // past it still count, and any other comment stays a comment.
        for (body, min_vertices, n) in [
            ("# lightne edge list: n=5 m=1\n0 7\n", 0, 8),
            ("# lightne edge list: n=5 m=1\n0 1\n", 9, 9),
            ("# lightne edge list: n=5\n0 1\n", 0, 2),
            ("# lightne edge list: n=5 m=x\n0 1\n", 0, 2),
            ("# lightne edge list: n=4294967296 m=1\n0 1\n", 0, 2),
            ("# n=5 m=1\n0 1\n", 0, 2),
        ] {
            std::fs::write(&p, body).unwrap();
            assert_eq!(read_edge_list(&p, min_vertices).unwrap().num_vertices(), n, "{body:?}");
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn the_retired_binary_extension_is_a_typed_error() {
        for path in ["g.lne", "data/graph.lne"] {
            let err = reject_retired_format(path).unwrap_err();
            assert!(matches!(err, GraphIoError::RetiredBinaryFormat), "{path}");
            let msg = err.to_string();
            assert!(msg.contains("retired") && msg.contains(".lng2"), "{msg}");
        }
        for path in ["g.lng2", "g.txt", "g", "g.lne.labels", "lne"] {
            reject_retired_format(path).unwrap();
        }
    }

    #[test]
    fn edge_list_skips_comments_and_blank_lines() {
        let p = tmp("comments.txt");
        let mut f = File::create(&p).unwrap();
        writeln!(f, "# header\n\n0 1\n% other comment\n1 2").unwrap();
        drop(f);
        let g = read_edge_list(&p, 0).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let p = tmp("garbage.txt");
        std::fs::write(&p, "0 1\nfoo bar\n").unwrap();
        match read_edge_list(&p, 0) {
            Err(GraphIoError::Parse(2, _)) => {}
            other => panic!("expected parse error on line 2, got {other:?}"),
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn weighted_edge_list_parses_weights_and_defaults() {
        let p = tmp("weighted.txt");
        std::fs::write(&p, "# header\n0 1 2.5\n1 2\n").unwrap();
        let g = read_weighted_edge_list(&p, 0).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(g.edge_weight(0, 1), 2.5);
        assert_eq!(g.edge_weight(1, 2), 1.0);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn weighted_edge_list_rejects_bad_weight() {
        let p = tmp("badw.txt");
        std::fs::write(&p, "0 1 -3\n").unwrap();
        assert!(matches!(read_weighted_edge_list(&p, 0), Err(GraphIoError::Parse(1, _))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn weighted_edge_list_rejects_weights_that_merge_to_infinity() {
        let p = tmp("mergeinf.txt");
        std::fs::write(&p, "0 1 3e38\n0 1 3e38\n").unwrap();
        assert!(matches!(read_weighted_edge_list(&p, 0), Err(GraphIoError::WeightOverflow(0))));
        // Distinct finite edges whose running total overflows are caught too.
        std::fs::write(&p, "0 1 3e38\n0 2 3e38\n").unwrap();
        assert!(matches!(read_weighted_edge_list(&p, 0), Err(GraphIoError::WeightOverflow(0))));
        std::fs::remove_file(&p).ok();
    }
}
