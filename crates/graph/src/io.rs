//! Graph serialization: text edge lists and a binary CSR format.
//!
//! The text format is the de-facto standard of the network-embedding
//! literature (one `u v` pair per line, `#` comments); the binary format is
//! a direct dump of the CSR arrays with a magic header, so very large
//! generated graphs round-trip without re-parsing.

use crate::{Graph, GraphBuilder, VertexId};
use bytes::{Buf, BufMut};
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying the binary CSR format.
pub const BINARY_MAGIC: &[u8; 4] = b"LNE2";

/// Version of the binary CSR format this build reads and writes.
/// Version 2 added the version field itself and the payload checksum
/// (version-1 files, magic `LNE1`, are rejected with a bad-magic error).
pub const BINARY_VERSION: u32 = 2;

/// Errors produced by graph I/O.
#[derive(Debug)]
pub enum GraphIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line in a text edge list (line number, content).
    Parse(usize, String),
    /// Binary payload is malformed or truncated.
    Corrupt(&'static str),
    /// The binary header's format version is not supported by this build.
    BadVersion {
        /// The version found in the header.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The payload checksum recorded in the header does not match.
    ChecksumMismatch,
    /// The weights at this vertex, each finite on its own line, merge
    /// (duplicate edges are summed) or accumulate past the `f32` range.
    WeightOverflow(VertexId),
    /// A text edge list names vertex id `u32::MAX` (line number, id): the
    /// vertex count `id + 1` does not fit the `u32` id space.
    IdSpace(usize, VertexId),
}

impl fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "i/o error: {e}"),
            GraphIoError::Parse(line, text) => write!(f, "parse error on line {line}: {text:?}"),
            GraphIoError::Corrupt(what) => write!(f, "corrupt binary graph: {what}"),
            GraphIoError::BadVersion { found, supported } => {
                write!(f, "unsupported binary graph version {found} (this build reads {supported})")
            }
            GraphIoError::ChecksumMismatch => write!(f, "binary graph checksum mismatch"),
            GraphIoError::WeightOverflow(v) => {
                write!(f, "edge weights at vertex {v} sum past the f32 range")
            }
            GraphIoError::IdSpace(line, id) => write!(
                f,
                "vertex id {id} on line {line} leaves no room for the vertex count \
                 (ids must be below {})",
                VertexId::MAX
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

/// Rejects the one `u32` id that leaves no room for the vertex count.
fn check_id_space(line: usize, id: VertexId) -> Result<VertexId, GraphIoError> {
    if id == VertexId::MAX {
        return Err(GraphIoError::IdSpace(line, id));
    }
    Ok(id)
}

/// Reads a whitespace-separated edge list. Lines starting with `#` or `%`
/// are comments; blank lines are skipped. Vertex ids must be below
/// `u32::MAX`, so that the vertex count fits the `u32` id space.
/// The number of vertices is `max id + 1` unless `min_vertices` is larger.
pub fn read_edge_list(path: impl AsRef<Path>, min_vertices: usize) -> Result<Graph, GraphIoError> {
    let file = File::open(path)?;
    let reader = BufReader::with_capacity(1 << 20, file);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_id: usize = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>| -> Result<VertexId, GraphIoError> {
            let id = s
                .and_then(|x| x.parse::<VertexId>().ok())
                .ok_or_else(|| GraphIoError::Parse(lineno + 1, t.to_string()))?;
            check_id_space(lineno + 1, id)
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        max_id = max_id.max(u as usize).max(v as usize);
        edges.push((u, v));
    }
    let n = (max_id + 1).max(min_vertices).max(1);
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
    let file = File::open(path)?;
    let reader = BufReader::with_capacity(1 << 20, file);
    let mut edges: Vec<(VertexId, VertexId, f32)> = Vec::new();
    let mut max_id: usize = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse_v = |s: Option<&str>| -> Result<VertexId, GraphIoError> {
            let id = s
                .and_then(|x| x.parse::<VertexId>().ok())
                .ok_or_else(|| GraphIoError::Parse(lineno + 1, t.to_string()))?;
            check_id_space(lineno + 1, id)
        };
        let u = parse_v(it.next())?;
        let v = parse_v(it.next())?;
        let w = match it.next() {
            None => 1.0,
            Some(s) => s
                .parse::<f32>()
                .ok()
                .filter(|w| *w > 0.0 && w.is_finite())
                .ok_or_else(|| GraphIoError::Parse(lineno + 1, t.to_string()))?,
        };
        max_id = max_id.max(u as usize).max(v as usize);
        edges.push((u, v, w));
    }
    let n = (max_id + 1).max(min_vertices).max(1);
    let g = crate::WeightedGraph::from_edges(n, &edges);
    match g.overflowing_vertex() {
        Some(v) => Err(GraphIoError::WeightOverflow(v)),
        None => Ok(g),
    }
}

/// Writes the graph as a text edge list, one undirected edge per line
/// (each edge emitted once, with `u < v`).
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

/// Fixed binary header length: magic + version + n + arcs + checksum.
const BINARY_HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// Serializes the graph to the binary CSR format (header with magic,
/// version, and an FNV-1a-64 payload checksum, then the raw CSR arrays).
pub fn write_binary(g: &Graph, path: impl AsRef<Path>) -> Result<(), GraphIoError> {
    let mut payload = Vec::with_capacity(g.offsets().len() * 8 + g.num_arcs() * 4);
    for &o in g.offsets() {
        payload.put_u64_le(o);
    }
    for &v in g.neighbor_array() {
        payload.put_u32_le(v);
    }
    let mut buf = Vec::with_capacity(BINARY_HEADER_LEN + payload.len());
    buf.put_slice(BINARY_MAGIC);
    buf.put_u32_le(BINARY_VERSION);
    buf.put_u64_le(g.num_vertices() as u64);
    buf.put_u64_le(g.num_arcs() as u64);
    buf.put_u64_le(lightne_utils::checksum::fnv1a64(&payload));
    buf.extend_from_slice(&payload);
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Deserializes a graph from the binary CSR format.
///
/// Every field the header claims is validated before use — magic,
/// version, section lengths, the payload checksum, offset monotonicity,
/// neighbor ranges, and the [`Graph`] invariant that each neighbor list is
/// strictly ascending without a self-loop — so a corrupt, truncated or
/// hand-built file of any shape fails with a typed [`GraphIoError`]
/// rather than a panic.
pub fn read_binary(path: impl AsRef<Path>) -> Result<Graph, GraphIoError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    let mut buf = &raw[..];
    if buf.remaining() < BINARY_HEADER_LEN {
        return Err(GraphIoError::Corrupt("header too short"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != BINARY_MAGIC {
        return Err(GraphIoError::Corrupt("bad magic"));
    }
    let version = buf.get_u32_le();
    if version != BINARY_VERSION {
        return Err(GraphIoError::BadVersion { found: version, supported: BINARY_VERSION });
    }
    let n = buf.get_u64_le();
    let arcs = buf.get_u64_le();
    let checksum = buf.get_u64_le();
    // Checked size arithmetic: a hostile header must not overflow usize.
    let expected = (n as u128 + 1) * 8 + arcs as u128 * 4;
    if expected != buf.remaining() as u128 {
        return Err(GraphIoError::Corrupt("payload length mismatch"));
    }
    let (n, arcs) = (n as usize, arcs as usize);
    if lightne_utils::checksum::fnv1a64(buf) != checksum {
        return Err(GraphIoError::ChecksumMismatch);
    }
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(buf.get_u64_le());
    }
    let mut neighbors = Vec::with_capacity(arcs);
    for _ in 0..arcs {
        neighbors.push(buf.get_u32_le());
    }
    // Pre-validate everything `Graph::from_csr` would otherwise panic on.
    if offsets.first().copied() != Some(0) {
        return Err(GraphIoError::Corrupt("offsets do not start at 0"));
    }
    if offsets.last().copied() != Some(arcs as u64) {
        return Err(GraphIoError::Corrupt("offset/arc mismatch"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(GraphIoError::Corrupt("offsets not monotone"));
    }
    if neighbors.iter().any(|&v| v as usize >= n) {
        return Err(GraphIoError::Corrupt("neighbor id out of range"));
    }
    // The CSR invariant every consumer relies on (gap coding, list merges).
    for (u, w) in offsets.windows(2).enumerate() {
        let row = &neighbors[w[0] as usize..w[1] as usize];
        if row.windows(2).any(|p| p[0] >= p[1]) {
            return Err(GraphIoError::Corrupt("neighbor list not strictly ascending"));
        }
        if row.binary_search(&(u as VertexId)).is_ok() {
            return Err(GraphIoError::Corrupt("self-loop"));
        }
    }
    Ok(Graph::from_csr(offsets, neighbors))
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

    #[test]
    fn binary_roundtrip() {
        let edges: Vec<(u32, u32)> = (0..500u32).map(|v| (v, (v * 7 + 1) % 500)).collect();
        let g = GraphBuilder::from_edges(500, &edges);
        let p = tmp("bin.lne");
        write_binary(&g, &p).unwrap();
        let g2 = read_binary(&p).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_detects_bad_magic() {
        let p = tmp("badmagic.lne");
        std::fs::write(&p, [b'X'; BINARY_HEADER_LEN]).unwrap();
        match read_binary(&p) {
            Err(GraphIoError::Corrupt("bad magic")) => {}
            other => panic!("expected bad magic, got {other:?}"),
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_rejects_unsupported_version() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        let p = tmp("badver.lne");
        write_binary(&g, &p).unwrap();
        let mut raw = std::fs::read(&p).unwrap();
        raw[4..8].copy_from_slice(&7u32.to_le_bytes());
        std::fs::write(&p, &raw).unwrap();
        assert!(matches!(
            read_binary(&p),
            Err(GraphIoError::BadVersion { found: 7, supported: BINARY_VERSION })
        ));
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_every_byte_flip_detected() {
        // Flip every byte of the file in turn: each corruption must yield
        // a typed error (never a panic, never a silently wrong graph).
        let g = GraphBuilder::from_edges(20, &[(0, 1), (1, 2), (5, 19), (3, 4), (2, 7)]);
        let p = tmp("flip.lne");
        write_binary(&g, &p).unwrap();
        let raw = std::fs::read(&p).unwrap();
        for i in 0..raw.len() {
            let mut bad = raw.clone();
            bad[i] ^= 0x01;
            std::fs::write(&p, &bad).unwrap();
            assert!(read_binary(&p).is_err(), "flip at byte {i} went undetected");
        }
        std::fs::write(&p, &raw).unwrap();
        assert_eq!(read_binary(&p).unwrap(), g);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_empty_graph_roundtrip() {
        let g = Graph::empty(0);
        let p = tmp("empty.lne");
        write_binary(&g, &p).unwrap();
        assert_eq!(read_binary(&p).unwrap(), g);
        std::fs::remove_file(p).ok();
    }

    /// `g`'s binary image with the given neighbor-array entries overwritten
    /// and the checksum re-sealed, so only the structural checks can
    /// reject it.
    fn forged(g: &Graph, patches: &[(usize, VertexId)]) -> Vec<u8> {
        let p = tmp("forge.lne");
        write_binary(g, &p).unwrap();
        let mut raw = std::fs::read(&p).unwrap();
        std::fs::remove_file(p).ok();
        let neighbors_at = BINARY_HEADER_LEN + (g.num_vertices() + 1) * 8;
        for &(i, v) in patches {
            raw[neighbors_at + 4 * i..][..4].copy_from_slice(&v.to_le_bytes());
        }
        let checksum = lightne_utils::checksum::fnv1a64(&raw[BINARY_HEADER_LEN..]);
        raw[BINARY_HEADER_LEN - 8..BINARY_HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
        raw
    }

    #[test]
    fn binary_rejects_rows_that_break_the_csr_invariant() {
        // Edges 0 - 1 and 0 - 2: rows [1, 2 | 0 | 0].
        let g = GraphBuilder::from_edges(3, &[(0, 1), (0, 2)]);
        let p = tmp("badrows.lne");
        std::fs::write(&p, forged(&g, &[])).unwrap();
        assert_eq!(read_binary(&p).unwrap(), g);
        for (patches, what) in [
            (&[(0, 2), (1, 1)][..], "neighbor list not strictly ascending"), // row 0 [2, 1]
            (&[(1, 1)][..], "neighbor list not strictly ascending"),         // row 0 [1, 1]
            (&[(0, 0)][..], "self-loop"),                                    // row 0 [0, 2]
        ] {
            std::fs::write(&p, forged(&g, patches)).unwrap();
            match read_binary(&p) {
                Err(GraphIoError::Corrupt(got)) => assert_eq!(got, what, "{patches:?}"),
                other => panic!("{patches:?}: expected {what:?}, got {other:?}"),
            }
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_detects_truncation() {
        let g = GraphBuilder::from_edges(10, &[(0, 1), (2, 3)]);
        let p = tmp("trunc.lne");
        write_binary(&g, &p).unwrap();
        let mut raw = std::fs::read(&p).unwrap();
        raw.truncate(raw.len() - 3);
        std::fs::write(&p, &raw).unwrap();
        assert!(matches!(read_binary(&p), Err(GraphIoError::Corrupt(_))));
        std::fs::remove_file(p).ok();
    }
}
