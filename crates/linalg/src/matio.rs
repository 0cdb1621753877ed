//! Dense- and sparse-matrix text I/O: the embedding interchange format.
//!
//! Embeddings leave the system as whitespace-separated text, one row per
//! vertex — the format every downstream tool in this literature consumes
//! (word2vec's text format without the header). A `#`-prefixed header
//! records the shape for validation on load.
//!
//! Every format has a generic writer/reader over `io::Write`/`io::BufRead`
//! and a `*_to_bytes`/`*_from_bytes` pair (used by the artifact store,
//! which needs the full byte image to checksum before anything touches
//! disk); dense matrices, which the CLI reads and writes, also have a
//! path-based wrapper. All numeric output uses Rust's shortest-round-trip
//! float formatting, so a write/read cycle is bitwise lossless —
//! checkpointed artifacts resume to exactly the state that was saved.
//!
//! The generic writer and reader are instrumented with the
//! [`lightne_utils::faults`] fail points in [`FAIL_POINTS`], so the
//! crash-consistency suite can inject I/O errors or crashes into every
//! matrix serialization in the system.

use crate::dense::DenseMatrix;
use lightne_utils::faults;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Fail point hit by every matrix/COO/CSR serialization.
pub const FP_WRITE_MATRIX: &str = "matio.write.matrix";
/// Fail point hit by every matrix/COO/CSR parse.
pub const FP_READ_MATRIX: &str = "matio.read.matrix";
/// All fail points registered by this module.
pub const FAIL_POINTS: &[&str] = &[FP_WRITE_MATRIX, FP_READ_MATRIX];

/// Errors from matrix text I/O.
#[derive(Debug)]
pub enum MatIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed content (line number, description).
    Parse(usize, String),
}

impl fmt::Display for MatIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatIoError::Io(e) => write!(f, "i/o error: {e}"),
            MatIoError::Parse(line, what) => write!(f, "parse error on line {line}: {what}"),
        }
    }
}

impl std::error::Error for MatIoError {}

impl From<io::Error> for MatIoError {
    fn from(e: io::Error) -> Self {
        MatIoError::Io(e)
    }
}

/// Writes a matrix as text to `w`: a `# rows cols` header, then one
/// whitespace-separated row per line.
pub fn write_matrix_to(m: &DenseMatrix, mut w: impl Write) -> Result<(), MatIoError> {
    faults::check(FP_WRITE_MATRIX)?;
    writeln!(w, "# {} {}", m.rows(), m.cols())?;
    for i in 0..m.rows() {
        let mut first = true;
        for &v in m.row(i) {
            if first {
                first = false;
            } else {
                w.write_all(b" ")?;
            }
            write!(w, "{v}")?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

/// Serializes a matrix to its text byte image (see [`write_matrix_to`]).
pub fn matrix_to_bytes(m: &DenseMatrix) -> Result<Vec<u8>, MatIoError> {
    let mut buf = Vec::with_capacity(m.rows() * (m.cols() * 10 + 1) + 32);
    write_matrix_to(m, &mut buf)?;
    Ok(buf)
}

/// Writes a matrix to a file (see [`write_matrix_to`]).
pub fn write_matrix(m: &DenseMatrix, path: impl AsRef<Path>) -> Result<(), MatIoError> {
    write_matrix_to(m, BufWriter::with_capacity(1 << 20, File::create(path)?))
}

/// Reads a matrix written by [`write_matrix_to`]. The header is optional;
/// without it the shape is inferred from the first row.
pub fn read_matrix_from(r: impl BufRead) -> Result<DenseMatrix, MatIoError> {
    faults::check(FP_READ_MATRIX)?;
    let mut declared: Option<(usize, usize)> = None;
    let mut data: Vec<f32> = Vec::new();
    let mut cols: Option<usize> = None;
    let mut rows = 0usize;
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if let Some(rest) = t.strip_prefix('#') {
            let mut it = rest.split_whitespace();
            if let (Some(r), Some(c)) = (it.next(), it.next()) {
                if let (Ok(r), Ok(c)) = (r.parse(), c.parse()) {
                    declared = Some((r, c));
                }
            }
            continue;
        }
        let row: Result<Vec<f32>, _> = t.split_whitespace().map(str::parse).collect();
        let row = row.map_err(|e| MatIoError::Parse(lineno + 1, format!("{e}")))?;
        match cols {
            None => cols = Some(row.len()),
            Some(c) if c != row.len() => {
                return Err(MatIoError::Parse(
                    lineno + 1,
                    format!("expected {c} columns, found {}", row.len()),
                ))
            }
            _ => {}
        }
        data.extend(row);
        rows += 1;
    }
    let cols = cols.ok_or_else(|| MatIoError::Parse(0, "empty matrix file".into()))?;
    if let Some((dr, dc)) = declared {
        if (dr, dc) != (rows, cols) {
            return Err(MatIoError::Parse(
                0,
                format!("header says {dr}x{dc}, body is {rows}x{cols}"),
            ));
        }
    }
    Ok(DenseMatrix::from_vec(rows, cols, data))
}

/// Parses a matrix from its text byte image (see [`read_matrix_from`]).
pub fn matrix_from_bytes(bytes: &[u8]) -> Result<DenseMatrix, MatIoError> {
    read_matrix_from(bytes)
}

/// Reads a matrix from a file (see [`read_matrix_from`]).
pub fn read_matrix(path: impl AsRef<Path>) -> Result<DenseMatrix, MatIoError> {
    read_matrix_from(BufReader::with_capacity(1 << 20, File::open(path)?))
}

/// Writes `row col value` triples under a `#tag rows cols nnz` header.
fn write_triples_to(
    mut w: impl Write,
    tag: &str,
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
    entries: impl Iterator<Item = (u32, u32, f32)>,
) -> Result<(), MatIoError> {
    faults::check(FP_WRITE_MATRIX)?;
    writeln!(w, "#{tag} {n_rows} {n_cols} {nnz}")?;
    for (r, c, v) in entries {
        writeln!(w, "{r} {c} {v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads the triple-list body format shared by COO and CSR files: entries
/// are returned in file order and validated against the header, which
/// must come first — each entry's row and column against its shape (an
/// entry outside it is an error naming its line), their count against its
/// `nnz`.
fn read_triples_from(r: impl BufRead, tag: &str) -> Result<CooData, MatIoError> {
    faults::check(FP_READ_MATRIX)?;
    let header = format!("#{tag}");
    let mut shape: Option<(usize, usize, usize)> = None;
    let mut entries: Vec<(u32, u32, f32)> = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if let Some(rest) = t.strip_prefix(header.as_str()) {
            let mut it = rest.split_whitespace();
            match (it.next(), it.next(), it.next()) {
                (Some(r), Some(c), Some(z)) => {
                    let parse = |s: &str| {
                        s.parse::<usize>()
                            .map_err(|e| MatIoError::Parse(lineno + 1, format!("{e}")))
                    };
                    shape = Some((parse(r)?, parse(c)?, parse(z)?));
                }
                _ => {
                    return Err(MatIoError::Parse(
                        lineno + 1,
                        format!("malformed {header} header"),
                    ));
                }
            }
            continue;
        }
        if t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let (r, c, v) = match (it.next(), it.next(), it.next()) {
            (Some(r), Some(c), Some(v)) => (r, c, v),
            _ => return Err(MatIoError::Parse(lineno + 1, "expected `row col value`".into())),
        };
        let r: u32 = r.parse().map_err(|e| MatIoError::Parse(lineno + 1, format!("{e}")))?;
        let c: u32 = c.parse().map_err(|e| MatIoError::Parse(lineno + 1, format!("{e}")))?;
        let v: f32 = v.parse().map_err(|e| MatIoError::Parse(lineno + 1, format!("{e}")))?;
        let Some((n_rows, n_cols, _)) = shape else {
            return Err(MatIoError::Parse(lineno + 1, format!("entry before the {header} header")));
        };
        if r as usize >= n_rows || c as usize >= n_cols {
            return Err(MatIoError::Parse(
                lineno + 1,
                format!("entry ({r}, {c}) outside the {n_rows}x{n_cols} shape"),
            ));
        }
        entries.push((r, c, v));
    }
    let (n_rows, n_cols, nnz) =
        shape.ok_or_else(|| MatIoError::Parse(0, format!("missing {header} header")))?;
    if entries.len() != nnz {
        return Err(MatIoError::Parse(
            0,
            format!("header says {nnz} entries, body has {}", entries.len()),
        ));
    }
    Ok((n_rows, n_cols, entries))
}

/// Writes a COO entry list as text to `w`: a `#coo rows cols nnz` header,
/// then one `row col weight` triple per line.
pub fn write_coo_to(
    w: impl Write,
    n_rows: usize,
    n_cols: usize,
    entries: &[(u32, u32, f32)],
) -> Result<(), MatIoError> {
    write_triples_to(w, "coo", n_rows, n_cols, entries.len(), entries.iter().copied())
}

/// Serializes a COO entry list to its text byte image.
pub fn coo_to_bytes(
    n_rows: usize,
    n_cols: usize,
    entries: &[(u32, u32, f32)],
) -> Result<Vec<u8>, MatIoError> {
    let mut buf = Vec::with_capacity(entries.len() * 16 + 32);
    write_coo_to(&mut buf, n_rows, n_cols, entries)?;
    Ok(buf)
}

/// Shape and entries of a COO file: `(n_rows, n_cols, entries)`.
pub type CooData = (usize, usize, Vec<(u32, u32, f32)>);

/// Reads a COO stream written by [`write_coo_to`]; returns `(n_rows,
/// n_cols, entries)` with entries in file order.
pub fn read_coo_from(r: impl BufRead) -> Result<CooData, MatIoError> {
    read_triples_from(r, "coo")
}

/// Parses a COO byte image (see [`read_coo_from`]).
pub fn coo_from_bytes(bytes: &[u8]) -> Result<CooData, MatIoError> {
    read_coo_from(bytes)
}

/// Writes a CSR matrix to `w` as a COO triple list with a `#csr rows cols
/// nnz` header (same body format as [`write_coo_to`]).
pub fn write_csr_to(m: &crate::sparse::CsrMatrix, w: impl Write) -> Result<(), MatIoError> {
    let triples = (0..m.n_rows()).flat_map(|i| {
        let (cols, vals) = m.row(i);
        cols.iter().zip(vals).map(move |(&c, &v)| (i as u32, c, v))
    });
    write_triples_to(w, "csr", m.n_rows(), m.n_cols(), m.nnz(), triples)
}

/// Serializes a CSR matrix to its text byte image.
pub fn csr_to_bytes(m: &crate::sparse::CsrMatrix) -> Result<Vec<u8>, MatIoError> {
    let mut buf = Vec::with_capacity(m.nnz() * 16 + 32);
    write_csr_to(m, &mut buf)?;
    Ok(buf)
}

/// Reads a CSR stream written by [`write_csr_to`] and rebuilds the matrix.
///
/// Reconstruction goes through [`CsrMatrix::from_coo`]
/// (sort-by-key, no duplicate keys on disk), so the rebuilt matrix is
/// bitwise identical to the one that was written.
///
/// [`CsrMatrix::from_coo`]: crate::sparse::CsrMatrix::from_coo
pub fn read_csr_from(r: impl BufRead) -> Result<crate::sparse::CsrMatrix, MatIoError> {
    let (n_rows, n_cols, entries) = read_triples_from(r, "csr")?;
    Ok(crate::sparse::CsrMatrix::from_coo(n_rows, n_cols, entries))
}

/// Parses a CSR byte image (see [`read_csr_from`]).
pub fn csr_from_bytes(bytes: &[u8]) -> Result<crate::sparse::CsrMatrix, MatIoError> {
    read_csr_from(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lightne_matio_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip() {
        let m = DenseMatrix::gaussian(50, 7, 1);
        let p = tmp("rt.txt");
        write_matrix(&m, &p).unwrap();
        let m2 = read_matrix(&p).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(m.rows(), m2.rows());
        assert_eq!(m.cols(), m2.cols());
        assert!(m.max_abs_diff(&m2) < 1e-5);
    }

    #[test]
    fn bytes_roundtrip_matches_file_roundtrip() {
        let m = DenseMatrix::gaussian(12, 5, 9);
        let bytes = matrix_to_bytes(&m).unwrap();
        let p = tmp("bytes.txt");
        write_matrix(&m, &p).unwrap();
        let file_bytes = std::fs::read(&p).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(bytes, file_bytes, "bytes and file serializations must agree");
        let m2 = matrix_from_bytes(&bytes).unwrap();
        assert_eq!(m.rows(), m2.rows());
        for i in 0..m.rows() {
            for (x, y) in m.row(i).iter().zip(m2.row(i)) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn headerless_file_inferred() {
        let p = tmp("nohdr.txt");
        std::fs::write(&p, "1 2 3\n4 5 6\n").unwrap();
        let m = read_matrix(&p).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
    }

    #[test]
    fn ragged_rejected() {
        let p = tmp("ragged.txt");
        std::fs::write(&p, "1 2\n3\n").unwrap();
        assert!(matches!(read_matrix(&p), Err(MatIoError::Parse(2, _))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn header_mismatch_rejected() {
        let p = tmp("mismatch.txt");
        std::fs::write(&p, "# 3 2\n1 2\n3 4\n").unwrap();
        assert!(matches!(read_matrix(&p), Err(MatIoError::Parse(0, _))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn coo_nnz_mismatch_rejected() {
        assert!(matches!(coo_from_bytes(b"#coo 3 3 2\n0 1 1.0\n"), Err(MatIoError::Parse(0, _))));
    }

    #[test]
    fn out_of_shape_entries_are_typed_errors() {
        let line = |r: Result<CooData, MatIoError>| match r {
            Err(MatIoError::Parse(line, what)) => (line, what),
            other => panic!("expected a parse error, got {other:?}"),
        };
        let (at, what) = line(coo_from_bytes(b"#coo 4 4 2\n0 1 1.0\n9 0 1.0\n"));
        assert_eq!((at, what.as_str()), (3, "entry (9, 0) outside the 4x4 shape"));
        assert_eq!(line(coo_from_bytes(b"#coo 4 4 2\n0 7 1.0\n1 0 1.0\n")).0, 2);
        assert_eq!(line(coo_from_bytes(b"0 1 1.0\n#coo 4 4 1\n")).0, 1);
        assert!(coo_from_bytes(b"#coo 4 4 1\n3 3 1.0\n").is_ok());
        for bytes in [&b"#csr 3 5 1\n3 0 1.0\n"[..], b"#csr 3 5 1\n0 5 1.0\n"] {
            assert!(matches!(csr_from_bytes(bytes), Err(MatIoError::Parse(2, _))));
        }
        assert_eq!(csr_from_bytes(b"#csr 3 5 1\n2 4 1.0\n").unwrap().get(2, 4), 1.0);
    }

    #[test]
    fn empty_rejected() {
        let p = tmp("empty.txt");
        std::fs::write(&p, "").unwrap();
        assert!(read_matrix(&p).is_err());
        std::fs::remove_file(&p).ok();
    }
}
