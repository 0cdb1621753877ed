//! Typed errors for the compressed graph formats.
//!
//! Every decode path that consumes bytes it did not just produce — a file
//! read back from disk, a memory-mapped container — must fail *typed* on
//! malformed input instead of panicking or reading out of bounds.
//! [`GraphFormatError`] is that shared vocabulary, used by the codecs
//! ([`crate::codecs`]), the Elias–Fano offset index ([`crate::ef`]) and
//! the container ([`crate::v2`]).

use std::fmt;
use std::io;

/// A typed failure while decoding or validating a compressed graph.
#[derive(Debug)]
pub enum GraphFormatError {
    /// A read ran past the end of the available bytes. Carries the bit
    /// offset at which the decoder was positioned when it ran out.
    Truncated {
        /// Bit offset of the failed read.
        at_bit: u64,
    },
    /// A decoded value exceeds what the format permits at that position
    /// (e.g. a varint longer than 64 bits, or a unary run that would
    /// overflow the value domain).
    Overflow {
        /// Bit (or byte, for byte-aligned formats) offset of the value.
        at_bit: u64,
    },
    /// A decoded neighbor id falls outside `0..n`.
    VertexOutOfRange {
        /// The vertex whose adjacency was being decoded.
        vertex: u32,
        /// The out-of-range id that was decoded.
        decoded: i64,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// A checked neighbor access asked for an index at or past the
    /// vertex's degree.
    NeighborIndexOutOfRange {
        /// The vertex whose neighbor was requested.
        vertex: u32,
        /// The requested (0-based) index.
        index: usize,
        /// The vertex's degree.
        degree: usize,
    },
    /// Neighbor lists must be strictly increasing; a non-positive gap was
    /// decoded.
    NonMonotoneNeighbors {
        /// The vertex whose adjacency was being decoded.
        vertex: u32,
    },
    /// The container's magic bytes did not match.
    BadMagic,
    /// The container's format version is not supported by this build.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The container was written with a gap code this build no longer
    /// carries (unary, γ, δ or a fixed-`k` Rice code).
    RetiredCodec {
        /// The codec id found in the header.
        id: u32,
    },
    /// A checksum recorded in the container does not match the bytes.
    ChecksumMismatch {
        /// Which region failed ("header" or "payload").
        region: &'static str,
    },
    /// A structural size recorded in the header disagrees with the actual
    /// byte count.
    LengthMismatch {
        /// What was being sized.
        what: &'static str,
        /// The size the header claims.
        expected: u64,
        /// The size actually present.
        actual: u64,
    },
    /// A structural invariant of the format does not hold (offsets not
    /// monotone, degree/offset disagreement, …).
    Corrupt(&'static str),
    /// The requested neighbors-per-block is outside `1..=u32::MAX`, the
    /// range the container header can record.
    BlockSize(usize),
    /// Underlying I/O failure while reading or writing a container.
    Io(io::Error),
}

impl fmt::Display for GraphFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphFormatError::Truncated { at_bit } => {
                write!(f, "truncated input: read past end at bit {at_bit}")
            }
            GraphFormatError::Overflow { at_bit } => {
                write!(f, "value overflow while decoding at bit {at_bit}")
            }
            GraphFormatError::VertexOutOfRange { vertex, decoded, n } => {
                write!(f, "neighbor {decoded} of vertex {vertex} out of range (n = {n})")
            }
            GraphFormatError::NeighborIndexOutOfRange { vertex, index, degree } => {
                write!(
                    f,
                    "neighbor index {index} out of range for degree {degree} of vertex {vertex}"
                )
            }
            GraphFormatError::NonMonotoneNeighbors { vertex } => {
                write!(f, "non-monotone neighbor list for vertex {vertex}")
            }
            GraphFormatError::BadMagic => write!(f, "bad magic bytes"),
            GraphFormatError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (this build reads {supported}; \
                     re-run `lightne compress`)"
                )
            }
            GraphFormatError::RetiredCodec { id } => {
                write!(
                    f,
                    "retired codec id {id:#x} (this build reads arice, byte and zeta1..zeta8; \
                     rewrite the file from its source with `lightne compress`)"
                )
            }
            GraphFormatError::ChecksumMismatch { region } => {
                write!(f, "{region} checksum mismatch")
            }
            GraphFormatError::LengthMismatch { what, expected, actual } => {
                write!(f, "{what}: header claims {expected} bytes, found {actual}")
            }
            GraphFormatError::Corrupt(what) => write!(f, "corrupt graph container: {what}"),
            GraphFormatError::BlockSize(b) => {
                write!(f, "block size {b} is outside 1..={}", u32::MAX)
            }
            GraphFormatError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for GraphFormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphFormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphFormatError {
    fn from(e: io::Error) -> Self {
        GraphFormatError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<(GraphFormatError, &str)> = vec![
            (GraphFormatError::Truncated { at_bit: 17 }, "bit 17"),
            (GraphFormatError::BadMagic, "magic"),
            (GraphFormatError::UnsupportedVersion { found: 9, supported: 2 }, "version 9"),
            (GraphFormatError::UnsupportedVersion { found: 1, supported: 2 }, "lightne compress"),
            (
                GraphFormatError::NeighborIndexOutOfRange { vertex: 7, index: 5, degree: 3 },
                "index 5 out of range for degree 3",
            ),
            (GraphFormatError::RetiredCodec { id: 0x2C }, "codec id 0x2c"),
            (GraphFormatError::RetiredCodec { id: 1 }, "lightne compress"),
            (GraphFormatError::ChecksumMismatch { region: "payload" }, "payload"),
            (GraphFormatError::LengthMismatch { what: "arena", expected: 10, actual: 3 }, "arena"),
            (GraphFormatError::VertexOutOfRange { vertex: 1, decoded: -4, n: 2 }, "-4"),
            (GraphFormatError::BlockSize(0), "block size 0"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: GraphFormatError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
