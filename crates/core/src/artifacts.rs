//! Checkpointed stage artifacts: crash-safe save/resume for staged runs.
//!
//! Each stage of the engine can persist its output into a directory —
//! the sparsifier COO, the NetMF CSR matrix, and the initial (pre-
//! propagation) embedding — alongside a `meta.txt` describing the run
//! that produced them. A later run pointed at the same directory resumes
//! from the *deepest* artifact that verifies, replaying the recorded
//! counters so its statistics stay complete. The resume reads each file
//! at most once: the metadata, the manifest, then payloads deepest first
//! until one verifies, whose bytes the engine's consuming stage parses.
//!
//! # The v2 format
//!
//! Version 2 hardens the store against crashes and silent storage
//! corruption:
//!
//! * **Atomic writes.** Every file is written to a `<name>.tmp` sibling,
//!   `fsync`ed, and renamed into place. A crash mid-write leaves at worst
//!   a stray `.tmp`; the committed name is either the old content or the
//!   new, never a torn mix.
//! * **Manifest as commit record.** `manifest.txt` lists each payload
//!   file with its byte size and FNV-1a checksum, plus the run's
//!   [fingerprint](RunMeta::fingerprint). The manifest is written *after*
//!   its payload, so a payload on disk but absent from (or mismatching)
//!   the manifest is untrusted and the resume degrades to an earlier
//!   stage instead of loading it.
//! * **Self-sealed text files.** `meta.txt` and `manifest.txt` end with a
//!   `checksum <hex>` line over all preceding bytes; a bit flip anywhere
//!   in them is detected before a single field is trusted.
//! * **Typed failures.** Every corruption class maps to a distinct
//!   [`EngineError`] variant ([`EngineError::Corrupt`],
//!   [`EngineError::MetaVersion`], [`EngineError::FingerprintMismatch`],
//!   [`EngineError::ArtifactDir`]), never an untyped parse error or a
//!   silently wrong embedding.
//!
//! All files are plain text. Floats use Rust's shortest-round-trip
//! formatting, so a save/load cycle is bitwise lossless and a resumed
//! run reproduces the straight run's embedding exactly (same seed).
//!
//! Every write and read is instrumented with a [`lightne_utils::faults`]
//! fail point (see [`FAIL_POINTS`]); the crash-consistency suite arms
//! them to prove each failure ends in a typed error or a byte-identical
//! recovery.

use crate::engine::EngineError;
use lightne_linalg::matio;
use lightne_linalg::{CsrMatrix, DenseMatrix};
use lightne_utils::checksum::fnv1a64;
use lightne_utils::faults;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Current artifact metadata format version.
pub const META_VERSION: u32 = 2;

/// File name of the run metadata.
pub const META_FILE: &str = "meta.txt";
/// File name of the integrity manifest.
pub const MANIFEST_FILE: &str = "manifest.txt";
/// File name of the sparsifier COO checkpoint.
pub const SPARSIFIER_FILE: &str = "sparsifier.coo";
/// File name of the NetMF matrix checkpoint.
pub const NETMF_FILE: &str = "netmf.csr";
/// File name of the initial-embedding checkpoint.
pub const INITIAL_FILE: &str = "initial.emb";

/// Every file a store may own (used by [`ArtifactStore::create`] to tell
/// a stale store apart from a foreign directory).
const STORE_FILES: &[&str] = &[META_FILE, MANIFEST_FILE, SPARSIFIER_FILE, NETMF_FILE, INITIAL_FILE];

/// Fail point in metadata writes.
pub const FP_WRITE_META: &str = "artifacts.write.meta";
/// Fail point in manifest writes.
pub const FP_WRITE_MANIFEST: &str = "artifacts.write.manifest";
/// Fail point in sparsifier-checkpoint writes.
pub const FP_WRITE_SPARSIFIER: &str = "artifacts.write.sparsifier";
/// Fail point in NetMF-checkpoint writes.
pub const FP_WRITE_NETMF: &str = "artifacts.write.netmf";
/// Fail point in initial-embedding-checkpoint writes.
pub const FP_WRITE_INITIAL: &str = "artifacts.write.initial";
/// Fail point in metadata reads.
pub const FP_READ_META: &str = "artifacts.read.meta";
/// Fail point in manifest reads.
pub const FP_READ_MANIFEST: &str = "artifacts.read.manifest";
/// Fail point in sparsifier-checkpoint reads.
pub const FP_READ_SPARSIFIER: &str = "artifacts.read.sparsifier";
/// Fail point in NetMF-checkpoint reads.
pub const FP_READ_NETMF: &str = "artifacts.read.netmf";
/// Fail point in initial-embedding-checkpoint reads.
pub const FP_READ_INITIAL: &str = "artifacts.read.initial";
/// All fail points registered by this module.
pub const FAIL_POINTS: &[&str] = &[
    FP_WRITE_META,
    FP_WRITE_MANIFEST,
    FP_WRITE_SPARSIFIER,
    FP_WRITE_NETMF,
    FP_WRITE_INITIAL,
    FP_READ_META,
    FP_READ_MANIFEST,
    FP_READ_SPARSIFIER,
    FP_READ_NETMF,
    FP_READ_INITIAL,
];

fn corrupt(file: &str, detail: impl Into<String>) -> EngineError {
    EngineError::Corrupt { file: file.to_string(), detail: detail.into() }
}

/// Appends the `checksum <hex>` seal line over `text`.
fn seal(text: &str) -> String {
    format!("{text}checksum {:016x}\n", fnv1a64(text.as_bytes()))
}

/// Validates a sealed file's trailing checksum line and returns the body
/// it covers.
fn unseal<'a>(text: &'a str, file: &str) -> Result<&'a str, EngineError> {
    let stripped =
        text.strip_suffix('\n').ok_or_else(|| corrupt(file, "missing trailing newline"))?;
    let (body, last) = match stripped.rfind('\n') {
        Some(pos) => (&text[..pos + 1], &stripped[pos + 1..]),
        None => ("", stripped),
    };
    let recorded = last
        .strip_prefix("checksum ")
        .ok_or_else(|| corrupt(file, "missing checksum seal line"))?;
    let recorded = u64::from_str_radix(recorded.trim(), 16)
        .map_err(|_| corrupt(file, format!("malformed checksum seal {recorded:?}")))?;
    let computed = fnv1a64(body.as_bytes());
    if computed != recorded {
        return Err(corrupt(
            file,
            format!("seal mismatch: recorded {recorded:016x}, computed {computed:016x}"),
        ));
    }
    Ok(body)
}

/// Metadata describing the run that produced a set of artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Format version ([`META_VERSION`]).
    pub version: u32,
    /// Master RNG seed of the run.
    pub seed: u64,
    /// Fingerprint of the graph and embedding parameters (see
    /// [`crate::engine::run_fingerprint`]); resuming under a different
    /// fingerprint is rejected outright.
    pub fingerprint: u64,
    /// Whether the weighted pipeline produced the artifacts.
    pub weighted: bool,
    /// Number of vertices of the source graph.
    pub n: usize,
    /// Sample budget `M` the sparsifier was built with (downstream
    /// stages normalize by it, so resume must reuse it).
    pub samples: u64,
    /// Sampling trials actually drawn.
    pub trials: u64,
    /// Trials kept after downsampling.
    pub kept: u64,
    /// Distinct aggregator entries.
    pub distinct_entries: usize,
    /// Aggregator heap bytes.
    pub aggregator_bytes: usize,
    /// NetMF non-zeros, once the conversion stage has run.
    pub netmf_nnz: Option<usize>,
}

impl RunMeta {
    fn to_text(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!("version {}\n", self.version));
        s.push_str(&format!("seed {}\n", self.seed));
        s.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        s.push_str(&format!("weighted {}\n", self.weighted));
        s.push_str(&format!("n {}\n", self.n));
        s.push_str(&format!("samples {}\n", self.samples));
        s.push_str(&format!("trials {}\n", self.trials));
        s.push_str(&format!("kept {}\n", self.kept));
        s.push_str(&format!("distinct_entries {}\n", self.distinct_entries));
        s.push_str(&format!("aggregator_bytes {}\n", self.aggregator_bytes));
        if let Some(nnz) = self.netmf_nnz {
            s.push_str(&format!("netmf_nnz {nnz}\n"));
        }
        s
    }

    fn from_text(text: &str) -> Result<Self, EngineError> {
        let mut meta = RunMeta {
            version: 0,
            seed: 0,
            fingerprint: 0,
            weighted: false,
            n: 0,
            samples: 0,
            trials: 0,
            kept: 0,
            distinct_entries: 0,
            aggregator_bytes: 0,
            netmf_nnz: None,
        };
        let mut seen_version = false;
        for line in text.lines() {
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let (key, value) = t
                .split_once(char::is_whitespace)
                .ok_or_else(|| EngineError::Resume(format!("malformed meta line: {t:?}")))?;
            let value = value.trim();
            let parse_u64 = || {
                value
                    .parse::<u64>()
                    .map_err(|e| EngineError::Resume(format!("meta key {key}: {e}")))
            };
            let parse_usize = || {
                value
                    .parse::<usize>()
                    .map_err(|e| EngineError::Resume(format!("meta key {key}: {e}")))
            };
            match key {
                "version" => {
                    meta.version = value
                        .parse()
                        .map_err(|e| EngineError::Resume(format!("meta version: {e}")))?;
                    seen_version = true;
                }
                "seed" => meta.seed = parse_u64()?,
                "fingerprint" => {
                    meta.fingerprint = u64::from_str_radix(value, 16)
                        .map_err(|e| EngineError::Resume(format!("meta fingerprint: {e}")))?;
                }
                "weighted" => {
                    meta.weighted = value
                        .parse()
                        .map_err(|e| EngineError::Resume(format!("meta weighted: {e}")))?;
                }
                "n" => meta.n = parse_usize()?,
                "samples" => meta.samples = parse_u64()?,
                "trials" => meta.trials = parse_u64()?,
                "kept" => meta.kept = parse_u64()?,
                "distinct_entries" => meta.distinct_entries = parse_usize()?,
                "aggregator_bytes" => meta.aggregator_bytes = parse_usize()?,
                "netmf_nnz" => meta.netmf_nnz = Some(parse_usize()?),
                _ => {} // forward compatibility: unknown keys are ignored
            }
        }
        if !seen_version {
            return Err(EngineError::Resume("meta file missing version".into()));
        }
        if meta.version != META_VERSION {
            return Err(EngineError::MetaVersion { found: meta.version, supported: META_VERSION });
        }
        Ok(meta)
    }
}

/// One payload file tracked by the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// File name within the artifact directory.
    pub name: String,
    /// Byte size of the file as written.
    pub size: u64,
    /// FNV-1a digest of the file's bytes as written.
    pub checksum: u64,
}

/// The store's integrity commit record: every trusted payload file with
/// its size and checksum, plus the run fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Fingerprint of the run that owns these artifacts.
    pub fingerprint: u64,
    /// Tracked payload files, in first-write order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Looks up a payload file's entry.
    pub fn entry(&self, name: &str) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    fn upsert(&mut self, entry: ManifestEntry) {
        if let Some(slot) = self.entries.iter_mut().find(|e| e.name == entry.name) {
            *slot = entry;
        } else {
            self.entries.push(entry);
        }
    }

    fn to_text(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str(&format!("manifest-version {META_VERSION}\n"));
        s.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        for e in &self.entries {
            s.push_str(&format!("file {} {} {:016x}\n", e.name, e.size, e.checksum));
        }
        s
    }

    fn from_text(text: &str) -> Result<Self, EngineError> {
        let mut fingerprint = None;
        let mut version = None;
        let mut entries = Vec::new();
        for line in text.lines() {
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let (key, value) = t
                .split_once(char::is_whitespace)
                .ok_or_else(|| corrupt(MANIFEST_FILE, format!("malformed line: {t:?}")))?;
            let value = value.trim();
            match key {
                "manifest-version" => {
                    let v: u32 = value.parse().map_err(|e| {
                        corrupt(MANIFEST_FILE, format!("bad manifest-version: {e}"))
                    })?;
                    version = Some(v);
                }
                "fingerprint" => {
                    fingerprint =
                        Some(u64::from_str_radix(value, 16).map_err(|e| {
                            corrupt(MANIFEST_FILE, format!("bad fingerprint: {e}"))
                        })?);
                }
                "file" => {
                    let mut it = value.split_whitespace();
                    let (name, size, sum) = match (it.next(), it.next(), it.next()) {
                        (Some(n), Some(s), Some(c)) => (n, s, c),
                        _ => {
                            return Err(corrupt(
                                MANIFEST_FILE,
                                format!("malformed file line: {t:?}"),
                            ))
                        }
                    };
                    entries.push(ManifestEntry {
                        name: name.to_string(),
                        size: size.parse().map_err(|e| {
                            corrupt(MANIFEST_FILE, format!("bad size for {name}: {e}"))
                        })?,
                        checksum: u64::from_str_radix(sum, 16).map_err(|e| {
                            corrupt(MANIFEST_FILE, format!("bad checksum for {name}: {e}"))
                        })?,
                    });
                }
                _ => {} // forward compatibility
            }
        }
        match version {
            Some(v) if v == META_VERSION => {}
            Some(v) => return Err(EngineError::MetaVersion { found: v, supported: META_VERSION }),
            None => return Err(corrupt(MANIFEST_FILE, "missing manifest-version")),
        }
        let fingerprint =
            fingerprint.ok_or_else(|| corrupt(MANIFEST_FILE, "missing fingerprint"))?;
        Ok(Self { fingerprint, entries })
    }
}

/// Where a run starts: from scratch, or from the verified bytes of the
/// deepest checkpoint a store holds (see [`ArtifactStore::deepest_checkpoint`]).
/// The bytes are parsed by the stage that consumes them.
pub(crate) enum Start {
    /// No trusted checkpoint: every stage runs.
    Fresh,
    /// The sparsifier COO: NetMF conversion onwards runs.
    Sparsifier(Vec<u8>),
    /// The NetMF matrix: the randomized SVD onwards runs.
    NetMf(Vec<u8>),
    /// The initial embedding: only propagation runs.
    Initial(Vec<u8>),
}

/// A directory holding checkpointed stage artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
    /// Fingerprint recorded in manifests this store writes. Zero for
    /// read-only stores opened with [`ArtifactStore::open`].
    fingerprint: u64,
}

impl ArtifactStore {
    /// Creates a fresh artifact directory for writing.
    ///
    /// If the directory already exists and holds only artifact files (a
    /// stale store), those files are removed first — artifacts from a
    /// previous run must never leak into this run's manifest. If it holds
    /// anything else, creation fails with [`EngineError::ArtifactDir`]
    /// rather than deleting foreign files.
    pub fn create(dir: impl AsRef<Path>, fingerprint: u64) -> Result<Self, EngineError> {
        let dir = dir.as_ref();
        if dir.exists() {
            let mut stale = Vec::new();
            for entry in fs::read_dir(dir)? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if STORE_FILES.contains(&name.as_str()) || name.ends_with(".tmp") {
                    stale.push(entry.path());
                } else {
                    return Err(EngineError::ArtifactDir(format!(
                        "refusing to reset {}: it contains non-artifact entry {name:?}",
                        dir.display()
                    )));
                }
            }
            for path in stale {
                fs::remove_file(path)?;
            }
        } else {
            fs::create_dir_all(dir)?;
        }
        Ok(Self { dir: dir.to_path_buf(), fingerprint })
    }

    /// Attaches to an existing store for continued writing (no reset).
    ///
    /// Used when the same directory is both resumed from and saved to:
    /// already-validated artifacts stay in place and later stages append
    /// to the same manifest.
    pub fn attach(dir: impl AsRef<Path>, fingerprint: u64) -> Self {
        Self { dir: dir.as_ref().to_path_buf(), fingerprint }
    }

    /// Opens an existing artifact directory for reading.
    pub fn open(dir: impl AsRef<Path>) -> Self {
        Self { dir: dir.as_ref().to_path_buf(), fingerprint: 0 }
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    /// Writes `bytes` crash-safely: to a `.tmp` sibling, synced, then
    /// renamed over the final name (atomic on POSIX filesystems).
    fn write_atomic(&self, file: &str, bytes: &[u8]) -> Result<(), EngineError> {
        let tmp = self.dir.join(format!("{file}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.path(file))?;
        Ok(())
    }

    /// Writes the run metadata (overwrites any previous version).
    pub fn save_meta(&self, meta: &RunMeta) -> Result<(), EngineError> {
        let mut bytes = seal(&meta.to_text()).into_bytes();
        faults::mangle(FP_WRITE_META, &mut bytes)?;
        self.write_atomic(META_FILE, &bytes)
    }

    /// Reads and validates the run metadata.
    pub fn load_meta(&self) -> Result<RunMeta, EngineError> {
        faults::check(FP_READ_META)?;
        let text = fs::read_to_string(self.path(META_FILE))?;
        RunMeta::from_text(unseal(&text, META_FILE)?)
    }

    /// Reads and validates the manifest; `None` when no manifest has been
    /// committed yet.
    pub fn load_manifest(&self) -> Result<Option<Manifest>, EngineError> {
        faults::check(FP_READ_MANIFEST)?;
        self.read_manifest()
    }

    /// [`ArtifactStore::load_manifest`] past its fail point.
    fn read_manifest(&self) -> Result<Option<Manifest>, EngineError> {
        let path = self.path(MANIFEST_FILE);
        if !path.is_file() {
            return Ok(None);
        }
        let text = fs::read_to_string(path)?;
        Ok(Some(Manifest::from_text(unseal(&text, MANIFEST_FILE)?)?))
    }

    fn save_manifest(&self, manifest: &Manifest) -> Result<(), EngineError> {
        let mut bytes = seal(&manifest.to_text()).into_bytes();
        faults::mangle(FP_WRITE_MANIFEST, &mut bytes)?;
        self.write_atomic(MANIFEST_FILE, &bytes)
    }

    /// Commits a payload: checksums the clean bytes, writes the file
    /// atomically, then records it in the manifest. The manifest write
    /// comes second, so a crash between the two leaves the payload
    /// *untrusted* (resume degrades past it) rather than half-trusted.
    fn save_payload(&self, file: &str, fp: &str, mut bytes: Vec<u8>) -> Result<(), EngineError> {
        let size = bytes.len() as u64;
        let checksum = fnv1a64(&bytes);
        // Mangling (torn write / bit flip) happens after the checksum is
        // taken — exactly the silent-corruption model the manifest exists
        // to catch on the next load.
        faults::mangle(fp, &mut bytes)?;
        self.write_atomic(file, &bytes)?;
        let mut manifest = self
            .load_manifest()?
            .unwrap_or(Manifest { fingerprint: self.fingerprint, entries: Vec::new() });
        manifest.upsert(ManifestEntry { name: file.to_string(), size, checksum });
        self.save_manifest(&manifest)
    }

    /// Reads one payload and verifies it against the manifest (`Err` when
    /// the manifest itself is unusable). `Ok(None)` when the store neither
    /// holds nor lists the file; [`EngineError::Corrupt`] when its bytes
    /// cannot be trusted. The read goes through fail point `fp`.
    fn read_verified(
        &self,
        manifest: Result<Option<&Manifest>, &EngineError>,
        file: &str,
        fp: &str,
    ) -> Result<Option<Vec<u8>>, EngineError> {
        let present = self.path(file).is_file();
        let entry = match manifest {
            Ok(Some(m)) => m.entry(file),
            _ if !present => return Ok(None),
            Ok(None) => return Err(corrupt(file, "present but no manifest")),
            Err(e) => return Err(corrupt(file, format!("manifest unusable: {e}"))),
        };
        let entry = match (present, entry) {
            (false, None) => return Ok(None),
            (false, Some(_)) => return Err(corrupt(file, "listed in the manifest but missing")),
            (true, None) => return Err(corrupt(file, "present but not listed in the manifest")),
            (true, Some(entry)) => entry,
        };
        faults::check(fp)?;
        let bytes =
            fs::read(self.path(file)).map_err(|e| corrupt(file, format!("unreadable: {e}")))?;
        if bytes.len() as u64 != entry.size {
            return Err(corrupt(
                file,
                format!(
                    "size mismatch: manifest says {} bytes, file has {}",
                    entry.size,
                    bytes.len()
                ),
            ));
        }
        let computed = fnv1a64(&bytes);
        if computed != entry.checksum {
            return Err(corrupt(
                file,
                format!(
                    "checksum mismatch: manifest says {:016x}, file hashes to {computed:016x}",
                    entry.checksum
                ),
            ));
        }
        Ok(Some(bytes))
    }

    /// The resume scan: reads and verifies payloads deepest first and
    /// returns the first that verifies, each read at most once. A payload
    /// that fails verification (listed but missing, unlisted, unreadable,
    /// wrong size or checksum, or under an unusable manifest) is handed
    /// to `skip` with the reason — which degrades past it or fails the
    /// run. Injected faults at the read points are typed errors.
    pub(crate) fn deepest_checkpoint(
        &self,
        mut skip: impl FnMut(&str, String) -> Result<(), EngineError>,
    ) -> Result<Start, EngineError> {
        faults::check(FP_READ_MANIFEST)?;
        let manifest = self.read_manifest();
        let scan = [
            (INITIAL_FILE, FP_READ_INITIAL, Start::Initial as fn(_) -> _),
            (NETMF_FILE, FP_READ_NETMF, Start::NetMf),
            (SPARSIFIER_FILE, FP_READ_SPARSIFIER, Start::Sparsifier),
        ];
        for (file, fp, start) in scan {
            match self.read_verified(manifest.as_ref().map(Option::as_ref), file, fp) {
                Ok(Some(bytes)) => return Ok(start(bytes)),
                Ok(None) => {}
                Err(EngineError::Corrupt { detail, .. }) => skip(file, detail)?,
                Err(e) => return Err(e),
            }
        }
        Ok(Start::Fresh)
    }

    /// Checkpoints the sparsifier COO (an `n × n` entry list).
    pub fn save_sparsifier(&self, n: usize, coo: &[(u32, u32, f32)]) -> Result<(), EngineError> {
        self.save_payload(SPARSIFIER_FILE, FP_WRITE_SPARSIFIER, matio::coo_to_bytes(n, n, coo)?)
    }

    /// Checkpoints the NetMF matrix.
    pub fn save_netmf(&self, m: &CsrMatrix) -> Result<(), EngineError> {
        self.save_payload(NETMF_FILE, FP_WRITE_NETMF, matio::csr_to_bytes(m)?)
    }

    /// Checkpoints the initial (pre-propagation) embedding.
    pub fn save_initial(&self, x: &DenseMatrix) -> Result<(), EngineError> {
        self.save_payload(INITIAL_FILE, FP_WRITE_INITIAL, matio::matrix_to_bytes(x)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lightne_artifacts_{}_{name}", std::process::id()));
        p
    }

    const FP: u64 = 0xfeed_beef;

    fn sample_meta() -> RunMeta {
        RunMeta {
            version: META_VERSION,
            seed: 0x11_97,
            fingerprint: FP,
            weighted: false,
            n: 400,
            samples: 12_000,
            trials: 12_003,
            kept: 9_500,
            distinct_entries: 4_200,
            aggregator_bytes: 131_072,
            netmf_nnz: Some(3_800),
        }
    }

    #[test]
    fn meta_roundtrip() {
        let meta = sample_meta();
        let parsed = RunMeta::from_text(&meta.to_text()).unwrap();
        assert_eq!(meta, parsed);
    }

    #[test]
    fn meta_without_nnz_roundtrip() {
        let meta = RunMeta { netmf_nnz: None, weighted: true, ..sample_meta() };
        let parsed = RunMeta::from_text(&meta.to_text()).unwrap();
        assert_eq!(meta, parsed);
    }

    #[test]
    fn meta_rejects_missing_and_mismatched_versions() {
        assert!(RunMeta::from_text("seed 3\n").is_err());
        for bad in [META_VERSION + 1, META_VERSION - 1] {
            let text = format!("version {bad}\nseed 1\n");
            match RunMeta::from_text(&text) {
                Err(EngineError::MetaVersion { found, supported }) => {
                    assert_eq!((found, supported), (bad, META_VERSION));
                }
                other => panic!("expected MetaVersion error, got {other:?}"),
            }
        }
    }

    #[test]
    fn seal_roundtrip_and_tamper_detection() {
        let sealed = seal("key value\nother 7\n");
        assert_eq!(unseal(&sealed, "t").unwrap(), "key value\nother 7\n");
        // Flip any single byte of the sealed file: always detected.
        let bytes = sealed.as_bytes();
        for i in 0..bytes.len() {
            let mut t = bytes.to_vec();
            t[i] ^= 0x01;
            let Ok(text) = String::from_utf8(t) else { continue };
            assert!(unseal(&text, "t").is_err(), "undetected tamper at byte {i}");
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = Manifest {
            fingerprint: FP,
            entries: vec![
                ManifestEntry { name: SPARSIFIER_FILE.into(), size: 120, checksum: 7 },
                ManifestEntry { name: NETMF_FILE.into(), size: 88, checksum: 0xdead },
            ],
        };
        assert_eq!(Manifest::from_text(&m.to_text()).unwrap(), m);
    }

    /// Runs the resume scan, collecting each skipped file and why.
    fn scan(store: &ArtifactStore) -> (Start, Vec<(String, String)>) {
        let mut skipped = vec![];
        let start = store
            .deepest_checkpoint(|file, why| {
                skipped.push((file.to_string(), why));
                Ok(())
            })
            .unwrap();
        (start, skipped)
    }

    /// One payload's bytes, verified against the store's manifest.
    fn verified(store: &ArtifactStore, file: &str, fp: &str) -> Result<Vec<u8>, EngineError> {
        let manifest = store.load_manifest();
        let bytes = store.read_verified(manifest.as_ref().map(Option::as_ref), file, fp)?;
        Ok(bytes.expect("the store holds the payload"))
    }

    #[test]
    fn store_roundtrips_all_artifacts() {
        let dir = tmp_dir("full");
        std::fs::remove_dir_all(&dir).ok();
        let store = ArtifactStore::create(&dir, FP).unwrap();
        assert!(
            !dir.join(SPARSIFIER_FILE).is_file()
                && !dir.join(NETMF_FILE).is_file()
                && !dir.join(INITIAL_FILE).is_file()
        );
        store.save_meta(&sample_meta()).unwrap();

        let coo = vec![(0u32, 1u32, 2.5f32), (3, 2, 0.125)];
        store.save_sparsifier(4, &coo).unwrap();
        let m = CsrMatrix::from_coo(4, 4, coo.clone());
        store.save_netmf(&m).unwrap();
        let x = DenseMatrix::gaussian(4, 3, 5);
        store.save_initial(&x).unwrap();

        // The v2 layout byte for byte: a change to any file's text or
        // seal changes its digest.
        for (file, want) in [
            (META_FILE, 0x677f_58b6_f53d_bbc0u64),
            (MANIFEST_FILE, 0x2ce4_694a_a962_eb13),
            (SPARSIFIER_FILE, 0x8738_55a5_6264_7b9e),
            (NETMF_FILE, 0xb984_2f23_a21d_f6a7),
            (INITIAL_FILE, 0xa02c_08b7_2a03_3997),
        ] {
            let got = fnv1a64(&fs::read(dir.join(file)).unwrap());
            assert_eq!(got, want, "{file} hashes to {got:#018x}");
        }

        let back = ArtifactStore::open(&dir);
        let (start, skipped) = scan(&back);
        assert!(skipped.is_empty(), "{skipped:?}");
        let Start::Initial(bytes) = start else { panic!("the deepest checkpoint is the initial") };
        assert_eq!(bytes, fs::read(dir.join(INITIAL_FILE)).unwrap());
        // Every payload verifies against the manifest and parses back.
        let sparsifier = verified(&back, SPARSIFIER_FILE, FP_READ_SPARSIFIER).unwrap();
        let (r, c, entries) = matio::coo_from_bytes(&sparsifier).unwrap();
        assert_eq!((r, c), (4, 4));
        assert_eq!(entries, coo);
        let netmf = verified(&back, NETMF_FILE, FP_READ_NETMF).unwrap();
        assert_eq!(matio::csr_from_bytes(&netmf).unwrap().nnz(), m.nnz());
        let initial = verified(&back, INITIAL_FILE, FP_READ_INITIAL).unwrap();
        assert_eq!(x.max_abs_diff(&matio::matrix_from_bytes(&initial).unwrap()), 0.0);
        assert_eq!(back.load_meta().unwrap(), sample_meta());
        let manifest = back.load_manifest().unwrap().unwrap();
        assert_eq!(manifest.fingerprint, FP);
        assert_eq!(manifest.entries.len(), 3);

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_resets_stale_store_but_refuses_foreign_dir() {
        let dir = tmp_dir("reset");
        std::fs::remove_dir_all(&dir).ok();
        let store = ArtifactStore::create(&dir, FP).unwrap();
        store.save_meta(&sample_meta()).unwrap();
        store.save_sparsifier(2, &[(0, 1, 1.0)]).unwrap();
        assert!(dir.join(SPARSIFIER_FILE).is_file());

        // Re-creating resets the stale store: no old artifact survives.
        let fresh = ArtifactStore::create(&dir, FP + 1).unwrap();
        assert!(!dir.join(SPARSIFIER_FILE).is_file());
        assert!(!fresh.path(META_FILE).is_file());
        assert!(fresh.load_manifest().unwrap().is_none());

        // A directory holding anything else is refused, untouched.
        fs::write(dir.join("notes.txt"), "do not delete").unwrap();
        match ArtifactStore::create(&dir, FP) {
            Err(EngineError::ArtifactDir(msg)) => assert!(msg.contains("notes.txt"), "{msg}"),
            other => panic!("expected ArtifactDir error, got {other:?}"),
        }
        assert_eq!(fs::read_to_string(dir.join("notes.txt")).unwrap(), "do not delete");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_payload_is_rejected_and_the_scan_skips_it() {
        let dir = tmp_dir("corrupt");
        std::fs::remove_dir_all(&dir).ok();
        let store = ArtifactStore::create(&dir, FP).unwrap();
        store.save_meta(&sample_meta()).unwrap();
        store.save_sparsifier(3, &[(0, 1, 1.5), (2, 0, 0.25)]).unwrap();

        let path = dir.join(SPARSIFIER_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();

        let back = ArtifactStore::open(&dir);
        match verified(&back, SPARSIFIER_FILE, FP_READ_SPARSIFIER) {
            Err(EngineError::Corrupt { file, detail }) => {
                assert_eq!(file, SPARSIFIER_FILE);
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected Corrupt error, got {other:?}"),
        }
        let (start, skipped) = scan(&back);
        assert!(matches!(start, Start::Fresh));
        assert!(
            matches!(&skipped[..], [(f, why)] if f == SPARSIFIER_FILE && why.contains("checksum"))
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_meta_is_rejected() {
        let dir = tmp_dir("meta_tamper");
        std::fs::remove_dir_all(&dir).ok();
        let store = ArtifactStore::create(&dir, FP).unwrap();
        store.save_meta(&sample_meta()).unwrap();
        let path = dir.join(META_FILE);
        // "samples 12000" -> "samples 12001": a load-bearing field.
        let text = fs::read_to_string(&path).unwrap().replace("samples 12000", "samples 12001");
        fs::write(&path, text).unwrap();
        match store.load_meta() {
            Err(EngineError::Corrupt { file, .. }) => assert_eq!(file, META_FILE),
            other => panic!("expected Corrupt error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unlisted_and_missing_payloads_are_invalid() {
        let dir = tmp_dir("manifest_drift");
        std::fs::remove_dir_all(&dir).ok();
        let store = ArtifactStore::create(&dir, FP).unwrap();
        store.save_meta(&sample_meta()).unwrap();
        store.save_sparsifier(2, &[(0, 1, 1.0)]).unwrap();

        // A payload written but never committed to the manifest (crash
        // between rename and manifest write) is untrusted.
        fs::write(dir.join(NETMF_FILE), "#csr 2 2 0\n").unwrap();
        let (start, skipped) = scan(&store);
        assert!(matches!(start, Start::Sparsifier(_)));
        assert!(
            matches!(&skipped[..], [(f, why)] if f == NETMF_FILE && why.contains("not listed"))
        );

        // A manifest-listed payload that vanished is also untrusted.
        fs::remove_file(dir.join(SPARSIFIER_FILE)).unwrap();
        let (start, skipped) = scan(&store);
        assert!(matches!(start, Start::Fresh));
        assert!(matches!(&skipped[1], (f, why) if f == SPARSIFIER_FILE && why.contains("missing")));
        fs::remove_dir_all(&dir).ok();
    }
}
