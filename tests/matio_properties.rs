//! Property tests for the matrix I/O layer and the artifact store's
//! corruption detection.
//!
//! The serialization property: every dense/COO/CSR round trip is bitwise
//! lossless, over pseudo-random shapes (including empty rows and empty
//! sparse matrices) and adversarial float values (extremes, subnormals,
//! infinities, signed zeros, random bit patterns). NaN is excluded by
//! contract — no finite-computation stage produces one, and text NaN
//! does not preserve payload bits.
//!
//! The integrity property: flipping *any single byte* of *any* v2
//! artifact file is caught as a typed error when a strict resume loads
//! it. FNV-1a makes this exhaustive — each absorbed byte maps the state
//! through a bijection, so no single-byte substitution can collide.

use lightne::core::artifacts::{
    ArtifactStore, INITIAL_FILE, MANIFEST_FILE, META_FILE, NETMF_FILE, SPARSIFIER_FILE,
};
use lightne::core::{LightNe, LightNeConfig, RunOptions};
use lightne::gen::generators::erdos_renyi;
use lightne::linalg::matio;
use lightne::linalg::{CsrMatrix, DenseMatrix};
use lightne::utils::rng::XorShiftStream;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lightne_matprop_{}_{name}", std::process::id()));
    p
}

/// Adversarial float values every round-trip case draws from.
const EXTREMES: &[f32] = &[
    0.0,
    -0.0,
    1.0,
    -1.0,
    f32::MAX,
    f32::MIN,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    f32::EPSILON,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.0e-45, // smallest positive subnormal
    -1.0e-45,
    std::f32::consts::PI,
    1.234_567_9e-30,
    9.876_543e30,
];

/// A float that is extreme, random-bit-pattern, or gaussian — never NaN.
fn arb_f32(rng: &mut XorShiftStream) -> f32 {
    match rng.bounded(4) {
        0 => EXTREMES[rng.bounded_usize(EXTREMES.len())],
        1 => {
            let v = f32::from_bits(rng.next_u32());
            if v.is_nan() {
                f32::from_bits(rng.next_u32() & 0x7f7f_ffff) // clear NaN-prone exponent bits
            } else {
                v
            }
        }
        _ => rng.gaussian() as f32,
    }
}

fn assert_bits_eq(a: f32, b: f32, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a:?} != {b:?}");
}

#[test]
fn dense_roundtrip_is_bitwise_for_arbitrary_shapes_and_values() {
    let mut rng = XorShiftStream::new(0xD15E, 0);
    for case in 0..40 {
        let rows = 1 + rng.bounded_usize(12);
        let cols = 1 + rng.bounded_usize(9);
        let data: Vec<f32> = (0..rows * cols).map(|_| arb_f32(&mut rng)).collect();
        let m = DenseMatrix::from_vec(rows, cols, data);
        let bytes = matio::matrix_to_bytes(&m).unwrap();
        let m2 = matio::matrix_from_bytes(&bytes).unwrap();
        assert_eq!((m2.rows(), m2.cols()), (rows, cols), "case {case}: shape lost");
        for (a, b) in m.as_slice().iter().zip(m2.as_slice()) {
            assert_bits_eq(*a, *b, &format!("case {case} ({rows}x{cols})"));
        }
    }
}

#[test]
fn coo_roundtrip_is_bitwise_including_the_empty_list() {
    let mut rng = XorShiftStream::new(0xC00, 1);
    for case in 0..40 {
        let n = 1 + rng.bounded_usize(40);
        let nnz = if case == 0 { 0 } else { rng.bounded_usize(60) };
        let entries: Vec<(u32, u32, f32)> = (0..nnz)
            .map(|_| {
                (rng.bounded(n as u64) as u32, rng.bounded(n as u64) as u32, arb_f32(&mut rng))
            })
            .collect();
        let bytes = matio::coo_to_bytes(n, n, &entries).unwrap();
        let (r, c, got) = matio::coo_from_bytes(&bytes).unwrap();
        assert_eq!((r, c), (n, n), "case {case}: shape lost");
        assert_eq!(got.len(), entries.len(), "case {case}: entry count lost");
        for ((au, av, aw), (bu, bv, bw)) in entries.iter().zip(&got) {
            assert_eq!((au, av), (bu, bv), "case {case}: indices lost");
            assert_bits_eq(*aw, *bw, &format!("case {case}"));
        }
    }
}

#[test]
fn csr_roundtrip_is_bitwise_with_empty_rows_and_empty_matrices() {
    let mut rng = XorShiftStream::new(0xC5A, 2);
    for case in 0..40 {
        let n = 2 + rng.bounded_usize(30);
        // Leave roughly half the rows empty so row-pointer reconstruction
        // over runs of empty rows is always exercised.
        let mut entries: Vec<(u32, u32, f32)> = Vec::new();
        if case != 0 {
            for i in 0..n {
                if rng.bernoulli(0.5) {
                    continue;
                }
                for _ in 0..1 + rng.bounded_usize(3) {
                    entries.push((i as u32, rng.bounded(n as u64) as u32, arb_f32(&mut rng)));
                }
            }
            entries.sort_by_key(|&(r, c, _)| (r, c));
            entries.dedup_by_key(|&mut (r, c, _)| (r, c));
        }
        let m = CsrMatrix::from_coo(n, n, entries);
        let bytes = matio::csr_to_bytes(&m).unwrap();
        let m2 = matio::csr_from_bytes(&bytes).unwrap();
        assert_eq!((m2.n_rows(), m2.n_cols(), m2.nnz()), (n, n, m.nnz()), "case {case}");
        for i in 0..n {
            let (ac, av) = m.row(i);
            let (bc, bv) = m2.row(i);
            assert_eq!(ac, bc, "case {case}: row {i} columns lost");
            for (a, b) in av.iter().zip(bv) {
                assert_bits_eq(*a, *b, &format!("case {case} row {i}"));
            }
        }
    }
}

#[test]
fn any_single_byte_corruption_of_any_artifact_is_caught_at_load() {
    let dir = tmp("corrupt");
    std::fs::remove_dir_all(&dir).ok();

    // A deliberately tiny run so the sweep over every byte of every
    // file stays fast.
    let g = erdos_renyi(12, 30, 5);
    let cfg = LightNeConfig {
        dim: 2,
        window: 2,
        sample_ratio: 1.0,
        seed: 7,
        propagation: None,
        ..Default::default()
    };
    let pipe = LightNe::new(cfg);
    let full = dir.join("full");
    let save = RunOptions { save_artifacts: Some(full.clone()), ..Default::default() };
    let want = pipe.embed_with(&g, save).unwrap().embedding.as_slice().to_vec();
    let resume = |store: &Path| {
        let opts = RunOptions {
            resume_from: Some(store.into()),
            strict_resume: true,
            ..Default::default()
        };
        pipe.embed_with(&g, opts)
    };

    // A resume reads a payload only when no deeper one verifies, so each
    // payload is swept in a store whose deepest checkpoint it is.
    let meta = ArtifactStore::open(&full).load_meta().unwrap();
    let read = |file: &str| std::fs::read(full.join(file)).unwrap();
    let (n, _, coo) = matio::coo_from_bytes(&read(SPARSIFIER_FILE)).unwrap();
    let through = |deepest: &str| {
        let path = dir.join(deepest);
        let store = ArtifactStore::create(&path, meta.fingerprint).unwrap();
        store.save_meta(&meta).unwrap();
        store.save_sparsifier(n, &coo).unwrap();
        if deepest == NETMF_FILE {
            store.save_netmf(&matio::csr_from_bytes(&read(NETMF_FILE)).unwrap()).unwrap();
        }
        path
    };
    let sweeps = [
        (META_FILE, full.clone()),
        (MANIFEST_FILE, full.clone()),
        (INITIAL_FILE, full.clone()),
        (NETMF_FILE, through(NETMF_FILE)),
        (SPARSIFIER_FILE, through(SPARSIFIER_FILE)),
    ];

    // Every store resumes to the straight run's bytes while pristine.
    let whole = |store: &Path| {
        let got = resume(store).unwrap().embedding;
        let same = got.as_slice().iter().map(|x| x.to_bits()).eq(want.iter().map(|x| x.to_bits()));
        assert!(same, "{} resumed to other bytes", store.display());
    };
    for (_, store) in &sweeps {
        whole(store);
    }

    for (file, store) in &sweeps {
        let path = store.join(file);
        let clean = std::fs::read(&path).unwrap();
        assert!(!clean.is_empty(), "{file} is empty");
        let caught = |bad: &[u8]| {
            std::fs::write(&path, bad).unwrap();
            resume(store).is_err()
        };
        for pos in 0..clean.len() {
            // One low bit, one high bit: substitutions that keep the byte
            // printable and ones that do not.
            for mask in [0x01u8, 0x80] {
                let mut bad = clean.clone();
                bad[pos] ^= mask;
                assert!(caught(&bad), "{file}: byte {pos} ^ {mask:#04x} loaded successfully");
            }
        }
        // Growing or truncating the file is caught too.
        let mut longer = clean.clone();
        longer.push(b' ');
        assert!(caught(&longer), "{file}: appended byte loaded successfully");
        assert!(caught(&clean[..clean.len() - 1]), "{file}: truncated file loaded successfully");
        std::fs::write(&path, &clean).unwrap();
        // And the restored store is whole again.
        whole(store);
    }

    std::fs::remove_dir_all(&dir).ok();
}
