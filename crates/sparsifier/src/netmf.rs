//! Sparsifier → sparse NetMF matrix.
//!
//! Inverts the estimator of Algorithm 2 (see `construct.rs`): with
//! aggregated weight `w(i,j)` from `M` samples (`M/T` walks of `T`
//! samples each),
//!
//! ```text
//! Σ_{r=1..T} (D⁻¹A)^r_{ij}  ≈  w(i,j) · vol(G) · T / (2 · M · d_i)
//! ```
//!
//! so the NetMF matrix entry becomes
//!
//! ```text
//! M_ij = trunc_log( vol(G)/(b·T) · Σ_r (D⁻¹A)^r_{ij} / d_j )
//!      = trunc_log( vol(G)² · w(i,j) / (2 · b · M · d_i · d_j) )
//! ```
//!
//! over weighted degrees and volume (`vol(G) = 2m` on unit weights).
//! Entries whose argument falls below 1 truncate to zero and are pruned,
//! which is what makes the factorized matrix even sparser than the raw
//! sparsifier — the paper notes LightNE-Small's matrix can end up with
//! fewer than `m` non-zeros.

/// Per-entry truncated-log transform applied by the fused drain
/// (`crate::sharded::sharded_to_netmf`). `ln x > 0` exactly when `x > 1`
/// (and NaN is neither), so the log is taken only for entries it keeps.
#[inline]
pub(crate) fn trunc_log_entry(factor: f64, di: f64, dj: f64, w: f32) -> Option<f32> {
    if di <= 0.0 || dj <= 0.0 {
        return None;
    }
    let x = factor * w as f64 / (di * dj);
    (x > 1.0).then(|| x.ln() as f32)
}

/// The `vol(G)²/(2·b·M)` prefactor of the NetMF inversion.
#[inline]
pub(crate) fn netmf_factor(vol: f64, total_samples: u64, b: f64) -> f64 {
    vol * vol / (2.0 * b * total_samples as f64)
}

#[cfg(test)]
mod tests {
    use super::trunc_log_entry;
    use crate::construct::SamplerConfig;
    use crate::downsample::ProbScheme;
    use crate::exact::exact_netmf;
    use crate::sharded::{build_sharded_sparsifier, sharded_to_netmf};
    use lightne_gen::generators::erdos_renyi;
    use lightne_graph::{Graph, WeightedGraph, WeightedOps};
    use lightne_linalg::CsrMatrix;

    /// Samples and inverts; also returns the raw sparsifier entry count.
    fn sampled_netmf<G: WeightedOps>(g: &G, cfg: &SamplerConfig, b: f64) -> (CsrMatrix, usize) {
        let (table, _) = build_sharded_sparsifier(g, cfg, 0).unwrap();
        let raw_len = table.len();
        (sharded_to_netmf(g, table, cfg.samples, b), raw_len)
    }

    /// Relative entrywise L1 error of the sampled estimate against the
    /// dense oracle.
    fn error_vs_exact<G: WeightedOps>(g: &G, cfg: &SamplerConfig) -> f64 {
        let (approx, _) = sampled_netmf(g, cfg, 1.0);
        let exact = exact_netmf(g, cfg.window, 1.0);
        let n = g.num_vertices();
        let mut err_sum = 0.0f64;
        let mut ref_sum = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let e = exact.get(i, j) as f64;
                err_sum += (e - approx.get(i, j) as f64).abs();
                ref_sum += e;
            }
        }
        err_sum / ref_sum
    }

    #[test]
    fn approximates_exact_netmf() {
        // With enough samples the sparse estimate must match the dense
        // NetMF matrix entrywise on a small graph.
        let g = erdos_renyi(50, 300, 17);
        let cfg = SamplerConfig {
            window: 3,
            samples: 4_000_000,
            downsample: false,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 9,
        };
        let rel = error_vs_exact(&g, &cfg);
        assert!(rel < 0.05, "relative entrywise error {rel}");
    }

    #[test]
    fn approximates_exact_netmf_on_non_unit_weights() {
        // The same inversion over weighted degrees and volume: weights
        // spanning 0.5–8 on the edges of a small random graph.
        let skeleton: Graph = erdos_renyi(50, 300, 23);
        let mut edges = Vec::new();
        for u in 0..50u32 {
            for &v in skeleton.neighbors(u).iter().filter(|&&v| u < v) {
                edges.push((u, v, 0.5 * (1 + (u * 7 + v * 3) % 16) as f32));
            }
        }
        let g = WeightedGraph::from_edges(50, &edges);
        let cfg = SamplerConfig {
            window: 3,
            samples: 4_000_000,
            downsample: false,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 10,
        };
        let rel = error_vs_exact(&g, &cfg);
        assert!(rel < 0.05, "relative entrywise error {rel}");
    }

    /// `trunc_log_entry` as it was before it skipped the log at or below
    /// 1, kept as its oracle.
    fn trunc_log_entry_always_ln(factor: f64, di: f64, dj: f64, w: f32) -> Option<f32> {
        if di <= 0.0 || dj <= 0.0 {
            return None;
        }
        let val = (factor * w as f64 / (di * dj)).ln();
        if val > 0.0 {
            Some(val as f32)
        } else {
            None
        }
    }

    #[test]
    fn trunc_log_matches_the_always_ln_form() {
        let same = |factor: f64, di: f64, dj: f64, w: f32| {
            let (got, want) =
                (trunc_log_entry(factor, di, dj, w), trunc_log_entry_always_ln(factor, di, dj, w));
            assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits), "{factor} {di} {dj} {w}");
        };
        // With unit degrees and weight the log's argument is `factor`.
        let ulp =
            |x: f64, up: bool| f64::from_bits(if up { x.to_bits() + 1 } else { x.to_bits() - 1 });
        let edges = [1.0, ulp(1.0, true), ulp(1.0, false), ulp(ulp(1.0, true), true), 0.0, -0.0];
        let far =
            [-1.0, -f64::INFINITY, f64::NAN, f64::INFINITY, f64::MAX, f64::MIN_POSITIVE, 1e-300];
        for x in edges.into_iter().chain(far) {
            same(x, 1.0, 1.0, 1.0);
        }
        assert_eq!(trunc_log_entry(1.0, 1.0, 1.0, 1.0), None);
        assert!(trunc_log_entry(ulp(1.0, true), 1.0, 1.0, 1.0).is_some_and(|v| v > 0.0));
        // Degrees and weights around the threshold, and non-finite ones.
        let mut state = 7u64;
        let mut unit = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..20_000 {
            let (di, dj) = (1.0 + 63.0 * unit(), 1.0 + 63.0 * unit());
            let w = (4.0 * unit()) as f32;
            same(di * dj / w as f64, di, dj, w);
            same(di * dj * (0.5 + unit()), di, dj, w);
        }
        for w in [0.0, -0.0, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            same(3.0, 1.0, 2.0, w);
        }
        same(3.0, f64::NAN, 1.0, 2.0);
        same(3.0, 1.0, f64::INFINITY, 2.0);
    }

    #[test]
    fn truncation_prunes_nonpositive_entries() {
        let g = erdos_renyi(100, 600, 3);
        let cfg = SamplerConfig {
            window: 2,
            samples: 200_000,
            downsample: true,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 2,
        };
        let (m, raw_len) = sampled_netmf(&g, &cfg, 1.0);
        assert!(m.nnz() <= raw_len);
        // trunc_log keeps only strictly positive values.
        for i in 0..100 {
            let (_, vals) = m.row(i);
            assert!(vals.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn larger_b_shrinks_matrix() {
        // b divides inside the log; larger b → smaller entries → more
        // truncation.
        let g = erdos_renyi(100, 600, 4);
        let cfg = SamplerConfig {
            window: 3,
            samples: 500_000,
            downsample: false,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 3,
        };
        let (m1, _) = sampled_netmf(&g, &cfg, 1.0);
        let (m5, _) = sampled_netmf(&g, &cfg, 5.0);
        assert!(m5.nnz() <= m1.nnz());
        assert!(m5.sum_values() < m1.sum_values());
    }

    #[test]
    fn result_is_roughly_symmetric() {
        let g = erdos_renyi(80, 500, 5);
        let cfg = SamplerConfig {
            window: 4,
            samples: 1_000_000,
            downsample: false,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 6,
        };
        let (m, _) = sampled_netmf(&g, &cfg, 1.0);
        // The weight matrix is exactly symmetric by construction; after the
        // entrywise log the values stay symmetric.
        assert!(m.is_symmetric(1e-4));
    }
}
