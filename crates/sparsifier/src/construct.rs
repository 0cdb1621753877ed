//! Algorithm 2: downsampled per-edge sampling of prefix pairs.
//!
//! Instead of drawing `M` (edge, length) pairs uniformly — which requires
//! O(1) access to a random edge and defeats compression — the paper maps
//! over the edges in parallel and gives each edge a Binomial-like count
//! `n_e = ⌊E_e⌋ + Bernoulli({E_e})`, so the expected total is exactly the
//! budget while all of an edge's work happens where the edge already is
//! in memory (cache-friendly, compression-friendly).
//!
//! ## The estimator (used by `netmf.rs`)
//!
//! The unit of work is a *walk*, and the unit of the budget `M` is a
//! *sample*, one ordered pair. A walk from the directed arc `(u, v)`
//! starts at `z₁ = v` and takes `T − 1` steps, `z₂ … z_T`. After `z₁` and
//! after each step it yields the sample `(u, z_r)`: `T` samples for
//! `T − 1` steps. From a uniform arc the walk `z₀ = u, z₁, …, z_T` is
//! stationary, so `(z₀, z_r)` lands on `(i, j)` with probability
//! `d_i (D⁻¹A)^r_{ij} / vol(G)`: the law of PathSampling's (NetSMF's
//! Algorithm 1, [`crate::path_sampling::path_sample`]) sample of length
//! `r`, which walks `r − 1` steps for that one sample. An arc of weight
//! `w` gets `E_e = M·w/(T·vol)` walks (`ratio/2` on unit weights), every
//! walk flips the downsampling coin (`p_e`), and a survivor deposits
//! weight `1/p_e` at *both* orientations of each of its `T` samples, so
//! the aggregated weight `w(i, j)` satisfies
//!
//! ```text
//! E[w(i,j)] = (2M / (vol(G)·T)) · d_i · Σ_{r=1..T} (D⁻¹A)^r_{ij}
//! ```
//!
//! which `netmf.rs` inverts to recover the NetMF matrix entry. The two
//! orientations keep the accumulated matrix symmetric in expectation and
//! in structure; the shared table stores the pair once and folds the two
//! adjacent deposits into one atomic add, and the two-deposit contract
//! stays, so any aggregator — NetSMF's buffers among them — sees every
//! orientation. [`SamplerStats`] counts samples, `T` per walk: `2·kept`
//! deposits, `kept/trials` the survival rate.
//!
//! Deposits do not go to the aggregator one by one: each arc-balanced
//! range of `map_arcs_with` owns a `SampleBuffer` that hands them over
//! 4096 at a time through [`EdgeAggregator::add_batch`] (the
//! last, partial one explicitly when the range ends), and counts its
//! samples and survivors locally. Nothing shared — no lock, no
//! atomic — is touched per sample; the table pays its lock and its `len`
//! update once per shard slice of a batch. The buffer belongs to the range
//! and not to the table: per-worker buffers owned by the table sat behind
//! adjacent locks that shared a cache line.
//!
//! ## Walk lanes
//!
//! A walk step is one dependent fetch, and a range that runs one arc's
//! walks to completion before the next waits on one fetch at a time. So
//! each range keeps up to [`WALK_LANES`] *lanes* in flight, on every
//! backend ([`Lanes`]; [`sample_into_lanes`] takes any `W`). A lane holds
//! one arc: its stream `XorShiftStream::new(seed, arc_idx)`, its walks not
//! yet started, `p_e` and `1/p_e`, the vertex its current walk is at and
//! the steps that walk has left. `map_arcs_with`'s `f` draws the arc's
//! walk count and puts it in a free lane (a walk of no steps, `T = 1`,
//! is deposited there and then); while every lane is busy, one pass steps
//! each lane once — `W` independent fetches in flight — and deposits the
//! pair it reaches. A lane whose walk ends starts its next walk, or frees
//! itself for the range's next arc. `end` steps the remaining lanes to
//! completion. The lanes are a fixed array, the busy ones packed at the
//! front. The dynamic embedder (`lightne_core::dynamic`) feeds its new
//! arcs into the same [`Lanes`].
//!
//! The lane count is the sampler's constant, not the backend's. The
//! compressed container's step is a block decode (~114 ns on `arice`),
//! arithmetic rather than a wait: lanes buy it nothing and cost it a few
//! per cent against a one-arc loop, the price of one code path
//! (EXPERIMENTS.md, "PR 35").
//!
//! The bytes are the same at every `W`, for three reasons:
//! 1. every arc draws from its own stream in one order — the count coin,
//!    then per walk the survival coin (only if `p_e < 1`) and the steps,
//!    one draw each, as [`lightne_graph::walk::walk`] takes them — so
//!    every arc makes the same samples;
//! 2. the table sums weights in fixed point, so the order in which
//!    samples arrive does not change a sum;
//! 3. a sample's two deposits stay adjacent in the buffer, so the table
//!    still folds them into one add.
//!
//! The loop is written once against [`WeightedOps`] — Theorems 3.1–3.2
//! are stated for a weighted `A`, and an unweighted graph is its
//! unit-weight case. What differs between the two (exact integer vs
//! weight-proportional sample counts, uniform vs alias-table neighbor
//! draw, counted vs summed two-hop conductance) is the backend's.

use crate::downsample::{default_c, survival_probability, ProbScheme};
use lightne_graph::{VertexId, WeightedOps};
use lightne_hash::EdgeAggregator;
use lightne_utils::rng::XorShiftStream;
use std::sync::atomic::{AtomicU64, Ordering};

/// Typed failure of the sampling stage. The sampler used to `assert!` on
/// these, which tore down the whole process on degenerate inputs that
/// callers (CLI, library embedders) can perfectly well report and survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerError {
    /// The graph has no arcs — there is nothing to sample from.
    EmptyGraph,
    /// `window` was 0; a walk yields `T` samples, so `T ≥ 1`.
    ZeroWindow,
}

impl std::fmt::Display for SamplerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplerError::EmptyGraph => write!(f, "graph has no edges"),
            SamplerError::ZeroWindow => write!(f, "window T must be >= 1"),
        }
    }
}

impl std::error::Error for SamplerError {}

/// Configuration of the sampling stage.
#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    /// Context window size `T`: every walk takes `T − 1` steps and yields
    /// `T` samples.
    pub window: usize,
    /// Total expected number of samples `M` (ordered pairs, `T` per walk).
    pub samples: u64,
    /// Whether the degree-based downsampling layer is active.
    pub downsample: bool,
    /// Downsampling constant `C`; `None` means the paper's `log n`.
    pub c_factor: Option<f64>,
    /// Edge-survival probability of the downsampling coin; the one
    /// [`ProbScheme`] variant is the degree bound.
    pub prob: ProbScheme,
    /// RNG seed; every arc derives an independent stream from it.
    pub seed: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            window: 10,
            samples: 0,
            downsample: true,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 0xFACE,
        }
    }
}

impl SamplerConfig {
    /// The downsampling constant in force on a graph of `n` vertices.
    pub(crate) fn c(&self, n: usize) -> f64 {
        self.c_factor.unwrap_or_else(|| default_c(n))
    }
}

/// Statistics reported by a sampling run (consumed by the Section 5.2.4
/// memory/sample-size ablation).
#[derive(Debug, Clone, Copy, Default)]
pub struct SamplerStats {
    /// Samples drawn (≈ `config.samples`): `T` per walk started.
    pub trials: u64,
    /// Samples kept by the downsampling coin: `T` per surviving walk, each
    /// deposited at both orientations.
    pub kept: u64,
    /// Distinct entries in the aggregator afterwards: unordered pairs in
    /// the shared table (one slot holds both orientations), ordered pairs
    /// in NetSMF's buffers.
    pub distinct_entries: usize,
    /// Aggregator heap bytes afterwards.
    pub aggregator_bytes: usize,
}

/// Deposits one [`SampleBuffer`] collects before it hands them to the
/// aggregator in one [`EdgeAggregator::add_batch`] (two per kept sample):
/// 48 KiB, and ~500-key slices across `rmat_sample`'s 8 shards. Chosen by
/// measurement (EXPERIMENTS.md "PR 21"): replaying `rmat_sample`'s
/// recorded batches into its table on two threads took a median 0.237 /
/// 0.240 / 0.238 / 0.245 s at 512 / 1024 / 4096 / 16384 deposits — flat,
/// so a size from the middle of the flat range.
pub(crate) const SAMPLE_BATCH: usize = 4096;

/// A fixed-capacity buffer of `(u, v, w)` deposits in front of an
/// aggregator, like a `BufWriter`: a full buffer goes over in one
/// [`EdgeAggregator::add_batch`], and so does the rest when the buffer is
/// dropped — unless the thread is unwinding, because a panic out of
/// `add_batch` must not be followed by another call into it (a panic
/// during unwinding aborts the process).
struct SampleBuffer<'a, A: EdgeAggregator> {
    agg: &'a A,
    deposits: Vec<(u32, u32, f32)>,
}

impl<'a, A: EdgeAggregator> SampleBuffer<'a, A> {
    /// An empty buffer in front of `agg`.
    fn new(agg: &'a A) -> Self {
        Self { agg, deposits: Vec::with_capacity(SAMPLE_BATCH) }
    }

    /// Deposits `w` at `(u, v)`; hands the buffer over when it fills.
    #[inline]
    fn deposit(&mut self, u: VertexId, v: VertexId, w: f32) {
        self.deposits.push((u, v, w));
        if self.deposits.len() == SAMPLE_BATCH {
            self.hand_over();
        }
    }

    /// Hands whatever is buffered to the aggregator.
    fn hand_over(&mut self) {
        if !self.deposits.is_empty() {
            self.agg.add_batch(&self.deposits);
            self.deposits.clear();
        }
    }
}

impl<A: EdgeAggregator> Drop for SampleBuffer<'_, A> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.hand_over();
        }
    }
}

/// Walks the sampler keeps in flight per arc range. Four to 32 lanes ran
/// the benchmark graphs' sampling within noise of each other, under
/// PathSampling (EXPERIMENTS.md, "Interleaved walk lanes") and again with
/// a deposit after every step (8, 16 and 32 lanes on `rmat_sample`'s
/// CSR and `rmat_v2mmap`'s `arice` graph, one and two threads,
/// EXPERIMENTS.md "Prefix pairs"); sixteen is the middle of that flat
/// range, and sixteen lanes' state (88 bytes each) stays in L1.
pub const WALK_LANES: usize = 16;

/// Runs Algorithm 2 over `g`, depositing weighted samples into `agg`,
/// with [`WALK_LANES`] walks in flight per arc range.
///
/// # Errors
/// [`SamplerError::ZeroWindow`] if `cfg.window == 0`;
/// [`SamplerError::EmptyGraph`] if `g` has no arcs (zero volume).
pub fn sample_into<G: WeightedOps, A: EdgeAggregator>(
    g: &G,
    cfg: &SamplerConfig,
    agg: &A,
) -> Result<SamplerStats, SamplerError> {
    sample_into_lanes::<WALK_LANES, G, A>(g, cfg, agg)
}

/// [`sample_into`] with `W` lanes per arc range; `W = 1` runs one arc at
/// a time. Every `W` deposits the same samples (module docs), which tests
/// hold it to.
///
/// # Errors
/// As [`sample_into`].
pub fn sample_into_lanes<const W: usize, G: WeightedOps, A: EdgeAggregator>(
    g: &G,
    cfg: &SamplerConfig,
    agg: &A,
) -> Result<SamplerStats, SamplerError> {
    if cfg.window < 1 {
        return Err(SamplerError::ZeroWindow);
    }
    if g.volume() <= 0.0 {
        return Err(SamplerError::EmptyGraph);
    }
    let c = cfg.c(g.num_vertices());

    let trials_ctr = AtomicU64::new(0);
    let kept_ctr = AtomicU64::new(0);
    g.map_arcs_with(
        || Lanes::<G, A, W>::new(g, cfg.window, agg),
        |lanes, u, v, w, arc_idx| {
            let mut rng = XorShiftStream::new(cfg.seed, arc_idx);
            let (whole, frac) = g.arc_trials(cfg.samples, w);
            let walks = (whole as f64 + frac) / cfg.window as f64;
            let n_e = walks as u64 + u64::from(rng.bernoulli(walks.fract()));
            if n_e > 0 {
                let p_e = if cfg.downsample { survival_probability(g, u, v, w, c) } else { 1.0 };
                lanes.enqueue(rng, (u, v), n_e, p_e);
            }
        },
        |lanes| {
            let (trials, kept) = lanes.walk_out();
            // ordering: advisory stats counters; commutative adds, read
            // only after the parallel region joins (join is the
            // synchronisation).
            trials_ctr.fetch_add(trials, Ordering::Relaxed);
            kept_ctr.fetch_add(kept, Ordering::Relaxed);
        },
    );

    // ordering: single-threaded here, post-join reads of the counters.
    Ok(SamplerStats {
        trials: trials_ctr.load(Ordering::Relaxed),
        kept: kept_ctr.load(Ordering::Relaxed),
        distinct_entries: agg.distinct_edges(),
        aggregator_bytes: agg.memory_bytes(),
    })
}

/// One arc's walks in flight: the arc's stream, its walks not yet
/// started, `p_e` and the `1/p_e` it deposits, and its current walk — the
/// vertex it is at and the steps it has left.
struct Lane {
    rng: XorShiftStream,
    walks: u64,
    p_e: f64,
    w: f32,
    u: VertexId,
    v: VertexId,
    cur: VertexId,
    left: usize,
}

impl Lane {
    fn new(rng: XorShiftStream, (u, v): (VertexId, VertexId), walks: u64, p_e: f64) -> Self {
        let w = (1.0 / p_e) as f32;
        Self { rng, walks, p_e, w, u, v, cur: v, left: 0 }
    }

    /// Deposits the sample `(u, cur)`'s two orientations next to each
    /// other.
    #[inline]
    fn deposit<A: EdgeAggregator>(&self, out: &mut SampleBuffer<'_, A>) {
        out.deposit(self.u, self.cur, self.w);
        out.deposit(self.cur, self.u, self.w);
    }

    /// Starts the arc's next surviving walk at `v` after its coin (if
    /// `p_e < 1`), deposits its first sample and counts its `window`
    /// samples in `kept`. `true` once a walk has a step to take, `false`
    /// once the arc's walks are spent.
    #[inline]
    fn start_walk<A: EdgeAggregator>(
        &mut self,
        window: usize,
        kept: &mut u64,
        out: &mut SampleBuffer<'_, A>,
    ) -> bool {
        while self.walks > 0 {
            self.walks -= 1;
            if self.p_e < 1.0 && !self.rng.bernoulli(self.p_e) {
                continue;
            }
            *kept += window as u64;
            (self.cur, self.left) = (self.v, window - 1);
            self.deposit(out);
            if self.left > 0 {
                return true;
            }
        }
        false
    }
}

/// The lane engine: up to `W` arcs' walks in flight over `g`
/// (`lanes[..live]` are walking), the buffer in front of the aggregator,
/// and the samples drawn and kept so far. Each range of
/// [`sample_into_lanes`] owns one, and so does each batch of the dynamic
/// embedder: [`Lanes::enqueue`] every arc with its stream, then
/// [`Lanes::walk_out`].
pub struct Lanes<'a, G, A: EdgeAggregator, const W: usize> {
    g: &'a G,
    window: usize,
    out: SampleBuffer<'a, A>,
    lanes: [Lane; W],
    live: usize,
    trials: u64,
    kept: u64,
}

impl<'a, G: WeightedOps, A: EdgeAggregator, const W: usize> Lanes<'a, G, A, W> {
    /// No arc in flight; walks of `window − 1` steps over `g`, whose
    /// samples go to `agg`.
    pub fn new(g: &'a G, window: usize, agg: &'a A) -> Self {
        let idle = |_| Lane::new(XorShiftStream::new(0, 0), (0, 0), 0, 1.0);
        Self {
            g,
            window,
            out: SampleBuffer::new(agg),
            lanes: std::array::from_fn(idle),
            live: 0,
            trials: 0,
            kept: 0,
        }
    }

    /// Takes the `n_e` walks of arc `(u, v)` into a lane: each flips the
    /// `p_e` coin, and every survivor walks from `v`, depositing `1/p_e`
    /// at both orientations of `(u, z_r)` for each of its `T` vertices,
    /// all drawing from `rng`. Walks that take no step are deposited at
    /// once; while every lane is walking, the lanes step.
    #[inline]
    pub fn enqueue(&mut self, rng: XorShiftStream, arc: (VertexId, VertexId), n_e: u64, p_e: f64) {
        let mut lane = Lane::new(rng, arc, n_e, p_e);
        self.trials += n_e * self.window as u64;
        if lane.start_walk(self.window, &mut self.kept, &mut self.out) {
            self.lanes[self.live] = lane;
            self.live += 1;
            while self.live == W {
                self.pass();
            }
        }
    }

    /// Steps the lanes still walking to the end, hands the last deposits
    /// to the aggregator, and returns the samples drawn and kept of every
    /// arc enqueued.
    pub fn walk_out(mut self) -> (u64, u64) {
        while self.live > 0 {
            self.pass();
        }
        self.out.hand_over();
        (self.trials, self.kept)
    }

    /// Steps every walking lane once and deposits the sample it reaches;
    /// the last walking lane moves into the place of a lane whose arc is
    /// done.
    #[inline]
    fn pass(&mut self) {
        let mut i = self.live;
        while i > 0 {
            i -= 1;
            let lane = &mut self.lanes[i];
            // An isolated vertex keeps the walk where it is, as in `walk`.
            if let Some(next) = self.g.step(lane.cur, &mut lane.rng) {
                lane.cur = next;
            }
            lane.left -= 1;
            lane.deposit(&mut self.out);
            if lane.left == 0 && !lane.start_walk(self.window, &mut self.kept, &mut self.out) {
                self.live -= 1;
                self.lanes.swap(i, self.live);
            }
        }
    }
}

/// Expected distinct-pair count used to pre-size the aggregation table,
/// from the expected kept-sample total. Table memory must track *distinct*
/// entries, not kept samples — that is the whole point of the shared hash
/// table (Section 5.2.4). The table keeps one slot per unordered pair, and
/// every kept sample adds to exactly one, so distinct pairs are bounded by
/// both the kept samples and the `n(n+1)/2` unordered pairs. (A
/// tighter-looking T-hop cap, `n·C·T²`, undercut a dense 400-vertex graph
/// at sample ratio 16 by 2×.)
pub(crate) fn distinct_guess<G: WeightedOps>(g: &G, expected_kept: f64) -> usize {
    let n = g.num_vertices() as f64;
    expected_kept.min(n * (n + 1.0) / 2.0).max(1024.0) as usize
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::exact::walk_sum;
    use crate::sharded::sparsifier_coo;
    use lightne_gen::generators::{erdos_renyi, watts_strogatz};
    use lightne_graph::{Codec, Graph, V2Graph};
    use lightne_hash::ShardedEdgeTable;
    use lightne_linalg::DenseMatrix;

    /// Relative L1 distance of the aggregated weights from their
    /// expectation `E[w(i,j)] = 2M/(vol·T) · d_i · Σ_r P^r_ij`.
    pub(crate) fn estimator_error<G: WeightedOps>(
        g: &G,
        cfg: &SamplerConfig,
    ) -> (f64, SamplerStats) {
        let n = g.num_vertices();
        let (coo, stats) = sparsifier_coo(g, cfg);
        let mut got = DenseMatrix::zeros(n, n);
        for (i, j, w) in coo {
            got.set(i as usize, j as usize, got.get(i as usize, j as usize) + w);
        }
        let exact = walk_sum(g, cfg.window);
        let scale = 2.0 * cfg.samples as f64 / (g.volume() * cfg.window as f64);
        let mut err = 0.0;
        let mut reference = 0.0;
        for i in 0..n {
            let di = g.weighted_degree(i as u32);
            for j in 0..n {
                let want = scale * di * exact.get(i, j) as f64;
                err += (got.get(i, j) as f64 - want).abs();
                reference += want;
            }
        }
        (err / reference, stats)
    }

    fn check_estimator(g: &Graph, cfg: &SamplerConfig, rel_tol: f64) {
        let (rel, _) = estimator_error(g, cfg);
        assert!(rel < rel_tol, "aggregate estimator error {rel} (tol {rel_tol})");
    }

    #[test]
    fn estimator_unbiased_no_downsampling() {
        let g = erdos_renyi(60, 400, 11);
        let cfg = SamplerConfig {
            window: 3,
            samples: 3_000_000,
            downsample: false,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 1,
        };
        check_estimator(&g, &cfg, 0.03);
    }

    #[test]
    fn estimator_unbiased_with_downsampling() {
        let g = erdos_renyi(60, 400, 13);
        let cfg = SamplerConfig {
            window: 3,
            samples: 3_000_000,
            downsample: true,
            c_factor: Some(0.5), // aggressive, to actually exercise p_e < 1
            prob: ProbScheme::Degree,
            seed: 2,
        };
        check_estimator(&g, &cfg, 0.10);
    }

    #[test]
    fn downsampling_reduces_kept_samples() {
        let g = erdos_renyi(500, 20_000, 3);
        let base = SamplerConfig {
            window: 5,
            samples: 500_000,
            downsample: false,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 3,
        };
        let (_, s_off) = sparsifier_coo(&g, &base);
        let (_, s_on) = sparsifier_coo(&g, &SamplerConfig { downsample: true, ..base });
        assert!(s_on.kept < s_off.kept / 2, "kept {} vs {}", s_on.kept, s_off.kept);
        assert!(s_on.distinct_entries < s_off.distinct_entries);
        // Trials are the same in expectation.
        let ratio = s_on.trials as f64 / s_off.trials as f64;
        assert!((ratio - 1.0).abs() < 0.05);
    }

    #[test]
    fn trial_count_concentrates_around_m() {
        let g = erdos_renyi(200, 1_000, 5);
        for &m in &[1_000u64, 33_333, 100_000] {
            let cfg = SamplerConfig {
                window: 4,
                samples: m,
                downsample: false,
                seed: 7,
                ..Default::default()
            };
            let (_, stats) = sparsifier_coo(&g, &cfg);
            let rel = (stats.trials as f64 - m as f64).abs() / m as f64;
            assert!(rel < 0.1, "M={m}: got {} trials", stats.trials);
        }
    }

    #[test]
    fn sparsifier_is_structurally_symmetric() {
        let g = erdos_renyi(100, 800, 9);
        let cfg = SamplerConfig {
            window: 5,
            samples: 100_000,
            downsample: true,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 4,
        };
        let (coo, _) = sparsifier_coo(&g, &cfg);
        use std::collections::BTreeMap;
        let map: BTreeMap<(u32, u32), f32> = coo.iter().map(|&(u, v, w)| ((u, v), w)).collect();
        for &(u, v, w) in &coo {
            let mirror = *map.get(&(v, u)).unwrap_or(&0.0);
            assert!((w - mirror).abs() < 1e-3 * w.abs().max(1.0), "asymmetry at ({u},{v})");
        }
    }

    #[test]
    fn compressed_and_uncompressed_graphs_agree() {
        let g = erdos_renyi(150, 2_000, 21);
        let c = V2Graph::from_graph(&g, Codec::Byte);
        let cfg = SamplerConfig { window: 4, samples: 50_000, seed: 5, ..Default::default() };
        let (mut coo_a, _) = sparsifier_coo(&g, &cfg);
        let (mut coo_b, _) = sparsifier_coo(&c, &cfg);
        // Deterministic per-arc streams + identical arc indexing ⇒ the two
        // representations generate the identical sample multiset.
        coo_a.sort_by_key(|e| (e.0, e.1));
        coo_b.sort_by_key(|e| (e.0, e.1));
        assert_eq!(coo_a.len(), coo_b.len());
        for (x, y) in coo_a.iter().zip(&coo_b) {
            assert_eq!((x.0, x.1), (y.0, y.1));
            assert!((x.2 - y.2).abs() < 1e-3 * x.2.abs().max(1.0));
        }
    }

    #[test]
    fn window_one_only_samples_edges() {
        let g = watts_strogatz(64, 2, 0.0, 6);
        let cfg = SamplerConfig {
            window: 1,
            samples: 20_000,
            downsample: false,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 8,
        };
        let (coo, _) = sparsifier_coo(&g, &cfg);
        for (u, v, _) in coo {
            assert!(g.has_edge(u, v), "T=1 sample ({u},{v}) is not an edge");
        }
    }

    /// `ShardedEdgeTable` with `add_batch` hidden behind the default,
    /// which calls `add` once per entry.
    struct OneByOne(ShardedEdgeTable);

    impl EdgeAggregator for OneByOne {
        fn add(&self, u: u32, v: u32, weight: f32) {
            self.0.add_edge(u, v, weight);
        }

        fn distinct_edges(&self) -> usize {
            self.0.len()
        }

        fn memory_bytes(&self) -> usize {
            self.0.memory_bytes()
        }

        fn into_coo(self) -> Vec<(u32, u32, f32)> {
            self.0.into_coo()
        }
    }

    #[test]
    fn batched_and_one_by_one_aggregation_agree() {
        let g = erdos_renyi(400, 4_000, 17);
        let cfg = SamplerConfig { window: 5, samples: 300_000, seed: 23, ..Default::default() };
        let batched = ShardedEdgeTable::new(400, 8, 1024);
        let a = sample_into(&g, &cfg, &batched).unwrap();
        let one_by_one = OneByOne(ShardedEdgeTable::new(400, 8, 1024));
        let b = sample_into(&g, &cfg, &one_by_one).unwrap();
        assert!(a.kept > 10 * SAMPLE_BATCH as u64, "the run must fill many buffers");
        assert_eq!((a.trials, a.kept, a.distinct_entries), (b.trials, b.kept, b.distinct_entries));
        let bits = |coo: Vec<(u32, u32, f32)>| -> Vec<(u32, u32, u32)> {
            coo.into_iter().map(|(u, v, w)| (u, v, w.to_bits())).collect()
        };
        assert_eq!(bits(batched.into_coo()), bits(one_by_one.into_coo()));
    }

    #[test]
    fn empty_graph_is_a_typed_error() {
        let g = lightne_graph::GraphBuilder::from_edges(4, &[]);
        let cfg = SamplerConfig { samples: 100, ..Default::default() };
        let table = ShardedEdgeTable::new(4, 1, 16);
        assert_eq!(sample_into(&g, &cfg, &table).unwrap_err(), super::SamplerError::EmptyGraph);
    }

    #[test]
    fn zero_window_is_a_typed_error() {
        let g = lightne_graph::GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]);
        let cfg = SamplerConfig { window: 0, samples: 100, ..Default::default() };
        let err = sample_into(&g, &cfg, &ShardedEdgeTable::new(3, 1, 16)).unwrap_err();
        assert_eq!(err, super::SamplerError::ZeroWindow);
        assert_eq!(err.to_string(), "window T must be >= 1");
    }
}
