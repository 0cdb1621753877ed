//! Sparse parallel hashing for sparsifier construction (Section 4.2).
//!
//! The sampling stage of LightNE generates an enormous stream of weighted
//! edges from all threads at once and must count, per *distinct* edge, the
//! total weight with which it was sampled. This crate is that one table:
//!
//! [`ShardedEdgeTable`] — a shared open-addressing hash table with linear
//! probing. The sparsifier is symmetric, so a slot holds an *unordered*
//! pair: both orientations of `{u, v}` map to one packed key
//! ([`pair_key`]) claimed by CAS, and the slot accumulates `M_uv + M_vu`
//! with atomic adds (`xadd` for integer counts in the paper; fixed-point
//! here because downsampling introduces fractional weights `1/p_e`). The
//! table reads back as the symmetric part of what was added — on the
//! sampler's input, which deposits every sample at both orientations,
//! exactly what a table of ordered pairs would hold, in half the slots.
//! The claims and adds of one batch run inside one per-shard `RwLock`
//! read acquisition, which a resize takes exclusively — so the table is
//! not lock-free, but no insert waits for another insert. Memory is
//! proportional to the number of *distinct* pairs. One shard is the
//! paper's single shared table; more shards split the source-vertex range
//! so each resizes on its own and drains into its own CSR row block.
//!
//! The strategy the paper ablates against in Section 5.2.4 — NetSMF's
//! per-thread buffers, whose memory grows with the number of *samples* —
//! is a baseline's, and lives with that baseline
//! (`lightne_baselines::netsmf`). It plugs into the sampler through the
//! same [`EdgeAggregator`] interface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concurrent;
mod sharded;
mod sync_shim;

pub use sharded::{ShardRun, ShardStats, ShardedEdgeTable};

/// Packs an edge into a table key.
#[inline]
pub fn pack_key(u: u32, v: u32) -> u64 {
    ((u as u64) << 32) | v as u64
}

/// Unpacks a table key into an edge.
#[inline]
pub fn unpack_key(k: u64) -> (u32, u32) {
    ((k >> 32) as u32, k as u32)
}

/// The table key of the unordered pair `{u, v}` over vertex ids `[0,
/// n_vertices)`: `(source, target)` packed, both orientations mapping to
/// the same key. The source is one of the two ids by a bit of a
/// multiplicative hash of `u ^ v` — so a vertex is the source of about
/// half its pairs — except that a pair whose larger id is at or past
/// `n_vertices` keeps the smaller.
#[inline]
pub fn pair_key(u: u32, v: u32, n_vertices: usize) -> u64 {
    let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
    let upper = (lo ^ hi).wrapping_mul(0x9E37_79B9) >> 31 == 1;
    let source = if upper && (hi as usize) < n_vertices { hi } else { lo };
    pack_key(source, lo ^ hi ^ source)
}

/// Common interface for edge-weight aggregation strategies, so the
/// sparsifier and the ablation harness can swap them freely.
pub trait EdgeAggregator: Sync {
    /// Adds `weight` to the accumulated weight of edge `(u, v)`.
    fn add(&self, u: u32, v: u32, weight: f32);

    /// Adds every `(u, v, weight)` of `batch`, with the same result as
    /// [`Self::add`] on each in turn. The sampler hands its samples over
    /// this way, one buffer at a time; an aggregator that gains from
    /// seeing many adds at once overrides it.
    fn add_batch(&self, batch: &[(u32, u32, f32)]) {
        for &(u, v, w) in batch {
            self.add(u, v, w);
        }
    }

    /// Number of distinct entries currently held (unordered pairs for a
    /// table that stores a pair once).
    fn distinct_edges(&self) -> usize;

    /// Heap bytes currently committed by the aggregator (the quantity the
    /// Section 5.2.4 sample-size ablation compares).
    fn memory_bytes(&self) -> usize;

    /// Consumes the aggregator, returning `(u, v, total_weight)` triples
    /// in unspecified order.
    fn into_coo(self) -> Vec<(u32, u32, f32)>
    where
        Self: Sized;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        for &(u, v) in &[(0u32, 0u32), (1, 2), (u32::MAX, 0), (7, u32::MAX)] {
            assert_eq!(unpack_key(pack_key(u, v)), (u, v));
        }
    }
}
