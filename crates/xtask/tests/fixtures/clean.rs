// Clean fixture: a near-miss of every workspace check in one file. Linted
// by `cargo xtask check` as crates/core/src/fixture_clean.rs it must
// report ZERO violations; compiled as a module of a crate that carries the
// workspace lint table, clippy.toml and the library crates' panic denies,
// `cargo clippy -- -D warnings` must pass it too.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lightne_utils::parallel::parallel_reduce_sum;

// unsafe_code / undocumented_unsafe_blocks near-miss: documented unsafe in
// a module that declares itself the unsafe module.
#[expect(unsafe_code, reason = "the fixture's one unsafe module")]
pub mod raw {
    /// Reads the byte behind `p`.
    ///
    /// # Safety
    ///
    /// `p` must point to at least one initialized byte.
    pub unsafe fn read_first(p: *const u8) -> u8 {
        // SAFETY: the caller guarantees `p` points to at least one
        // initialized byte.
        unsafe { *p }
    }
}

// disallowed_types near-miss: an ordered map.
pub fn histogram(xs: &[u32]) -> BTreeMap<u32, usize> {
    let mut h = BTreeMap::new();
    for &x in xs {
        *h.entry(x).or_insert(0) += 1;
    }
    h
}

// L3 near-miss: the deterministic fixed-block reduction helper.
pub fn total_weight(w: &[f32]) -> f64 {
    parallel_reduce_sum(w.len(), |i| w[i] as f64)
}

// L4 near-miss: justified Relaxed.
pub fn observed_len(len: &AtomicU64) -> u64 {
    // ordering: Relaxed — statistics counter read outside the insertion
    // critical path; no other memory is published through it.
    len.load(Ordering::Relaxed)
}

// disallowed_methods near-miss: a reasoned wall-clock read.
pub fn stage_seconds(f: impl FnOnce()) -> f64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock stage timing for progress reporting only"
    )]
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

// Panic-lint near-miss: a reasoned `expect`.
pub fn first_key(h: &BTreeMap<u32, usize>) -> u32 {
    #[expect(clippy::expect_used, reason = "callers pass a non-empty histogram")]
    let (&k, _) = h.iter().next().expect("non-empty");
    k
}

// Lexer fidelity: every banned name as string data must stay inert.
pub fn banned_words() -> &'static str {
    "HashMap HashSet SystemTime::now thread_rng Ordering::Relaxed unsafe par_iter().sum()"
}

#[cfg(test)]
mod tests {
    // Tests may unwrap (allow-unwrap-in-tests in clippy.toml) and load
    // atomics without an ordering argument.
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn scaffolding() {
        assert_eq!(super::histogram(&[1, 1]).get(&1).copied().unwrap(), 2);
        assert_eq!(AtomicU64::new(3).load(Ordering::Relaxed), 3);
    }
}
