//! Deterministic fault injection for crash-consistency testing.
//!
//! The artifact store, the stage engine, and the matrix I/O layer are
//! instrumented with *named fail points*. A fail point does nothing until a
//! test (or the `--fail-point` CLI flag) **arms** it with a [`FaultAction`]:
//!
//! * `io-error` — the instrumented operation returns an injected
//!   [`std::io::Error`] (propagated as the caller's typed error);
//! * `truncate:N` — the bytes about to be written are cut to `N` bytes,
//!   *after* their checksum was recorded, simulating a torn write that the
//!   storage layer acknowledged (e.g. power loss with a lying page cache);
//! * `bitflip:SEED` — one bit of the outgoing bytes is flipped at a
//!   position derived deterministically from `SEED`, simulating silent
//!   storage corruption;
//! * `panic` — the process panics at the fail point, simulating a crash.
//!
//! Everything is deterministic: no clocks, no OS randomness — a seed
//! selects the flipped bit, so a failing case replays exactly.
//!
//! The whole subsystem is compiled away unless the `failpoints` feature is
//! enabled: with the feature off, [`check`] and [`mangle`] are inlined
//! no-ops and release binaries pay zero cost. The workspace enables the
//! feature for test builds only (via dev-dependency feature unification),
//! so `cargo test` exercises the fault paths while `cargo build --release`
//! does not carry them.

/// What an armed fail point does when execution reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return an injected I/O error from the instrumented operation.
    IoError,
    /// Truncate outgoing bytes to this length (only affects write points
    /// that go through [`mangle`]; a no-op at read/boundary points).
    Truncate(usize),
    /// Flip one bit of the outgoing bytes at a seed-derived position
    /// (write points only, like [`FaultAction::Truncate`]).
    BitFlip(u64),
    /// Panic at the fail point (simulated crash).
    Panic,
}

impl std::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultAction::IoError => write!(f, "io-error"),
            FaultAction::Truncate(n) => write!(f, "truncate:{n}"),
            FaultAction::BitFlip(s) => write!(f, "bitflip:{s}"),
            FaultAction::Panic => write!(f, "panic"),
        }
    }
}

/// Parses one action spec: `io-error`, `truncate:N`, `bitflip:SEED`, or
/// `panic`.
pub fn parse_action(s: &str) -> Result<FaultAction, String> {
    let s = s.trim();
    if let Some(n) = s.strip_prefix("truncate:") {
        return n
            .parse()
            .map(FaultAction::Truncate)
            .map_err(|e| format!("bad truncate length {n:?}: {e}"));
    }
    if let Some(seed) = s.strip_prefix("bitflip:") {
        return seed
            .parse()
            .map(FaultAction::BitFlip)
            .map_err(|e| format!("bad bitflip seed {seed:?}: {e}"));
    }
    match s {
        "io-error" => Ok(FaultAction::IoError),
        "panic" => Ok(FaultAction::Panic),
        other => Err(format!(
            "unknown fault action {other:?} (expected io-error | truncate:N | bitflip:SEED | panic)"
        )),
    }
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::{parse_action, FaultAction};
    use std::collections::BTreeMap;
    use std::io;
    use std::sync::{Mutex, OnceLock};

    #[derive(Default)]
    struct Registry {
        armed: BTreeMap<String, FaultAction>,
        hits: BTreeMap<String, u64>,
    }

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
    }

    fn lock() -> std::sync::MutexGuard<'static, Registry> {
        registry().lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether fault injection is compiled into this build.
    pub fn enabled() -> bool {
        true
    }

    /// Arms `point` with `action`; replaces any previous arming.
    pub fn arm(point: &str, action: FaultAction) -> Result<(), String> {
        lock().armed.insert(point.to_string(), action);
        Ok(())
    }

    /// Arms a `point=action[;point=action...]` spec (`,` also separates).
    pub fn arm_spec(spec: &str) -> Result<(), String> {
        for part in spec.split([';', ',']).map(str::trim).filter(|p| !p.is_empty()) {
            let (point, action) = part
                .split_once('=')
                .ok_or_else(|| format!("bad fail-point spec {part:?} (expected point=action)"))?;
            arm(point.trim(), parse_action(action)?)?;
        }
        Ok(())
    }

    /// Disarms one fail point.
    pub fn disarm(point: &str) {
        lock().armed.remove(point);
    }

    /// Disarms every fail point.
    pub fn disarm_all() {
        lock().armed.clear();
    }

    /// Clears the hit counters.
    pub fn reset_hits() {
        lock().hits.clear();
    }

    /// Hit counts per fail point since the last [`reset_hits`], recorded
    /// whether or not the point was armed.
    pub fn hits() -> Vec<(String, u64)> {
        lock().hits.iter().map(|(k, &v)| (k.clone(), v)).collect()
    }

    fn record_and_get(point: &str) -> Option<FaultAction> {
        let mut reg = lock();
        *reg.hits.entry(point.to_string()).or_insert(0) += 1;
        reg.armed.get(point).copied()
    }

    fn injected_error(point: &str) -> io::Error {
        io::Error::other(format!("injected fault at {point}"))
    }

    /// Evaluates a fail point with no byte stream attached (reads, stage
    /// boundaries). `Truncate`/`BitFlip` are no-ops here.
    pub fn check(point: &str) -> io::Result<()> {
        match record_and_get(point) {
            Some(FaultAction::IoError) => Err(injected_error(point)),
            #[expect(clippy::panic, reason = "fault injection: panicking is the feature")]
            Some(FaultAction::Panic) => panic!("injected fault panic at {point}"),
            _ => Ok(()),
        }
    }

    /// Evaluates a fail point over bytes about to be written, possibly
    /// corrupting them in place (`Truncate` / `BitFlip`).
    pub fn mangle(point: &str, bytes: &mut Vec<u8>) -> io::Result<()> {
        match record_and_get(point) {
            Some(FaultAction::IoError) => Err(injected_error(point)),
            #[expect(clippy::panic, reason = "fault injection: panicking is the feature")]
            Some(FaultAction::Panic) => panic!("injected fault panic at {point}"),
            Some(FaultAction::Truncate(n)) => {
                bytes.truncate(n);
                Ok(())
            }
            Some(FaultAction::BitFlip(seed)) => {
                if !bytes.is_empty() {
                    let bit = (seed as usize) % (bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                Ok(())
            }
            None => Ok(()),
        }
    }
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    use super::FaultAction;
    use std::io;

    const DISABLED: &str =
        "fail points are not compiled into this build (enable the `failpoints` feature)";

    /// Whether fault injection is compiled into this build.
    pub fn enabled() -> bool {
        false
    }

    /// Arming always fails: fail points are compiled out.
    pub fn arm(_point: &str, _action: FaultAction) -> Result<(), String> {
        Err(DISABLED.into())
    }

    /// Arming always fails: fail points are compiled out.
    pub fn arm_spec(_spec: &str) -> Result<(), String> {
        Err(DISABLED.into())
    }

    /// No-op (compiled out).
    pub fn disarm(_point: &str) {}

    /// No-op (compiled out).
    pub fn disarm_all() {}

    /// No-op (compiled out).
    pub fn reset_hits() {}

    /// Always empty (compiled out).
    pub fn hits() -> Vec<(String, u64)> {
        Vec::new()
    }

    /// Zero-cost no-op (compiled out).
    #[inline(always)]
    pub fn check(_point: &str) -> io::Result<()> {
        Ok(())
    }

    /// Zero-cost no-op (compiled out).
    #[inline(always)]
    pub fn mangle(_point: &str, _bytes: &mut Vec<u8>) -> io::Result<()> {
        Ok(())
    }
}

pub use imp::{arm, arm_spec, check, disarm, disarm_all, enabled, hits, mangle, reset_hits};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_parsing() {
        assert_eq!(parse_action("io-error").unwrap(), FaultAction::IoError);
        assert_eq!(parse_action("truncate:16").unwrap(), FaultAction::Truncate(16));
        assert_eq!(parse_action("bitflip:77").unwrap(), FaultAction::BitFlip(77));
        assert_eq!(parse_action("panic").unwrap(), FaultAction::Panic);
        assert!(parse_action("explode").is_err());
        assert!(parse_action("truncate:x").is_err());
    }

    #[test]
    fn action_display_roundtrips_through_parse() {
        for a in [
            FaultAction::IoError,
            FaultAction::Truncate(3),
            FaultAction::BitFlip(9),
            FaultAction::Panic,
        ] {
            assert_eq!(parse_action(&a.to_string()).unwrap(), a);
        }
    }

    #[cfg(feature = "failpoints")]
    mod enabled {
        use super::super::*;

        // All tests below share the process-global registry; serialize them.
        fn guard() -> std::sync::MutexGuard<'static, ()> {
            static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
            LOCK.lock().unwrap_or_else(|e| e.into_inner())
        }

        #[test]
        fn armed_io_error_and_disarm() {
            let _g = guard();
            disarm_all();
            assert!(check("t.point").is_ok());
            arm("t.point", FaultAction::IoError).unwrap();
            let err = check("t.point").unwrap_err();
            assert!(err.to_string().contains("injected fault at t.point"));
            disarm("t.point");
            assert!(check("t.point").is_ok());
        }

        #[test]
        fn mangle_truncates_and_flips_deterministically() {
            let _g = guard();
            disarm_all();
            arm("t.trunc", FaultAction::Truncate(2)).unwrap();
            let mut b = vec![1u8, 2, 3, 4];
            mangle("t.trunc", &mut b).unwrap();
            assert_eq!(b, [1, 2]);

            arm("t.flip", FaultAction::BitFlip(11)).unwrap();
            let mut x = vec![0u8; 4];
            let mut y = vec![0u8; 4];
            mangle("t.flip", &mut x).unwrap();
            mangle("t.flip", &mut y).unwrap();
            assert_eq!(x, y, "bit flip must be deterministic");
            assert_eq!(x.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
            disarm_all();
        }

        #[test]
        fn spec_parsing_arms_multiple_points() {
            let _g = guard();
            disarm_all();
            arm_spec("a.one=io-error; b.two=truncate:8").unwrap();
            assert!(check("a.one").is_err());
            let mut b = vec![0u8; 16];
            mangle("b.two", &mut b).unwrap();
            assert_eq!(b.len(), 8);
            assert!(arm_spec("garbage").is_err());
            disarm_all();
        }

        #[test]
        fn hits_are_recorded_even_when_disarmed() {
            let _g = guard();
            disarm_all();
            reset_hits();
            check("t.hit").unwrap();
            check("t.hit").unwrap();
            let hits = hits();
            let n = hits.iter().find(|(p, _)| p == "t.hit").map(|&(_, n)| n);
            assert_eq!(n, Some(2));
            reset_hits();
        }

        #[test]
        #[should_panic(expected = "injected fault panic at t.panic")]
        fn panic_action_panics() {
            // No guard: arming is scoped to a unique name, and the panic
            // would poison a held guard for the other tests.
            arm("t.panic", FaultAction::Panic).unwrap();
            let _ = check("t.panic");
        }
    }
}
