//! Duration formatting.
//!
//! The paper reports a per-stage running-time breakdown (Table 5:
//! sparsifier construction / randomized SVD / spectral propagation). The
//! stage engine's `RunStats` records and prints those rows; this module
//! is the duration format they are printed in.

use std::time::Duration;

/// Formats a duration the way the paper reports times ("32.8 min", "1.53 h").
pub fn humanize(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2} s")
    } else if s < 7200.0 {
        format!("{:.1} min", s / 60.0)
    } else {
        format!("{:.2} h", s / 3600.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn humanize_bands() {
        assert!(humanize(Duration::from_millis(10)).ends_with("ms"));
        assert!(humanize(Duration::from_secs(30)).ends_with('s'));
        assert!(humanize(Duration::from_secs(600)).ends_with("min"));
        assert!(humanize(Duration::from_secs(8000)).ends_with('h'));
    }
}
