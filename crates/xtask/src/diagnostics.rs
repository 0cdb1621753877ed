//! Diagnostic type and rendering (human text and machine JSON).
//!
//! JSON is emitted by hand: the offline workspace has no serde, and the
//! shape is a flat list of objects with string/number fields, so escaping
//! is the only real work.

use std::fmt;

/// One lint violation, pointing at a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Lint code: `L3`, `L4`, or `allow` for a waiver naming neither.
    pub lint: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// 1-based column of the violation.
    pub col: u32,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: [{}] {}", self.file, self.line, self.col, self.lint, self.message)
    }
}

/// Escapes `s` for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as a JSON document:
/// `{"violations": [...], "count": N, "ok": bool}`.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"violations\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
            d.lint,
            json_escape(&d.file),
            d.line,
            d.col,
            json_escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"count\": {},\n  \"ok\": {}\n}}\n",
        diags.len(),
        diags.is_empty()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_clickable() {
        let d = Diagnostic {
            lint: "L4",
            file: "crates/core/src/engine.rs".into(),
            line: 42,
            col: 5,
            message: "unjustified Relaxed".into(),
        };
        assert_eq!(d.to_string(), "crates/core/src/engine.rs:42:5: [L4] unjustified Relaxed");
    }

    #[test]
    fn json_escapes_and_counts() {
        let diags = vec![Diagnostic {
            lint: "L3",
            file: "a\\b.rs".into(),
            line: 1,
            col: 2,
            message: "needs \"ordering:\"".into(),
        }];
        let j = to_json(&diags);
        assert!(j.contains("\"file\": \"a\\\\b.rs\""));
        assert!(j.contains("\\\"ordering:\\\""));
        assert!(j.contains("\"count\": 1"));
        assert!(j.contains("\"ok\": false"));
    }

    #[test]
    fn empty_is_ok() {
        let j = to_json(&[]);
        assert!(j.contains("\"count\": 0"));
        assert!(j.contains("\"ok\": true"));
    }
}
