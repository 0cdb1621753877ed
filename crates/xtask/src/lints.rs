//! The two token lints (L3, L4) and their suppression machinery.
//!
//! Every other workspace invariant is a compiler lint level: the root
//! `Cargo.toml`'s `[workspace.lints]` table and `clippy.toml` (see
//! DESIGN.md, "Static analysis & concurrency verification"). These two
//! have no rustc or clippy equivalent, so they run on the token stream
//! from [`crate::lexer`], where banned patterns inside string literals or
//! comments (including this file's own documentation) never fire:
//!
//! * **L3** — no floating-point reductions (`sum`, `product`, `reduce`,
//!   `fold`) or captured-accumulator `+=` inside rayon parallel chains,
//!   outside the fixed-block helpers in `lightne_utils::parallel`:
//!   unordered float addition makes results depend on thread count.
//! * **L4** — every `Ordering::Relaxed` outside test code (`#[cfg(test)]`
//!   items, the files of out-of-line `#[cfg(test)] mod name;` modules, and
//!   the integration tests under a `tests/` directory) must carry an
//!   `// ordering:` justification comment arguing why relaxed ordering is
//!   sufficient at that site. A bare `Relaxed`, brought in by `use
//!   std::sync::atomic::Ordering::{Relaxed, …}`, is the same site; the
//!   `use` item itself is not one.
//!
//! A violation can be suppressed inline with
//! `// xtask:allow(Lk): reason` on the same or preceding line; an allow
//! without a reason is itself a violation, so the gate passes only with
//! zero *undocumented* suppressions.

use crate::config;
use crate::diagnostics::Diagnostic;
use crate::lexer::{lex, Comment, TokKind, Token};

/// Rayon method names that start a parallel chain.
const PAR_ENTRYPOINTS: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_chunks_exact",
    "par_windows",
    "par_bridge",
    "par_drain",
];

/// Chain terminals that perform an order-sensitive reduction.
const REDUCERS: &[&str] = &["sum", "product", "reduce", "fold", "reduce_with", "fold_with"];

/// Identifiers counted as floating-point evidence inside a statement.
const FLOAT_IDENT_EVIDENCE: &[&str] = &["f32", "f64", "powf", "sqrt", "exp", "ln"];

/// An inline `xtask:allow` suppression parsed from a comment.
#[derive(Debug)]
struct Allow {
    lint: String,
    line: u32,
    end_line: u32,
    has_reason: bool,
}

impl Allow {
    /// Whether this reasoned allow waives `d`: same lint, on the same line
    /// or ending up to three lines above it (the reason may wrap onto
    /// continuation comment lines).
    fn covers(&self, d: &Diagnostic) -> bool {
        self.has_reason
            && self.lint == d.lint
            && (self.line == d.line || (self.end_line < d.line && d.line - self.end_line <= 3))
    }
}

/// Per-file lint context: tokens, comments, `#[cfg(test)]` spans, allows.
struct FileCtx<'a> {
    path: &'a str,
    tokens: Vec<Token>,
    comments: Vec<Comment>,
    test_spans: Vec<(u32, u32)>,
    allows: Vec<Allow>,
}

impl<'a> FileCtx<'a> {
    fn new(path: &'a str, src: &str) -> Self {
        let lexed = lex(src);
        let test_spans = cfg_test_spans(&lexed.tokens);
        let allows = parse_allows(&lexed.comments);
        Self { path, tokens: lexed.tokens, comments: lexed.comments, test_spans, allows }
    }

    fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Whether token `i`..`i+texts.len()` matches the given texts exactly.
    fn seq(&self, i: usize, texts: &[&str]) -> bool {
        texts
            .iter()
            .enumerate()
            .all(|(k, want)| self.tokens.get(i + k).is_some_and(|t| t.text == *want))
    }

    /// Every L3 and L4 diagnostic of the file, before any allow.
    fn token_lints(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        lint_l3(self, &mut diags);
        lint_l4(self, &mut diags);
        diags
    }

    fn diag(&self, lint: &'static str, tok: &Token, message: String) -> Diagnostic {
        Diagnostic { lint, file: self.path.to_string(), line: tok.line, col: tok.col, message }
    }

    /// Whether a comment containing `marker` ends within `window` lines
    /// above `line` (or sits on the same line).
    fn has_comment_near(&self, marker: &str, line: u32, window: u32) -> bool {
        self.comments.iter().any(|c| {
            !c.is_doc()
                && c.text.contains(marker)
                && ((c.end_line <= line && line - c.end_line <= window) || c.line == line)
        })
    }
}

/// Lints one source file. `path` is the workspace-relative path with `/`
/// separators; it selects the L3 whitelist and L4's exemption of `tests/`
/// directories. Returns unsuppressed diagnostics in source order.
pub fn check_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let ctx = FileCtx::new(path, src);
    let mut out = apply_allows(&ctx, ctx.token_lints());
    out.sort_by_key(|d| (d.line, d.col, d.lint));
    out
}

/// The files the out-of-line test modules (`#[cfg(test)] mod name;`)
/// declared in the file at `path` may live in: `name.rs` and
/// `name/mod.rs` beside a `lib.rs`, `main.rs` or `mod.rs`, and under
/// `foo/` for any other `foo.rs`. Other crate roots (`src/bin/*.rs`) and
/// `#[path]` attributes are not resolved, so the files they name stay
/// linted.
pub fn test_module_files(path: &str, src: &str) -> Vec<String> {
    let tokens = lex(src).tokens;
    let (dir, file) = path.rsplit_once('/').unwrap_or(("", path));
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    let base = match (stem, dir) {
        ("lib" | "main" | "mod", "") => String::new(),
        ("lib" | "main" | "mod", _) => format!("{dir}/"),
        (_, "") => format!("{stem}/"),
        _ => format!("{dir}/{stem}/"),
    };
    let spans = cfg_test_spans(&tokens);
    let mut out = Vec::new();
    for w in tokens.windows(3) {
        let line = w[0].line;
        if w[0].text == "mod"
            && w[1].kind == TokKind::Ident
            && w[2].text == ";"
            && spans.iter().any(|&(lo, hi)| (lo..=hi).contains(&line))
        {
            out.push(format!("{base}{}.rs", w[1].text));
            out.push(format!("{base}{}/mod.rs", w[1].text));
        }
    }
    out
}

/// Extracts `#[cfg(test)]` item spans as inclusive line ranges. The span
/// starts at the attribute and runs to the matching close brace of the
/// item that follows (or its terminating `;`).
fn cfg_test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "#"
            && tokens.get(i + 1).is_some_and(|t| t.text == "[")
            && tokens.get(i + 2).is_some_and(|t| t.text == "cfg")
            && tokens.get(i + 3).is_some_and(|t| t.text == "(")
        {
            // Scan the cfg predicate for a `test` atom (handles
            // `cfg(test)` and `cfg(all(test, …))`).
            let mut j = i + 4;
            let mut depth = 1u32;
            let mut is_test = false;
            while j < tokens.len() && depth > 0 {
                match tokens[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "test" => is_test = true,
                    _ => {}
                }
                j += 1;
            }
            // j is now past `)`; expect `]`.
            if is_test && tokens.get(j).is_some_and(|t| t.text == "]") {
                let start_line = tokens[i].line;
                // Skip any further attributes on the same item.
                let mut k = j + 1;
                while tokens.get(k).is_some_and(|t| t.text == "#")
                    && tokens.get(k + 1).is_some_and(|t| t.text == "[")
                {
                    let mut bd = 0i32;
                    k += 1;
                    while k < tokens.len() {
                        match tokens[k].text.as_str() {
                            "[" => bd += 1,
                            "]" => {
                                bd -= 1;
                                if bd == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                // Find the item body: first `{` (match braces) or `;`.
                let mut end_line = start_line;
                while k < tokens.len() {
                    match tokens[k].text.as_str() {
                        ";" => {
                            end_line = tokens[k].line;
                            break;
                        }
                        "{" => {
                            let mut bd = 1i32;
                            k += 1;
                            while k < tokens.len() && bd > 0 {
                                match tokens[k].text.as_str() {
                                    "{" => bd += 1,
                                    "}" => bd -= 1,
                                    _ => {}
                                }
                                k += 1;
                            }
                            end_line = tokens[k.saturating_sub(1)].line;
                            break;
                        }
                        _ => k += 1,
                    }
                }
                spans.push((start_line, end_line));
                i = k;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// Parses inline allow directives of the form `xtask:allow(Lk): reason`
/// (the reason part may be absent, which is reported as a violation).
fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        if c.is_doc() {
            continue;
        }
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("xtask:allow(") {
            rest = &rest[pos + "xtask:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let lint = rest[..close].trim().to_string();
            rest = &rest[close + 1..];
            let has_reason =
                rest.trim_start().strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
            out.push(Allow { lint, line: c.line, end_line: c.end_line, has_reason });
        }
    }
    out
}

/// Filters `diags` through the file's inline allows ([`Allow::covers`]);
/// an allow without a reason adds a diagnostic of its own.
fn apply_allows(ctx: &FileCtx, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> =
        diags.into_iter().filter(|d| !ctx.allows.iter().any(|a| a.covers(d))).collect();
    for a in &ctx.allows {
        if !a.has_reason {
            out.push(Diagnostic {
                lint: lint_code(&a.lint),
                file: ctx.path.to_string(),
                line: a.line,
                col: 1,
                message: format!(
                    "xtask:allow({}) without a justification; write `xtask:allow({}): <reason>`",
                    a.lint, a.lint
                ),
            });
        }
    }
    out
}

/// Stale-suppression audit: reports every *reasoned* `xtask:allow` waiver
/// that no longer suppresses a real diagnostic. Dead waivers are how
/// suppressions rot: the code they excused gets deleted or rewritten, the
/// comment stays, and a later real violation lands in its shadow. (The
/// compiler audits its own waivers: an `#[expect]` that suppresses
/// nothing warns.) Run via `cargo xtask check --stale-allows` (wired into
/// the CI static-analysis job).
pub fn stale_suppressions(path: &str, src: &str) -> Vec<Diagnostic> {
    let ctx = FileCtx::new(path, src);
    let raw = ctx.token_lints();
    let mut out = Vec::new();
    for a in ctx.allows.iter().filter(|a| a.has_reason) {
        if !raw.iter().any(|d| a.covers(d)) {
            out.push(Diagnostic {
                lint: lint_code(&a.lint),
                file: ctx.path.to_string(),
                line: a.line,
                col: 1,
                message: format!(
                    "stale `xtask:allow({})`: no {} diagnostic within its window — remove \
                     the waiver or the code it excused has moved",
                    a.lint, a.lint
                ),
            });
        }
    }
    out.sort_by_key(|d| (d.line, d.col));
    out
}

/// Maps a lint name from an allow back to a static code (an unknown name
/// — an allow for a lint that is not a token lint — is reported as
/// `allow`, so it is never silently dropped).
fn lint_code(name: &str) -> &'static str {
    match name {
        "L3" => "L3",
        "L4" => "L4",
        _ => "allow",
    }
}

/// L3: order-sensitive float reductions inside rayon parallel chains.
fn lint_l3(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    if config::path_in(ctx.path, config::L3_WHITELIST) {
        return;
    }
    let toks = &ctx.tokens;
    let mut stmt_start = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        match toks[i].text.as_str() {
            ";" | "{" | "}" => {
                stmt_start = i + 1;
                i += 1;
                continue;
            }
            _ => {}
        }
        let is_entry = toks[i].kind == TokKind::Ident
            && PAR_ENTRYPOINTS.contains(&toks[i].text.as_str())
            && toks.get(i + 1).is_some_and(|t| t.text == "(");
        if !is_entry {
            i += 1;
            continue;
        }
        let entry_line = toks[i].line;
        // Walk the method chain: `entry() [.method[::<…>](…)]*`.
        let mut j = match_delim(toks, i + 1, "(", ")");
        let mut reducers: Vec<usize> = Vec::new();
        loop {
            if !(toks.get(j).is_some_and(|t| t.text == ".")
                && toks.get(j + 1).is_some_and(|t| t.kind == TokKind::Ident))
            {
                break;
            }
            let name_idx = j + 1;
            let mut k = j + 2;
            // Turbofish `::<…>`.
            if ctx.seq(k, &[":", ":", "<"]) {
                let mut depth = 1i32;
                k += 3;
                while k < toks.len() && depth > 0 {
                    match toks[k].text.as_str() {
                        "<" => depth += 1,
                        ">" => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
            }
            if toks.get(k).is_some_and(|t| t.text == "(") {
                k = match_delim(toks, k, "(", ")");
            }
            if REDUCERS.contains(&toks[name_idx].text.as_str()) {
                reducers.push(name_idx);
            }
            j = k;
        }
        let span = &toks[stmt_start..j.min(toks.len())];
        let has_float = span.iter().any(|t| {
            t.kind == TokKind::Float
                || (t.kind == TokKind::Ident && FLOAT_IDENT_EVIDENCE.contains(&t.text.as_str()))
        });
        if !ctx.in_test(entry_line) {
            if has_float {
                for &r in &reducers {
                    diags.push(ctx.diag(
                        "L3",
                        &toks[r],
                        format!(
                            "float `{}` inside a rayon parallel chain: summation order \
                             depends on the thread pool; use \
                             lightne_utils::parallel::parallel_reduce_sum",
                            toks[r].text
                        ),
                    ));
                }
            }
            // Captured-accumulator `+=` inside the chain span: a *bare*
            // identifier (not `*x`, `s.f`, or `a[i]`, which are
            // per-element updates) with no `let mut` declaration within
            // the span is mutable state shared across items, so the
            // accumulation order depends on the schedule regardless of
            // element type.
            for w in (stmt_start + 1)..j.min(toks.len()).saturating_sub(1) {
                let (a, b) = (&toks[w], &toks[w + 1]);
                let lhs_is_bare_ident = toks[w - 1].kind == TokKind::Ident
                    && !(w >= 2 && matches!(toks[w - 2].text.as_str(), "*" | "." | "]"));
                if a.text == "+"
                    && b.text == "="
                    && a.line == b.line
                    && b.col == a.col + 1
                    && lhs_is_bare_ident
                {
                    let lhs = &toks[w - 1].text;
                    // A `mut lhs` pair earlier in the span means the
                    // accumulator is chain-local: covers `let mut x`,
                    // tuple patterns `let (mut i, mut j)`, and `|mut a|`
                    // closure arguments.
                    let declared_locally = (stmt_start..w).any(|d| {
                        toks[d].text == "mut" && toks.get(d + 1).is_some_and(|t| &t.text == lhs)
                    });
                    if !declared_locally {
                        diags.push(ctx.diag(
                            "L3",
                            a,
                            format!(
                                "`{lhs} +=` on a captured accumulator inside a rayon \
                                 parallel chain: accumulation order depends on the thread \
                                 pool; use parallel_reduce_sum"
                            ),
                        ));
                    }
                }
            }
        }
        i = j.max(i + 1);
    }
}

/// L4: a relaxed ordering outside test code — `Ordering::Relaxed`, or a
/// bare `Relaxed` that a `use` brought in — needs an inline
/// `// ordering:` justification. The `use` items are not sites, and a
/// `Relaxed` behind any other path (`Mode::Relaxed`) is not an ordering.
fn lint_l4(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    // Cargo builds a file under a `tests/` directory only as a test target.
    if ctx.path.starts_with("tests/") || ctx.path.contains("/tests/") {
        return;
    }
    let toks = &ctx.tokens;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "use" {
            i = toks[i..].iter().position(|t| t.text == ";").map_or(toks.len(), |e| i + e + 1);
            continue;
        }
        let qualified = i >= 2 && ctx.seq(i - 2, &[":", ":", "Relaxed"]);
        let site = if qualified {
            (i >= 3 && ctx.seq(i - 3, &["Ordering", ":", ":", "Relaxed"])).then(|| &toks[i - 3])
        } else {
            (toks[i].kind == TokKind::Ident && toks[i].text == "Relaxed").then_some(&toks[i])
        };
        if let Some(tok) = site.filter(|t| !ctx.in_test(t.line)) {
            if !ctx.has_comment_near("ordering:", tok.line, 6) {
                let what = if qualified { "Ordering::Relaxed" } else { "Relaxed" };
                diags.push(ctx.diag(
                    "L4",
                    tok,
                    format!(
                        "`{what}` without an `// ordering:` justification comment arguing \
                         why relaxed is sufficient here"
                    ),
                ));
            }
        }
        i += 1;
    }
}

/// Given `toks[open_idx]` == `open`, returns the index one past the
/// matching `close` (or `toks.len()` if unbalanced).
fn match_delim(toks: &[Token], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0i32;
    let mut k = open_idx;
    while k < toks.len() {
        if toks[k].text == open {
            depth += 1;
        } else if toks[k].text == close {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_span_covers_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let lexed = lex(src);
        assert_eq!(cfg_test_spans(&lexed.tokens), vec![(2, 5)]);
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t {\n}\n";
        let lexed = lex(src);
        assert_eq!(cfg_test_spans(&lexed.tokens), vec![(1, 3)]);
    }

    #[test]
    fn out_of_line_test_modules_resolve_to_their_files() {
        let root = "#[cfg(test)]\nmod tests;\npub mod walk;\n#[cfg(test)]\nmod inline { }\n";
        let got = test_module_files("vendor/rayon/src/lib.rs", root);
        assert_eq!(got, ["vendor/rayon/src/tests.rs", "vendor/rayon/src/tests/mod.rs"]);
        // A non-root file's modules live in the directory named after it.
        let nested = "#[cfg(all(test, loom))]\npub(crate) mod models;\n";
        let got = test_module_files("crates/a/src/pool.rs", nested);
        assert_eq!(got, ["crates/a/src/pool/models.rs", "crates/a/src/pool/models/mod.rs"]);
    }

    #[test]
    fn bare_relaxed_is_a_site_but_its_use_item_is_not() {
        let src = "use std::sync::atomic::Ordering::{Relaxed, SeqCst};\n\
                   fn f() { x.load(Relaxed); }\n";
        let diags = check_source("vendor/rayon/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].line, diags[0].col), (2, 17));
        let ok = "use std::sync::atomic::Ordering::Relaxed;\n\
                  // ordering: advisory counter.\nfn f() { x.load(Relaxed); }\n";
        assert!(check_source("vendor/rayon/src/x.rs", ok).is_empty());
        let other = "fn f() -> Mode { Mode::Relaxed }\n";
        assert!(check_source("vendor/rayon/src/x.rs", other).is_empty());
    }

    #[test]
    fn cfg_not_test_item_is_ignored_for_non_test_cfgs() {
        let src = "#[cfg(feature = \"failpoints\")]\nmod f {\n}\n";
        let lexed = lex(src);
        assert!(cfg_test_spans(&lexed.tokens).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "// xtask:allow(L4): counter is advisory\n\
                   x.load(Ordering::Relaxed);\n";
        let diags = check_source("crates/core/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "// xtask:allow(L4)\nx.load(Ordering::Relaxed);\n";
        let diags = check_source("crates/core/src/x.rs", src);
        // The bare allow still suppresses nothing AND reports itself.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("without a justification")));
    }

    #[test]
    fn banned_names_inside_strings_do_not_fire() {
        let src = r#"let s = "Ordering::Relaxed par_iter().sum::<f64>()";"#;
        assert!(check_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn captured_accumulator_fires_but_local_does_not() {
        let local = "let s: f64 = (0..n).into_par_iter().map(|u| {\n\
                     let mut acc = 0.0; acc += x[u]; acc\n}).collect();\n";
        assert!(check_source("crates/core/src/x.rs", local).is_empty());
        let captured = "let mut total = 0.0f64;\n\
                        xs.par_iter().for_each(|&x| total += x);\n";
        let diags = check_source("crates/core/src/x.rs", captured);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].lint, "L3");
    }

    #[test]
    fn turbofish_sum_is_caught() {
        let src = "let n = v.par_iter().map(|&x| (x as f64) * x).sum::<f64>();\n";
        let diags = check_source("crates/linalg/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint, "L3");
    }

    #[test]
    fn integer_par_sum_is_fine() {
        let src = "let n: usize = v.par_iter().map(|x| x.len()).sum();\n";
        assert!(check_source("crates/linalg/src/x.rs", src).is_empty());
    }

    #[test]
    fn relaxed_needs_justification_outside_tests_in_every_crate() {
        let src = "x.load(Ordering::Relaxed);\n";
        assert_eq!(check_source("crates/hashtable/src/x.rs", src).len(), 1);
        assert_eq!(check_source("crates/utils/src/x.rs", src).len(), 1);
        let ok = "// ordering: counter is advisory.\nx.load(Ordering::Relaxed);\n";
        assert!(check_source("crates/hashtable/src/x.rs", ok).is_empty());
        let test = "#[cfg(test)]\nmod tests {\n    fn f() { x.load(Ordering::Relaxed); }\n}\n";
        assert!(check_source("crates/utils/src/x.rs", test).is_empty());
        assert!(check_source("tests/x.rs", src).is_empty());
        assert!(check_source("crates/utils/tests/x.rs", src).is_empty());
    }
}
