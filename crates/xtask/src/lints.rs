//! The six workspace lints (L1–L6) and the suppression machinery.
//!
//! Every lint works on the token stream from [`crate::lexer`], so banned
//! patterns appearing inside string literals or comments (including this
//! file's own documentation) never fire. The catalog:
//!
//! * **L1** — every `unsafe` token must have a `// SAFETY:` comment within
//!   six lines above it (or trailing on the same line), and every crate
//!   root must carry `#![forbid(unsafe_code)]` or
//!   `#![deny(unsafe_op_in_unsafe_fn)]`. Crates listed in
//!   [`config::L1_UNSAFE_ISOLATED`] additionally confine `unsafe` to one
//!   designated module: elsewhere in the crate it is a violation even
//!   with a SAFETY comment.
//! * **L2** — no `HashMap`/`HashSet` in deterministic-path modules
//!   (outside `#[cfg(test)]`): hash iteration order varies per process,
//!   which breaks bitwise reproducibility of sparsifier/embedding output.
//! * **L3** — no floating-point reductions (`sum`, `product`, `reduce`,
//!   `fold`) or captured-accumulator `+=` inside rayon parallel chains,
//!   outside the fixed-block helpers in `lightne_utils::parallel`:
//!   unordered float addition makes results depend on thread count.
//! * **L4** — every `Ordering::Relaxed` in the edge hash table must
//!   carry an `// ordering:` justification comment arguing why relaxed
//!   ordering is sufficient at that site.
//! * **L5** — no ambient nondeterminism: `SystemTime::now` and
//!   `rand::thread_rng`/`from_entropy` are banned workspace-wide;
//!   `Instant::now` is banned on the deterministic path unless an inline
//!   allow justifies it.
//! * **L6** — every `std::arch` SIMD intrinsic call site (`_mm…(`) must
//!   sit inside a `#[target_feature]` function, in a crate's designated
//!   unsafe module ([`config::L1_UNSAFE_ISOLATED`]), with a `// SAFETY:`
//!   feature-guard comment near the call or the enclosing function:
//!   an intrinsic outside a feature-gated function is instant UB on older
//!   CPUs, and scattering intrinsics outside the audited modules defeats
//!   the L1 isolation posture.
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
pub(crate) struct Allow {
    pub(crate) lint: String,
    pub(crate) line: u32,
    pub(crate) end_line: u32,
    pub(crate) has_reason: bool,
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
/// separators; it selects which lints apply (deterministic-path modules,
/// whitelists). Returns unsuppressed diagnostics in source order.
pub fn check_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let ctx = FileCtx::new(path, src);
    let mut diags = Vec::new();
    lint_l1(&ctx, &mut diags);
    lint_l2(&ctx, &mut diags);
    lint_l3(&ctx, &mut diags);
    lint_l4(&ctx, &mut diags);
    lint_l5(&ctx, &mut diags);
    lint_l6(&ctx, &mut diags);
    let mut out = apply_allows(&ctx, diags);
    out.sort_by_key(|d| (d.line, d.col, d.lint));
    out
}

/// Extracts `#[cfg(test)]` item spans as inclusive line ranges. The span
/// starts at the attribute and runs to the matching close brace of the
/// item that follows (or its terminating `;`).
pub(crate) fn cfg_test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
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
pub(crate) fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
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

/// Filters `diags` through the file's inline allows. A reasoned allow on
/// the same line, or ending up to three lines above (the reason may wrap
/// onto continuation comment lines), suppresses a matching diagnostic; an
/// allow without a reason adds a diagnostic of its own.
fn apply_allows(ctx: &FileCtx, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = diags
        .into_iter()
        .filter(|d| {
            !ctx.allows.iter().any(|a| {
                a.has_reason
                    && a.lint == d.lint
                    && (a.line == d.line || (a.end_line < d.line && d.line - a.end_line <= 3))
            })
        })
        .collect();
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
/// that no longer suppresses a real diagnostic, and every reasoned
/// `xtask:panic-ok(..)` with no panic-adjacent site in its window. Dead
/// waivers are how suppressions rot: the code they excused gets deleted
/// or rewritten, the comment stays, and a later real violation lands in
/// its shadow. Run via `cargo xtask check --stale-allows` (wired into
/// the CI static-analysis job).
pub fn stale_suppressions(path: &str, src: &str) -> Vec<Diagnostic> {
    let ctx = FileCtx::new(path, src);
    let mut raw = Vec::new();
    lint_l1(&ctx, &mut raw);
    lint_l2(&ctx, &mut raw);
    lint_l3(&ctx, &mut raw);
    lint_l4(&ctx, &mut raw);
    lint_l5(&ctx, &mut raw);
    lint_l6(&ctx, &mut raw);
    let mut out = Vec::new();
    for a in ctx.allows.iter().filter(|a| a.has_reason) {
        let suppresses = raw.iter().any(|d| {
            a.lint == d.lint
                && (a.line == d.line || (a.end_line < d.line && d.line - a.end_line <= 3))
        });
        if !suppresses {
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
    // panic-ok staleness: the directive must sit on or within 3 lines
    // above some panic-adjacent token (unwrap/expect/panic-family macro).
    for c in &ctx.comments {
        if c.is_doc() || !c.text.contains("xtask:panic-ok(") {
            continue;
        }
        let covered = ctx.tokens.iter().any(|t| {
            t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "unwrap" | "expect" | "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && (t.line == c.line || (c.end_line < t.line && t.line - c.end_line <= 3))
        });
        if !covered {
            out.push(Diagnostic {
                lint: "L1",
                file: ctx.path.to_string(),
                line: c.line,
                col: 1,
                message: "stale `xtask:panic-ok(..)`: no unwrap/expect/panic site within its \
                          window — remove the waiver"
                    .into(),
            });
        }
    }
    out.sort_by_key(|d| (d.line, d.col));
    out
}

/// Maps a lint name from an allow back to a static code (unknown names
/// get reported under L1 so they are never silently dropped).
fn lint_code(name: &str) -> &'static str {
    match name {
        "L1" => "L1",
        "L2" => "L2",
        "L3" => "L3",
        "L4" => "L4",
        "L5" => "L5",
        "L6" => "L6",
        _ => "L1",
    }
}

/// L1: `unsafe` requires a nearby `// SAFETY:` comment; crate roots must
/// declare an unsafe posture attribute.
fn lint_l1(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    let isolated_to = config::L1_UNSAFE_ISOLATED
        .iter()
        .find(|(prefix, module)| ctx.path.starts_with(prefix) && ctx.path != *module)
        .map(|&(_, module)| module);
    for t in &ctx.tokens {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if !ctx.has_comment_near("SAFETY:", t.line, 6) {
            diags.push(ctx.diag(
                "L1",
                t,
                "`unsafe` without a `// SAFETY:` comment within 6 lines above it".into(),
            ));
        }
        if let Some(module) = isolated_to {
            diags.push(ctx.diag(
                "L1",
                t,
                format!(
                    "`unsafe` outside the crate's designated unsafe module: this crate \
                     confines unsafe code to {module}"
                ),
            ));
        }
    }
    if ctx.path.ends_with("src/lib.rs") || ctx.path.ends_with("src/main.rs") {
        let mut found = false;
        for i in 0..ctx.tokens.len() {
            if ctx.seq(i, &["forbid", "(", "unsafe_code", ")"])
                || ctx.seq(i, &["deny", "(", "unsafe_op_in_unsafe_fn", ")"])
            {
                found = true;
                break;
            }
        }
        if !found {
            diags.push(Diagnostic {
                lint: "L1",
                file: ctx.path.to_string(),
                line: 1,
                col: 1,
                message: "crate root missing `#![forbid(unsafe_code)]` or \
                          `#![deny(unsafe_op_in_unsafe_fn)]`"
                    .into(),
            });
        }
    }
}

/// L2: hash-order iteration hazard on the deterministic path.
fn lint_l2(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    if !config::path_in(ctx.path, config::DETERMINISTIC_PATH) {
        return;
    }
    for t in &ctx.tokens {
        if t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !ctx.in_test(t.line)
        {
            diags.push(ctx.diag(
                "L2",
                t,
                format!(
                    "`{}` in a deterministic-path module: iteration order varies per \
                     process; use a Vec, sorted keys, or BTreeMap/BTreeSet",
                    t.text
                ),
            ));
        }
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

/// L4: `Ordering::Relaxed` in the edge table needs an inline
/// `// ordering:` justification.
fn lint_l4(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    if !config::path_in(ctx.path, config::L4_PATHS)
        || config::path_in(ctx.path, config::L4_WHITELIST)
    {
        return;
    }
    for i in 0..ctx.tokens.len() {
        if ctx.seq(i, &["Ordering", ":", ":", "Relaxed"]) && !ctx.in_test(ctx.tokens[i].line) {
            let line = ctx.tokens[i].line;
            if !ctx.has_comment_near("ordering:", line, 6) {
                diags.push(
                    ctx.diag(
                        "L4",
                        &ctx.tokens[i],
                        "`Ordering::Relaxed` without an `// ordering:` justification comment \
                     arguing why relaxed is sufficient here"
                            .into(),
                    ),
                );
            }
        }
    }
}

/// L5: ambient nondeterminism sources.
fn lint_l5(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    for i in 0..ctx.tokens.len() {
        let t = &ctx.tokens[i];
        if ctx.seq(i, &["SystemTime", ":", ":", "now"]) {
            diags.push(
                ctx.diag(
                    "L5",
                    t,
                    "`SystemTime::now` is banned workspace-wide: wall-clock reads are \
                 nondeterministic; thread timestamps through the caller"
                        .into(),
                ),
            );
        }
        if t.kind == TokKind::Ident && (t.text == "thread_rng" || t.text == "from_entropy") {
            diags.push(ctx.diag(
                "L5",
                t,
                format!(
                    "`{}` is banned workspace-wide: all randomness must flow through the \
                     seeded RNG plumbing in lightne_utils::rng",
                    t.text
                ),
            ));
        }
        if config::path_in(ctx.path, config::DETERMINISTIC_PATH)
            && !config::path_in(ctx.path, config::L5_TIMER_WHITELIST)
            && ctx.seq(i, &["Instant", ":", ":", "now"])
            && !ctx.in_test(t.line)
        {
            diags.push(ctx.diag(
                "L5",
                t,
                "`Instant::now` on the deterministic path: justify with an inline allow".into(),
            ));
        }
    }
}

/// L6: `std::arch` SIMD intrinsic call sites are confined to
/// `#[target_feature]` functions inside designated unsafe modules, each
/// covered by a `// SAFETY:` feature-guard comment.
fn lint_l6(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    let designated = config::L1_UNSAFE_ISOLATED.iter().any(|&(_, module)| ctx.path == module);
    for i in 0..ctx.tokens.len() {
        let t = &ctx.tokens[i];
        // `_mm…` (case-sensitive: skips `_MM_HINT_*` constants and
        // `__m256`-style type names) followed by a call or turbofish.
        if t.kind != TokKind::Ident || !t.text.starts_with("_mm") {
            continue;
        }
        let is_call = ctx.tokens.get(i + 1).is_some_and(|n| n.text == "(")
            || ctx.seq(i + 1, &[":", ":", "<"]);
        if !is_call || ctx.in_test(t.line) {
            continue;
        }
        if !designated {
            diags.push(ctx.diag(
                "L6",
                t,
                format!(
                    "`{}` outside a designated unsafe module: std::arch intrinsics are \
                     confined to the modules listed in config::L1_UNSAFE_ISOLATED",
                    t.text
                ),
            ));
        }
        // The enclosing fn must carry `#[target_feature(..)]`: find the
        // nearest preceding `fn`, then scan back through its attributes
        // and modifiers (stopping at the previous item's end).
        let fn_idx = (0..i).rev().find(|&k| ctx.tokens[k].text == "fn");
        let has_target_feature = fn_idx.is_some_and(|f| {
            ctx.tokens[..f]
                .iter()
                .rev()
                .take(48)
                .take_while(|a| a.text != "}" && a.text != ";" && a.text != "fn")
                .any(|a| a.text == "target_feature")
        });
        if !has_target_feature {
            diags.push(ctx.diag(
                "L6",
                t,
                format!(
                    "`{}` outside a `#[target_feature]` function: calling an intrinsic \
                     the CPU may not support is undefined behavior; gate the containing \
                     function and dispatch on runtime detection",
                    t.text
                ),
            ));
        }
        let fn_line = fn_idx.map_or(t.line, |f| ctx.tokens[f].line);
        if !ctx.has_comment_near("SAFETY:", t.line, 6)
            && !ctx.has_comment_near("SAFETY:", fn_line, 6)
        {
            diags.push(ctx.diag(
                "L6",
                t,
                format!(
                    "`{}` without a `// SAFETY:` feature-guard comment near the call or \
                     its enclosing function",
                    t.text
                ),
            ));
        }
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
    fn cfg_not_test_item_is_ignored_for_non_test_cfgs() {
        let src = "#[cfg(feature = \"failpoints\")]\nmod f {\n}\n";
        let lexed = lex(src);
        assert!(cfg_test_spans(&lexed.tokens).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "// xtask:allow(L5): timing for progress reporting only\n\
                   let t = Instant::now();\n";
        let diags = check_source("crates/core/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "// xtask:allow(L5)\nlet t = Instant::now();\n";
        let diags = check_source("crates/core/src/x.rs", src);
        // The bare allow still suppresses nothing AND reports itself.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("without a justification")));
    }

    #[test]
    fn banned_names_inside_strings_do_not_fire() {
        let src = r#"let s = "SystemTime::now thread_rng HashMap unsafe";"#;
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
    fn crate_root_posture_attribute_required() {
        let diags = check_source("crates/foo/src/lib.rs", "pub fn a() {}\n");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("crate root"));
        let ok = "#![forbid(unsafe_code)]\npub fn a() {}\n";
        assert!(check_source("crates/foo/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn relaxed_needs_justification_only_in_hashtable() {
        let src = "x.load(Ordering::Relaxed);\n";
        assert_eq!(check_source("crates/hashtable/src/x.rs", src).len(), 1);
        assert!(check_source("crates/utils/src/x.rs", src).is_empty());
        let ok = "// ordering: counter is advisory.\nx.load(Ordering::Relaxed);\n";
        assert!(check_source("crates/hashtable/src/x.rs", ok).is_empty());
    }
}
