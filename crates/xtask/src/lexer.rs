//! A small Rust lexer producing a token stream with source positions.
//!
//! The lint passes need token-level precision — matching on identifiers
//! and punctuation while *never* matching inside string literals or
//! comments (the engine's own source contains every forbidden pattern as
//! string data). A full `syn` AST is unavailable offline and unnecessary:
//! every lint in the catalog is decidable from the token stream plus
//! brace matching, which this lexer provides. It handles line and
//! (nested) block comments, raw/byte/c strings, char-vs-lifetime
//! disambiguation, numeric literals with suffixes, and raw identifiers.
//! It is deliberately forgiving: unknown bytes become one-character
//! punctuation tokens rather than errors, so a future syntax extension
//! degrades to weaker linting instead of a crash.

/// Kinds of tokens the lints distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `r#raw` identifiers, without the
    /// `r#` prefix).
    Ident,
    /// Single punctuation character (`.`, `:`, `{`, `<`, …). Multi-char
    /// operators appear as consecutive single-character tokens.
    Punct,
    /// Integer literal.
    Int,
    /// Floating-point literal (`1.0`, `1e-3`, `2f64`, …).
    Float,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`) or loop label.
    Lifetime,
}

/// One token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Token {
    /// Token kind.
    pub kind: TokKind,
    /// Source text of the token.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

/// One comment with its position. Doc comments are included.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text including the `//` / `/*` sigils.
    pub text: String,
    /// 1-based line of the comment's first character.
    pub line: u32,
    /// 1-based line of the comment's last character (differs for block
    /// comments spanning lines).
    pub end_line: u32,
}

impl Comment {
    /// Whether this is a doc comment (`///`, `//!`, `/**`, `/*!`). Doc
    /// comments are rendered documentation: a directive mentioned in one
    /// (`xtask:allow`, `ordering:`) is prose *about*
    /// the directive, never a live waiver, so every directive scanner
    /// skips them.
    pub fn is_doc(&self) -> bool {
        let t = self.text.as_bytes();
        matches!(t.get(..3), Some(b"///" | b"//!" | b"/**" | b"/*!"))
            // `/**/` is an empty plain block comment, not a doc comment.
            && self.text != "/**/"
    }
}

/// Token stream plus comments for one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn slice(&self, start: usize) -> String {
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    is_ident_start(b) || b.is_ascii_digit()
}

/// Lexes `src` into tokens and comments.
pub fn lex(src: &str) -> Lexed {
    let mut c = Cursor { src: src.as_bytes(), pos: 0, line: 1, col: 1 };
    let mut out = Lexed::default();

    while let Some(b) = c.peek() {
        let (line, col, start) = (c.line, c.col, c.pos);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek_at(1) == Some(b'/') => {
                while let Some(nb) = c.peek() {
                    if nb == b'\n' {
                        break;
                    }
                    c.bump();
                }
                out.comments.push(Comment { text: c.slice(start), line, end_line: c.line });
            }
            b'/' if c.peek_at(1) == Some(b'*') => {
                c.bump();
                c.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match (c.peek(), c.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            c.bump();
                            c.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            c.bump();
                            c.bump();
                        }
                        (Some(_), _) => {
                            c.bump();
                        }
                        (None, _) => break,
                    }
                }
                out.comments.push(Comment { text: c.slice(start), line, end_line: c.line });
            }
            b'"' => {
                lex_string(&mut c);
                out.tokens.push(Token { kind: TokKind::Str, text: c.slice(start), line, col });
            }
            b'r' | b'b' | b'c' if starts_prefixed_literal(&c) => {
                let kind = lex_prefixed_literal(&mut c);
                out.tokens.push(Token { kind, text: c.slice(start), line, col });
            }
            b'\'' => {
                let kind = lex_quote(&mut c);
                out.tokens.push(Token { kind, text: c.slice(start), line, col });
            }
            b'r' if c.peek_at(1) == Some(b'#') && c.peek_at(2).is_some_and(is_ident_start) => {
                // Raw identifier `r#name`: the name is lexed without the
                // sigil so lint pattern matching sees the bare text.
                c.bump();
                c.bump();
                let name_start = c.pos;
                while c.peek().is_some_and(is_ident_cont) {
                    c.bump();
                }
                out.tokens.push(Token {
                    kind: TokKind::Ident,
                    text: c.slice(name_start),
                    line,
                    col,
                });
            }
            _ if is_ident_start(b) => {
                while c.peek().is_some_and(is_ident_cont) {
                    c.bump();
                }
                out.tokens.push(Token { kind: TokKind::Ident, text: c.slice(start), line, col });
            }
            _ if b.is_ascii_digit() => {
                let kind = lex_number(&mut c);
                out.tokens.push(Token { kind, text: c.slice(start), line, col });
            }
            _ => {
                c.bump();
                out.tokens.push(Token { kind: TokKind::Punct, text: c.slice(start), line, col });
            }
        }
    }
    out
}

/// Whether the cursor sits on `r"`, `r#`, `b"`, `b'`, `br`, `c"`, `cr` —
/// i.e. a prefixed literal rather than an identifier starting with that
/// letter.
fn starts_prefixed_literal(c: &Cursor) -> bool {
    match (c.peek(), c.peek_at(1)) {
        (Some(b'r' | b'c'), Some(b'"')) | (Some(b'b'), Some(b'"' | b'\'')) => true,
        (Some(b'r'), Some(b'#')) => {
            // `r#"` raw string vs `r#ident` raw identifier.
            c.peek_at(2) == Some(b'"')
        }
        (Some(b'b' | b'c'), Some(b'r')) => matches!(c.peek_at(2), Some(b'"' | b'#')),
        _ => false,
    }
}

/// Lexes a literal with an `r`/`b`/`c` prefix; cursor is on the prefix.
fn lex_prefixed_literal(c: &mut Cursor) -> TokKind {
    // Consume prefix letters.
    while matches!(c.peek(), Some(b'r' | b'b' | b'c')) {
        if c.peek() == Some(b'b') && c.peek_at(1) == Some(b'\'') {
            c.bump();
            return lex_quote(c);
        }
        c.bump();
        if c.src[c.pos - 1] == b'r' {
            break;
        }
    }
    // Raw form: hashes then quote.
    let mut hashes = 0usize;
    while c.peek() == Some(b'#') {
        hashes += 1;
        c.bump();
    }
    if c.peek() == Some(b'"') {
        c.bump();
        if hashes == 0 {
            // r"..." — no escapes, ends at the first quote.
            while let Some(b) = c.bump() {
                if b == b'"' {
                    break;
                }
            }
        } else {
            let closer: Vec<u8> =
                std::iter::once(b'"').chain(std::iter::repeat_n(b'#', hashes)).collect();
            'outer: while c.peek().is_some() {
                if c.src[c.pos..].starts_with(&closer) {
                    for _ in 0..closer.len() {
                        c.bump();
                    }
                    break 'outer;
                }
                c.bump();
            }
        }
    } else {
        // Plain b"..." (quote not yet consumed by prefix loop).
        lex_string(c);
    }
    TokKind::Str
}

/// Lexes a `"…"` string with escapes; cursor is on the opening quote.
fn lex_string(c: &mut Cursor) {
    c.bump();
    while let Some(b) = c.bump() {
        match b {
            b'\\' => {
                c.bump();
            }
            b'"' => break,
            _ => {}
        }
    }
}

/// Lexes from a `'`: either a char literal or a lifetime/label.
fn lex_quote(c: &mut Cursor) -> TokKind {
    c.bump(); // the quote
    match c.peek() {
        Some(b'\\') => {
            // Escaped char literal.
            c.bump();
            c.bump();
            while let Some(b) = c.peek() {
                c.bump();
                if b == b'\'' {
                    break;
                }
            }
            TokKind::Char
        }
        Some(b) if is_ident_start(b) => {
            // `'a` lifetime or `'x'` char: scan the ident, then check for
            // a closing quote.
            while c.peek().is_some_and(is_ident_cont) {
                c.bump();
            }
            if c.peek() == Some(b'\'') {
                c.bump();
                TokKind::Char
            } else {
                TokKind::Lifetime
            }
        }
        Some(_) => {
            // Punctuation char literal like '(' or '0'.
            c.bump();
            if c.peek() == Some(b'\'') {
                c.bump();
            }
            TokKind::Char
        }
        None => TokKind::Lifetime,
    }
}

/// Lexes a numeric literal; cursor is on the first digit.
fn lex_number(c: &mut Cursor) -> TokKind {
    let mut float = false;
    // Radix prefixes.
    if c.peek() == Some(b'0') && matches!(c.peek_at(1), Some(b'x' | b'o' | b'b')) {
        c.bump();
        c.bump();
        while c.peek().is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_') {
            c.bump();
        }
        return TokKind::Int;
    }
    while c.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
        c.bump();
    }
    // Fractional part — but `1..n` is int + range and `1.method()` is a
    // field/method access on an int.
    if c.peek() == Some(b'.') && c.peek_at(1).is_some_and(|b| b.is_ascii_digit()) {
        float = true;
        c.bump();
        while c.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
            c.bump();
        }
    }
    // Exponent.
    if matches!(c.peek(), Some(b'e' | b'E')) {
        let off = if matches!(c.peek_at(1), Some(b'+' | b'-')) { 2 } else { 1 };
        if c.peek_at(off).is_some_and(|b| b.is_ascii_digit()) {
            float = true;
            for _ in 0..=off {
                c.bump();
            }
            while c.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                c.bump();
            }
        }
    }
    // Type suffix (`1f64`, `3usize`). A float suffix forces Float.
    if c.peek().is_some_and(is_ident_start) {
        let start = c.pos;
        while c.peek().is_some_and(is_ident_cont) {
            c.bump();
        }
        let suffix = &c.src[start..c.pos];
        if suffix == b"f32" || suffix == b"f64" {
            float = true;
        }
    }
    if float {
        TokKind::Float
    } else {
        TokKind::Int
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).tokens.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ks = kinds("let x = a.b();");
        assert_eq!(ks[0], (TokKind::Ident, "let".into()));
        assert_eq!(ks[3], (TokKind::Ident, "a".into()));
        assert_eq!(ks[4], (TokKind::Punct, ".".into()));
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r#"let s = "Ordering::Relaxed unsafe HashMap";"#);
        assert!(l.tokens.iter().all(|t| t.text != "Relaxed" && t.text != "unsafe"));
        assert_eq!(l.tokens.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let l = lex(r##"let a = r#"x " y"#; let r#fn = 1;"##);
        assert_eq!(l.tokens.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert!(l.tokens.iter().any(|t| t.text == "fn" && t.kind == TokKind::Ident));
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let l = lex("// one\nlet x = 1; /* two\nlines */ let y = 2;");
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[1].line, 2);
        assert_eq!(l.comments[1].end_line, 3);
        assert!(l.tokens.iter().any(|t| t.text == "y"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let ks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(ks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(), 2);
        assert_eq!(ks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn numbers() {
        let ks = kinds("0 1_000 0xff 1.5 1e-3 2f64 3usize 0..n t.0");
        let floats: Vec<_> =
            ks.iter().filter(|(k, _)| *k == TokKind::Float).map(|(_, s)| s.clone()).collect();
        assert_eq!(floats, ["1.5", "1e-3", "2f64"]);
        // `0..n` lexes as int, dot, dot, ident.
        assert!(ks.iter().any(|(k, s)| *k == TokKind::Int && s == "0"));
    }

    #[test]
    fn positions_are_one_based() {
        let l = lex("a\n  b");
        assert_eq!((l.tokens[0].line, l.tokens[0].col), (1, 1));
        assert_eq!((l.tokens[1].line, l.tokens[1].col), (2, 3));
    }
}
