//! Span-exact lexer edge cases: raw identifiers, byte / raw-byte
//! strings, and nested block comments. The token lints and the directive
//! scanners trust the lexer's spans, so each test pins exact
//! `(line, col)` positions, not just token presence — a lexer that
//! drifts a column after one of these constructs silently misattributes
//! every downstream finding on the line.

use xtask::lexer::{lex, TokKind};

#[test]
fn raw_identifier_is_one_token() {
    let l = lex("fn r#fn() {}\nlet r#type = 1;");
    let idents: Vec<_> = l
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| (t.text.as_str(), t.line, t.col))
        .collect();
    // `r#fn` lexes as ONE Ident with the sigil stripped — not as `r`,
    // `#`, `fn`, which would shift every later span on the line.
    assert_eq!(idents, [("fn", 1, 1), ("fn", 1, 4), ("let", 2, 1), ("type", 2, 5)]);
    assert!(!l.tokens.iter().any(|t| t.text == "#"), "no stray `#` from the raw sigil");
}

#[test]
fn raw_identifier_at_end_of_input() {
    let l = lex("r#match");
    assert_eq!(l.tokens.len(), 1);
    assert_eq!((l.tokens[0].kind, l.tokens[0].text.as_str()), (TokKind::Ident, "match"));
}

#[test]
fn bare_r_is_still_an_identifier() {
    // `r` followed by something that is neither `"` nor `#ident` must
    // stay a plain identifier.
    let l = lex("let r = r + 1;");
    let rs: Vec<_> = l.tokens.iter().filter(|t| t.text == "r").collect();
    assert_eq!(rs.len(), 2);
    assert!(rs.iter().all(|t| t.kind == TokKind::Ident && (t.col == 5 || t.col == 9)));
}

#[test]
fn raw_string_with_hashes_spans_lines() {
    let src = "let s = r#\"line one\nunwrap() inside\"#;\nlet after = 1;";
    let l = lex(src);
    // The raw string swallows the `unwrap(` text: no unwrap Ident token.
    assert!(!l.tokens.iter().any(|t| t.text == "unwrap"));
    let after = l.tokens.iter().find(|t| t.text == "after").expect("token after raw string");
    assert_eq!((after.line, after.col), (3, 5), "line counting continues through the literal");
}

#[test]
fn byte_and_raw_byte_strings() {
    let l = lex(r#"let a = b"panic!"; let b2 = br"expect"; let c = b'x';"#);
    // Literal *contents* never become Ident tokens.
    assert!(!l.tokens.iter().any(|t| t.text == "panic" || t.text == "expect"));
    // All three bindings survive with correct columns.
    let names: Vec<_> = l
        .tokens
        .iter()
        .filter(|t| matches!(t.text.as_str(), "a" | "b2" | "c"))
        .map(|t| (t.text.as_str(), t.col))
        .collect();
    assert_eq!(names, [("a", 5), ("b2", 24), ("c", 45)]);
}

#[test]
fn nested_block_comments_balance() {
    let src = "/* outer /* inner unwrap() */ still comment */ fn ok() {}";
    let l = lex(src);
    assert!(!l.tokens.iter().any(|t| t.text == "unwrap" || t.text == "inner"));
    let f = l.tokens.iter().find(|t| t.text == "fn").expect("code resumes after comment");
    assert_eq!((f.line, f.col), (1, 48));
    assert_eq!(l.comments.len(), 1, "one comment spanning the whole nested construct");
}

#[test]
fn nested_block_comment_spanning_lines_tracks_end_line() {
    let src = "/* a\n/* b\n*/\nc */ fn f() {}";
    let l = lex(src);
    assert_eq!(l.comments.len(), 1);
    assert_eq!((l.comments[0].line, l.comments[0].end_line), (1, 4));
    let f = l.tokens.iter().find(|t| t.text == "fn").unwrap();
    assert_eq!((f.line, f.col), (4, 6));
}

#[test]
fn block_comment_adjacent_to_string_literal() {
    // A `*/` inside a string is not a comment close; a quote inside a
    // comment is not a string open.
    let l = lex("let s = \"*/ /*\"; /* \" */ let t = 2;");
    assert_eq!(l.comments.len(), 1);
    let t = l.tokens.iter().find(|t| t.text == "t").expect("code after the comment lexes");
    assert_eq!((t.line, t.col), (1, 30));
}

#[test]
fn doc_comment_classification() {
    let l = lex("/// doc\n//! inner doc\n// plain\n/** block doc */\n/*! bang doc */\n/* plain block */\n/**/ fn f() {}");
    let flags: Vec<bool> = l.comments.iter().map(|c| c.is_doc()).collect();
    assert_eq!(flags, [true, true, false, true, true, false, false]);
}
