//! A small string/char/raw-string/nested-comment-aware Rust lexer.
//!
//! This is the token stream the call-graph pass ([`crate::callgraph`],
//! PL060) is built on. It is *not* a full Rust lexer — it
//! classifies just enough structure to be reliable about the things that
//! derail textual scanning:
//!
//! * string literals (`"…"`), raw strings (`r"…"`, `r##"…"##`), byte and
//!   C strings (`b"…"`, `br#"…"#`, `c"…"`, `cr"…"`),
//! * char and byte-char literals (`'{'`, `'\''`, `b'\n'`) vs. lifetimes
//!   (`'a`, `'static`),
//! * line comments and **nested** block comments (`/* /* */ */`),
//! * raw identifiers (`r#fn`).
//!
//! Guarantees: lexing never panics on arbitrary input (property-tested on
//! byte soup), always terminates, and the concatenated token spans plus
//! skipped whitespace reconstruct the input exactly (spans are
//! non-overlapping and monotonically increasing).

/// Token classes. Keywords are [`Ident`](TokKind::Ident)s; suffixed numeric
/// literals are a single [`Num`](TokKind::Num).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers `r#name` included).
    Ident,
    /// `'a`, `'static` — a quote followed by an identifier, no closing quote.
    Lifetime,
    /// `'x'`, `'\n'`, `b'x'` — closed quote literal.
    Char,
    /// Any string-like literal: plain, raw, byte, C, with any hash depth.
    Str,
    /// Numeric literal (integers, floats, hex/oct/bin, `1_000`, `2.5e3`).
    Num,
    /// One punctuation byte (`::` arrives as two `:` tokens).
    Punct,
    /// Line or block comment (only emitted by [`lex_raw`]).
    Comment,
}

/// One token: classification plus the byte span and 1-based start line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    /// Byte offset of the first byte of the token.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the token's first byte.
    pub line: usize,
}

impl Tok {
    /// The token's text within `src` (lossy if the file is not UTF-8 clean).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

struct Lexer<'a> {
    bytes: &'a [u8],
    i: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.i + ahead).copied()
    }

    /// Advances one byte, counting newlines. Saturates at EOF so a
    /// `bump_n(2)` over a trailing escape cannot push spans past the end.
    fn bump(&mut self) {
        if let Some(b) = self.peek(0) {
            if b == b'\n' {
                self.line += 1;
            }
            self.i += 1;
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    /// Consumes bytes while `f` holds.
    fn eat_while(&mut self, f: impl Fn(u8) -> bool) {
        while let Some(b) = self.peek(0) {
            if f(b) {
                self.bump();
            } else {
                break;
            }
        }
    }

    /// At `"` (the opening quote): consumes the string body honouring `\`
    /// escapes. Unterminated strings run to EOF — still no panic.
    fn eat_plain_string(&mut self) {
        self.bump(); // opening quote
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// At the first `#` or `"` of a raw string (after the `r`/`br`/`cr`
    /// prefix): consumes `#…#"…"#…#`. Returns `false` if this is not
    /// actually a raw string opener (e.g. `r#ident`).
    fn eat_raw_string(&mut self) -> bool {
        let mut hashes = 0;
        while self.peek(hashes) == Some(b'#') {
            hashes += 1;
        }
        if self.peek(hashes) != Some(b'"') {
            return false;
        }
        self.bump_n(hashes + 1); // hashes + opening quote
        while let Some(b) = self.peek(0) {
            if b == b'"' {
                let mut closing = 0;
                while closing < hashes && self.peek(1 + closing) == Some(b'#') {
                    closing += 1;
                }
                if closing == hashes {
                    self.bump_n(1 + hashes);
                    return true;
                }
            }
            self.bump();
        }
        true // unterminated: ran to EOF
    }

    /// At `'`: char literal, byte-char payload, or lifetime.
    fn eat_quote(&mut self) -> TokKind {
        self.bump(); // the quote
        match self.peek(0) {
            // Escaped char: '\n', '\'', '\u{1F600}'.
            Some(b'\\') => {
                self.bump_n(2); // backslash + first payload byte
                while let Some(b) = self.peek(0) {
                    if b == b'\'' {
                        self.bump();
                        break;
                    }
                    if b == b'\n' {
                        break; // unterminated on this line; stop cleanly
                    }
                    self.bump();
                }
                TokKind::Char
            }
            // 'a, '_, 'static … or 'x'. Disambiguate by the byte after the
            // identifier run: a closing quote makes it a char literal.
            Some(b) if is_ident_start(b) => {
                let mut n = 0;
                while self.peek(n).is_some_and(is_ident_continue) {
                    n += 1;
                }
                if self.peek(n) == Some(b'\'') {
                    self.bump_n(n + 1);
                    TokKind::Char
                } else {
                    self.eat_while(is_ident_continue);
                    TokKind::Lifetime
                }
            }
            // '(' style punctuation payload: char iff closed right after.
            Some(_) if self.peek(1) == Some(b'\'') => {
                self.bump_n(2);
                TokKind::Char
            }
            _ => TokKind::Punct, // lone quote
        }
    }

    /// At a digit: numeric literal (conservative — swallows alphanumeric
    /// suffixes and a decimal point followed by a digit).
    fn eat_number(&mut self) {
        let start = self.i;
        self.eat_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
            self.eat_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        }
        // Signed exponent (`2.5e-3`, `1E+9`) — but not for radix-prefixed
        // literals, where `0xE-3` is a subtraction.
        let radix = self.bytes.get(start) == Some(&b'0')
            && matches!(self.bytes.get(start + 1), Some(b'x' | b'o' | b'b'));
        if !radix
            && self
                .bytes
                .get(self.i.wrapping_sub(1))
                .is_some_and(|&b| b == b'e' || b == b'E')
            && matches!(self.peek(0), Some(b'+' | b'-'))
            && self.peek(1).is_some_and(|b| b.is_ascii_digit())
        {
            self.bump();
            self.eat_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        }
    }

    /// At `/`: comment (line or nested block), or plain punct. Returns the
    /// kind actually consumed.
    fn eat_slash(&mut self) -> TokKind {
        match self.peek(1) {
            Some(b'/') => {
                self.eat_while(|b| b != b'\n');
                TokKind::Comment
            }
            Some(b'*') => {
                self.bump_n(2);
                let mut depth = 1usize;
                while depth > 0 {
                    match (self.peek(0), self.peek(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            self.bump_n(2);
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            self.bump_n(2);
                        }
                        (Some(_), _) => self.bump(),
                        (None, _) => break, // unterminated
                    }
                }
                TokKind::Comment
            }
            _ => {
                self.bump();
                TokKind::Punct
            }
        }
    }

    /// String-literal prefixes: does an ident starting here open a string?
    /// Handles `r"`, `r#"`, `b"`, `br#"`, `c"`, `cr##"`, and `b'x'`.
    fn try_string_prefix(&mut self) -> Option<TokKind> {
        let (skip, raw) = match (self.peek(0), self.peek(1)) {
            (Some(b'r'), _) => (1, true),
            (Some(b'b'), Some(b'r')) | (Some(b'c'), Some(b'r')) => (2, true),
            (Some(b'b'), Some(b'\'')) => {
                self.bump(); // the `b`; eat_quote handles the rest
                return Some(self.eat_quote());
            }
            (Some(b'b'), Some(b'"')) | (Some(b'c'), Some(b'"')) => (1, false),
            _ => return None,
        };
        if raw {
            // A raw opener is hashes-then-quote; `r#ident` is a raw ident.
            let mut h = 0;
            while self.peek(skip + h) == Some(b'#') {
                h += 1;
            }
            if self.peek(skip + h) != Some(b'"') {
                if h == 1 && self.peek(skip + 1).is_some_and(is_ident_start) && skip == 1 {
                    // r#ident — raw identifier.
                    self.bump_n(2);
                    self.eat_while(is_ident_continue);
                    return Some(TokKind::Ident);
                }
                return None;
            }
            self.bump_n(skip);
            self.eat_raw_string();
            Some(TokKind::Str)
        } else {
            self.bump_n(skip);
            self.eat_plain_string();
            Some(TokKind::Str)
        }
    }

    fn next_token(&mut self) -> Option<Tok> {
        self.eat_while(|b| b.is_ascii_whitespace());
        let start = self.i;
        let line = self.line;
        let b = self.peek(0)?;
        let kind = match b {
            b'"' => {
                self.eat_plain_string();
                TokKind::Str
            }
            b'\'' => self.eat_quote(),
            b'/' => self.eat_slash(),
            b'r' | b'b' | b'c' => match self.try_string_prefix() {
                Some(k) => k,
                None => {
                    self.eat_while(is_ident_continue);
                    TokKind::Ident
                }
            },
            _ if b.is_ascii_digit() => {
                self.eat_number();
                TokKind::Num
            }
            _ if is_ident_start(b) => {
                self.eat_while(is_ident_continue);
                TokKind::Ident
            }
            _ => {
                self.bump();
                TokKind::Punct
            }
        };
        // Defensive: guarantee progress even if a handler consumed nothing.
        if self.i == start {
            self.bump();
        }
        Some(Tok {
            kind,
            start,
            end: self.i,
            line,
        })
    }
}

/// Lexes `src` into tokens **including** comments.
pub fn lex_raw(src: &str) -> Vec<Tok> {
    let mut lx = Lexer {
        bytes: src.as_bytes(),
        i: 0,
        line: 1,
    };
    let mut out = Vec::new();
    while let Some(t) = lx.next_token() {
        out.push(t);
    }
    out
}

/// Lexes `src` into tokens with comments dropped — the stream the call-graph
/// extractor and the semantic passes consume.
pub fn lex(src: &str) -> Vec<Tok> {
    lex_raw(src)
        .into_iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn idents_numbers_punct() {
        let got = kinds("fn add(a: u32) -> u32 { a + 1_000 }");
        assert_eq!(got[0], (TokKind::Ident, "fn".into()));
        assert_eq!(got[1], (TokKind::Ident, "add".into()));
        assert!(got.contains(&(TokKind::Num, "1_000".into())));
    }

    #[test]
    fn lifetime_vs_char() {
        let got = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let b = '\\''; }");
        let lifetimes: Vec<_> = got.iter().filter(|t| t.0 == TokKind::Lifetime).collect();
        let chars: Vec<_> = got.iter().filter(|t| t.0 == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2, "{got:?}");
        assert_eq!(chars.len(), 2, "{got:?}");
        assert_eq!(chars[0].1, "'a'");
    }

    #[test]
    fn nested_block_comments() {
        let got = kinds("a /* x /* y */ z */ b");
        assert_eq!(
            got,
            vec![(TokKind::Ident, "a".into()), (TokKind::Ident, "b".into())]
        );
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let src = "let s = r#\"quote \" inside\"#; let k = r#fn; let t = r\"plain\";";
        let got = kinds(src);
        assert!(got.contains(&(TokKind::Str, "r#\"quote \" inside\"#".into())));
        assert!(got.contains(&(TokKind::Ident, "r#fn".into())));
        assert!(got.contains(&(TokKind::Str, "r\"plain\"".into())));
    }

    #[test]
    fn byte_and_c_strings() {
        let got = kinds("let a = b\"x\"; let b = br#\"y\"#; let c = c\"z\"; let d = b'q';");
        let strs = got.iter().filter(|t| t.0 == TokKind::Str).count();
        assert_eq!(strs, 3, "{got:?}");
        assert!(got.contains(&(TokKind::Char, "b'q'".into())));
    }

    #[test]
    fn line_numbers_are_one_based_and_track_newlines() {
        let toks = lex("a\nbb\n\nccc");
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn spans_are_monotone_and_in_bounds() {
        let src = "fn f() { \"s\" + 'c' /* k */ }";
        let mut last = 0;
        for t in lex_raw(src) {
            assert!(t.start >= last && t.end <= src.len() && t.start < t.end);
            last = t.end;
        }
    }

    #[test]
    fn unterminated_constructs_do_not_hang_or_panic() {
        for src in [
            "\"unterminated",
            "r#\"unterminated",
            "/* unterminated /* nested",
            "'\\",
            "b\"",
            "r###",
            "'",
        ] {
            let _ = lex(src);
        }
    }
}
