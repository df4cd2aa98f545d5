//! A small, correct Rust lexer — just enough of the language to walk
//! token streams without being fooled by comments or literals.
//!
//! The rules in [`crate::analyze_source`] are token-pattern matchers;
//! their
//! soundness rests entirely on this module never confusing source code
//! with the inside of a string, a comment, or a char literal. The
//! hard cases are handled for real:
//!
//! * line comments and **nested** block comments (`/* /* */ */`);
//! * plain strings with escapes (`"\" \\ \u{1F600}"` and the
//!   backslash-newline line continuation);
//! * raw strings with any hash depth (`r#"…"#`, `r##"…"##`) and raw
//!   identifiers (`r#type`);
//! * byte strings and byte literals (`b"…"`, `br#"…"#`, `b'x'`);
//! * lifetimes vs char literals (`'a` vs `'a'`, `'_`, labels);
//! * numeric literals including type suffixes and `0..n` ranges (the
//!   `.` after `0` must not be eaten as a float).
//!
//! Comments are not discarded: they are collected separately so the
//! suppression parser (in [`crate::analyze_source`]) can find
//! `// lint:allow(rule): reason` annotations.

/// What a token is. The analyzer mostly cares about identifiers and
/// single-character punctuation; literal kinds are distinguished so a
/// rule can never match inside one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`foo`, `fn`, `as`, `r#type`).
    Ident,
    /// Lifetime or loop label (`'a`, `'static`, `'_`).
    Lifetime,
    /// Integer or float literal, including suffixes (`0x1f`, `1_000u64`).
    Number,
    /// String-ish literal: `"…"`, `r"…"`, `b"…"`, `br#"…"#`, `c"…"`.
    Str,
    /// Char or byte literal: `'a'`, `'\n'`, `b'x'`.
    Char,
    /// One punctuation character (`(`, `[`, `.`, `!`, …). Multi-char
    /// operators arrive as consecutive tokens (`::` is `:`, `:`).
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// The token's text, exactly as written (for `Str`/`Char` this
    /// includes quotes and prefixes).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Token {
    /// True for an identifier token spelling exactly `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True for a punctuation token spelling exactly `c`.
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// A comment, kept aside for suppression parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(unused-pub): reached only through `Lexed::comments`
pub struct Comment {
    /// Full comment text including the `//` / `/*` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// True when nothing but whitespace precedes the comment on its
    /// line — a standalone comment (suppressions on such a line apply
    /// to the next source line, not their own).
    pub standalone: bool,
}

/// Lexer failure: structurally unterminated input. Reported with the
/// line it started on so the CLI can blame it precisely.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(unused-pub): reached only as the error of `lex` and `analyze_source`
pub struct LexError {
    pub line: u32,
    pub what: &'static str,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: unterminated {}", self.line, self.what)
    }
}

impl std::error::Error for LexError {}

/// A fully lexed file.
#[derive(Debug, Default)]
// lint:allow(unused-pub): reached only as the value of `lex`
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lex a whole source file.
pub fn lex(source: &str) -> Result<Lexed, LexError> {
    let mut cur = Cursor {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();
    let mut line_has_code = false;

    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        if c == '\n' {
            cur.bump();
            line_has_code = false;
            continue;
        }
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek_at(1) == Some('/') {
            let mut text = String::new();
            while let Some(ch) = cur.peek() {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.comments.push(Comment {
                text,
                line,
                standalone: !line_has_code,
            });
            continue;
        }
        if c == '/' && cur.peek_at(1) == Some('*') {
            let mut text = String::new();
            let mut depth = 0usize;
            loop {
                match (cur.peek(), cur.peek_at(1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        text.push('/');
                        text.push('*');
                        cur.bump();
                        cur.bump();
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        text.push('*');
                        text.push('/');
                        cur.bump();
                        cur.bump();
                        if depth == 0 {
                            break;
                        }
                    }
                    (Some(ch), _) => {
                        text.push(ch);
                        cur.bump();
                    }
                    (None, _) => {
                        return Err(LexError {
                            line,
                            what: "block comment",
                        })
                    }
                }
            }
            out.comments.push(Comment {
                text,
                line,
                standalone: !line_has_code,
            });
            continue;
        }

        line_has_code = true;

        // String-ish prefixes: r"…", r#"…"#, r#ident, b"…", b'…',
        // br"…", br#"…"#, c"…", cr#"…"#.
        if is_ident_start(c) {
            if let Some(token) = lex_prefixed_literal(&mut cur, line, col)? {
                out.tokens.push(token);
                continue;
            }
            let mut text = String::new();
            while let Some(ch) = cur.peek() {
                if is_ident_continue(ch) {
                    text.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text,
                line,
                col,
            });
            continue;
        }

        if c.is_ascii_digit() {
            out.tokens.push(lex_number(&mut cur, line, col));
            continue;
        }

        if c == '"' {
            let text = lex_string(&mut cur, line)?;
            out.tokens.push(Token {
                kind: TokenKind::Str,
                text,
                line,
                col,
            });
            continue;
        }

        if c == '\'' {
            out.tokens.push(lex_quote(&mut cur, line, col)?);
            continue;
        }

        // Single punctuation character.
        cur.bump();
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
            col,
        });
    }
    Ok(out)
}

/// Handle `r`/`b`/`br`/`c`/`cr` literal prefixes. Returns `None` when
/// the identifier starting here is not a literal prefix (the caller
/// lexes it as a plain identifier).
fn lex_prefixed_literal(cur: &mut Cursor, line: u32, col: u32) -> Result<Option<Token>, LexError> {
    let c0 = match cur.peek() {
        Some(c) => c,
        None => return Ok(None),
    };
    // How many prefix chars, and does a raw marker follow?
    let (prefix_len, rest) = match c0 {
        'r' | 'b' | 'c' => {
            let c1 = cur.peek_at(1);
            if (c0 == 'b' || c0 == 'c') && c1 == Some('r') {
                (2, cur.peek_at(2))
            } else {
                (1, c1)
            }
        }
        _ => return Ok(None),
    };
    let raw = c0 == 'r' || prefix_len == 2;
    match rest {
        Some('"') if !raw => {
            // b"…" / c"…": cooked string with escapes.
            let mut text = String::new();
            for _ in 0..prefix_len {
                text.push(cur.bump().unwrap_or_default());
            }
            text.push_str(&lex_string(cur, line)?);
            Ok(Some(Token {
                kind: TokenKind::Str,
                text,
                line,
                col,
            }))
        }
        Some('"') | Some('#') if raw => {
            // Count hashes after the prefix; a quote begins a raw
            // string, an identifier char begins a raw identifier
            // (`r#type`), anything else is not a literal.
            let mut hashes = 0usize;
            while cur.peek_at(prefix_len + hashes) == Some('#') {
                hashes += 1;
            }
            match cur.peek_at(prefix_len + hashes) {
                Some('"') => {
                    let mut text = String::new();
                    for _ in 0..prefix_len + hashes + 1 {
                        text.push(cur.bump().unwrap_or_default());
                    }
                    // Scan for `"` followed by `hashes` hashes.
                    loop {
                        match cur.peek() {
                            Some('"') => {
                                let mut ok = true;
                                for k in 0..hashes {
                                    if cur.peek_at(1 + k) != Some('#') {
                                        ok = false;
                                        break;
                                    }
                                }
                                text.push(cur.bump().unwrap_or_default());
                                if ok {
                                    for _ in 0..hashes {
                                        text.push(cur.bump().unwrap_or_default());
                                    }
                                    break;
                                }
                            }
                            Some(ch) => {
                                text.push(ch);
                                cur.bump();
                            }
                            None => {
                                return Err(LexError {
                                    line,
                                    what: "raw string",
                                })
                            }
                        }
                    }
                    Ok(Some(Token {
                        kind: TokenKind::Str,
                        text,
                        line,
                        col,
                    }))
                }
                Some(ch) if hashes == 1 && prefix_len == 1 && c0 == 'r' && is_ident_start(ch) => {
                    // Raw identifier r#type.
                    let mut text = String::from("r#");
                    cur.bump();
                    cur.bump();
                    while let Some(ch) = cur.peek() {
                        if is_ident_continue(ch) {
                            text.push(ch);
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                    Ok(Some(Token {
                        kind: TokenKind::Ident,
                        text,
                        line,
                        col,
                    }))
                }
                _ => Ok(None),
            }
        }
        Some('\'') if c0 == 'b' && prefix_len == 1 => {
            // Byte literal b'x'.
            let mut text = String::from("b");
            cur.bump();
            let quote = lex_quote(cur, line, col)?;
            text.push_str(&quote.text);
            Ok(Some(Token {
                kind: TokenKind::Char,
                text,
                line,
                col,
            }))
        }
        _ => Ok(None),
    }
}

/// Lex a cooked string starting at `"`, handling escapes (including
/// `\"`, `\\`, `\u{…}`, and the backslash-newline continuation).
fn lex_string(cur: &mut Cursor, line: u32) -> Result<String, LexError> {
    let mut text = String::new();
    text.push(cur.bump().unwrap_or_default()); // opening quote
    loop {
        match cur.peek() {
            Some('\\') => {
                text.push(cur.bump().unwrap_or_default());
                if let Some(esc) = cur.bump() {
                    text.push(esc);
                } else {
                    return Err(LexError {
                        line,
                        what: "string escape",
                    });
                }
            }
            Some('"') => {
                text.push(cur.bump().unwrap_or_default());
                return Ok(text);
            }
            Some(ch) => {
                text.push(ch);
                cur.bump();
            }
            None => {
                return Err(LexError {
                    line,
                    what: "string literal",
                })
            }
        }
    }
}

/// Lex from a `'`: either a char literal or a lifetime/label.
///
/// Disambiguation (the same rule rustc uses): after the quote, an
/// escape or a non-identifier character means a char literal; an
/// identifier character followed by a closing `'` is a char literal
/// (`'a'`), anything else is a lifetime (`'a`, `'static`, `'_`).
fn lex_quote(cur: &mut Cursor, line: u32, col: u32) -> Result<Token, LexError> {
    let mut text = String::new();
    text.push(cur.bump().unwrap_or_default()); // the quote
    match cur.peek() {
        Some('\\') => {
            // Escaped char literal: the char after the backslash is
            // always part of the escape (`'\''` ends at the SECOND
            // quote), then scan to the closing `'` — the escape body
            // may be multi-char (`\u{1F600}`).
            text.push(cur.bump().unwrap_or_default());
            if let Some(esc) = cur.bump() {
                text.push(esc);
            } else {
                return Err(LexError {
                    line,
                    what: "char literal",
                });
            }
            loop {
                match cur.bump() {
                    Some('\'') => {
                        text.push('\'');
                        return Ok(Token {
                            kind: TokenKind::Char,
                            text,
                            line,
                            col,
                        });
                    }
                    Some(ch) => text.push(ch),
                    None => {
                        return Err(LexError {
                            line,
                            what: "char literal",
                        })
                    }
                }
            }
        }
        Some(ch) if is_ident_continue(ch) => {
            if cur.peek_at(1) == Some('\'') {
                // 'a' — a char literal.
                text.push(cur.bump().unwrap_or_default());
                text.push(cur.bump().unwrap_or_default());
                Ok(Token {
                    kind: TokenKind::Char,
                    text,
                    line,
                    col,
                })
            } else {
                // 'a, 'static, '_ — a lifetime or label.
                while let Some(ch) = cur.peek() {
                    if is_ident_continue(ch) {
                        text.push(ch);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                Ok(Token {
                    kind: TokenKind::Lifetime,
                    text,
                    line,
                    col,
                })
            }
        }
        Some(_) => {
            // '(' and friends: a single-char literal.
            text.push(cur.bump().unwrap_or_default());
            if !cur.eat('\'') {
                return Err(LexError {
                    line,
                    what: "char literal",
                });
            }
            text.push('\'');
            Ok(Token {
                kind: TokenKind::Char,
                text,
                line,
                col,
            })
        }
        None => Err(LexError {
            line,
            what: "char literal",
        }),
    }
}

/// Lex a numeric literal. `0..n` must leave the range dots alone, and
/// `1.max(2)`-style method calls must not absorb the dot; a `.` is part
/// of the number only when a digit follows it.
fn lex_number(cur: &mut Cursor, line: u32, col: u32) -> Token {
    let mut text = String::new();
    let mut kind = TokenKind::Number;
    let mut seen_exp_base = false;
    while let Some(ch) = cur.peek() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            seen_exp_base = ch == 'e' || ch == 'E';
            text.push(ch);
            cur.bump();
        } else if ch == '.' {
            // Part of the number only if a digit follows (so `0..n`
            // and `1.max(2)` terminate the literal here).
            if cur.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
                kind = TokenKind::Number;
                text.push(ch);
                cur.bump();
            } else {
                break;
            }
        } else if (ch == '+' || ch == '-') && seen_exp_base {
            // Exponent sign: 1e-5.
            text.push(ch);
            cur.bump();
            seen_exp_base = false;
        } else {
            break;
        }
    }
    Token {
        kind,
        text,
        line,
        col,
    }
}
