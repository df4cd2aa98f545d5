//! Parse layer: a brace/paren-matched structural model on top of the
//! token stream.
//!
//! This is deliberately not a Rust parser. It recovers exactly the
//! structure the semantic rules need — function items and their body
//! ranges, `unsafe` site classification, `extern` block declarations,
//! and a per-file call-site model (callee, method
//! receiver chain, argument span) — from the lexer's token stream,
//! using nothing but bracket matching. Macros, generics, and patterns
//! are tolerated, not understood: a tuple-struct pattern `Some(x)`
//! shows up as a "call" to `Some`, which is harmless because every
//! consumer matches on specific callee names.

use crate::lexer::{Token, TokenKind};

/// What kind of construct the `unsafe` keyword introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnsafeKind {
    /// `unsafe { … }`
    Block,
    /// `unsafe fn …` (including `unsafe extern "C" fn`)
    Fn,
    /// `unsafe impl …`
    Impl,
    /// `unsafe trait …`
    Trait,
}

impl UnsafeKind {
    pub(crate) fn describe(self) -> &'static str {
        match self {
            UnsafeKind::Block => "unsafe block",
            UnsafeKind::Fn => "unsafe fn",
            UnsafeKind::Impl => "unsafe impl",
            UnsafeKind::Trait => "unsafe trait",
        }
    }
}

/// One `unsafe` keyword in non-type position, blamed at the keyword.
#[derive(Debug, Clone)]
pub(crate) struct UnsafeSite {
    pub kind: UnsafeKind,
    pub tok: usize,
    pub line: u32,
    pub col: u32,
}

/// A function item: `fn name` with an optional body token range.
#[derive(Debug, Clone)]
pub(crate) struct FnItem {
    pub name: String,
    /// Indices of the body's `{` and matching `}`; `None` for
    /// declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
}

/// An `ident(…)` site: a call, or anything call-shaped (tuple-struct
/// pattern, enum constructor). Consumers filter by callee name.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    pub callee: String,
    /// True when the callee is preceded by `.` (a method call).
    pub is_method: bool,
    /// For methods: the receiver's simple field/path chain in source
    /// order (`self.core.inject.lock()` → `["self","core","inject"]`).
    /// Empty when the receiver is a parenthesized/indexed expression
    /// the chain walk cannot represent.
    pub receiver: Vec<String>,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// Token indices of the argument span, exclusive of the parens:
    /// `args.0..args.1` are the argument tokens (may be empty).
    pub args: (usize, usize),
    pub line: u32,
    pub col: u32,
}

impl CallSite {
    /// True when the call has an empty argument list.
    pub(crate) fn args_empty(&self) -> bool {
        self.args.0 >= self.args.1
    }
}

/// Structural model of one file.
#[derive(Debug, Default)]
pub(crate) struct ParsedFile {
    pub fns: Vec<FnItem>,
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Names declared inside `extern "…" { … }` blocks — FFI functions.
    pub extern_fns: Vec<String>,
    pub calls: Vec<CallSite>,
    /// For each token index, the index of the innermost enclosing `{`
    /// token, or `usize::MAX` at top level.
    enclosing_brace: Vec<usize>,
    /// For each `{`/`(`/`[` token index, the index of its matching
    /// closer (itself for unmatched).
    close_of: Vec<usize>,
}

/// Keywords that look like `ident(` but are never calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "as", "move", "where",
];

impl ParsedFile {
    /// The innermost function whose body contains token `tok`.
    pub(crate) fn enclosing_fn(&self, tok: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(o, c)| o < tok && tok < c))
            .max_by_key(|f| f.body.map(|(o, _)| o))
    }

    /// Token index of the innermost `{` enclosing `tok` (`usize::MAX`
    /// at top level).
    pub(crate) fn enclosing_brace(&self, tok: usize) -> usize {
        self.enclosing_brace.get(tok).copied().unwrap_or(usize::MAX)
    }

    /// Matching closer for the opener at `open` (precomputed).
    pub(crate) fn close_of(&self, open: usize) -> usize {
        self.close_of.get(open).copied().unwrap_or(open)
    }
}

/// Walk backwards from `end` (inclusive) over a simple
/// `ident(.ident|::ident)*` chain, returning the segments in source
/// order. Empty when `end` is not an identifier.
fn path_chain_back(tokens: &[Token], end: usize) -> Vec<String> {
    let mut rev: Vec<String> = Vec::new();
    let mut i = end as isize;
    loop {
        if i < 0 || tokens[i as usize].kind != TokenKind::Ident {
            break;
        }
        rev.push(tokens[i as usize].text.clone());
        // Continue through `.` or `::` connectors only.
        if i >= 1 && tokens[(i - 1) as usize].is_punct('.') {
            i -= 2;
        } else if i >= 2
            && tokens[(i - 1) as usize].is_punct(':')
            && tokens[(i - 2) as usize].is_punct(':')
        {
            i -= 3;
        } else {
            break;
        }
    }
    rev.reverse();
    rev
}

/// Build the structural model. `O(tokens)` aside from bracket matching.
pub fn parse(tokens: &[Token]) -> ParsedFile {
    // Bracket matching: enclosing-brace map and opener→closer map.
    let mut pf = ParsedFile {
        close_of: (0..tokens.len()).collect(),
        enclosing_brace: vec![usize::MAX; tokens.len()],
        ..ParsedFile::default()
    };
    let mut paren_stack: Vec<usize> = Vec::new();
    let mut brace_stack: Vec<usize> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if let Some(&b) = brace_stack.last() {
            pf.enclosing_brace[i] = b;
        }
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => brace_stack.push(i),
                "}" => {
                    if let Some(o) = brace_stack.pop() {
                        pf.close_of[o] = i;
                    }
                }
                "(" | "[" => paren_stack.push(i),
                ")" | "]" => {
                    if let Some(o) = paren_stack.pop() {
                        pf.close_of[o] = i;
                    }
                }
                _ => {}
            }
        }
    }

    // Extern-block ranges, for excluding declarations from fn items.
    let mut extern_ranges: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("extern")
            && tokens.get(i + 1).is_some_and(|t| t.kind == TokenKind::Str)
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            let close = pf.close_of[i + 2];
            extern_ranges.push((i + 2, close));
            // Collect `fn NAME` declarations inside.
            let mut j = i + 3;
            while j < close {
                if tokens[j].is_ident("fn")
                    && tokens
                        .get(j + 1)
                        .is_some_and(|t| t.kind == TokenKind::Ident)
                {
                    pf.extern_fns.push(tokens[j + 1].text.clone());
                }
                j += 1;
            }
        }
        i += 1;
    }
    let in_extern_block = |tok: usize| extern_ranges.iter().any(|&(o, c)| o < tok && tok < c);

    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }

        // `unsafe` classification: look at the next tokens.
        if t.text == "unsafe" {
            let kind = {
                let mut k = None;
                for n in tokens.iter().skip(i + 1).take(4) {
                    if n.is_punct('{') {
                        k = Some(UnsafeKind::Block);
                        break;
                    }
                    if n.is_ident("fn") {
                        k = Some(UnsafeKind::Fn);
                        break;
                    }
                    if n.is_ident("impl") {
                        k = Some(UnsafeKind::Impl);
                        break;
                    }
                    if n.is_ident("trait") {
                        k = Some(UnsafeKind::Trait);
                        break;
                    }
                }
                k
            };
            if let Some(kind) = kind {
                pf.unsafe_sites.push(UnsafeSite {
                    kind,
                    tok: i,
                    line: t.line,
                    col: t.col,
                });
            }
            continue;
        }

        // `fn` items (outside extern blocks — those are declarations
        // recorded in `extern_fns`).
        if t.text == "fn"
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident)
            && !in_extern_block(i)
        {
            let name = &tokens[i + 1];
            // Body: first `{` at paren depth 0 before a `;`.
            let mut body = None;
            let mut depth = 0isize;
            let mut j = i + 2;
            while j < tokens.len() {
                let u = &tokens[j];
                if u.is_punct('(') || u.is_punct('[') {
                    depth += 1;
                } else if u.is_punct(')') || u.is_punct(']') {
                    depth -= 1;
                } else if u.is_punct('{') && depth == 0 {
                    body = Some((j, pf.close_of[j]));
                    break;
                } else if u.is_punct(';') && depth == 0 {
                    break;
                }
                j += 1;
            }
            pf.fns.push(FnItem {
                name: name.text.clone(),
                body,
            });
            continue;
        }

        // Call sites: `ident(` not preceded by `fn`, not a keyword.
        if tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
            && !(i > 0 && tokens[i - 1].is_ident("fn"))
        {
            let close = pf.close_of[i + 1];
            let is_method = i > 0 && tokens[i - 1].is_punct('.');
            let receiver = if is_method && i >= 2 {
                path_chain_back(tokens, i - 2)
            } else {
                Vec::new()
            };
            pf.calls.push(CallSite {
                callee: t.text.clone(),
                is_method,
                receiver,
                tok: i,
                args: (i + 2, close),
                line: t.line,
                col: t.col,
            });
        }
    }

    pf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse(&lex(src).expect("fixture must lex").tokens)
    }

    #[test]
    fn fn_items_and_bodies() {
        let p = parsed("fn a() -> u8 { 1 }\npub(crate) const unsafe fn b(x: u8) { x; }\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "a");
        assert!(p.fns[0].body.is_some());
        assert_eq!(p.fns[1].name, "b");
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn unsafe_block_vs_unsafe_fn() {
        let p =
            parsed("unsafe fn f() { }\nfn g() { unsafe { h(); } }\nunsafe impl Send for S {}\n");
        let kinds: Vec<UnsafeKind> = p.unsafe_sites.iter().map(|u| u.kind).collect();
        assert_eq!(kinds, [UnsafeKind::Fn, UnsafeKind::Block, UnsafeKind::Impl]);
        // The unsafe fn is also recorded as an fn item.
        assert!(p.fns.iter().any(|f| f.name == "f"));
    }

    #[test]
    fn nested_closures_keep_body_ranges_balanced() {
        let src = "fn outer() {\n    let f = |x: u8| { let g = |y: u8| { y + 1 }; g(x) };\n    f(1);\n}\nfn after() {}\n";
        let p = parsed(src);
        assert_eq!(p.fns.len(), 2);
        let (o, c) = p.fns[0].body.unwrap();
        // `after`'s body lies outside outer's.
        assert!(p.fns[1].body.unwrap().0 > c && c > o);
        // The call to g(x) is attributed to `outer`.
        let g = p.calls.iter().find(|cs| cs.callee == "g").unwrap();
        assert_eq!(p.enclosing_fn(g.tok).unwrap().name, "outer");
    }

    #[test]
    fn raw_strings_with_braces_do_not_confuse_matching() {
        let src = "fn a() { let s = r#\"{ not a block } fn fake() {\"#; s.len(); }\nfn b() {}\n";
        let p = parsed(src);
        // `fake` must not be parsed as a function; `b` must be.
        assert_eq!(
            p.fns.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert_eq!(p.enclosing_fn(p.calls[0].tok).unwrap().name, "a");
    }

    #[test]
    fn extern_block_declarations_are_ffi_not_items() {
        let src = "extern \"C\" {\n    fn close(fd: i32) -> i32;\n    fn open(p: *const u8) -> i32;\n}\nfn real() { let _rc = unsafe { close(3) }; }\n";
        let p = parsed(src);
        assert_eq!(p.extern_fns, ["close", "open"]);
        assert_eq!(
            p.fns.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            ["real"]
        );
        // The call to close() is a call site, not a declaration.
        assert!(p.calls.iter().any(|c| c.callee == "close" && !c.is_method));
    }

    #[test]
    fn call_model_paths_receivers_args() {
        let src = "fn f(s: &S) {\n    std::thread::sleep(d);\n    s.core.inject.lock();\n    t.join();\n    v.join(\", \");\n}\n";
        let p = parsed(src);
        let sleep = p.calls.iter().find(|c| c.callee == "sleep").unwrap();
        assert!(!sleep.is_method);
        let lock = p.calls.iter().find(|c| c.callee == "lock").unwrap();
        assert!(lock.is_method);
        assert_eq!(lock.receiver, ["s", "core", "inject"]);
        assert!(lock.args_empty());
        let joins: Vec<&CallSite> = p.calls.iter().filter(|c| c.callee == "join").collect();
        assert_eq!(joins.len(), 2);
        assert!(joins[0].args_empty(), "t.join()");
        assert!(!joins[1].args_empty(), "v.join(\", \") has an argument");
    }
}
