//! `unused-pub`: a `pub` item in a library's `src/` that nothing outside
//! that library names.
//!
//! The check is by name, over identifier tokens. An item is used when an
//! identifier token in some file outside its library's `src/` spells its
//! name: an integration test, an example, a bin target (`src/main.rs`,
//! `src/bin/`), another crate, the root facade or the benchmark. Comments
//! and string literals are not identifier tokens, so a doc example or a
//! message never counts as a caller. Only files under `crates/<name>/src/`
//! are library files whose items the rule flags; every other file is read
//! for callers only.

use crate::lexer::{Token, TokenKind};
use std::collections::HashMap;

/// One name a plain `pub` declares, blamed where the name is written.
pub(crate) struct PubItem {
    name: String,
    line: u32,
    col: u32,
}

/// The library whose `src/` holds `rel` (`crates/<name>/src/`), or `None`
/// for a file that is not part of a library: bin targets, tests,
/// examples, the root facade, the benchmark.
pub(crate) fn library(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let end = rest.find('/')?;
    let in_src = rest[end..].strip_prefix("/src/")?;
    if in_src == "main.rs" || in_src.starts_with("bin/") {
        return None;
    }
    Some(&rel[..rel.len() - in_src.len()])
}

/// Item keywords whose next identifier is the item's name.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "const", "static", "type", "mod",
];

/// Every name a plain `pub` (not `pub(crate)`, `pub(super)`, …) declares
/// outside the test regions `skip` marks: items, and each name a
/// `pub use` list brings in (globs, `self` and `as _` bring in none).
pub(crate) fn items(tokens: &[Token], skip: &[bool]) -> Vec<PubItem> {
    let ident = |j: usize| tokens.get(j).filter(|t| t.kind == TokenKind::Ident);
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if skip[i] || !t.is_ident("pub") || tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // Qualifiers: `pub const unsafe extern "C" fn`.
        let mut j = i + 1;
        while let Some(q) = tokens.get(j) {
            let const_fn = q.is_ident("const")
                && ident(j + 1).is_some_and(|n| {
                    ["fn", "unsafe", "async", "extern"].contains(&n.text.as_str())
                });
            let qualifier = q.kind == TokenKind::Str
                || ["async", "unsafe", "extern"].contains(&q.text.as_str());
            if !(const_fn || qualifier) {
                break;
            }
            j += 1;
        }
        let Some(keyword) = ident(j) else {
            continue;
        };
        if keyword.text == "use" {
            // The leaf of each path: the last identifier before `,`,
            // `}` or `;` (after `as`, the new name).
            let mut leaf: Option<&Token> = None;
            for u in &tokens[j + 1..] {
                if u.is_punct(',') || u.is_punct('}') || u.is_punct(';') {
                    if let Some(name) = leaf.take().filter(|n| n.text != "self" && n.text != "_") {
                        out.push(PubItem {
                            name: name.text.clone(),
                            line: name.line,
                            col: name.col,
                        });
                    }
                    if u.is_punct(';') {
                        break;
                    }
                } else {
                    leaf = (u.kind == TokenKind::Ident && u.text != "as").then_some(u);
                }
            }
        } else if ITEM_KEYWORDS.contains(&keyword.text.as_str()) {
            let at = if ident(j + 1).is_some_and(|m| m.text == "mut") {
                j + 2
            } else {
                j + 1
            };
            if let Some(name) = ident(at) {
                out.push(PubItem {
                    name: name.text.clone(),
                    line: name.line,
                    col: name.col,
                });
            }
        }
    }
    out
}

/// Who names each identifier: one library, or more than one owner (an
/// owner is a library or, for every other file, the outside).
enum Seen {
    Only(String),
    Several,
}

/// The identifier names of every file read, with their owners.
#[derive(Default)]
pub(crate) struct Callers(HashMap<String, Seen>);

impl Callers {
    /// Record every identifier token of the file at `rel`.
    pub(crate) fn add(&mut self, rel: &str, tokens: &[Token]) {
        let owner = library(rel).unwrap_or("");
        for t in tokens.iter().filter(|t| t.kind == TokenKind::Ident) {
            match self.0.get_mut(t.text.as_str()) {
                None => {
                    self.0.insert(t.text.clone(), Seen::Only(owner.to_string()));
                }
                Some(seen) => {
                    if matches!(seen, Seen::Only(o) if o != owner) {
                        *seen = Seen::Several;
                    }
                }
            }
        }
    }

    /// Does a file outside library `lib` name `item`?
    pub(crate) fn names_outside(&self, lib: &str, item: &PubItem) -> bool {
        match self.0.get(item.name.as_str()) {
            Some(Seen::Only(owner)) => owner != lib,
            Some(Seen::Several) => true,
            None => false,
        }
    }
}

impl PubItem {
    /// The finding for this item, unnamed outside `lib`.
    pub(crate) fn finding(&self, rel: &str, lib: &str) -> crate::Finding {
        crate::Finding {
            rule: crate::RULE_UNUSED_PUB,
            file: rel.to_string(),
            line: self.line,
            col: self.col,
            message: format!(
                "`pub` item `{}` is named nowhere outside {lib} — make it pub(crate) or private, or delete it",
                self.name
            ),
        }
    }
}
