//! authlint — the workspace invariant checker.
//!
//! The repo's core discipline is that attacker-controlled bytes (wire
//! frames, snapshot sections, verification objects) must produce typed
//! errors, never panics, silent truncations, or attacker-sized
//! allocations. This crate turns that discipline into named,
//! file:line-blaming rules enforced at build time:
//!
//! * `panic-path` (R1) — no `unwrap`/`expect`/`panic!`-family macros or
//!   slice indexing inside declared untrusted-input modules;
//! * `truncating-cast` (R2) — no `as` narrowing of length/count-typed
//!   expressions anywhere in non-test code;
//! * `lock-unwrap` (R3) — `.lock().unwrap()`/`.lock().expect(…)` is
//!   banned; locks must use the poison-recovery idiom
//!   (`lock_recover`, i.e. `unwrap_or_else(PoisonError::into_inner)`);
//! * `unclamped-prealloc` (R4) — `Vec::with_capacity`/`reserve` in
//!   decode modules must be fed through `checked_count`/`PREALLOC_CLAMP`
//!   style helpers, never raw attacker counts;
//! * `unused-pub` — a `pub` item in a library's `src/` that no file
//!   outside that library names (tests, examples, bins, other crates
//!   and the benchmark are read for callers);
//! * `bad-suppression` (meta) — a `lint:allow` with an unknown rule
//!   name, a missing reason, or that suppresses nothing.
//!
//! Suppression is explicit and auditable:
//! `// lint:allow(rule): <reason>` on the offending line (or on its own
//! line immediately above), reason mandatory.
//!
//! Everything is std-only: the lexer is hand-rolled (`lexer` module)
//! and JSON output is emitted by hand in the CLI.

pub mod lexer;
mod parse;
mod semantic;
mod unused_pub;

use lexer::{LexError, Lexed, Token, TokenKind};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};

/// Rule identifiers, stable strings used in findings, `lint:allow`, and
/// `--rules` output.
pub(crate) const RULE_PANIC_PATH: &str = "panic-path";
pub(crate) const RULE_TRUNCATING_CAST: &str = "truncating-cast";
pub(crate) const RULE_LOCK_UNWRAP: &str = "lock-unwrap";
pub(crate) const RULE_UNCLAMPED_PREALLOC: &str = "unclamped-prealloc";
pub(crate) const RULE_UNSAFE_AUDIT: &str = "unsafe-audit";
pub(crate) const RULE_LOCK_ORDER: &str = "lock-order";
pub(crate) const RULE_BLOCKING_IN_REACTOR: &str = "blocking-in-reactor";
pub(crate) const RULE_SWALLOWED_RESULT: &str = "swallowed-result";
pub(crate) const RULE_UNUSED_PUB: &str = "unused-pub";
pub(crate) const RULE_BAD_SUPPRESSION: &str = "bad-suppression";

/// Every rule with a one-line summary, for `--rules` and for validating
/// `lint:allow(rule)` names.
pub const RULES: &[(&str, &str)] = &[
    (
        RULE_PANIC_PATH,
        "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! or slice indexing in untrusted-input modules — attacker bytes must yield typed errors, never panics",
    ),
    (
        RULE_TRUNCATING_CAST,
        "no truncating `as` casts (to u8/u16/u32/i8/i16/i32) of length/count/offset-typed expressions in non-test code — use try_from and surface a typed error",
    ),
    (
        RULE_LOCK_UNWRAP,
        "no .lock().unwrap() / .lock().expect(…) — use the poison-recovery idiom (pool::lock_recover / unwrap_or_else(PoisonError::into_inner))",
    ),
    (
        RULE_UNCLAMPED_PREALLOC,
        "Vec::with_capacity / reserve in decode modules must take values routed through checked_count / PREALLOC_CLAMP-style helpers, never raw decoded counts",
    ),
    (
        RULE_UNSAFE_AUDIT,
        "every unsafe block/fn/impl needs an adjacent `// SAFETY:` invariant comment; unsafe outside the audited-module allowlist is a finding; extern-fn call results must be bound and errno-checked",
    ),
    (
        RULE_LOCK_ORDER,
        "lock guards must acquire in a globally consistent order — acquired-while-held cycles across pool/server are findings (`--graph` dumps the DOT graph); fix cycles, never allow them",
    ),
    (
        RULE_BLOCKING_IN_REACTOR,
        "no thread::sleep, bare .join(), blocking stream I/O, or lock held across a pool submit in the reactor modules, one call level deep — the event loop must never block",
    ),
    (
        RULE_SWALLOWED_RESULT,
        "`let _ = call(…)` in IO/untrusted modules silently drops a result — handle it, propagate it, or lint:allow with a reason",
    ),
    (
        RULE_UNUSED_PUB,
        "a `pub` item in a library's src/ must be named by an identifier outside that library (tests, examples, bins, other crates, benchmark/src) — make it pub(crate) or private, or delete it",
    ),
    (
        RULE_BAD_SUPPRESSION,
        "lint:allow must name known rules, carry a non-empty reason after ':', and actually suppress a finding on its target line",
    ),
];

/// True iff `name` is a real, allow-able rule (the meta rule itself is
/// not suppressible).
pub(crate) fn is_known_rule(name: &str) -> bool {
    RULES
        .iter()
        .any(|(n, _)| *n == name && *n != RULE_BAD_SUPPRESSION)
}

/// One lint finding, blaming an exact file, line, and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Analyzer configuration: which modules each module-scoped rule
/// family applies to.
///
/// Entries ending in `/` are directory prefixes; others are exact file
/// paths, both relative to the workspace root with `/` separators.
#[derive(Debug, Clone)]
pub struct Config {
    /// Untrusted-input surfaces: panic-path and unclamped-prealloc.
    pub untrusted: Vec<String>,
    /// Modules permitted to contain `unsafe` at all (each site still
    /// needs a `// SAFETY:` comment).
    pub unsafe_allowed: Vec<String>,
    /// Reactor modules: single-threaded event-loop code that must
    /// never block (blocking-in-reactor).
    pub reactor_modules: Vec<String>,
    /// IO modules where `let _ = call(…)` result drops are audited
    /// (swallowed-result).
    pub io_modules: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            untrusted: vec![
                "crates/index/src/codec.rs".into(),
                "crates/core/src/wire.rs".into(),
                "crates/index/src/persist.rs".into(),
                "crates/core/src/verify/".into(),
                "crates/core/src/auth/snapshot.rs".into(),
                "crates/core/src/client.rs".into(),
                "crates/core/src/reactor.rs".into(),
                "crates/core/src/server/conn.rs".into(),
                "crates/core/src/server/reactor_core.rs".into(),
                "crates/core/src/server/mod.rs".into(),
            ],
            unsafe_allowed: vec![
                "crates/core/src/reactor.rs".into(),
                "crates/crypto/src/sha256/shani.rs".into(),
            ],
            reactor_modules: vec![
                "crates/core/src/server/reactor_core.rs".into(),
                "crates/core/src/server/conn.rs".into(),
            ],
            io_modules: vec![
                "crates/index/src/codec.rs".into(),
                "crates/core/src/wire.rs".into(),
                "crates/index/src/persist.rs".into(),
                "crates/core/src/server/".into(),
                "crates/core/src/client.rs".into(),
            ],
        }
    }
}

fn matches_module(list: &[String], rel: &str) -> bool {
    list.iter().any(|u| {
        if let Some(dir) = u.strip_suffix('/') {
            rel == dir || rel.starts_with(u.as_str())
        } else {
            rel == u
        }
    })
}

impl Config {
    /// Is `rel` (slash-separated, workspace-relative) an
    /// untrusted-input module?
    pub(crate) fn is_untrusted(&self, rel: &str) -> bool {
        matches_module(&self.untrusted, rel)
    }

    /// May `rel` contain `unsafe` code at all?
    pub(crate) fn is_unsafe_allowed(&self, rel: &str) -> bool {
        matches_module(&self.unsafe_allowed, rel)
    }

    /// Is `rel` part of the single-threaded reactor that must never
    /// block?
    pub(crate) fn is_reactor(&self, rel: &str) -> bool {
        matches_module(&self.reactor_modules, rel)
    }

    /// Is `rel` an IO module whose dropped results are audited?
    pub(crate) fn is_io(&self, rel: &str) -> bool {
        matches_module(&self.io_modules, rel)
    }
}

/// One acquired-while-held edge in the lock-order graph: a `to` lock
/// acquired at `file:line:col` while a `from` guard was held.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(unused-pub): reached only through `Report::lock_edges` and `render_lock_dot`
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
    pub col: u32,
}

/// A parsed `lint:allow(rules): reason` annotation.
#[derive(Debug)]
struct Suppression {
    /// Source line the allow applies to (the comment's own line for a
    /// trailing comment, the next code line for a standalone one).
    target_line: u32,
    /// Line of the comment itself, for blaming bad suppressions.
    comment_line: u32,
    rules: Vec<String>,
    reason: String,
    used: bool,
}

/// Result of analyzing a tree (or one file).
#[derive(Debug, Default)]
// lint:allow(unused-pub): reached only as the value of `analyze_workspace`, `analyze_sources` and `analyze_source`
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Count of well-formed `lint:allow` annotations seen (used +
    /// unused), for reporting.
    pub suppressions: usize,
    /// The acquired-while-held lock graph (for `--graph`).
    pub lock_edges: Vec<LockEdge>,
}

const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Idents whose value is length/count/size-like for `truncating-cast`.
const LENGTH_WORDS: &[&str] = &[
    "len", "length", "count", "counts", "size", "sizes", "capacity", "cap", "offset", "offsets",
    "pos", "position",
];
const LENGTH_SUFFIXES: &[&str] = &[
    "_len",
    "_length",
    "_count",
    "_size",
    "_capacity",
    "_offset",
    "_pos",
];

fn is_length_ident(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    LENGTH_WORDS.iter().any(|w| lower == *w) || LENGTH_SUFFIXES.iter().any(|s| lower.ends_with(s))
}

/// Keywords that may legally precede `[` without it being an index
/// expression (`impl [T]`, `mut [u8]`, patterns, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "ref", "dyn", "impl", "in", "as", "return", "break", "const", "static", "where", "else",
    "move", "box", "await", "async", "unsafe", "let", "fn", "pub", "crate", "super", "use", "mod",
    "enum", "struct", "trait", "type", "match", "if", "while", "for", "loop",
];

/// Panic-macro names checked when followed by `!`.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Per-file intermediate state: raw findings plus everything the
/// workspace-global passes need (fn summaries, lock acquisitions,
/// pending cross-function calls).
struct ScanState {
    rel: String,
    raw: Vec<Finding>,
    sups: Vec<Suppression>,
    sup_findings: Vec<Finding>,
    sem: semantic::SemanticScan,
    pub_items: Vec<unused_pub::PubItem>,
}

/// Token-rule + semantic scan of one file (no global resolution yet).
fn scan_one(rel: &str, source: &str, lexed: &Lexed, cfg: &Config) -> ScanState {
    let skip = test_region_mask(&lexed.tokens);
    let untrusted = cfg.is_untrusted(rel);
    let parsed = parse::parse(&lexed.tokens);

    let mut raw: Vec<Finding> = Vec::new();
    scan_panic_paths(rel, &lexed.tokens, &skip, untrusted, &mut raw);
    scan_truncating_casts(rel, &lexed.tokens, &skip, &mut raw);
    scan_lock_unwrap(rel, &lexed.tokens, &skip, &mut raw);
    scan_unclamped_prealloc(rel, &lexed.tokens, &skip, untrusted, &mut raw);

    let (sups, sup_findings) = parse_suppressions(rel, lexed);
    // Blocking operations already covered by an allow are vouched for
    // at their site — exclude them from the one-level summaries so
    // callers are not re-blamed.
    let allowed_blocking: HashSet<u32> = sups
        .iter()
        .filter(|s| s.rules.iter().any(|r| r == RULE_BLOCKING_IN_REACTOR))
        .map(|s| s.target_line)
        .collect();

    let sem = semantic::scan(rel, source, lexed, &skip, &parsed, cfg, &allowed_blocking);
    raw.extend(sem.findings.iter().cloned());

    ScanState {
        rel: rel.to_string(),
        raw,
        sups,
        sup_findings,
        sem,
        pub_items: unused_pub::items(&lexed.tokens, &skip),
    }
}

/// Workspace-global resolution over the scanned files: one-level lock
/// edges and blocking calls, then cycle detection over the combined
/// lock graph. Returns the full edge list; cycle/blocking findings are
/// appended to each file's raw findings.
fn resolve_global(states: &mut [ScanState]) -> Vec<LockEdge> {
    // Index fn summaries: name → (state index, summary index).
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (si, st) in states.iter().enumerate() {
        for (fi, f) in st.sem.summaries.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push((si, fi));
        }
    }
    // A held/reactor call resolves to a same-file fn of that name
    // first; a free call with no same-file match resolves globally iff
    // the name is unique workspace-wide.
    let resolve = |caller: usize, callee: &str, self_method: bool| -> Option<(usize, usize)> {
        let candidates = by_name.get(callee)?;
        if let Some(hit) = candidates.iter().find(|(si, _)| *si == caller) {
            return Some(*hit);
        }
        if !self_method && candidates.len() == 1 {
            return Some(candidates[0]);
        }
        None
    };

    let mut edges: Vec<LockEdge> = Vec::new();
    let mut extra: Vec<(usize, Finding)> = Vec::new();
    for (si, st) in states.iter().enumerate() {
        edges.extend(st.sem.edges.iter().cloned());
        for hc in &st.sem.held_calls {
            if let Some((ti, fi)) = resolve(si, &hc.callee, hc.self_method) {
                for label in &states[ti].sem.summaries[fi].locks {
                    edges.push(LockEdge {
                        from: hc.from_label.clone(),
                        to: label.clone(),
                        file: st.rel.clone(),
                        line: hc.line,
                        col: hc.col,
                    });
                }
            }
        }
        for rc in &st.sem.reactor_calls {
            if let Some((ti, fi)) = resolve(si, &rc.callee, rc.self_method) {
                let target = &states[ti].sem.summaries[fi];
                if let Some((desc, line)) = target.blocking.first() {
                    extra.push((
                        si,
                        Finding {
                            rule: RULE_BLOCKING_IN_REACTOR,
                            file: st.rel.clone(),
                            line: rc.line,
                            col: rc.col,
                            message: format!(
                                "calls `{}`, which blocks ({desc} at {}:{line}) — the event loop must never block",
                                rc.callee, states[ti].rel
                            ),
                        },
                    ));
                }
            }
        }
    }
    for (si, f) in extra {
        states[si].raw.push(f);
    }

    // Cycle detection: an edge is a finding iff its target can reach
    // back to its source through the graph (including self-edges).
    let rel_index: BTreeMap<String, usize> = states
        .iter()
        .enumerate()
        .map(|(i, s)| (s.rel.clone(), i))
        .collect();
    for e in &edges {
        if let Some(path) = cycle_path(&edges, &e.to, &e.from) {
            let cycle: Vec<&str> = std::iter::once(e.from.as_str())
                .chain(path.iter().map(|s| s.as_str()))
                .collect();
            let msg = if e.from == e.to {
                format!(
                    "re-acquiring `{}` while a `{}` guard is held — self-deadlock on a non-reentrant mutex",
                    e.to, e.from
                )
            } else {
                format!(
                    "lock-order cycle: acquiring `{}` while holding `{}` closes the cycle {}",
                    e.to,
                    e.from,
                    cycle.join(" → ")
                )
            };
            if let Some(&si) = rel_index.get(&e.file) {
                states[si].raw.push(Finding {
                    rule: RULE_LOCK_ORDER,
                    file: e.file.clone(),
                    line: e.line,
                    col: e.col,
                    message: msg,
                });
            }
        }
    }
    edges
}

/// Shortest label path from `from` back to `to` over the edge list
/// (BFS), or `None` when unreachable. Used to name the full cycle.
fn cycle_path(edges: &[LockEdge], from: &str, to: &str) -> Option<Vec<String>> {
    let mut queue: std::collections::VecDeque<Vec<String>> = std::collections::VecDeque::new();
    let mut seen: HashSet<&str> = HashSet::new();
    queue.push_back(vec![from.to_string()]);
    seen.insert(from);
    while let Some(path) = queue.pop_front() {
        let last = path.last().expect("paths are non-empty");
        if last == to {
            return Some(path);
        }
        for e in edges {
            if &e.from == last && seen.insert(e.to.as_str()) {
                let mut next = path.clone();
                next.push(e.to.clone());
                queue.push_back(next);
            }
        }
    }
    None
}

/// Apply the suppression ledger to a file's raw findings, surface
/// unused allows, and add both to `report`.
fn finish(mut st: ScanState, report: &mut Report) {
    report.suppressions += st.sups.len();
    let findings = &mut report.findings;
    findings.append(&mut st.sup_findings);
    for f in st.raw {
        let mut silenced = false;
        for s in st.sups.iter_mut() {
            if s.target_line == f.line && s.rules.iter().any(|r| r == f.rule) {
                s.used = true;
                silenced = true;
            }
        }
        if !silenced {
            findings.push(f);
        }
    }
    // An allow that silences nothing is itself a finding — stale
    // suppressions must not accumulate.
    for s in &st.sups {
        if !s.used {
            findings.push(Finding {
                rule: RULE_BAD_SUPPRESSION,
                file: st.rel.clone(),
                line: s.comment_line,
                col: 1,
                message: format!(
                    "unused lint:allow({}) — no matching finding on line {}",
                    s.rules.join(", "),
                    s.target_line
                ),
            });
        }
    }
}

/// Analyze one file's source text. `rel` is the workspace-relative path
/// (slash-separated) used both for blame output and for deciding which
/// rules apply, as in [`analyze_sources`]. The file is treated as its
/// own universe: cross-function passes (lock cycles, one-level
/// blocking) resolve within it, and no file outside it names its `pub`
/// items.
pub fn analyze_source(rel: &str, source: &str, cfg: &Config) -> Result<Report, LexError> {
    lexer::lex(source)?;
    Ok(analyze_sources(&[(rel, source)], cfg))
}

/// Blame every `pub` item of a library file that `callers` never saw
/// outside its library.
fn resolve_unused_pub(states: &mut [ScanState], callers: &unused_pub::Callers) {
    for st in states {
        let Some(lib) = unused_pub::library(&st.rel) else {
            continue;
        };
        for item in &st.pub_items {
            if !callers.names_outside(lib, item) {
                st.raw.push(item.finding(&st.rel, lib));
            }
        }
    }
}

/// Mark tokens that belong to test-only items: any item gated by an
/// attribute containing the ident `test` (`#[test]`, `#[cfg(test)]`,
/// `#[bench]`-style custom harnesses) is skipped, including whole
/// `#[cfg(test)] mod tests { … }` blocks. `#[cfg(not(test))]` is NOT
/// skipped — that code ships.
fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut skip = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            // Find the matching `]` of the attribute.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut has_test = false;
            let mut has_not = false;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.kind == TokenKind::Ident {
                    if t.text == "test" {
                        has_test = true;
                    } else if t.text == "not" {
                        has_not = true;
                    }
                }
                j += 1;
            }
            if has_test && !has_not && j < tokens.len() {
                // Skip from the attribute through the end of the item
                // it gates: either a `;` at bracket depth zero or a
                // `{ … }` block.
                let start = i;
                let mut k = j + 1;
                let mut d = 0isize;
                while k < tokens.len() {
                    let t = &tokens[k];
                    if t.is_punct('(') || t.is_punct('[') {
                        d += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        d -= 1;
                    } else if t.is_punct('{') {
                        // Consume the block to its matching brace.
                        let mut bd = 0isize;
                        while k < tokens.len() {
                            if tokens[k].is_punct('{') {
                                bd += 1;
                            } else if tokens[k].is_punct('}') {
                                bd -= 1;
                                if bd == 0 {
                                    break;
                                }
                            }
                            k += 1;
                        }
                        break;
                    } else if t.is_punct(';') && d == 0 {
                        break;
                    }
                    k += 1;
                }
                for s in skip.iter_mut().take((k + 1).min(tokens.len())).skip(start) {
                    *s = true;
                }
                i = k + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    skip
}

/// R1: panic paths in untrusted modules.
fn scan_panic_paths(
    rel: &str,
    tokens: &[Token],
    skip: &[bool],
    untrusted: bool,
    out: &mut Vec<Finding>,
) {
    if !untrusted {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if skip[i] {
            continue;
        }
        match t.kind {
            TokenKind::Ident => {
                let is_method = i > 0 && tokens[i - 1].is_punct('.');
                if is_method && (t.text == "unwrap" || t.text == "expect") {
                    out.push(Finding {
                        rule: RULE_PANIC_PATH,
                        file: rel.to_string(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            ".{}() in untrusted-input module — return a typed error instead",
                            t.text
                        ),
                    });
                } else if PANIC_MACROS.contains(&t.text.as_str())
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
                {
                    out.push(Finding {
                        rule: RULE_PANIC_PATH,
                        file: rel.to_string(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "{}! in untrusted-input module — return a typed error instead",
                            t.text
                        ),
                    });
                }
            }
            TokenKind::Punct if t.text == "[" => {
                // Index expression: `expr[…]` where expr ends in an
                // identifier (not a keyword), `)`, `]`, or `?`.
                let Some(prev) = i.checked_sub(1).map(|p| &tokens[p]) else {
                    continue;
                };
                let indexes = match prev.kind {
                    TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                    TokenKind::Punct => prev.text == ")" || prev.text == "]" || prev.text == "?",
                    _ => false,
                };
                if indexes {
                    out.push(Finding {
                        rule: RULE_PANIC_PATH,
                        file: rel.to_string(),
                        line: t.line,
                        col: t.col,
                        message:
                            "slice indexing in untrusted-input module — use .get(…) and return a typed error"
                                .to_string(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// Walk backwards from the token before `as`, over a postfix chain
/// (`a.b(c)?[d].e`), collecting the identifiers that make up the cast
/// source expression.
fn cast_source_idents(tokens: &[Token], before_as: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut i = before_as as isize;
    while i >= 0 {
        let t = &tokens[i as usize];
        match t.kind {
            TokenKind::Punct if t.text == ")" || t.text == "]" => {
                // Skip backwards over the bracketed group — but record
                // idents inside it too (`counts[i] as u16` should see
                // both `counts` and `i`).
                let (open, close) = if t.text == ")" {
                    ("(", ")")
                } else {
                    ("[", "]")
                };
                let mut depth = 0isize;
                while i >= 0 {
                    let u = &tokens[i as usize];
                    if u.kind == TokenKind::Punct && u.text == close {
                        depth += 1;
                    } else if u.kind == TokenKind::Punct && u.text == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if u.kind == TokenKind::Ident {
                        idents.push(u.text.clone());
                    }
                    i -= 1;
                }
                i -= 1;
            }
            TokenKind::Punct if t.text == "?" => {
                i -= 1;
            }
            TokenKind::Ident => {
                idents.push(t.text.clone());
                i -= 1;
                // Continue only through a field/method/path connector.
                if i >= 0 {
                    let p = &tokens[i as usize];
                    if p.is_punct('.') || p.is_punct(':') {
                        i -= 1;
                        if i >= 0 && tokens[i as usize].is_punct(':') {
                            i -= 1;
                        }
                        continue;
                    }
                }
                break;
            }
            TokenKind::Number | TokenKind::Str | TokenKind::Char => {
                break;
            }
            _ => break,
        }
    }
    idents
}

/// R2: truncating `as` casts of length/count-typed values.
fn scan_truncating_casts(rel: &str, tokens: &[Token], skip: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if skip[i] || !t.is_ident("as") {
            continue;
        }
        let Some(target) = tokens.get(i + 1) else {
            continue;
        };
        if target.kind != TokenKind::Ident || !NARROW_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        if i == 0 {
            continue;
        }
        let idents = cast_source_idents(tokens, i - 1);
        if let Some(bad) = idents.iter().find(|n| is_length_ident(n)) {
            out.push(Finding {
                rule: RULE_TRUNCATING_CAST,
                file: rel.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{} as {}` narrows a length/count-typed value — use {}::try_from and surface a typed error",
                    bad, target.text, target.text
                ),
            });
        }
    }
}

/// R3: `.lock().unwrap()` / `.lock().expect(`.
fn scan_lock_unwrap(rel: &str, tokens: &[Token], skip: &[bool], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if skip[i] {
            continue;
        }
        // Pattern: lock ( ) . unwrap|expect
        if tokens[i].is_ident("lock")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(')'))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('.'))
        {
            if let Some(m) = tokens.get(i + 4) {
                if m.is_ident("unwrap") || m.is_ident("expect") {
                    out.push(Finding {
                        rule: RULE_LOCK_UNWRAP,
                        file: rel.to_string(),
                        line: m.line,
                        col: m.col,
                        message: format!(
                            ".lock().{}(…) panics on poison — use lock_recover / unwrap_or_else(PoisonError::into_inner)",
                            m.text
                        ),
                    });
                }
            }
        }
    }
}

fn is_screaming(name: &str) -> bool {
    name.chars().any(|c| c.is_ascii_alphabetic())
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

fn ident_is_clamping(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("checked_count") || lower.contains("clamp") || lower.contains("capped")
}

/// Does this token span (an allocation-size argument) look routed
/// through a clamp helper or otherwise bounded?
fn arg_is_clamped(arg: &[Token]) -> bool {
    let idents: Vec<&Token> = arg.iter().filter(|t| t.kind == TokenKind::Ident).collect();
    // Any mention of the clamp helpers approves the whole expression.
    if idents.iter().any(|t| ident_is_clamping(&t.text)) {
        return true;
    }
    // `buf.len()` / `v.capacity()`-derived sizes are bounded by memory
    // that already exists.
    for w in arg.windows(4) {
        if w[0].is_punct('.')
            && (w[1].is_ident("len") || w[1].is_ident("capacity"))
            && w[2].is_punct('(')
            && w[3].is_punct(')')
        {
            return true;
        }
    }
    // Pure literals (`with_capacity(16)`) and named constants
    // (`with_capacity(MAX_SECTIONS)`) are compile-time bounded.
    if idents.is_empty() {
        return true;
    }
    if idents.iter().all(|t| is_screaming(&t.text)) {
        return true;
    }
    false
}

/// R4: unclamped preallocation in decode modules.
fn scan_unclamped_prealloc(
    rel: &str,
    tokens: &[Token],
    skip: &[bool],
    untrusted: bool,
    out: &mut Vec<Finding>,
) {
    if !untrusted {
        return;
    }
    for i in 0..tokens.len() {
        if skip[i] {
            continue;
        }
        let t = &tokens[i];
        if !(t.is_ident("with_capacity") || t.is_ident("reserve") || t.is_ident("reserve_exact")) {
            continue;
        }
        let Some(open) = tokens.get(i + 1) else {
            continue;
        };
        if !open.is_punct('(') {
            continue;
        }
        // Capture the argument span to the matching `)`.
        let mut depth = 0isize;
        let mut j = i + 1;
        while j < tokens.len() {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let arg = &tokens[i + 2..j.min(tokens.len())];
        if arg.is_empty() || arg_is_clamped(arg) {
            continue;
        }
        // A single plain identifier may be a local whose binding was
        // already clamped — trace the nearest `let <ident> = …;`.
        let sole: Option<&str> = match arg {
            [a] if a.kind == TokenKind::Ident => Some(a.text.as_str()),
            _ => None,
        };
        if let Some(name) = sole {
            if let Some(rhs) = nearest_let_binding(tokens, i, name) {
                if arg_is_clamped(&rhs) {
                    continue;
                }
            }
        }
        out.push(Finding {
            rule: RULE_UNCLAMPED_PREALLOC,
            file: rel.to_string(),
            line: t.line,
            col: t.col,
            message: format!(
                "{}(…) fed by an unclamped value in a decode module — route the count through checked_count / PREALLOC_CLAMP first",
                t.text
            ),
        });
    }
}

/// Find the right-hand side of the nearest preceding `let … name … = RHS;`
/// binding of `name`, searching backwards from token `from`.
fn nearest_let_binding(tokens: &[Token], from: usize, name: &str) -> Option<Vec<Token>> {
    let mut i = from;
    while i > 0 {
        i -= 1;
        if !tokens[i].is_ident("let") {
            continue;
        }
        // Pattern side: tokens up to the `=` at depth 0.
        let mut j = i + 1;
        let mut depth = 0isize;
        let mut binds_name = false;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                depth -= 1;
            } else if t.is_punct('=') && depth == 0 {
                break;
            } else if t.is_punct(';') && depth == 0 {
                // `let x;` — no initializer.
                j = tokens.len();
                break;
            } else if t.kind == TokenKind::Ident && t.text == name {
                binds_name = true;
            }
            j += 1;
        }
        if !binds_name || j >= tokens.len() {
            continue;
        }
        // RHS: from after `=` to the `;` at depth 0.
        let mut k = j + 1;
        let mut d = 0isize;
        let start = k;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                d += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                d -= 1;
            } else if t.is_punct(';') && d == 0 {
                break;
            }
            k += 1;
        }
        return Some(tokens[start..k.min(tokens.len())].to_vec());
    }
    None
}

/// Parse `lint:allow(rule[, rule]): reason` annotations out of the
/// file's comments. Returns the well-formed suppressions plus findings
/// for malformed ones (unknown rule, missing reason).
fn parse_suppressions(rel: &str, lexed: &Lexed) -> (Vec<Suppression>, Vec<Finding>) {
    let mut sups = Vec::new();
    let mut findings = Vec::new();
    for c in &lexed.comments {
        // A suppression must LEAD the comment (after the `//`/`/*`
        // markers) — prose that merely mentions `lint:allow` (docs,
        // examples in backticks) is not an annotation.
        let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = body.strip_prefix("lint:allow") else {
            continue;
        };
        let target_line = if c.standalone {
            next_code_line(&lexed.tokens, c.line).unwrap_or(c.line)
        } else {
            c.line
        };
        let mut bad = |msg: String| {
            findings.push(Finding {
                rule: RULE_BAD_SUPPRESSION,
                file: rel.to_string(),
                line: c.line,
                col: 1,
                message: msg,
            });
        };
        let Some(after_open) = rest.strip_prefix('(') else {
            bad("malformed lint:allow — expected `lint:allow(rule): reason`".to_string());
            continue;
        };
        let Some(close) = after_open.find(')') else {
            bad("malformed lint:allow — missing `)` after rule list".to_string());
            continue;
        };
        let rule_list = &after_open[..close];
        let mut rules = Vec::new();
        let mut ok = true;
        for r in rule_list.split(',') {
            let r = r.trim();
            if r.is_empty() {
                bad("lint:allow with an empty rule name".to_string());
                ok = false;
                continue;
            }
            if !is_known_rule(r) {
                bad(format!(
                    "lint:allow names unknown rule `{r}` (see `authlint --rules`)"
                ));
                ok = false;
                continue;
            }
            rules.push(r.to_string());
        }
        let after_rules = &after_open[close + 1..];
        let reason = after_rules
            .trim_start()
            .strip_prefix(':')
            .map(|r| r.trim_end_matches(&['*', '/'][..]).trim().to_string());
        let reason = match reason {
            Some(r) if !r.is_empty() => r,
            _ => {
                bad(
                    "lint:allow without a reason — write `lint:allow(rule): <why this is sound>`"
                        .to_string(),
                );
                continue;
            }
        };
        if !ok || rules.is_empty() {
            continue;
        }
        sups.push(Suppression {
            target_line,
            comment_line: c.line,
            rules,
            reason,
            used: false,
        });
    }
    (sups, findings)
}

/// The first source-code line strictly after `line` (comments are not
/// tokens, so stacked comments fall through to the code below them).
fn next_code_line(tokens: &[Token], line: u32) -> Option<u32> {
    tokens.iter().map(|t| t.line).filter(|&l| l > line).min()
}

/// List every `lint:allow` in a file with its disposition, for the CI
/// suppression audit (`--check-suppressions`).
pub fn list_suppressions(rel: &str, source: &str) -> Result<(Vec<String>, Vec<Finding>), LexError> {
    let lexed = lexer::lex(source)?;
    let (sups, findings) = parse_suppressions(rel, &lexed);
    let listed = sups
        .iter()
        .map(|s| {
            format!(
                "{}:{}: allow({}) — {}",
                rel,
                s.comment_line,
                s.rules.join(", "),
                s.reason
            )
        })
        .collect();
    Ok((listed, findings))
}

/// Is this path linted? Test trees are read only for the callers of
/// `pub` items (rules target shipping code).
fn in_scope(rel: &str) -> bool {
    rel.ends_with(".rs") && !rel.split('/').any(|c| c == "tests")
}

/// Recursively collect every `.rs` file under `root`, sorted for
/// deterministic output. Build output, hidden directories and the
/// vendored shims are skipped.
fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let p = entry?.path();
            let rel = rel_path(root, &p);
            if p.is_dir() {
                let skipped = rel.split('/').any(|c| c == "target" || c.starts_with('.'))
                    || rel == "crates/shims";
                if !skipped {
                    stack.push(p);
                }
            } else if rel.ends_with(".rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// `path` relative to `root`, with `/` separators.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Recursively collect the in-scope (linted) `.rs` files under `root`,
/// sorted for deterministic output.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = collect_sources(root)?;
    files.retain(|p| in_scope(&rel_path(root, p)));
    Ok(files)
}

/// Analyze every `.rs` file under `root` (see [`analyze_sources`]).
pub fn analyze_workspace(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for path in collect_sources(root)? {
        let source = std::fs::read_to_string(&path)?;
        files.push((rel_path(root, &path), source));
    }
    let files: Vec<(&str, &str)> = files
        .iter()
        .map(|(r, s)| (r.as_str(), s.as_str()))
        .collect();
    Ok(analyze_sources(&files, cfg))
}

/// Analyze a tree given as `(workspace-relative path, source)` pairs.
/// Every file outside a `tests/` directory is linted; every file is read
/// for the callers of `pub` items. All files are scanned first, then the
/// workspace-global passes (lock-graph cycles, one-level blocking
/// resolution, `unused-pub`) run over the combined model, so cross-file
/// lock cycles, calls into other modules' blocking functions and callers
/// in other files are visible.
pub fn analyze_sources(files: &[(&str, &str)], cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut states: Vec<ScanState> = Vec::new();
    let mut callers = unused_pub::Callers::default();
    for &(rel, source) in files {
        let linted = in_scope(rel);
        match lexer::lex(source) {
            Ok(lexed) => {
                callers.add(rel, &lexed.tokens);
                if linted {
                    states.push(scan_one(rel, source, &lexed, cfg));
                }
            }
            // A file that does not lex hides its callers too, so it is
            // a finding whether or not it is linted.
            Err(e) => report.findings.push(Finding {
                rule: RULE_BAD_SUPPRESSION,
                file: rel.to_string(),
                line: e.line,
                col: 1,
                message: format!("lexer error: {e}"),
            }),
        }
        if linted {
            report.files_scanned += 1;
        }
    }
    report.lock_edges = resolve_global(&mut states);
    resolve_unused_pub(&mut states, &callers);
    for st in states {
        finish(st, &mut report);
    }
    // Stable order: by file, then line.
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    report
        .lock_edges
        .sort_by(|a, b| (&a.from, &a.to, &a.file, a.line).cmp(&(&b.from, &b.to, &b.file, b.line)));
    report
}

/// Render the acquired-while-held graph as GraphViz DOT, one edge per
/// distinct (from, to) pair labeled with its first blame site.
pub fn render_lock_dot(edges: &[LockEdge]) -> String {
    let mut out = String::from("digraph lock_order {\n");
    out.push_str(
        "    // acquired-while-held: \"A\" -> \"B\" means B is acquired while an A guard is held\n",
    );
    out.push_str("    rankdir=LR;\n    node [shape=box, fontname=\"monospace\"];\n");
    let mut seen: HashSet<(&str, &str)> = HashSet::new();
    for e in edges {
        if seen.insert((e.from.as_str(), e.to.as_str())) {
            out.push_str(&format!(
                "    \"{}\" -> \"{}\" [label=\"{}:{}\"];\n",
                e.from, e.to, e.file, e.line
            ));
        }
    }
    out.push_str("}\n");
    out
}

/// Group findings per rule, for the human summary footer.
pub fn count_by_rule(findings: &[Finding]) -> BTreeMap<&'static str, usize> {
    let mut m = BTreeMap::new();
    for f in findings {
        *m.entry(f.rule).or_insert(0) += 1;
    }
    m
}
