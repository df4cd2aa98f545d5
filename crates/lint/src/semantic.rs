//! Semantic passes built on the parse layer: unsafe-audit, lock-order
//! extraction, blocking-in-reactor, and swallowed-result.
//!
//! Everything here is a static over-approximation. Lock "labels" are
//! the last field identifier of the guarded expression (`&self.core.
//! inject` → `inject`), held regions run from a guard binding to the
//! end of its enclosing block (or `drop(guard)`), and cross-function
//! reasoning is a one-level call resolution: a called function
//! contributes the locks and blocking operations its own body performs
//! directly, nothing deeper. The result errs toward reporting — the
//! suppression ledger (with a mandatory reason) is the escape hatch,
//! except for lock cycles, which must be fixed.

use crate::lexer::{Lexed, Token, TokenKind};
use crate::parse::{CallSite, ParsedFile};
use crate::{
    Config, Finding, LockEdge, RULE_BLOCKING_IN_REACTOR, RULE_SWALLOWED_RESULT, RULE_UNSAFE_AUDIT,
};
use std::collections::HashSet;

/// What one function does directly, for one-level call resolution.
#[derive(Debug)]
pub(crate) struct FnSummary {
    pub name: String,
    /// Lock labels this function's body acquires directly.
    pub locks: Vec<String>,
    /// Blocking operations performed directly: (description, line).
    /// Operations covered by a `lint:allow(blocking-in-reactor)` are
    /// excluded — an allowed operation is vouched for at its site and
    /// must not re-blame every caller.
    pub blocking: Vec<(String, u32)>,
}

/// A call made while a lock guard is held — resolved globally into
/// acquired-while-held edges.
#[derive(Debug)]
pub(crate) struct HeldCall {
    pub from_label: String,
    pub callee: String,
    /// True for `self.method(…)` — resolved against same-file fns only.
    pub self_method: bool,
    pub line: u32,
    pub col: u32,
}

/// A call made from a function in a reactor module — resolved globally
/// against fn summaries for one-level blocking detection.
#[derive(Debug)]
pub(crate) struct ReactorCall {
    pub callee: String,
    pub self_method: bool,
    pub line: u32,
    pub col: u32,
}

/// Per-file result of the semantic passes.
#[derive(Debug, Default)]
pub(crate) struct SemanticScan {
    pub findings: Vec<Finding>,
    pub edges: Vec<LockEdge>,
    pub summaries: Vec<FnSummary>,
    pub held_calls: Vec<HeldCall>,
    pub reactor_calls: Vec<ReactorCall>,
}

/// One recognized lock acquisition.
#[derive(Debug)]
struct Acquisition {
    label: String,
    /// Token index of the acquisition call's callee.
    tok: usize,
    line: u32,
    col: u32,
    /// Guard variable name when bound via `let g = <acq-expr>;`.
    bound: Option<String>,
    /// Token range over which the guard is (conservatively) held.
    region: (usize, usize),
}

/// Method names that block the calling thread on a stream.
const BLOCKING_STREAM_METHODS: &[&str] =
    &["read_exact", "write_all", "read_to_end", "read_to_string"];

/// Callees that are themselves acquisition forms (never resolved as
/// one-level calls).
const ACQ_CALLEES: &[&str] = &["lock_recover", "lock", "drop", "unwrap_or_else"];

pub(crate) fn scan(
    rel: &str,
    source: &str,
    lexed: &Lexed,
    skip: &[bool],
    parsed: &ParsedFile,
    cfg: &Config,
    allowed_blocking_lines: &HashSet<u32>,
) -> SemanticScan {
    let mut out = SemanticScan::default();
    let tokens = &lexed.tokens;

    scan_unsafe_audit(rel, source, tokens, skip, parsed, cfg, &mut out.findings);
    scan_swallowed_result(rel, tokens, skip, parsed, cfg, &mut out.findings);

    let acqs = collect_acquisitions(tokens, skip, parsed);
    collect_edges_and_held_calls(rel, skip, parsed, &acqs, cfg, &mut out);
    build_summaries(skip, parsed, &acqs, allowed_blocking_lines, &mut out);
    scan_blocking(rel, skip, parsed, cfg, &mut out);

    out
}

// ---------------------------------------------------------------------
// unsafe-audit
// ---------------------------------------------------------------------

/// Does the trimmed source line open a comment (or continue a block
/// comment, approximated as `*`-led)?
fn is_comment_line(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("/*") || t.starts_with('*')
}

fn scan_unsafe_audit(
    rel: &str,
    source: &str,
    tokens: &[Token],
    skip: &[bool],
    parsed: &ParsedFile,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    let lines: Vec<&str> = source.lines().collect();
    let line_text = |n: u32| lines.get(n as usize - 1).copied().unwrap_or("");
    let allowed_module = cfg.is_unsafe_allowed(rel);
    // Lines that carry real tokens — an upward SAFETY walk must not
    // cross code.
    let token_lines: HashSet<u32> = tokens.iter().map(|t| t.line).collect();

    for site in &parsed.unsafe_sites {
        if skip.get(site.tok).copied().unwrap_or(false) {
            continue;
        }
        if !allowed_module {
            out.push(Finding {
                rule: RULE_UNSAFE_AUDIT,
                file: rel.to_string(),
                line: site.line,
                col: site.col,
                message: format!(
                    "{} outside the unsafe-allowed module list — keep FFI/raw-pointer code behind an audited module (or extend Config::unsafe_allowed deliberately)",
                    site.kind.describe()
                ),
            });
        }
        // An adjacent `// SAFETY:` comment: trailing on the same line,
        // or in the contiguous comment block directly above.
        let mut covered = line_text(site.line).contains("SAFETY:");
        if !covered {
            let mut l = site.line;
            while l > 1 {
                l -= 1;
                let text = line_text(l);
                if token_lines.contains(&l) || !is_comment_line(text) {
                    break;
                }
                if text.contains("SAFETY:") {
                    covered = true;
                    break;
                }
            }
        }
        if !covered {
            out.push(Finding {
                rule: RULE_UNSAFE_AUDIT,
                file: rel.to_string(),
                line: site.line,
                col: site.col,
                message: format!(
                    "{} without an adjacent `// SAFETY:` comment stating the invariant that makes it sound",
                    site.kind.describe()
                ),
            });
        }
    }

    // FFI discipline: a call to an `extern` fn must bind its return
    // value and check it (errno-style `rc < 0` or `last_os_error`).
    if parsed.extern_fns.is_empty() {
        return;
    }
    for call in &parsed.calls {
        if call.is_method
            || skip.get(call.tok).copied().unwrap_or(false)
            || !parsed.extern_fns.iter().any(|f| f == &call.callee)
        {
            continue;
        }
        // Walk back over an `unsafe {` wrapper to the binding.
        let mut j = call.tok;
        if j >= 2 && tokens[j - 1].is_punct('{') && tokens[j - 2].is_ident("unsafe") {
            j -= 2;
        }
        let bound: Option<&str> =
            if j >= 2 && tokens[j - 1].is_punct('=') && tokens[j - 2].kind == TokenKind::Ident {
                Some(tokens[j - 2].text.as_str())
            } else {
                None
            };
        match bound {
            Some("_") | None => {
                out.push(Finding {
                    rule: RULE_UNSAFE_AUDIT,
                    file: rel.to_string(),
                    line: call.line,
                    col: call.col,
                    message: format!(
                        "FFI call `{}` discards its return value — bind it and take an errno-checked path",
                        call.callee
                    ),
                });
            }
            Some(name) => {
                // The bound value must feed a comparison (or the body
                // must consult errno) somewhere in the enclosing fn.
                let (body_start, body_end) = parsed
                    .enclosing_fn(call.tok)
                    .and_then(|f| f.body)
                    .unwrap_or((0, tokens.len().saturating_sub(1)));
                let mut checked = false;
                for k in body_start..=body_end.min(tokens.len().saturating_sub(1)) {
                    let t = &tokens[k];
                    if t.is_ident("last_os_error") {
                        checked = true;
                        break;
                    }
                    if k > call.tok && t.kind == TokenKind::Ident && t.text == name {
                        let cmp = |u: Option<&Token>| {
                            u.is_some_and(|u| {
                                u.kind == TokenKind::Punct
                                    && matches!(u.text.as_str(), "<" | ">" | "=" | "!")
                            })
                        };
                        if cmp(tokens.get(k + 1)) || (k > 0 && cmp(tokens.get(k - 1))) {
                            checked = true;
                            break;
                        }
                    }
                }
                if !checked {
                    out.push(Finding {
                        rule: RULE_UNSAFE_AUDIT,
                        file: rel.to_string(),
                        line: call.line,
                        col: call.col,
                        message: format!(
                            "FFI call `{}` binds `{}` but never checks it — compare against the error sentinel or consult last_os_error",
                            call.callee, name
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// swallowed-result
// ---------------------------------------------------------------------

fn scan_swallowed_result(
    rel: &str,
    tokens: &[Token],
    skip: &[bool],
    parsed: &ParsedFile,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    if !cfg.is_io(rel) {
        return;
    }
    for i in 0..tokens.len() {
        if skip[i]
            || !tokens[i].is_ident("let")
            || !tokens.get(i + 1).is_some_and(|t| t.is_ident("_"))
            || !tokens.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            continue;
        }
        // RHS runs to the `;` at bracket depth 0.
        let mut depth = 0isize;
        let mut j = i + 3;
        let mut end = tokens.len();
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(';') && depth == 0 {
                end = j;
                break;
            }
            j += 1;
        }
        // Only call-shaped right-hand sides are discards worth blaming
        // (`let _ = was_empty;` is a lint-silencer, not a Result drop).
        let first_call = parsed.calls.iter().find(|c| c.tok > i + 2 && c.tok < end);
        if let Some(call) = first_call {
            out.push(Finding {
                rule: RULE_SWALLOWED_RESULT,
                file: rel.to_string(),
                line: tokens[i].line,
                col: tokens[i].col,
                message: format!(
                    "`let _ = …{}(…)` discards a result in an IO module — handle the error, propagate it, or lint:allow with a reason",
                    call.callee
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// lock-order: acquisition + held-region extraction
// ---------------------------------------------------------------------

/// The last field identifier of the leading path expression in an
/// argument span: `&self.core.inject` → `inject`, `&self.deques[me]` →
/// `deques`, `shard` → `shard`.
fn label_from_args(tokens: &[Token], args: (usize, usize)) -> Option<String> {
    let (a0, a1) = args;
    let mut label: Option<String> = None;
    let mut i = a0;
    while i < a1 {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct if t.text == "&" || t.text == "*" => i += 1,
            TokenKind::Ident if t.text == "mut" && label.is_none() => i += 1,
            TokenKind::Ident => {
                if t.text != "self" {
                    label = Some(t.text.clone());
                }
                // Continue only through `.`/`::` connectors.
                if tokens.get(i + 1).is_some_and(|n| n.is_punct('.')) {
                    i += 2;
                } else if tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
                {
                    i += 3;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    label
}

/// A one-letter label is usually a closure parameter over a lock
/// collection (`self.deques.iter().any(|d| lock_recover(d)…)`);
/// recover the collection's field name for a meaningful graph node.
fn improve_closure_label(tokens: &[Token], call_tok: usize, label: &str) -> Option<String> {
    let start = call_tok.saturating_sub(16);
    for j in (start..call_tok).rev() {
        if tokens[j].is_punct('|') && tokens.get(j + 1).is_some_and(|t| t.text == label) {
            let back = j.saturating_sub(12);
            for k in (back..j).rev() {
                if (tokens[k].is_ident("iter") || tokens[k].is_ident("iter_mut"))
                    && k >= 2
                    && tokens[k - 1].is_punct('.')
                    && tokens[k - 2].kind == TokenKind::Ident
                {
                    return Some(tokens[k - 2].text.clone());
                }
            }
            return None;
        }
    }
    None
}

/// End of the acquisition expression: the call's close paren, extended
/// over the poison-recovery continuation (`.unwrap_or_else(…)`) and a
/// trailing `?`.
fn acquisition_end(tokens: &[Token], parsed: &ParsedFile, call: &CallSite) -> usize {
    let mut end = parsed.close_of(call.tok + 1);
    loop {
        if tokens.get(end + 1).is_some_and(|t| t.is_punct('.'))
            && tokens
                .get(end + 2)
                .is_some_and(|t| t.is_ident("unwrap_or_else"))
            && tokens.get(end + 3).is_some_and(|t| t.is_punct('('))
        {
            end = parsed.close_of(end + 3);
            continue;
        }
        if tokens.get(end + 1).is_some_and(|t| t.is_punct('?')) {
            end += 1;
            continue;
        }
        return end;
    }
}

/// Start of the expression the acquisition call heads: the first token
/// of its leading path (receiver chain for methods).
fn expression_start(tokens: &[Token], call: &CallSite) -> usize {
    let mut start = call.tok;
    let mut i = call.tok as isize - 1;
    loop {
        if i < 1 {
            break;
        }
        let t = &tokens[i as usize];
        if t.is_punct('.') && tokens[(i - 1) as usize].kind == TokenKind::Ident {
            start = (i - 1) as usize;
            i -= 2;
        } else if t.is_punct(':')
            && i >= 2
            && tokens[(i - 1) as usize].is_punct(':')
            && tokens[(i - 2) as usize].kind == TokenKind::Ident
        {
            start = (i - 2) as usize;
            i -= 3;
        } else {
            break;
        }
    }
    start
}

fn collect_acquisitions(tokens: &[Token], skip: &[bool], parsed: &ParsedFile) -> Vec<Acquisition> {
    let mut acqs: Vec<Acquisition> = Vec::new();
    // Direct labels per fn name (for resolving `self.lock(shard)`
    // through a same-file `fn lock` wrapper).
    let mut deferred: Vec<usize> = Vec::new();

    for call in &parsed.calls {
        if skip.get(call.tok).copied().unwrap_or(false) {
            continue;
        }
        let label = if call.callee == "lock_recover" && !call.is_method {
            match label_from_args(tokens, call.args) {
                Some(l) if l.len() == 1 => {
                    Some(improve_closure_label(tokens, call.tok, &l).unwrap_or(l))
                }
                other => other,
            }
        } else if call.callee == "lock" && call.is_method && call.args_empty() {
            // `x.lock()` (std Mutex) — label from the receiver chain.
            call.receiver
                .iter()
                .rev()
                .find(|s| *s != "self")
                .cloned()
                .or(Some("lock".to_string()))
        } else if call.callee == "lock"
            && call.is_method
            && !call.args_empty()
            && call.receiver == ["self"]
        {
            // `self.lock(shard)` — a lock wrapper method; resolve its
            // label from the same-file `fn lock` body afterwards.
            deferred.push(acqs.len());
            Some(String::new())
        } else {
            None
        };
        let Some(label) = label else { continue };

        let end = acquisition_end(tokens, parsed, call);
        let start = expression_start(tokens, call);
        // Bound guard: `let [mut] NAME = <acq-expr>;`
        let bound: Option<String> = (|| {
            if start < 2 || !tokens[start - 1].is_punct('=') {
                return None;
            }
            let name = &tokens[start - 2];
            if name.kind != TokenKind::Ident || name.text == "_" {
                return None;
            }
            let mut m = start - 3;
            if tokens.get(m).is_some_and(|t| t.is_ident("mut")) {
                m = m.checked_sub(1)?;
            }
            if !tokens.get(m).is_some_and(|t| t.is_ident("let")) {
                return None;
            }
            if !tokens.get(end + 1).is_some_and(|t| t.is_punct(';')) {
                return None;
            }
            Some(name.text.clone())
        })();

        let region = if let Some(name) = &bound {
            // Held from the binding's `;` to the end of the enclosing
            // block, or an explicit `drop(name)`.
            let eb = parsed.enclosing_brace(call.tok);
            let mut region_end = if eb == usize::MAX {
                tokens.len()
            } else {
                parsed.close_of(eb)
            };
            for c in &parsed.calls {
                if c.callee == "drop"
                    && !c.is_method
                    && c.tok > end
                    && c.tok < region_end
                    && tokens.get(c.args.0).is_some_and(|t| t.text == *name)
                    && c.args.1 == c.args.0 + 1
                {
                    region_end = c.tok;
                    break;
                }
            }
            (end + 2, region_end)
        } else {
            // Temporary: held to the end of the statement.
            let mut j = end + 1;
            let mut depth = 0isize;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) && depth <= 0 {
                    break;
                }
                j += 1;
            }
            (end + 1, j)
        };

        acqs.push(Acquisition {
            label,
            tok: call.tok,
            line: call.line,
            col: call.col,
            bound,
            region,
        });
    }

    // Resolve deferred `self.lock(…)` labels through the same-file
    // `fn lock` wrapper's single direct acquisition, if any.
    if !deferred.is_empty() {
        let wrapper_label: Option<String> = parsed
            .fns
            .iter()
            .find(|f| f.name == "lock" && f.body.is_some())
            .and_then(|f| {
                let (o, c) = f.body.unwrap();
                let labels: Vec<&str> = acqs
                    .iter()
                    .filter(|a| a.tok > o && a.tok < c && !a.label.is_empty())
                    .map(|a| a.label.as_str())
                    .collect();
                match labels.as_slice() {
                    [single] => Some((*single).to_string()),
                    _ => None,
                }
            });
        let label = wrapper_label.unwrap_or_else(|| "lock".to_string());
        for idx in deferred {
            acqs[idx].label = label.clone();
        }
    }
    acqs
}

fn collect_edges_and_held_calls(
    rel: &str,
    skip: &[bool],
    parsed: &ParsedFile,
    acqs: &[Acquisition],
    cfg: &Config,
    out: &mut SemanticScan,
) {
    let acq_toks: HashSet<usize> = acqs.iter().map(|a| a.tok).collect();
    for a in acqs {
        let (r0, r1) = a.region;
        // Direct acquired-while-held edges.
        for b in acqs {
            if b.tok != a.tok && b.tok >= r0 && b.tok < r1 {
                out.edges.push(LockEdge {
                    from: a.label.clone(),
                    to: b.label.clone(),
                    file: rel.to_string(),
                    line: b.line,
                    col: b.col,
                });
            }
        }
        // Calls under the guard, for one-level resolution — and the
        // reactor-specific "no pool handoff while holding a lock".
        for c in &parsed.calls {
            if c.tok < r0 || c.tok >= r1 || acq_toks.contains(&c.tok) {
                continue;
            }
            if skip.get(c.tok).copied().unwrap_or(false) {
                continue;
            }
            if cfg.is_reactor(rel) && c.callee == "submit" && c.is_method && a.bound.is_some() {
                out.findings.push(Finding {
                    rule: RULE_BLOCKING_IN_REACTOR,
                    file: rel.to_string(),
                    line: c.line,
                    col: c.col,
                    message: format!(
                        "pool submit while holding `{}` — release the guard before handing work off",
                        a.label
                    ),
                });
            }
            if ACQ_CALLEES.contains(&c.callee.as_str()) {
                continue;
            }
            let self_method = c.is_method && c.receiver == ["self"];
            if c.is_method && !self_method {
                continue;
            }
            out.held_calls.push(HeldCall {
                from_label: a.label.clone(),
                callee: c.callee.clone(),
                self_method,
                line: c.line,
                col: c.col,
            });
        }
    }
}

// ---------------------------------------------------------------------
// fn summaries + blocking-in-reactor
// ---------------------------------------------------------------------

/// A direct blocking operation at a call site, if any.
fn blocking_op(call: &CallSite) -> Option<String> {
    if !call.is_method && call.callee == "sleep" {
        return Some("thread::sleep".to_string());
    }
    if call.is_method && call.callee == "join" && call.args_empty() {
        return Some(".join() on a thread handle".to_string());
    }
    if call.is_method && BLOCKING_STREAM_METHODS.contains(&call.callee.as_str()) {
        return Some(format!("blocking stream I/O (.{}(…))", call.callee));
    }
    None
}

fn build_summaries(
    skip: &[bool],
    parsed: &ParsedFile,
    acqs: &[Acquisition],
    allowed_blocking_lines: &HashSet<u32>,
    out: &mut SemanticScan,
) {
    for f in &parsed.fns {
        let Some((o, c)) = f.body else { continue };
        let mut locks: Vec<String> = acqs
            .iter()
            .filter(|a| a.tok > o && a.tok < c)
            .map(|a| a.label.clone())
            .collect();
        locks.dedup();
        let mut blocking = Vec::new();
        for call in &parsed.calls {
            if call.tok <= o || call.tok >= c || skip.get(call.tok).copied().unwrap_or(false) {
                continue;
            }
            if let Some(desc) = blocking_op(call) {
                if !allowed_blocking_lines.contains(&call.line) {
                    blocking.push((desc, call.line));
                }
            }
        }
        out.summaries.push(FnSummary {
            name: f.name.clone(),
            locks,
            blocking,
        });
    }
}

fn scan_blocking(
    rel: &str,
    skip: &[bool],
    parsed: &ParsedFile,
    cfg: &Config,
    out: &mut SemanticScan,
) {
    if !cfg.is_reactor(rel) {
        return;
    }
    for call in &parsed.calls {
        if skip.get(call.tok).copied().unwrap_or(false) {
            continue;
        }
        // Only calls inside fn bodies — item-position macros etc. are
        // not reactor code paths.
        if parsed.enclosing_fn(call.tok).is_none() {
            continue;
        }
        if let Some(desc) = blocking_op(call) {
            out.findings.push(Finding {
                rule: RULE_BLOCKING_IN_REACTOR,
                file: rel.to_string(),
                line: call.line,
                col: call.col,
                message: format!(
                    "{desc} in a reactor module — the event loop must never block; hand off to the pool or arm a deadline"
                ),
            });
            continue;
        }
        // Non-blocking shape: record for one-level resolution.
        let self_method = call.is_method && call.receiver == ["self"];
        if call.is_method && !self_method {
            continue;
        }
        if ACQ_CALLEES.contains(&call.callee.as_str()) {
            continue;
        }
        out.reactor_calls.push(ReactorCall {
            callee: call.callee.clone(),
            self_method,
            line: call.line,
            col: call.col,
        });
    }
}
