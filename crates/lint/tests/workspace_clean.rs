//! The ratchet: the real workspace must stay authlint-clean.
//!
//! Because this runs under plain `cargo test`, reintroducing a panic
//! path, truncating cast, lock-unwrap, or unclamped preallocation into
//! the codebase fails the tier-1 suite even before CI runs the
//! dedicated `authlint --deny` gate.

use authlint::{analyze_workspace, render_lock_dot, Config};
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let report = analyze_workspace(workspace_root(), &Config::default())
        .expect("workspace scan must succeed");
    assert!(
        report.files_scanned > 50,
        "scan looks truncated: only {} files",
        report.files_scanned
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "authlint findings in the workspace:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn every_suppression_in_the_workspace_carries_a_reason() {
    // `bad-suppression` findings (reason-less, unknown-rule, or unused
    // allows) are findings like any other, so the zero-findings test
    // above subsumes this — but assert the count explicitly so a future
    // refactor that stops reporting them is caught.
    let report = analyze_workspace(workspace_root(), &Config::default())
        .expect("workspace scan must succeed");
    assert!(
        report.findings.iter().all(|f| f.rule != "bad-suppression"),
        "malformed lint:allow in the workspace"
    );
    assert!(
        report.suppressions >= 1,
        "expected the workspace's documented lint:allow suppressions to be visible"
    );
}

#[test]
fn lock_order_graph_is_emitted_and_acyclic() {
    // The zero-findings ratchet above already rejects cycles (they are
    // `lock-order` findings); this pins the stronger fact that no code
    // in the workspace takes one lock while holding another, so the
    // acquired-while-held graph is empty. That the pass still sees edges
    // when they exist is pinned by the fixtures in `rules.rs`
    // (`lock_order_cycle_fixture_names_both_locks`,
    // `lock_order_flags_self_deadlock`).
    let report = analyze_workspace(workspace_root(), &Config::default())
        .expect("workspace scan must succeed");
    assert!(
        report.lock_edges.is_empty(),
        "a lock is now acquired while another is held; pin the new edges here and say why: {:?}",
        report
            .lock_edges
            .iter()
            .map(|e| format!("{} -> {} ({}:{})", e.from, e.to, e.file, e.line))
            .collect::<Vec<_>>()
    );
    let dot = render_lock_dot(&report.lock_edges);
    assert!(dot.starts_with("digraph lock_order {"), "{dot}");
}

#[test]
fn docs_carry_no_file_line_anchors() {
    // Line numbers drift with every edit; the docs name symbols instead.
    for doc in ["README.md", "docs/ARCHITECTURE.md"] {
        let text = std::fs::read_to_string(workspace_root().join(doc))
            .unwrap_or_else(|e| panic!("read {doc}: {e}"));
        let anchors: Vec<String> = text
            .lines()
            .enumerate()
            .filter_map(|(i, line)| {
                let anchor = line_anchor(line)?;
                Some(format!("{doc}:{}: {anchor}", i + 1))
            })
            .collect();
        assert!(
            anchors.is_empty(),
            "file:line anchors:\n{}",
            anchors.join("\n")
        );
    }
}

/// The first `<path>.rs:<digits>` in `line`, if any.
fn line_anchor(line: &str) -> Option<&str> {
    line.match_indices(".rs:").find_map(|(at, _)| {
        let digits = line[at + 4..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        if digits == 0 {
            return None;
        }
        let start = line[..at]
            .rfind(|c: char| !(c.is_ascii_alphanumeric() || "_/.-".contains(c)))
            .map_or(0, |i| i + 1);
        (start < at).then(|| &line[start..at + 4 + digits])
    })
}

#[test]
fn line_anchor_finds_paths_with_line_numbers_only() {
    assert_eq!(
        line_anchor("see (`crates/core/src/wire.rs:553`) here"),
        Some("crates/core/src/wire.rs:553")
    );
    assert_eq!(line_anchor("at `vo.rs:109/125`"), Some("vo.rs:109"));
    assert_eq!(line_anchor("in `crates/core/src/wire.rs` (`encode`)"), None);
    assert_eq!(line_anchor("blamed as `file:line:col: [rule]`"), None);
    assert_eq!(line_anchor("a bare `.rs:12` has no path"), None);
}
