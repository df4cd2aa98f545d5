//! Pins the figure harness's output: `all` at the smoke scale prints
//! exactly the checked-in `ledger_smoke.txt`, every count table row for
//! row. The only tables dropped before the comparison are the three
//! wall-clock ones, Figures 13(e), 14(e) and 15(e).
//!
//! A change that moves a count on purpose re-pins the copy with
//! `cargo run --release -p authsearch-bench --bin all -- --scale 0.001
//! --queries 3 --key-bits 512` minus those three tables, and says why.

use std::process::Command;

const SMOKE: [&str; 6] = ["--scale", "0.001", "--queries", "3", "--key-bits", "512"];
const PINNED: &str = include_str!("ledger_smoke.txt");
const WALL_CLOCK_TITLE: &str = "(e) User verification CPU time ==";

#[test]
fn all_prints_the_pinned_count_tables() {
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(SMOKE)
        .output()
        .expect("run the all bin");
    assert!(
        out.status.success(),
        "all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");

    // Tables and section headers are separated by blank lines.
    let (wall_clock, counts): (Vec<&str>, Vec<&str>) = stdout.split("\n\n").partition(|block| {
        block
            .lines()
            .next()
            .is_some_and(|title| title.ends_with(WALL_CLOCK_TITLE))
    });
    assert_eq!(
        wall_clock.len(),
        3,
        "expected Figures 13(e), 14(e) and 15(e)"
    );
    let counts = counts.join("\n\n");

    for (i, (got, want)) in counts.lines().zip(PINNED.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "line {} differs; the count tables now read:\n{counts}",
            i + 1
        );
    }
    assert_eq!(
        counts.lines().count(),
        PINNED.lines().count(),
        "line counts differ; the count tables now read:\n{counts}"
    );
}
