//! # authsearch-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§4). Each `bin/` target reproduces one artifact:
//!
//! | target   | artifact |
//! |----------|----------|
//! | `fig04`  | Figure 4 — inverted-list length CDF of the WSJ corpus |
//! | `fig13`  | Figure 13(a–e) — synthetic workload vs query size |
//! | `fig14`  | Figure 14(a–e) — synthetic workload vs result size |
//! | `fig15`  | Figure 15(a–e) — TREC workload vs result size |
//! | `table2` | Table 2 — VO data/digest breakdown, MHT vs CMHT |
//! | `trace`  | Figures 6 & 11 — the worked example's traces |
//! | `space`  | §4.1 — storage overheads of the four mechanisms |
//! | `all`    | everything above, in order |
//!
//! All binaries accept `--scale <frac>` (default 0.12 ≈ 20k documents),
//! `--full` (paper scale, n = 172,961), `--queries <n>` (workload size,
//! default 200; the paper uses 1000) and `--key-bits <b>` (default 1024
//! as in Table 1). Each run generates its corpus and index in-process.

pub mod figures;
pub mod runner;
pub mod scale;
pub mod tables;

pub use runner::{AggregateMetrics, Workbench};
pub use scale::Scale;
pub use tables::Table;
