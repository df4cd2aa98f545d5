//! # authsearch-bench
//!
//! The harness that answers "how many?": it regenerates every table and
//! figure of the paper's evaluation (§4) and the ablations of its design
//! choices, in the paper's units (entries read, simulated I/O, VO bytes).
//! Wall-clock rows belong to `authbench` (`benchmark/`). The one binary,
//! `all`, prints in order:
//!
//! | module                | artifact |
//! |-----------------------|----------|
//! | [`figures::trace`]    | Figures 6 & 11 — the worked example's traces |
//! | [`figures::fig04`]    | Figure 4 — inverted-list length CDF of the WSJ corpus |
//! | [`figures::fig13`]    | Figure 13(a–e) — synthetic workload vs query size |
//! | [`figures::fig14`]    | Figure 14(a–e) — synthetic workload vs result size |
//! | [`figures::fig15`]    | Figure 15(a–e) — TREC workload vs result size |
//! | [`figures::table2`]   | Table 2 — VO data/digest breakdown, MHT vs CMHT |
//! | [`figures::hashwork`] | SHA-256 compressions to serve and to verify a query, RSA verifies |
//! | [`figures::space`]    | §4.1 — storage overheads of the four mechanisms |
//! | [`figures::ablations`] | buddy inclusion, chain-block capacity ρ′, prioritised vs equal-depth polling |
//!
//! `all` accepts `--scale <frac>` (default 0.12 ≈ 20k documents),
//! `--full` (paper scale, n = 172,961), `--queries <n>` (workload size,
//! default 200; the paper uses 1000) and `--key-bits <b>` (default 1024
//! as in Table 1). Each run generates its corpus and index in-process.
//! Every table but the wall-clock Figures 13(e), 14(e) and 15(e) repeats
//! exactly; `tests/ledger.rs` pins them at
//! `--scale 0.001 --queries 3 --key-bits 512`.

pub mod figures;
pub(crate) mod priced;
pub(crate) mod runner;
pub mod scale;
pub(crate) mod tables;

pub use runner::Workbench;
pub use scale::Scale;
