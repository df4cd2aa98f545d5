//! Shared by the two binaries of the benchmark: `authbench` (the
//! end-to-end run) and `authbench-trace` (the per-layer run). Both drive
//! the library crates from outside, through their `pub` items only.

pub mod cli;
pub mod compare;
pub mod drive;
pub mod fixture;
pub mod json;
pub mod procfs;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
