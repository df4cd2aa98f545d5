//! Command-line options shared by `authbench` and `authbench-trace`.

use crate::fixture::Size;
use crate::spec::{self, Workload, RUN_SECONDS};
use std::path::PathBuf;
use std::time::Duration;

/// Options of one measured run.
#[derive(Debug)]
pub struct RunArgs {
    pub workload: &'static Workload,
    /// Seeds the query generator and nothing else.
    pub seed: u64,
    /// How long the timed phase measures for.
    pub seconds: Duration,
    pub size: Size,
    /// Where to write the run's record (`authbench`) or span file
    /// (`authbench-trace`).
    pub out: Option<PathBuf>,
}

impl RunArgs {
    /// What `--seconds` leaves for closed-loop passes once the open-loop
    /// schedule is taken out.
    pub fn closed_budget(&self) -> Duration {
        let open_s = self.size.open_queries(self.workload) as f64 / self.workload.open_rate;
        self.seconds.saturating_sub(Duration::from_secs_f64(open_s))
    }
}

pub const RUN_USAGE: &str = "--workload <tnra-short|tra-long|tra-conj|tra-churn> [--seed N] \
                             [--seconds S] [--smoke] [--out PATH] [--trace 0|1]";

/// Parse the options of a run. `--trace` is accepted and ignored: the
/// driver passes it to pick the binary (see `run.sh`), not the mode.
pub fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = RUN_SECONDS as f64;
    let mut smoke = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                value()?;
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds: Duration::try_from_secs_f64(seconds).map_err(|e| format!("--seconds: {e}"))?,
        size: Size { smoke },
        out,
    })
}
