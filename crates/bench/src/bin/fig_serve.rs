//! Sustained-load serving trajectory with telemetry and SLO accounting.
//!
//! Usage: `fig_serve [--check] [--out PATH]`
//!
//! Prints the trajectory table, writes the machine-readable rows to
//! `PATH` (default `BENCH_serve.json`), and with `--check` exits
//! non-zero unless every committed invariant holds: outcomes cover
//! submissions, the registry's counters reconcile with the scheduler
//! metrics, windowed rollups reconcile with run totals, and the text
//! exposition replays byte-identically (clean and chaos).

use triton_bench::figs::fig_serve;

fn main() {
    triton_bench::sweep_main(
        "BENCH_serve.json",
        fig_serve::print,
        |hw, rows| fig_serve::to_json(hw, rows),
        |hw, rows| {
            let verdict = fig_serve::check(hw, rows)?;
            if !fig_serve::replay_identical(hw) {
                return Err("telemetry exposition diverged across same-seed replays".into());
            }
            Ok(format!("{verdict}, expositions replay byte-identically"))
        },
    );
}
