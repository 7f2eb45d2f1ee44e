//! TPC-H-shaped plan sweep: pipelined vs materialize-everything over
//! scale and skew.
//!
//! Usage: `fig_tpch [--check] [--out PATH]`
//!
//! Prints the sweep table, writes the machine-readable sweep to `PATH`
//! (default `BENCH_tpch.json`), and with `--check` exits non-zero unless
//! both modes agree at every point, materialize-everything keeps no
//! edge resident, and the pipelined plan beats it at the Q3 operating
//! point (θ = 1.0, the default scale).

use triton_bench::figs::fig_tpch;

fn main() {
    triton_bench::sweep_main(
        "BENCH_tpch.json",
        |hw| fig_tpch::print(hw, &fig_tpch::M_AXIS),
        |hw, rows| fig_tpch::to_json(hw, rows),
        |_, rows| fig_tpch::check(rows, &fig_tpch::M_AXIS),
    );
}
