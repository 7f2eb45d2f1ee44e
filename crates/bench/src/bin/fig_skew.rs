//! Skew sweep: blind vs skew-aware Triton join over Zipf exponents.
//!
//! Usage: `fig_skew [--check] [--out PATH]`
//!
//! Prints the sweep table, writes the machine-readable sweep to `PATH`
//! (default `BENCH_skew.json`), and with `--check` exits non-zero unless
//! the sweep covers every policy × θ and the skew-aware total is at or
//! below the blind total at θ = 1.5.

use triton_bench::figs::fig_skew;

fn main() {
    let m = fig_skew::DEFAULT_M_TUPLES;
    triton_bench::sweep_main(
        "BENCH_skew.json",
        |hw| fig_skew::print(hw, m),
        |hw, rows| fig_skew::to_json(hw, m, rows),
        |_, rows| fig_skew::check(rows),
    );
}
