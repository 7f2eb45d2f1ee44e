//! Admission bursts: elastic vs fixed memory grants.
//!
//! Usage: `fig_elastic [--check] [--out PATH]`
//!
//! Prints the sweep table, writes the machine-readable sweep to `PATH`
//! (default `BENCH_elastic.json`), and with `--check` exits non-zero
//! unless every result matched the reference join, every query settled,
//! the elastic policy sheds no queries, and the fixed policy sheds at
//! least one somewhere on the axis without ever revising a grant.

use triton_bench::figs::fig_elastic;

fn main() {
    let m = fig_elastic::DEFAULT_M_TUPLES;
    triton_bench::sweep_main(
        "BENCH_elastic.json",
        |hw| fig_elastic::print(hw, m),
        |hw, rows| fig_elastic::to_json(hw, m, rows),
        |_, rows| fig_elastic::check(rows),
    );
}
