//! Benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <join-spill|serve-repeat|serve-cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the simulated-statistics digest, then, as the last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). The same
//! object is appended, tagged with workload, seed and digest, to
//! `perfbench/results/runs.jsonl` for `perfbench/compare.py`; a traced run
//! also writes its spans to `perfbench/results/spans-<workload>-<seed>.jsonl`.
//! Exits non-zero when any answer is wrong.

use std::io::Write;
use std::process::ExitCode;

use triton_perfbench::{run, Metrics, Sizing, WorkloadKind};

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WorkloadKind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|x| {
                format!(
                    "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                    x.name, x.value, x.unit
                )
            })
            .collect();
    format!("{{{}}}", body.join(","))
}

fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn save(file: &str, text: &str) -> std::io::Result<()> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(file))?;
    f.write_all(text.as_bytes())?;
    f.flush()
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let res = run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &Sizing::COMMITTED,
    );
    let metrics = if args.trace { &res.layers } else { &res.e2e };
    let correct = res.failed == 0;
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        res.attempted,
        res.failed,
        metrics_json(metrics)
    );
    let record = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"trace\":{},\"sim_digest\":\"{:016x}\",\"input_digest\":\"{:016x}\",\"result\":{line}}}\n",
        args.seed, args.trace, res.sim_digest, res.input_digest
    );
    let mut saved = save("runs.jsonl", &record);
    if args.trace {
        saved = saved.and(save(
            &format!("spans-{name}-{}.jsonl", args.seed),
            &res.spans.to_jsonl(),
        ));
    }
    if let Err(e) = saved {
        eprintln!("perfbench: cannot write results: {e}");
    }
    println!("sim_digest {name} {:016x}", res.sim_digest);
    println!("input_digest {name} {:016x}", res.input_digest);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations answered wrongly or drifted",
            res.failed, res.attempted
        );
        ExitCode::FAILURE
    }
}
