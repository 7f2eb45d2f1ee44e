//! The benchmark's own checks, at reduced sizes: a seed fixes the inputs
//! and every simulated figure, another seed changes the inputs, answers
//! are right, and `BENCHMARK.json` declares exactly what a run reports.

use triton_perfbench::{layers, run, RunResult, Sizing, WorkloadKind};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const MANIFEST_JSON: &str = include_str!("../manifest.json");

fn small(kind: WorkloadKind, seed: u64, trace: bool) -> RunResult {
    run(kind, seed, 0.05, trace, &Sizing::SMALL)
}

#[test]
fn same_seed_same_simulation_other_seed_other_inputs() {
    for kind in WorkloadKind::ALL {
        let a = small(kind, 7, false);
        let b = small(kind, 7, false);
        let c = small(kind, 8, false);
        assert_eq!(a.failed, 0, "{}: wrong answers", kind.name());
        assert_eq!(a.sim_digest, b.sim_digest, "{}: sim digest", kind.name());
        assert_eq!(
            a.e2e.sim_only(),
            b.e2e.sim_only(),
            "{}: sim metrics",
            kind.name()
        );
        assert_eq!(a.input_digest, b.input_digest, "{}: inputs", kind.name());
        assert_ne!(
            a.input_digest,
            c.input_digest,
            "{}: seed ignored",
            kind.name()
        );
    }
}

/// `(name, unit)` of every entry of one metric list of `BENCHMARK.json`,
/// in file order.
fn declared(list: &str) -> Vec<(String, String)> {
    let from = BENCHMARK_JSON
        .find(&format!("\"{list}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"));
    let body = &BENCHMARK_JSON[from..];
    let body = &body[..body.find(']').expect("the list is closed")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("entry has the key")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string is closed")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

#[test]
fn benchmark_json_and_manifest_declare_exactly_what_is_reported() {
    let per_layer = declared("per_layer");
    let names: Vec<(String, String)> = layers::NAMES
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(
        per_layer, names,
        "BENCHMARK.json per_layer vs layers::NAMES"
    );
    // The manifest maps each per-layer metric exactly once.
    assert_eq!(
        MANIFEST_JSON.matches("\"moves\":").count(),
        names.len(),
        "manifest.json per_layer entries"
    );
    for (name, _) in &names {
        assert!(
            MANIFEST_JSON.contains(&format!("\"{name}\": {{")),
            "{name} not mapped in manifest.json"
        );
    }
    let end_to_end = declared("end_to_end");
    for kind in WorkloadKind::ALL {
        assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{}\"", kind.name())));
        let traced = small(kind, 3, true);
        assert_eq!(traced.failed, 0, "{}: wrong answers", kind.name());
        let reported = |m: &triton_perfbench::Metrics| -> Vec<(String, String)> {
            m.0.iter()
                .map(|x| (x.name.clone(), x.unit.to_string()))
                .collect()
        };
        assert_eq!(
            reported(&traced.layers),
            names,
            "{}: per-layer",
            kind.name()
        );
        assert_eq!(
            reported(&traced.e2e),
            end_to_end,
            "{}: end-to-end",
            kind.name()
        );
        assert!(!traced.spans.spans().is_empty());
    }
}
