//! Skew sweep: the Triton join under Zipf-distributed probe keys,
//! blind (`SkewPolicy::Off`) vs skew-aware (hotness-weighted placement,
//! LPT pipeline scheduling, heavy-hitter chunking).
//!
//! Expected shape (Section 6.2.6 / Fig 16 workloads): both executors
//! track each other up to θ ≈ 1.0. Past it the hottest partition pair
//! outgrows the staging area the uniform pipeline reservation leaves
//! free, and the blind executor starts paying the overflow round-trip
//! over the interconnect (the `Spill` phase); the skew-aware executor
//! plans placement from the histograms and streams heavy pairs through
//! staging in probe-side chunks, staying flat. At θ = 1.5 the paper
//! workload's skew-aware total is ≥ 15% lower.

use triton_core::{SkewPolicy, TritonJoin};
use triton_datagen::WorkloadSpec;
use triton_hw::HwConfig;

use triton_trace::json::JsonObject;

/// The Zipf exponent axis of the sweep.
pub const THETA_AXIS: [f64; 8] = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75];

/// Default workload size in modeled M tuples (the paper's mid size).
pub const DEFAULT_M_TUPLES: u64 = 512;

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct Row {
    /// `off` or `aware`.
    pub policy: &'static str,
    /// Zipf exponent of the probe keys.
    pub theta: f64,
    /// Simulated end-to-end time.
    pub total_ns: f64,
    /// Throughput in G tuples/s.
    pub gtps: f64,
    /// Time spent in the staging-overflow `Spill` phase (blind executor
    /// under heavy skew; always zero for the skew-aware executor).
    pub spill_ns: f64,
    /// Working-set bytes held GPU-resident.
    pub cache_hit_bytes: u64,
    /// Working-set bytes spilled to CPU memory.
    pub cache_spilled_bytes: u64,
    /// Partition pairs fully cached.
    pub pairs_cached: u64,
    /// Pipeline lanes (exceeds the pair count when heavy pairs are
    /// chunked).
    pub lanes: u64,
    /// Join matches, for cross-policy sanity.
    pub matches: u64,
}

fn measure(
    policy: &'static str,
    skew: SkewPolicy,
    w: &triton_datagen::Workload,
    hw: &HwConfig,
    theta: f64,
) -> Row {
    let rep = TritonJoin {
        skew,
        ..TritonJoin::default()
    }
    .run(w, hw);
    let placement = rep.placement.as_ref().expect("triton reports placement");
    Row {
        policy,
        theta,
        total_ns: rep.total.0,
        gtps: rep.throughput_gtps(),
        spill_ns: rep
            .phases
            .iter()
            .find(|p| p.name == "Spill")
            .map(|p| p.time.0)
            .unwrap_or(0.0),
        cache_hit_bytes: placement.cache_hit_bytes,
        cache_spilled_bytes: placement.spilled_bytes,
        pairs_cached: placement.pairs_cached(),
        lanes: rep
            .overlap
            .as_ref()
            .map(|o| o.stage_a.len() as u64)
            .unwrap_or(0),
        matches: rep.result.matches,
    }
}

/// Run the sweep: both policies over [`THETA_AXIS`] on one workload
/// size. Results are asserted identical across policies at every point.
pub fn run(hw: &HwConfig, m_tuples: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &theta in &THETA_AXIS {
        let w = WorkloadSpec::skewed(m_tuples, theta, hw.scale).generate();
        let off = measure("off", SkewPolicy::Off, &w, hw, theta);
        let aware = measure("aware", SkewPolicy::aware(), &w, hw, theta);
        assert_eq!(
            off.matches, aware.matches,
            "policies diverged at theta {theta}"
        );
        rows.push(off);
        rows.push(aware);
    }
    rows
}

/// Render the sweep as a stable JSON document (fixed key order): a
/// header object with the run configuration and one row object per
/// measured point.
pub fn to_json(hw: &HwConfig, m_tuples: u64, rows: &[Row]) -> String {
    let config = JsonObject::new()
        .str("schema", "triton-bench/fig-skew/v1")
        .int("scale", hw.scale)
        .int("m_tuples", m_tuples);
    super::sweep_json(
        config,
        rows.iter().map(|r| {
            JsonObject::new()
                .str("policy", r.policy)
                .num("theta", r.theta)
                .num("total_ns", r.total_ns)
                .num("gtps", r.gtps)
                .num("spill_ns", r.spill_ns)
                .int("cache_hit_bytes", r.cache_hit_bytes)
                .int("cache_spilled_bytes", r.cache_spilled_bytes)
                .int("pairs_cached", r.pairs_cached)
                .int("lanes", r.lanes)
                .int("matches", r.matches)
        }),
    )
}

/// Skew-aware total at θ = 1.5 relative to blind; `None` if the axis
/// point is missing.
pub fn win_at_theta_1_5(rows: &[Row]) -> Option<f64> {
    let at = |policy: &str| {
        rows.iter()
            .find(|r| r.policy == policy && (r.theta - 1.5).abs() < 1e-9)
            .map(|r| r.total_ns)
    };
    Some(1.0 - at("aware")? / at("off")?)
}

/// The committed sweep's `--check`: one row per policy × θ, and at
/// θ = 1.5 the skew-aware executor at or below the blind total with the
/// same matches. `Ok` carries the verdict line.
pub fn check(rows: &[Row]) -> Result<String, String> {
    let expected = 2 * THETA_AXIS.len();
    if rows.len() != expected {
        return Err(format!("{} rows, expected {expected}", rows.len()));
    }
    let matches = |policy: &str| {
        rows.iter()
            .find(|r| r.policy == policy && (r.theta - 1.5).abs() < 1e-9)
            .map(|r| r.matches)
    };
    if matches("aware") != matches("off") {
        return Err("policies disagree on matches at theta 1.5".to_string());
    }
    let win = win_at_theta_1_5(rows).ok_or("theta 1.5 missing from the sweep")?;
    if win < 0.0 {
        return Err(format!(
            "skew-aware total exceeds blind at theta 1.5 by {:.2}%",
            -win * 100.0
        ));
    }
    Ok(format!(
        "skew-aware <= blind at theta 1.5 ({:.1}% lower)",
        win * 100.0
    ))
}

/// Print the figure.
pub fn print(hw: &HwConfig, m_tuples: u64) -> Vec<Row> {
    crate::banner("Fig skew", "Zipf sweep: blind vs skew-aware Triton");
    let rows = run(hw, m_tuples);
    let mut t = crate::Table::new([
        "policy",
        "theta",
        "total (us)",
        "G tuples/s",
        "spill (us)",
        "cached pairs",
        "lanes",
    ]);
    for r in &rows {
        t.row([
            r.policy.to_string(),
            format!("{:.2}", r.theta),
            format!("{:.1}", r.total_ns / 1e3),
            crate::f3(r.gtps),
            format!("{:.1}", r.spill_ns / 1e3),
            r.pairs_cached.to_string(),
            r.lanes.to_string(),
        ]);
    }
    t.print();
    if let Some(win) = win_at_theta_1_5(&rows) {
        println!("skew-aware win at theta 1.5: {:.1}%", win * 100.0);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(rows: &[Row], policy: &str, theta: f64) -> f64 {
        rows.iter()
            .find(|r| r.policy == policy && (r.theta - theta).abs() < 1e-9)
            .map(|r| r.total_ns)
            .unwrap()
    }

    #[test]
    fn aware_flat_while_blind_degrades() {
        let hw = HwConfig::ac922().scaled(1024);
        let rows = run(&hw, 512);
        // Uniform: the planner declines to plan, and the gated LPT
        // schedule can only match or improve the submission order.
        let off0 = total(&rows, "off", 0.0);
        let aware0 = total(&rows, "aware", 0.0);
        assert!(
            aware0 <= off0,
            "aware must not exceed blind at theta 0: {aware0} vs {off0}"
        );
        // Heavy skew: blind pays the staging overflow, aware does not.
        assert!(
            total(&rows, "aware", 1.5) <= total(&rows, "off", 1.5),
            "aware must not exceed blind at theta 1.5"
        );
        let aware175 = total(&rows, "aware", 1.75);
        assert!(
            aware175 <= aware0 * 1.10,
            "aware should stay near-flat across the sweep: {aware175} vs {aware0}"
        );
        check(&rows).expect("the committed check holds");
        assert!(check(&rows[1..]).is_err(), "a missing row fails");
        // The document's schema tag and every row's exact column order.
        let json = to_json(&hw, 512, &rows);
        assert!(json.starts_with("{\"config\":{\"schema\":\"triton-bench/fig-skew/v1\","));
        let columns = [
            "policy",
            "theta",
            "total_ns",
            "gtps",
            "spill_ns",
            "cache_hit_bytes",
            "cache_spilled_bytes",
            "pairs_cached",
            "lanes",
            "matches",
        ];
        let keys = crate::figs::row_keys(&json);
        assert_eq!(keys.len(), rows.len());
        for k in keys {
            assert_eq!(k, columns);
        }
    }
}
