//! Per-tenant SLO accounting.
//!
//! A *tenant* is the workload family a query belongs to: the query-name
//! prefix before the first `-` (`"dash-0.1"` → `dash`, `"etl-3"` →
//! `etl`), so the serving demos' naming convention doubles as the tenant
//! taxonomy without any new submission API.
//!
//! ## SLO definitions
//!
//! * A query *participates* in its tenant's latency SLO iff it was
//!   submitted with a deadline; the deadline is the latency objective.
//! * The SLO is **met** when the query completes with
//!   `latency <= deadline`, and **violated** when it completes late *or*
//!   is shed for any reason (a refused query is a broken promise, not a
//!   neutral outcome).
//! * **Attainment** is `met / participating`, in integer ppm.
//! * Each tenant has an **error budget**: the allowed violation fraction
//!   ([`SloAccount::error_budget_ppm`], default 1 % = 10 000 ppm).
//!   **Budget burn** is the violation fraction divided by the allowed
//!   fraction, in ppm of the budget: 1 000 000 means the budget is
//!   exactly spent, above it the tenant is out of budget.
//!
//! All accounting is integer arithmetic on values crossed over from the
//! simulated clock once (via [`triton_metrics::sim_ns`]), so accounts
//! replay byte-identically; latency distributions use the bounded
//! [`Log2Histogram`] rather than per-query vectors.

use triton_metrics::Log2Histogram;
use triton_trace::json::push_str_lit;

/// Default error budget: 1 % of deadline-holding queries may violate.
pub const DEFAULT_ERROR_BUDGET_PPM: u64 = 10_000;

/// Derive the tenant of a query name: the prefix before the first `-`,
/// or the whole name when it has none.
#[must_use]
pub fn tenant_of(name: &str) -> &str {
    name.split('-').next().unwrap_or(name)
}

/// One tenant's SLO account over a serving run (see module docs for the
/// definitions). The [`crate::Recorder`] settles it at every terminal
/// event — a completion, or a shed for any reason, including a bounce
/// off the full queue that never entered it — and hands it to
/// [`crate::ServeResult`] from [`crate::Recorder::finish`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloAccount {
    /// Tenant label (query-name prefix).
    pub tenant: String,
    /// Queries of this tenant that completed.
    pub completed: u64,
    /// Queries of this tenant that were shed (any reject reason).
    pub shed: u64,
    /// Deadline-holding queries that reached a terminal state.
    pub slo_total: u64,
    /// Deadline-holding queries that completed within their deadline.
    pub slo_met: u64,
    /// Allowed violation fraction in ppm.
    pub error_budget_ppm: u64,
    /// Grant revisions (shrinks/grows) applied to this tenant's queries.
    pub grant_revisions: u64,
    /// Completed-query latency distribution in simulated ns.
    pub latency: Log2Histogram,
}

impl SloAccount {
    /// A fresh account for `tenant` with the default error budget.
    #[must_use]
    pub fn new(tenant: impl Into<String>) -> SloAccount {
        SloAccount {
            tenant: tenant.into(),
            completed: 0,
            shed: 0,
            slo_total: 0,
            slo_met: 0,
            error_budget_ppm: DEFAULT_ERROR_BUDGET_PPM,
            grant_revisions: 0,
            latency: Log2Histogram::new(),
        }
    }

    /// SLO violations so far (late completions + sheds of deadline
    /// holders).
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.slo_total.saturating_sub(self.slo_met)
    }

    /// Attainment in ppm of participating queries (1 000 000 when no
    /// query participates — an empty SLO is trivially met).
    #[must_use]
    pub fn attainment_ppm(&self) -> u64 {
        if self.slo_total == 0 {
            return 1_000_000;
        }
        (u128::from(self.slo_met) * 1_000_000 / u128::from(self.slo_total)) as u64
    }

    /// Error-budget burn in ppm of the budget: the violation fraction
    /// divided by the allowed fraction. 1 000 000 ⇔ budget exactly
    /// spent; saturates rather than overflowing.
    #[must_use]
    pub fn budget_burn_ppm(&self) -> u64 {
        if self.slo_total == 0 || self.error_budget_ppm == 0 {
            return if self.violations() > 0 { u64::MAX } else { 0 };
        }
        let burn = u128::from(self.violations()) * 1_000_000 * 1_000_000
            / (u128::from(self.slo_total) * u128::from(self.error_budget_ppm));
        u64::try_from(burn).unwrap_or(u64::MAX)
    }

    /// Deterministic JSON encoding with a fixed key order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"tenant\":");
        push_str_lit(&mut out, &self.tenant);
        out.push_str(&format!(
            ",\"completed\":{},\"shed\":{},\"slo_total\":{},\"slo_met\":{},\"attainment_ppm\":{},\"error_budget_ppm\":{},\"budget_burn_ppm\":{},\"grant_revisions\":{},\"latency_p50_ns\":{},\"latency_p99_ns\":{},\"latency_max_ns\":{}}}",
            self.completed,
            self.shed,
            self.slo_total,
            self.slo_met,
            self.attainment_ppm(),
            self.error_budget_ppm,
            self.budget_burn_ppm(),
            self.grant_revisions,
            self.latency.value_at_percentile(50),
            self.latency.value_at_percentile(99),
            self.latency.max(),
        ));
        out
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}: {} completed, {} shed, SLO {}/{} ({} ppm), budget burn {} ppm, {} grant revisions, p99 {} ns",
            self.tenant,
            self.completed,
            self.shed,
            self.slo_met,
            self.slo_total,
            self.attainment_ppm(),
            self.budget_burn_ppm(),
            self.grant_revisions,
            self.latency.value_at_percentile(99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_is_the_dash_prefix() {
        assert_eq!(tenant_of("dash-0.1"), "dash");
        assert_eq!(tenant_of("etl-3"), "etl");
        assert_eq!(tenant_of("t0"), "t0");
        assert_eq!(tenant_of(""), "");
    }

    #[test]
    fn attainment_and_burn_are_integer_exact() {
        let mut a = SloAccount::new("dash");
        a.slo_total = 200;
        a.slo_met = 198;
        // 2 violations out of 200 = 10_000 ppm violated; budget is
        // 10_000 ppm -> exactly spent.
        assert_eq!(a.attainment_ppm(), 990_000);
        assert_eq!(a.violations(), 2);
        assert_eq!(a.budget_burn_ppm(), 1_000_000);
        a.slo_met = 200;
        assert_eq!(a.budget_burn_ppm(), 0);
        a.slo_met = 0;
        // 100% violations vs a 1% budget: 100x over.
        assert_eq!(a.budget_burn_ppm(), 100_000_000);
    }

    #[test]
    fn empty_slo_is_trivially_met() {
        let a = SloAccount::new("batch");
        assert_eq!(a.attainment_ppm(), 1_000_000);
        assert_eq!(a.budget_burn_ppm(), 0);
    }

    #[test]
    fn json_is_deterministic_and_complete() {
        let mut a = SloAccount::new("cpu");
        a.completed = 3;
        a.latency.record(1000);
        a.latency.record(2000);
        a.latency.record(4000);
        let json = a.to_json();
        assert_eq!(json, a.clone().to_json());
        for key in [
            "\"tenant\":\"cpu\"",
            "\"completed\":3",
            "\"attainment_ppm\":1000000",
            "\"latency_max_ns\":4000",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn json_escapes_the_caller_supplied_tenant() {
        let a = SloAccount::new(tenant_of("a\"b-1"));
        let json = a.to_json();
        assert!(
            json.starts_with("{\"tenant\":\"a\\\"b\",\"completed\":0,"),
            "tenant must be a well-formed JSON string: {json}"
        );
    }
}
