//! Report assembly: the per-file analyses roll up into one
//! [`WorkspaceReport`] with text and JSON renderings. The JSON mode
//! follows the workspace's conventions (`triton_trace::json`): JSON
//! Lines, one object per row, stable key order.

use triton_trace::json::JsonObject;

use crate::rules::{FileAnalysis, Finding, Rule, Waiver, ALL_RULES};

/// One file's findings, tagged with its workspace-relative path.
#[derive(Debug)]
pub struct FileReport {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// The analysis for this file.
    pub analysis: FileAnalysis,
}

/// The whole run's results.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Per-file reports, in path order.
    pub files: Vec<FileReport>,
    /// Total files scanned (including clean ones).
    pub files_scanned: usize,
}

impl WorkspaceReport {
    /// Findings that no waiver covers, as `(path, finding)` pairs.
    pub fn unwaived(&self) -> impl Iterator<Item = (&str, &Finding)> {
        self.files.iter().flat_map(|f| {
            f.analysis
                .findings
                .iter()
                .filter(|v| v.waived.is_none())
                .map(move |v| (f.path.as_str(), v))
        })
    }

    /// Findings a waiver covers, as `(path, finding)` pairs.
    pub fn waived(&self) -> impl Iterator<Item = (&str, &Finding)> {
        self.files.iter().flat_map(|f| {
            f.analysis
                .findings
                .iter()
                .filter(|v| v.waived.is_some())
                .map(move |v| (f.path.as_str(), v))
        })
    }

    /// `(path, line)` of every pragma missing its mandatory reason.
    pub fn malformed_waivers(&self) -> impl Iterator<Item = (&str, u32)> {
        self.files.iter().flat_map(|f| {
            f.analysis
                .malformed_waivers
                .iter()
                .map(move |&l| (f.path.as_str(), l))
        })
    }

    /// Pragmas that matched no finding, as `(path, waiver)` pairs.
    pub fn unused_waivers(&self) -> impl Iterator<Item = (&str, &Waiver)> {
        self.files.iter().flat_map(|f| {
            f.analysis
                .unused_waivers
                .iter()
                .map(move |w| (f.path.as_str(), w))
        })
    }

    /// Does the run fail (any unwaived finding, reasonless pragma, or
    /// stale waiver)?
    pub fn failed(&self) -> bool {
        self.unwaived().next().is_some()
            || self.malformed_waivers().next().is_some()
            || self.unused_waivers().next().is_some()
    }

    /// Count of findings for `rule`, waived or not.
    pub fn count_for(&self, rule: Rule) -> usize {
        self.files
            .iter()
            .flat_map(|f| f.analysis.findings.iter())
            .filter(|v| v.rule == rule)
            .count()
    }

    /// Human-readable report: violations, then the waiver inventory
    /// (waiver creep must stay visible), then a per-rule summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (path, v) in self.unwaived() {
            out.push_str(&format!(
                "{path}:{line}: {rule} — {msg}\n",
                line = v.line,
                rule = v.rule.code().to_ascii_uppercase(),
                msg = v.message
            ));
        }
        for (path, line) in self.malformed_waivers() {
            out.push_str(&format!(
                "{path}:{line}: WAIVER — pragma without a `-- reason` clause; \
                 every waiver must say why\n"
            ));
        }
        for (path, w) in self.unused_waivers() {
            out.push_str(&format!(
                "{path}:{line}: WAIVER — allow({rules}) matches no finding; \
                 stale waivers hide future violations, remove it\n",
                line = w.line,
                rules = w.rules.join(","),
            ));
        }
        let waived: Vec<(&str, &Finding)> = self.waived().collect();
        if !waived.is_empty() {
            out.push_str(&format!("\nwaivers in effect ({}):\n", waived.len()));
            for (path, v) in &waived {
                let reason = v.waived.as_deref().unwrap_or("");
                out.push_str(&format!(
                    "  {path}:{line}: {rule} — {reason}\n",
                    line = v.line,
                    rule = v.rule.code().to_ascii_uppercase(),
                ));
            }
        }
        let unwaived = self.unwaived().count();
        let malformed = self.malformed_waivers().count();
        out.push_str(&format!(
            "\n{files} files scanned; {unwaived} violations, {} waived",
            waived.len(),
            files = self.files_scanned,
        ));
        if malformed > 0 {
            out.push_str(&format!(", {malformed} reasonless waivers"));
        }
        let unused = self.unused_waivers().count();
        if unused > 0 {
            out.push_str(&format!(", {unused} stale waivers"));
        }
        out.push('\n');
        for rule in ALL_RULES {
            let n = self.count_for(rule);
            if n > 0 {
                out.push_str(&format!(
                    "  {}: {} ({})\n",
                    rule.code().to_ascii_uppercase(),
                    n,
                    rule.describe()
                ));
            }
        }
        out
    }

    /// JSON Lines report: one `finding` row per hit (waived included),
    /// one `waiver` row per pragma, and a final `summary` row.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        for f in &self.files {
            for v in &f.analysis.findings {
                let mut row = JsonObject::new()
                    .str("kind", "finding")
                    .str("file", &f.path)
                    .int("line", u64::from(v.line))
                    .str("rule", v.rule.code())
                    .str("message", &v.message)
                    .bool("waived", v.waived.is_some());
                if let Some(reason) = &v.waived {
                    row = row.str("reason", reason);
                }
                out.push_str(&row.render());
                out.push('\n');
            }
            for w in &f.analysis.waivers {
                out.push_str(
                    &JsonObject::new()
                        .str("kind", "waiver")
                        .str("file", &f.path)
                        .int("line", u64::from(w.line))
                        .str("rules", &w.rules.join(","))
                        .str("reason", &w.reason)
                        .render(),
                );
                out.push('\n');
            }
            for &l in &f.analysis.malformed_waivers {
                out.push_str(
                    &JsonObject::new()
                        .str("kind", "malformed_waiver")
                        .str("file", &f.path)
                        .int("line", u64::from(l))
                        .render(),
                );
                out.push('\n');
            }
            for w in &f.analysis.unused_waivers {
                out.push_str(
                    &JsonObject::new()
                        .str("kind", "unused_waiver")
                        .str("file", &f.path)
                        .int("line", u64::from(w.line))
                        .str("rules", &w.rules.join(","))
                        .render(),
                );
                out.push('\n');
            }
        }
        let mut summary = JsonObject::new()
            .str("kind", "summary")
            .int("files_scanned", self.files_scanned as u64)
            .int("violations", self.unwaived().count() as u64)
            .int("waived", self.waived().count() as u64)
            .int("malformed_waivers", self.malformed_waivers().count() as u64)
            .int("unused_waivers", self.unused_waivers().count() as u64)
            .bool("failed", self.failed());
        for rule in ALL_RULES {
            summary = summary.int(rule.code(), self.count_for(rule) as u64);
        }
        out.push_str(&summary.render());
        out.push('\n');
        out
    }

    /// Per-rule total finding counts (waived included) — the quantity
    /// the ratchet tracks: waived findings still represent debt, so the
    /// baseline keeps waiver creep from hiding growth.
    pub fn rule_totals(&self) -> Vec<(&'static str, usize)> {
        ALL_RULES
            .iter()
            .map(|&r| (r.code(), self.count_for(r)))
            .collect()
    }

    /// Render the ratchet baseline for this run (single JSON object,
    /// stable key order — suitable for committing).
    pub fn render_ratchet(&self) -> String {
        let mut obj = JsonObject::new();
        for (code, n) in self.rule_totals() {
            obj = obj.int(code, n as u64);
        }
        let mut out = obj.render();
        out.push('\n');
        out
    }

    /// Compare this run against a committed baseline. Returns the rules
    /// whose finding count grew, as `(rule, baseline, now)` — any entry
    /// is a ratchet regression and fails the run. Rules absent from the
    /// baseline (newly added) default to 0.
    pub fn ratchet_regressions(&self, baseline: &Ratchet) -> Vec<(&'static str, u64, u64)> {
        self.rule_totals()
            .into_iter()
            .filter_map(|(code, n)| {
                let base = baseline.count(code);
                (n as u64 > base).then_some((code, base, n as u64))
            })
            .collect()
    }
}

/// A committed ratchet baseline: per-rule finding counts that may only
/// go down. Parsed from the flat one-object JSON `render_ratchet`
/// writes.
#[derive(Debug, Default)]
pub struct Ratchet {
    counts: Vec<(String, u64)>,
}

impl Ratchet {
    /// Baseline count for a rule code (0 if the rule is not listed —
    /// new rules start with an implicit zero-debt baseline).
    pub fn count(&self, code: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| k == code)
            .map_or(0, |(_, v)| *v)
    }

    /// Parse the baseline file. The format is a single flat JSON object
    /// of `"rule": count` pairs; anything else is an error (a corrupt
    /// baseline must fail loudly, not silently reset the ratchet).
    pub fn parse(src: &str) -> Result<Ratchet, String> {
        let body = src.trim();
        let body = body
            .strip_prefix('{')
            .and_then(|b| b.strip_suffix('}'))
            .ok_or_else(|| "ratchet baseline is not a JSON object".to_string())?;
        let mut counts = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once(':')
                .ok_or_else(|| format!("bad ratchet entry: {part}"))?;
            let key = k.trim().trim_matches('"').to_string();
            let val: u64 = v
                .trim()
                .parse()
                .map_err(|_| format!("bad ratchet count: {part}"))?;
            counts.push((key, val));
        }
        Ok(Ratchet { counts })
    }
}
