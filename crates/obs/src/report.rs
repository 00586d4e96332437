//! The unified benchmark report schema and its tolerance-band differ.
//!
//! The `netrel-testrunner` throughput suites emit a
//! [`BenchReport`] — one schema, versioned by [`SCHEMA`], carrying workload
//! parameters, per-workload timing, planner route counts, and cache
//! counters — so the committed `BENCH_*.json` baselines are mutually
//! comparable and machine-checkable. [`diff_reports`] compares a fresh run
//! against a committed baseline: deterministic fields (route and cache
//! counts, row sets) must match exactly; timing fields get a relative
//! tolerance band, since baselines travel across machines.

/// Schema identifier stamped into every report.
pub const SCHEMA: &str = "netrel-bench-report/v1";

/// Planner route decisions accumulated over a workload.
#[derive(Clone, Copy, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct RouteCounts {
    /// Parts routed to the unbounded-width exact S2BDD.
    pub exact: u64,
    /// Parts routed to the width-bounded S2BDD.
    pub bounded: u64,
    /// Parts routed to flat possible-world sampling.
    pub sampling: u64,
    /// Parts routed to the bit-parallel (64 worlds per `u64`) sampler.
    pub bit_sampling: u64,
    /// Parts routed to exact d-hop enumeration.
    pub enumeration: u64,
}

impl RouteCounts {
    /// Sum over all routes.
    pub fn total(&self) -> u64 {
        self.exact + self.bounded + self.sampling + self.bit_sampling + self.enumeration
    }
}

/// Plan-cache counters accumulated over a workload.
#[derive(Clone, Copy, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct CacheCounts {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a solve.
    pub misses: u64,
    /// Entries evicted.
    pub evictions: u64,
    /// Live entries at the end of the workload.
    pub entries: u64,
}

/// One workload's results within a report.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct BenchRow {
    /// Workload name, unique within the report (diff join key).
    pub name: String,
    /// Query semantics exercised (e.g. `"two-terminal"`).
    pub semantics: String,
    /// Vertices in the workload graph.
    pub vertices: u64,
    /// Edges in the workload graph.
    pub edges: u64,
    /// Queries executed.
    pub queries: u64,
    /// Wall-clock seconds for the workload.
    pub secs: f64,
    /// Queries per second.
    pub qps: f64,
    /// Planner route decisions (all-zero for fixed-route workloads).
    pub routes: RouteCounts,
    /// Plan-cache counters.
    pub cache: CacheCounts,
    /// Bin-specific numeric extras (e.g. `("speedup_vs_cold", 1.8)`);
    /// compared with the timing tolerance.
    pub extra: Vec<(String, f64)>,
}

/// A full benchmark report: the unit committed as `BENCH_*.json`.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct BenchReport {
    /// Always [`SCHEMA`]; the differ refuses mismatched schemas.
    pub schema: String,
    /// Emitting runner (e.g. `"netrel-testrunner/planner"`); informational,
    /// never diffed.
    pub bench: String,
    /// `rustc --version` of the emitting build (informational; never
    /// diffed).
    pub toolchain: String,
    /// Workload scale multiplier the bin was invoked with.
    pub scale: f64,
    /// Base RNG seed of the workload.
    pub seed: u64,
    /// Per-workload results.
    pub rows: Vec<BenchRow>,
}

impl BenchReport {
    /// An empty report for `bench`, stamped with schema and toolchain.
    pub fn new(bench: &str, scale: f64, seed: u64) -> Self {
        BenchReport {
            schema: SCHEMA.to_string(),
            bench: bench.to_string(),
            toolchain: toolchain(),
            scale,
            seed,
            rows: Vec::new(),
        }
    }
}

/// One field that fell outside the tolerance band (or a structural
/// mismatch, reported with `ratio = f64::INFINITY`).
#[derive(Clone, Debug, serde::Serialize)]
pub struct DiffViolation {
    /// Row name (`"<report>"` for report-level mismatches).
    pub row: String,
    /// Field that diverged.
    pub field: String,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value.
    pub fresh: f64,
    /// `|fresh - baseline| / max(|baseline|, eps)`.
    pub ratio: f64,
}

fn rel(baseline: f64, fresh: f64) -> f64 {
    (fresh - baseline).abs() / baseline.abs().max(1e-12)
}

fn check_timing(out: &mut Vec<DiffViolation>, row: &str, field: &str, b: f64, f: f64, tol: f64) {
    let ratio = rel(b, f);
    if !ratio.is_finite() || ratio > tol {
        out.push(DiffViolation {
            row: row.to_string(),
            field: field.to_string(),
            baseline: b,
            fresh: f,
            ratio,
        });
    }
}

fn check_exact(out: &mut Vec<DiffViolation>, row: &str, field: &str, b: u64, f: u64) {
    if b != f {
        out.push(DiffViolation {
            row: row.to_string(),
            field: field.to_string(),
            baseline: b as f64,
            fresh: f as f64,
            ratio: f64::INFINITY,
        });
    }
}

/// Compare a fresh report against a committed baseline.
///
/// Deterministic fields — the row set, per-row workload shape (semantics,
/// vertices, edges, queries), route counts, and cache counters — must match
/// exactly. Timing fields (`secs`, `qps`, `extra`) pass when within the
/// relative tolerance `tol` (e.g. `0.5` = ±50%). The toolchain string is
/// informational and never compared. Returns the (possibly empty) violation
/// list.
pub fn diff_reports(baseline: &BenchReport, fresh: &BenchReport, tol: f64) -> Vec<DiffViolation> {
    let mut out = Vec::new();
    let report = "<report>";
    if baseline.schema != fresh.schema || baseline.schema != SCHEMA {
        out.push(DiffViolation {
            row: report.to_string(),
            field: "schema".to_string(),
            baseline: 0.0,
            fresh: 0.0,
            ratio: f64::INFINITY,
        });
        return out;
    }
    check_timing(&mut out, report, "scale", baseline.scale, fresh.scale, 0.0);
    check_exact(&mut out, report, "seed", baseline.seed, fresh.seed);
    for base_row in &baseline.rows {
        let Some(fresh_row) = fresh.rows.iter().find(|r| r.name == base_row.name) else {
            out.push(DiffViolation {
                row: base_row.name.clone(),
                field: "missing_row".to_string(),
                baseline: 1.0,
                fresh: 0.0,
                ratio: f64::INFINITY,
            });
            continue;
        };
        let n = &base_row.name;
        if base_row.semantics != fresh_row.semantics {
            out.push(DiffViolation {
                row: n.clone(),
                field: "semantics".to_string(),
                baseline: 0.0,
                fresh: 0.0,
                ratio: f64::INFINITY,
            });
        }
        check_exact(
            &mut out,
            n,
            "vertices",
            base_row.vertices,
            fresh_row.vertices,
        );
        check_exact(&mut out, n, "edges", base_row.edges, fresh_row.edges);
        check_exact(&mut out, n, "queries", base_row.queries, fresh_row.queries);
        check_exact(
            &mut out,
            n,
            "routes.exact",
            base_row.routes.exact,
            fresh_row.routes.exact,
        );
        check_exact(
            &mut out,
            n,
            "routes.bounded",
            base_row.routes.bounded,
            fresh_row.routes.bounded,
        );
        check_exact(
            &mut out,
            n,
            "routes.sampling",
            base_row.routes.sampling,
            fresh_row.routes.sampling,
        );
        check_exact(
            &mut out,
            n,
            "routes.bit_sampling",
            base_row.routes.bit_sampling,
            fresh_row.routes.bit_sampling,
        );
        check_exact(
            &mut out,
            n,
            "routes.enumeration",
            base_row.routes.enumeration,
            fresh_row.routes.enumeration,
        );
        check_exact(
            &mut out,
            n,
            "cache.hits",
            base_row.cache.hits,
            fresh_row.cache.hits,
        );
        check_exact(
            &mut out,
            n,
            "cache.misses",
            base_row.cache.misses,
            fresh_row.cache.misses,
        );
        check_exact(
            &mut out,
            n,
            "cache.evictions",
            base_row.cache.evictions,
            fresh_row.cache.evictions,
        );
        check_exact(
            &mut out,
            n,
            "cache.entries",
            base_row.cache.entries,
            fresh_row.cache.entries,
        );
        check_timing(&mut out, n, "secs", base_row.secs, fresh_row.secs, tol);
        check_timing(&mut out, n, "qps", base_row.qps, fresh_row.qps, tol);
        for (key, base_val) in &base_row.extra {
            match fresh_row.extra.iter().find(|(k, _)| k == key) {
                Some((_, fresh_val)) => check_timing(
                    &mut out,
                    n,
                    &format!("extra.{key}"),
                    *base_val,
                    *fresh_val,
                    tol,
                ),
                None => out.push(DiffViolation {
                    row: n.clone(),
                    field: format!("extra.{key}"),
                    baseline: *base_val,
                    fresh: 0.0,
                    ratio: f64::INFINITY,
                }),
            }
        }
        // Keys only the fresh run carries are just as much a schema drift
        // as keys only the baseline carries.
        for (key, fresh_val) in &fresh_row.extra {
            if !base_row.extra.iter().any(|(k, _)| k == key) {
                out.push(DiffViolation {
                    row: n.clone(),
                    field: format!("extra.{key}"),
                    baseline: 0.0,
                    fresh: *fresh_val,
                    ratio: f64::INFINITY,
                });
            }
        }
    }
    for fresh_row in &fresh.rows {
        if !baseline.rows.iter().any(|r| r.name == fresh_row.name) {
            out.push(DiffViolation {
                row: fresh_row.name.clone(),
                field: "unexpected_row".to_string(),
                baseline: 0.0,
                fresh: 1.0,
                ratio: f64::INFINITY,
            });
        }
    }
    out
}

/// `rustc --version` of the ambient toolchain, `"unknown"` if unavailable.
pub fn toolchain() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, secs: f64) -> BenchRow {
        BenchRow {
            name: name.to_string(),
            semantics: "two-terminal".to_string(),
            vertices: 100,
            edges: 300,
            queries: 64,
            secs,
            qps: 64.0 / secs,
            routes: RouteCounts {
                exact: 40,
                bounded: 4,
                sampling: 20,
                bit_sampling: 0,
                enumeration: 0,
            },
            cache: CacheCounts {
                hits: 10,
                misses: 54,
                evictions: 0,
                entries: 54,
            },
            extra: vec![("warm_qps".to_string(), 200.0)],
        }
    }

    fn report(secs: f64) -> BenchReport {
        let mut r = BenchReport::new("engine_throughput", 1.0, 42);
        r.rows.push(row("grid", secs));
        r
    }

    #[test]
    fn identical_reports_diff_clean() {
        let base = report(0.5);
        assert!(diff_reports(&base, &base.clone(), 0.25).is_empty());
    }

    #[test]
    fn timing_within_band_passes_outside_fails() {
        let base = report(0.5);
        let mut fresh = report(0.55);
        fresh.rows[0].qps = base.rows[0].qps; // isolate `secs`
        fresh.rows[0].extra = base.rows[0].extra.clone();
        assert!(diff_reports(&base, &fresh, 0.25).is_empty());
        fresh.rows[0].secs = 1.0;
        let v = diff_reports(&base, &fresh, 0.25);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "secs");
        assert!(v[0].ratio > 0.25);
    }

    #[test]
    fn deterministic_counts_must_match_exactly() {
        let base = report(0.5);
        let mut fresh = base.clone();
        fresh.rows[0].routes.sampling += 1;
        fresh.rows[0].cache.hits += 1;
        let v = diff_reports(&base, &fresh, 10.0);
        let fields: Vec<&str> = v.iter().map(|d| d.field.as_str()).collect();
        assert!(fields.contains(&"routes.sampling"));
        assert!(fields.contains(&"cache.hits"));
    }

    #[test]
    fn missing_and_unexpected_rows_are_violations() {
        let base = report(0.5);
        let mut fresh = base.clone();
        fresh.rows[0].name = "renamed".to_string();
        let v = diff_reports(&base, &fresh, 10.0);
        let fields: Vec<&str> = v.iter().map(|d| d.field.as_str()).collect();
        assert!(fields.contains(&"missing_row"));
        assert!(fields.contains(&"unexpected_row"));
    }

    #[test]
    fn every_regression_is_reported_not_just_the_first() {
        // Two rows, each with its own out-of-tolerance field: the differ
        // must surface both, so a multi-row regression is visible at once.
        let mut base = report(0.5);
        base.rows.push(row("clique", 0.25));
        let mut fresh = base.clone();
        fresh.rows[0].qps = base.rows[0].qps * 10.0; // grid: qps regression
        fresh.rows[1].routes.bit_sampling = 7; // clique: route drift
        let v = diff_reports(&base, &fresh, 0.25);
        assert_eq!(v.len(), 2, "expected both violations, got {v:?}");
        let fields: Vec<(&str, &str)> = v
            .iter()
            .map(|d| (d.row.as_str(), d.field.as_str()))
            .collect();
        assert!(fields.contains(&("grid", "qps")));
        assert!(fields.contains(&("clique", "routes.bit_sampling")));
    }

    #[test]
    fn fresh_only_extra_keys_are_violations() {
        let base = report(0.5);
        let mut fresh = base.clone();
        fresh.rows[0].extra.push(("surprise_qps".to_string(), 1.0));
        let v = diff_reports(&base, &fresh, 10.0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "extra.surprise_qps");
        assert!(v[0].ratio.is_infinite());
    }

    #[test]
    fn toolchain_differences_are_ignored() {
        let base = report(0.5);
        let mut fresh = base.clone();
        fresh.toolchain = "rustc 999.0.0".to_string();
        assert!(diff_reports(&base, &fresh, 0.25).is_empty());
    }

    #[test]
    fn report_round_trips_through_serde() {
        use serde::Serialize as _;
        let base = report(0.5);
        let json = serde_json::to_string_pretty(&base.to_value()).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert!(diff_reports(&base, &back, 1e-9).is_empty());
        assert_eq!(back.toolchain, base.toolchain);
    }
}
