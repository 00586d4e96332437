//! Reading and checking the service's responses, the determinism record,
//! and the exact-reference check of proven bounds.

use crate::workload::{Request, Workload};
use netrel_core::{solve_semantics_part, PartComputation, SemPart};
use netrel_engine::planner::estimate_part;
use netrel_preprocess::GraphIndex;
use netrel_s2bdd::S2BddConfig;
use netrel_ugraph::UncertainGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::collections::BTreeMap;

/// The fields of one query answer the benchmark checks and records.
#[derive(Clone, Debug)]
pub struct Answer {
    /// `estimate`.
    pub estimate: f64,
    /// `lower_bound`.
    pub lower: f64,
    /// `upper_bound`.
    pub upper: f64,
    /// `exact`.
    pub exact: bool,
    /// `ci.lower`/`ci.upper` (planned answers only).
    pub ci: Option<(f64, f64)>,
    /// `routes` (planned answers only).
    pub routes: Vec<String>,
    /// `cache_hits`.
    pub cache_hits: u64,
    /// `cache_misses`.
    pub cache_misses: u64,
    /// Σ `parts[].nodes_created`.
    pub nodes_created: u64,
    /// `samples_used`.
    pub samples_used: u64,
    /// Proven bounds and exactness of each part, in part order.
    pub parts: Vec<PartBounds>,
}

/// One part's proven bounds as the answer reports them.
#[derive(Clone, Copy, Debug)]
pub struct PartBounds {
    /// `parts[].lower_bound`.
    pub lower: f64,
    /// `parts[].upper_bound`.
    pub upper: f64,
    /// `parts[].exact`.
    pub exact: bool,
}

/// The fields of one `mutate` result slot the benchmark records.
#[derive(Clone, Copy, Debug)]
pub struct WriteOutcome {
    /// `index` was `"rebuilt"` (otherwise `"patched"`).
    pub rebuilt: bool,
    /// `invalidated_plans`.
    pub invalidated_plans: u64,
}

/// A parsed response.
#[derive(Clone, Debug)]
pub enum Reply {
    /// Answer to a `query` line.
    Query(Answer),
    /// Outcome of a `mutate` line.
    Write(WriteOutcome),
}

fn f64_at(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::F64(x)) => Ok(*x),
        Some(Value::U64(n)) => Ok(*n as f64),
        Some(Value::I64(n)) => Ok(*n as f64),
        other => Err(format!("`{key}` is not a number: {other:?}")),
    }
}

fn u64_at(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Value::U64(n)) => Ok(*n),
        other => Err(format!("`{key}` is not a count: {other:?}")),
    }
}

fn bool_at(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        other => Err(format!("`{key}` is not a boolean: {other:?}")),
    }
}

/// Parse one response and run the per-answer checks: the line parses, has
/// `ok:true`, `lower ≤ estimate ≤ upper`, and a planned answer's CI
/// contains its estimate.
pub fn read_reply(req: &Request, response: &str) -> Result<Reply, String> {
    let v: Value =
        serde_json::from_str(response).map_err(|e| format!("response is not JSON: {e}"))?;
    if v.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("error response: {response}"));
    }
    match req {
        Request::Query(q) => {
            let a = v.get("answer").ok_or("query response without `answer`")?;
            let ci = match a.get("ci") {
                Some(ci) => Some((f64_at(ci, "lower")?, f64_at(ci, "upper")?)),
                None => None,
            };
            let routes = match a.get("routes") {
                Some(Value::Seq(rs)) => rs
                    .iter()
                    .map(|r| match r {
                        Value::Str(s) => Ok(s.clone()),
                        other => Err(format!("route is not a string: {other:?}")),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => Vec::new(),
            };
            let Some(Value::Seq(part_values)) = a.get("parts") else {
                return Err("`parts` is not an array".into());
            };
            let mut nodes_created = 0;
            let mut parts = Vec::with_capacity(part_values.len());
            for p in part_values {
                nodes_created += u64_at(p, "nodes_created")?;
                parts.push(PartBounds {
                    lower: f64_at(p, "lower_bound")?,
                    upper: f64_at(p, "upper_bound")?,
                    exact: bool_at(p, "exact")?,
                });
            }
            let answer = Answer {
                estimate: f64_at(a, "estimate")?,
                lower: f64_at(a, "lower_bound")?,
                upper: f64_at(a, "upper_bound")?,
                exact: bool_at(a, "exact")?,
                ci,
                routes,
                cache_hits: u64_at(a, "cache_hits")?,
                cache_misses: u64_at(a, "cache_misses")?,
                nodes_created,
                samples_used: u64_at(a, "samples_used")?,
                parts,
            };
            if q.planned != answer.ci.is_some() {
                return Err("a planned answer must carry a CI, a classic one none".into());
            }
            if !(answer.lower <= answer.estimate && answer.estimate <= answer.upper) {
                return Err(format!(
                    "estimate {} outside proven bounds [{}, {}]",
                    answer.estimate, answer.lower, answer.upper
                ));
            }
            if let Some((lo, hi)) = answer.ci {
                if !(lo <= answer.estimate && answer.estimate <= hi) {
                    return Err(format!(
                        "estimate {} outside its CI [{lo}, {hi}]",
                        answer.estimate
                    ));
                }
            }
            Ok(Reply::Query(answer))
        }
        Request::UpdateProb { .. } => {
            let slot = match v.get("results") {
                Some(Value::Seq(slots)) if slots.len() == 1 => &slots[0],
                other => return Err(format!("mutate response without one result: {other:?}")),
            };
            if slot.get("ok") != Some(&Value::Bool(true)) {
                return Err(format!("mutation rejected: {response}"));
            }
            let rebuilt = match slot.get("index") {
                Some(Value::Str(s)) if s == "rebuilt" => true,
                Some(Value::Str(s)) if s == "patched" => false,
                other => return Err(format!("unknown index outcome {other:?}")),
            };
            Ok(Reply::Write(WriteOutcome {
                rebuilt,
                invalidated_plans: u64_at(slot, "invalidated_plans")?,
            }))
        }
    }
}

/// Exact-repeat record of one run's determinism prefix: the same seed must
/// give the same record on every run and machine.
#[derive(Clone, Debug, Default)]
pub struct Determinism {
    /// FNV-1a over the estimate bits of every prefix answer, in order.
    pub answers_digest: u64,
    /// Planner routes of the prefix's planned answers, by name.
    pub routes: BTreeMap<String, u64>,
    /// Σ `cache_hits` of the prefix answers.
    pub cache_hits: u64,
    /// Σ `cache_misses` of the prefix answers.
    pub cache_misses: u64,
    /// Σ S2BDD nodes created, over the prefix answers' parts.
    pub s2bdd_nodes_created: u64,
    /// Σ `samples_used` of the prefix answers.
    pub s2bdd_samples_used: u64,
}

impl Determinism {
    /// Fold the prefix answers into the record.
    pub fn of<'a>(answers: impl IntoIterator<Item = &'a Answer>) -> Self {
        let mut d = Determinism {
            answers_digest: 0xcbf2_9ce4_8422_2325,
            ..Default::default()
        };
        for route in ["exact", "bounded", "sampling", "bit_sampling"] {
            d.routes.insert(route.to_string(), 0);
        }
        for a in answers {
            for byte in a.estimate.to_bits().to_le_bytes() {
                d.answers_digest = (d.answers_digest ^ byte as u64).wrapping_mul(0x100_0000_01b3);
            }
            for r in &a.routes {
                *d.routes.entry(r.clone()).or_insert(0) += 1;
            }
            d.cache_hits += a.cache_hits;
            d.cache_misses += a.cache_misses;
            d.s2bdd_nodes_created += a.nodes_created;
            d.s2bdd_samples_used += a.samples_used;
        }
        d
    }

    /// One JSON object, printed on its own line by every run.
    pub fn to_json(&self) -> String {
        let routes: Vec<String> = self
            .routes
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!(
            "{{\"answers_digest\":\"{:016x}\",\"routes\":{{{}}},\"cache_hits\":{},\"cache_misses\":{},\"s2bdd_nodes_created\":{},\"s2bdd_samples_used\":{}}}",
            self.answers_digest,
            routes.join(","),
            self.cache_hits,
            self.cache_misses,
            self.s2bdd_nodes_created,
            self.s2bdd_samples_used
        )
    }
}

/// Parts of prefix queries on the road graph checked against an exact
/// reference, per run.
const REFERENCES: usize = 4;

/// A part is eligible for a reference when the planner's cost model
/// predicts at most this many S2BDD nodes for it. The road graph's large
/// grid-like component is far beyond any exact solve, so parts of it are
/// not eligible.
const REFERENCE_PREDICTED_MAX: usize = 2_000_000;

/// Node cap of one exact reference solve (the cost model is a heuristic);
/// a reference that would need more is skipped and counted.
const REFERENCE_NODE_CAP: usize = 4_000_000;

/// Slack for float rounding between the bound products and the reference.
const REFERENCE_TOLERANCE: f64 = 1e-12;

/// Outcome of the exact-reference check.
#[derive(Clone, Debug, Default)]
pub struct References {
    /// Prefix parts eligible for a reference.
    pub eligible: usize,
    /// References computed and compared.
    pub checked: usize,
    /// Chosen parts whose exact solve exceeded the node cap.
    pub skipped: usize,
    /// Descriptions of bound violations.
    pub violations: Vec<String>,
}

/// On `road-cold` and `hot-mixed-rw`, check the proven bounds of a seeded
/// subset of the parts of the prefix's road-graph queries against the
/// part's exact reliability, computed by an unbounded-width S2BDD
/// (`S2BddConfig::exact()`) on the part as planned from the graph as it
/// stood when the line was sent (earlier writes applied). A query's
/// proven bounds are `pb` times the product of its parts' bounds, so
/// sound part bounds make sound query bounds. Parts the service did not
/// solve exactly are chosen first, since their bounds are the ones a proof
/// bug would break.
pub fn exact_references(
    workload: Workload,
    seed: u64,
    base: &UncertainGraph,
    lines: &[(Request, Option<Answer>)],
) -> References {
    let mut out = References::default();
    if workload == Workload::DenseSampled {
        return out;
    }
    let mut g = base.clone();
    // Probability updates leave the index unchanged.
    let index = GraphIndex::build(base);
    let mut eligible: Vec<(usize, usize, SemPart)> = Vec::new();
    for (i, (req, answer)) in lines.iter().enumerate() {
        match (req, answer) {
            (Request::UpdateProb { graph: 0, edge, p }, _) => {
                if let Err(e) = g.update_edge_prob(*edge, *p) {
                    out.violations
                        .push(format!("line {i}: reference graph rejected the write: {e}"));
                }
            }
            (Request::Query(q), Some(a)) if q.graph == 0 => {
                let sem = q.semantics.semantics();
                let Ok(plan) = sem.plan(&g, &index, &q.terminals, Default::default()) else {
                    out.violations
                        .push(format!("line {i}: the reference could not plan"));
                    continue;
                };
                if plan.parts.len() != a.parts.len() {
                    out.violations
                        .push(format!("line {i}: part count differs from the answer"));
                    continue;
                }
                for (pi, part) in plan.parts.into_iter().enumerate() {
                    let predicted =
                        estimate_part(&part.graph, &part.terminals, S2BddConfig::default().order)
                            .predicted_nodes;
                    if part.computation == PartComputation::Connectivity
                        && predicted <= REFERENCE_PREDICTED_MAX
                    {
                        eligible.push((i, pi, part));
                    }
                }
            }
            _ => {}
        }
    }
    out.eligible = eligible.len();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x00e7_ac7e_f5e1_ec70);
    for j in (1..eligible.len()).rev() {
        let k = rng.gen_range(0..=j);
        eligible.swap(j, k);
    }
    let part_of = |i: usize, pi: usize| lines[i].1.as_ref().map(|a| a.parts[pi]);
    eligible.sort_by_key(|(i, pi, _)| part_of(*i, *pi).is_some_and(|p| p.exact));
    for (i, pi, part) in eligible.into_iter().take(REFERENCES) {
        let Some(p) = part_of(i, pi) else { continue };
        let cfg = S2BddConfig {
            node_cap: REFERENCE_NODE_CAP,
            ..S2BddConfig::exact()
        };
        match solve_semantics_part(&part, cfg) {
            Ok(r) if r.exact => {
                out.checked += 1;
                if !(p.lower - REFERENCE_TOLERANCE <= r.estimate
                    && r.estimate <= p.upper + REFERENCE_TOLERANCE)
                {
                    out.violations.push(format!(
                        "line {i} part {pi}: exact reliability {} outside proven bounds [{}, {}]",
                        r.estimate, p.lower, p.upper
                    ));
                }
            }
            Ok(_) => out.skipped += 1,
            Err(e) => out
                .violations
                .push(format!("line {i} part {pi}: reference failed: {e}")),
        }
    }
    out
}
