//! The traced run's layer replay.
//!
//! Every line the service answered is replayed through the layers' public
//! functions in the engine's own order — parse, `Semantics::plan`, routing
//! (`PlanBudget::for_parts` + `plan_part`, or the classic dispatch),
//! `PlanKey::for_part` + lookup in a benchmark-owned `PlanCache` fed the
//! same keys, the routed solver, insert, `combine_semantics_plan` — with one
//! span per call. Writes go to a benchmark-owned engine holding copies of
//! the graphs (`Engine::update_edge_prob`), then to the same scoped
//! invalidation of the benchmark's cache and world bank. Each replayed
//! answer must equal the service's bit for bit, so the per-layer numbers
//! describe the path the service ran.

use crate::check::Reply;
use crate::stats::{mean, median, Metric};
use crate::workload::{QueryReq, Request, Workload, WORKERS};
use crate::{ExecutorScrape, LineRecord, PLAN_CACHE_CAPACITY};
use netrel_core::{
    combine_semantics_plan, exact_semantics_part, part_s2bdd_config, sample_semantics_part,
    solve_semantics_part, BitSamplingConfig, PartComputation, ProConfig, ProResult, SamplingConfig,
    SemPart, WorldBank, DHOP_EXACT_EDGE_LIMIT,
};
use netrel_engine::{
    plan_part, Engine, EngineConfig, GraphId, IndexPatch, PartSolver, PlanBudget, PlanCache,
    PlanKey, Route,
};
use netrel_numeric::{normal_ci, ConfidenceInterval};
use netrel_preprocess::{patch_update_prob, GraphIndex};
use netrel_s2bdd::{S2BddConfig, S2BddResult};
use netrel_ugraph::UncertainGraph;
use std::collections::HashMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// What the replay needs from the timed run.
pub struct Input<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub graphs: &'a [(&'static str, UncertainGraph)],
    pub records: &'a [LineRecord],
    pub replies: &'a [Option<Reply>],
    /// The untimed warm-up lines the service answered before the loop.
    pub warmup: &'a [LineRecord],
    pub prefix_lines: usize,
    pub service_wall: Duration,
    pub executor_before: ExecutorScrape,
    pub executor_after: ExecutorScrape,
    /// Dataset-generation seconds of each set-up.
    pub generate_s: Vec<f64>,
}

/// Per-layer metrics plus every line whose replay disagreed.
pub struct Output {
    pub metrics: Vec<Metric>,
    pub mismatches: Vec<String>,
}

const NO_PARENT: u32 = u32::MAX;

/// One call into a layer.
struct Span {
    name: &'static str,
    req: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; written out when the replay ends.
struct Tracer {
    anchor: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            anchor: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id as u32);
        id
    }

    fn end(&mut self) -> usize {
        let id = self.open.pop().expect("a span is open") as usize;
        self.spans[id].end_ns = self.now();
        id
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
        self.begin(name);
        let out = f();
        (out, self.end())
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    fn write(&self, path: &std::path::Path, self_ns: &[u64]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"req\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Counts over the determinism prefix (they repeat exactly per seed) and
/// per-call samples over every replayed line.
#[derive(Default)]
struct Acc {
    queries: u64,
    parts: u64,
    routes: [u64; 5],
    cache_hits: u64,
    cache_lookups: u64,
    s2bdd_nodes: u64,
    s2bdd_peak_width: u64,
    s2bdd_deleted: u64,
    s2bdd_samples: u64,
    s2bdd_strata: u64,
    s2bdd_peak_bytes: u64,
    predicted_over_actual: Vec<f64>,
    mask_bytes: Vec<f64>,
    index_patched: u64,
    index_rebuilt: u64,
    response_bytes: Vec<f64>,
    /// Every line: S2BDD solve nanoseconds and nodes, for ns per node.
    s2bdd_ns_all: f64,
    s2bdd_nodes_all: f64,
    /// Every line: `WorldBank::part` nanoseconds, split by whether the
    /// call drew new worlds.
    draw_ns: Vec<f64>,
    reuse_ns: Vec<f64>,
}

/// Mirror of the engine's classic-path dispatch for one part (the
/// one-shot pipeline's `solve_semantics_part` split made explicit).
fn classic_solver(part: &SemPart, base: S2BddConfig, part_index: usize) -> PartSolver {
    let cfg = part_s2bdd_config(base, part_index);
    match part.computation {
        PartComputation::Connectivity => PartSolver::S2Bdd(cfg),
        PartComputation::DHop { .. } if part.graph.num_edges() <= DHOP_EXACT_EDGE_LIMIT => {
            PartSolver::Enumeration
        }
        PartComputation::DHop { .. } => PartSolver::Sampling {
            samples: cfg.samples,
            estimator: cfg.estimator,
            seed: cfg.seed,
        },
    }
}

/// The confidence interval a planned answer carries (DESIGN.md §9): the
/// degenerate interval when exact, else the normal interval widened by the
/// rule-of-three slack of zero-variance sampled parts, clamped to the
/// proven bounds.
fn planned_ci(r: &ProResult, budget: &PlanBudget, value_cap: f64) -> ConfidenceInterval {
    if r.exact {
        let x = r.estimate.clamp(0.0, value_cap);
        return ConfidenceInterval {
            lower: x,
            upper: x,
            level: budget.confidence,
        };
    }
    let mut ci = if value_cap <= 1.0 {
        normal_ci(r.estimate, r.variance_estimate, budget.confidence)
    } else {
        let sd = if r.variance_estimate.is_finite() && r.variance_estimate > 0.0 {
            r.variance_estimate.sqrt()
        } else {
            0.0
        };
        let half = budget.confidence.z() * sd;
        ConfidenceInterval {
            lower: (r.estimate - half).clamp(0.0, value_cap),
            upper: (r.estimate + half).clamp(0.0, value_cap),
            level: budget.confidence,
        }
    };
    let slack: f64 = r
        .parts
        .iter()
        .filter(|p| !p.exact && p.samples_used > 0 && p.variance_estimate <= 0.0)
        .map(|p| 3.0 / p.samples_used as f64)
        .sum();
    if slack > 0.0 {
        ci.lower = (ci.lower - slack).max(0.0);
        ci.upper = (ci.upper + slack).min(value_cap);
    }
    ci.clamp_to(r.lower_bound, r.upper_bound)
}

fn route_slot(route: Route, solver: PartSolver) -> usize {
    match (route, solver) {
        (_, PartSolver::Enumeration) => 4,
        (Route::Exact, _) => 0,
        (Route::Bounded, _) => 1,
        (Route::Sampling, _) => 2,
        (Route::BitSampling, _) => 3,
    }
}

/// The per-query solver config the protocol derives from a query line.
fn s2bdd_config(q: &QueryReq) -> S2BddConfig {
    let mut cfg = S2BddConfig::default();
    if let Some(w) = q.width {
        cfg.max_width = w;
    }
    if let Some(s) = q.samples {
        cfg.samples = s;
    }
    if let Some(seed) = q.seed {
        cfg.seed = seed;
    }
    cfg
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// A replayed query: the combined result and, when planned, its CI.
type Replayed = (ProResult, Option<ConfidenceInterval>);

impl State {
    /// Replay one query line through the layers, in the engine's order.
    fn query(
        &mut self,
        q: &QueryReq,
        tracer: &mut Tracer,
        acc: &mut Acc,
        in_prefix: bool,
    ) -> Result<Replayed, String> {
        let graph = self
            .engine
            .graph(self.ids[q.graph])
            .expect("registered graph");
        let (index, cache, bank) = (&self.indexes[q.graph], &mut self.cache, &self.bank);
        let cfg = ProConfig {
            s2bdd: s2bdd_config(q),
            ..Default::default()
        };
        let (plan, _) = tracer.time("semantics.plan", || {
            q.semantics
                .semantics()
                .plan(graph, index, &q.terminals, cfg.preprocess)
        });
        let plan = plan.map_err(|e| e.to_string())?;
        let n = plan.parts.len();
        if in_prefix {
            acc.parts += n as u64;
        }

        // Routing: the planner on planned lines, the classic dispatch else.
        let budget = PlanBudget::default();
        let part_budget = budget.for_parts(n);
        let mut solvers = Vec::with_capacity(n);
        let mut predicted = Vec::with_capacity(n);
        for (pi, part) in plan.parts.iter().enumerate() {
            if q.planned {
                let (p, _) = tracer.time("planner.plan_part", || {
                    plan_part(part, cfg.s2bdd, pi, &part_budget)
                });
                if in_prefix {
                    acc.routes[route_slot(p.route, p.solver)] += 1;
                }
                solvers.push(p.solver);
                predicted.push(Some(p.estimate.predicted_nodes));
            } else {
                let (s, _) =
                    tracer.time("planner.plan_part", || classic_solver(part, cfg.s2bdd, pi));
                solvers.push(s);
                predicted.push(None);
            }
        }

        // Keys, lookups and in-line dedup of identical parts.
        let mut keys = Vec::with_capacity(n);
        let mut sources: Vec<Result<S2BddResult, usize>> = Vec::with_capacity(n);
        let mut jobs: Vec<usize> = Vec::new();
        let mut job_ids: HashMap<PlanKey, usize> = HashMap::new();
        for (pi, part) in plan.parts.iter().enumerate() {
            let ((key, hit), _) = tracer.time("cache.lookup", || {
                let key = PlanKey::for_part(part, solvers[pi]);
                let hit = cache.get(&key);
                (key, hit)
            });
            if in_prefix {
                acc.cache_lookups += 1;
                acc.cache_hits += hit.is_some() as u64;
            }
            match hit {
                Some(r) => sources.push(Ok(r)),
                None => {
                    let job = *job_ids.entry(key.clone()).or_insert_with(|| {
                        jobs.push(pi);
                        jobs.len() - 1
                    });
                    sources.push(Err(job));
                }
            }
            keys.push(key);
        }

        // The routed solvers, one call per distinct missed part.
        let mut solved: Vec<Result<S2BddResult, String>> = Vec::with_capacity(jobs.len());
        for &pi in &jobs {
            let part = &plan.parts[pi];
            let result = solve(part, solvers[pi], bank, tracer, acc);
            if in_prefix {
                if let (Ok(r), PartSolver::S2Bdd(_), PartComputation::Connectivity) =
                    (&result, solvers[pi], part.computation)
                {
                    acc.s2bdd_nodes += r.nodes_created as u64;
                    acc.s2bdd_peak_width = acc.s2bdd_peak_width.max(r.peak_width as u64);
                    acc.s2bdd_deleted += r.deleted_nodes as u64;
                    acc.s2bdd_samples += r.samples_used as u64;
                    acc.s2bdd_strata += r.strata as u64;
                    acc.s2bdd_peak_bytes = acc.s2bdd_peak_bytes.max(r.peak_memory_bytes as u64);
                    if let Some(p) = predicted[pi] {
                        if r.nodes_created > 0 && p < usize::MAX {
                            acc.predicted_over_actual
                                .push(p as f64 / r.nodes_created as f64);
                        }
                    }
                }
                if let PartSolver::BitSampling { samples, .. } = solvers[pi] {
                    acc.mask_bytes.push(
                        (part.graph.num_edges() * netrel_core::bitsample::lane_blocks(samples) * 8)
                            as f64,
                    );
                }
            }
            solved.push(result);
        }
        tracer.time("cache.insert", || {
            for (j, &pi) in jobs.iter().enumerate() {
                if let Ok(r) = &solved[j] {
                    cache.insert(keys[pi].clone(), r.clone(), q.graph);
                }
            }
        });

        let parts = sources
            .into_iter()
            .map(|s| match s {
                Ok(r) => Ok(r),
                Err(j) => solved[j].clone(),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let (pro, _) = tracer.time("semantics.combine", || combine_semantics_plan(&plan, parts));
        let ci = q
            .planned
            .then(|| planned_ci(&pro, &budget, q.semantics.semantics().value_upper(graph)));
        Ok((pro, ci))
    }
}

/// One routed solver call, as the engine's executor makes it.
fn solve(
    part: &SemPart,
    solver: PartSolver,
    bank: &WorldBank,
    tracer: &mut Tracer,
    acc: &mut Acc,
) -> Result<S2BddResult, String> {
    let ns = |t: &Tracer, id: usize| (t.spans[id].end_ns - t.spans[id].start_ns) as f64;
    let result = match solver {
        PartSolver::S2Bdd(cfg) if part.computation == PartComputation::Connectivity => {
            let (r, id) = tracer.time("s2bdd.solve", || solve_semantics_part(part, cfg));
            if let Ok(r) = &r {
                acc.s2bdd_ns_all += ns(tracer, id);
                acc.s2bdd_nodes_all += r.nodes_created as f64;
            }
            r
        }
        PartSolver::S2Bdd(cfg) => {
            tracer
                .time("dhop.solve", || solve_semantics_part(part, cfg))
                .0
        }
        PartSolver::Enumeration => {
            tracer
                .time("enumeration.solve", || exact_semantics_part(part))
                .0
        }
        PartSolver::Sampling {
            samples,
            estimator,
            seed,
        } => {
            let cfg = SamplingConfig {
                samples,
                estimator,
                seed,
                threads: 1,
            };
            tracer
                .time("sampling.solve", || sample_semantics_part(part, cfg))
                .0
        }
        PartSolver::BitSampling { samples, seed } => {
            let cfg = BitSamplingConfig {
                samples,
                seed,
                threads: 1,
            };
            let before = bank.len();
            let (r, id) = tracer.time("bitsample.part", || bank.part(part, cfg));
            // A call that installed a new mask matrix changed the bank.
            if bank.len() != before {
                acc.draw_ns.push(ns(tracer, id));
            } else {
                acc.reuse_ns.push(ns(tracer, id));
            }
            r
        }
    };
    result.map_err(|e| e.to_string())
}

/// The benchmark-owned copy of the served state: graph copies in an engine
/// (for writes), one index per graph, a plan cache and a world bank.
struct State {
    engine: Engine,
    ids: Vec<GraphId>,
    indexes: Vec<GraphIndex>,
    cache: PlanCache,
    bank: WorldBank,
}

impl State {
    /// Replay one line and compare it with the service's reply; returns
    /// the plans a write dropped.
    fn line(
        &mut self,
        i: usize,
        rec: &LineRecord,
        reply: Option<&Reply>,
        tracer: &mut Tracer,
        acc: &mut Acc,
        in_prefix: bool,
    ) -> Result<Option<u64>, String> {
        let (parsed, _) = tracer.time("service.parse", || {
            serde_json::from_str::<serde::Value>(&rec.line)
        });
        if parsed.is_err() {
            return Err(format!("line {i}: the replay could not parse its own line"));
        }
        match &rec.req {
            Request::Query(q) => {
                if in_prefix {
                    acc.queries += 1;
                    acc.response_bytes.push(rec.response.len() as f64);
                }
                let (pro, ci) = self
                    .query(q, tracer, acc, in_prefix)
                    .map_err(|e| format!("line {i}: replay failed: {e}"))?;
                let Some(Reply::Query(a)) = reply else {
                    return Err(format!("line {i}: no service answer to compare"));
                };
                let ci_same = match (ci, a.ci) {
                    (Some(c), Some((lo, hi))) => same(c.lower, lo) && same(c.upper, hi),
                    (None, None) => true,
                    _ => false,
                };
                if !(same(pro.estimate, a.estimate)
                    && same(pro.lower_bound, a.lower)
                    && same(pro.upper_bound, a.upper)
                    && pro.exact == a.exact
                    && ci_same)
                {
                    return Err(format!(
                        "line {i}: replayed answer {:e} [{:e}, {:e}] differs from the service's {:e} [{:e}, {:e}]",
                        pro.estimate, pro.lower_bound, pro.upper_bound, a.estimate, a.lower, a.upper
                    ));
                }
                Ok(None)
            }
            Request::UpdateProb { graph, edge, p } => {
                let id = self.ids[*graph];
                let old_bits = self
                    .engine
                    .graph(id)
                    .filter(|g| *edge < g.num_edges())
                    .map_or(0, |g| g.prob(*edge).to_bits());
                let engine = &mut self.engine;
                let (outcome, _) =
                    tracer.time("mutate.apply", || engine.update_edge_prob(id, *edge, *p));
                let outcome =
                    outcome.map_err(|e| format!("line {i}: replayed write failed: {e}"))?;
                let rebuilt = matches!(outcome.patch, IndexPatch::Rebuilt);
                if rebuilt {
                    let g = self.engine.graph(id).expect("registered graph");
                    self.indexes[*graph] = tracer
                        .time("preprocess.index_build", || GraphIndex::build(g))
                        .0;
                } else {
                    patch_update_prob(&mut self.indexes[*graph]);
                }
                let (cache, bank) = (&mut self.cache, &self.bank);
                let (dropped, _) = tracer.time("cache.invalidate", || {
                    bank.invalidate_prob(old_bits);
                    cache.invalidate_prob(*graph, old_bits)
                });
                if in_prefix {
                    acc.index_patched += !rebuilt as u64;
                    acc.index_rebuilt += rebuilt as u64;
                }
                let Some(Reply::Write(w)) = reply else {
                    return Err(format!("line {i}: no service write outcome to compare"));
                };
                if w.invalidated_plans != dropped as u64 || w.rebuilt != rebuilt {
                    return Err(format!(
                        "line {i}: replayed write dropped {dropped} plans (index rebuilt: {rebuilt}), the service {} ({})",
                        w.invalidated_plans, w.rebuilt
                    ));
                }
                Ok(Some(w.invalidated_plans))
            }
        }
    }
}

/// Replay the warm-up lines (untraced: they bring the benchmark's cache
/// and world bank to the service's state), then every timed line,
/// compare, and compute the per-layer metrics.
pub fn run(input: Input<'_>) -> Output {
    let mut mismatches = Vec::new();
    let mut engine = Engine::new(EngineConfig {
        plan_cache_capacity: 0,
        workers: 1,
    });
    let ids: Vec<GraphId> = input
        .graphs
        .iter()
        .map(|(name, g)| engine.register(*name, g.clone()))
        .collect();
    let mut index_build_s = 0.0;
    let mut indexes: Vec<GraphIndex> = Vec::new();
    for (_, g) in input.graphs {
        let mut times = Vec::new();
        let mut built = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            built = Some(GraphIndex::build(g));
            times.push(t0.elapsed().as_secs_f64());
        }
        index_build_s += median(times);
        indexes.push(built.expect("built at least once"));
    }
    let mut state = State {
        engine,
        ids,
        indexes,
        cache: PlanCache::new(PLAN_CACHE_CAPACITY),
        bank: WorldBank::new(),
    };

    let (mut scratch_tracer, mut scratch_acc) = (Tracer::new(), Acc::default());
    for (i, rec) in input.warmup.iter().enumerate() {
        let reply = crate::check::read_reply(&rec.req, &rec.response).ok();
        if let Err(e) = state.line(
            i,
            rec,
            reply.as_ref(),
            &mut scratch_tracer,
            &mut scratch_acc,
            false,
        ) {
            mismatches.push(format!("warm-up {e}"));
        }
    }

    let mut tracer = Tracer::new();
    let mut acc = Acc::default();
    let mut invalidated: Vec<f64> = Vec::new();
    let replay_start = Instant::now();
    for (i, (rec, reply)) in input.records.iter().zip(input.replies).enumerate() {
        tracer.req = i as u32;
        tracer.begin("request");
        match state.line(
            i,
            rec,
            reply.as_ref(),
            &mut tracer,
            &mut acc,
            i < input.prefix_lines,
        ) {
            Ok(Some(dropped)) => invalidated.push(dropped as f64),
            Ok(None) => {}
            Err(e) => mismatches.push(e),
        }
        tracer.end();
    }
    let replay_wall = replay_start.elapsed();

    // Self time per layer.
    let self_ns = tracer.self_ns();
    let mut by_layer: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for (s, own) in tracer.spans.iter().zip(&self_ns) {
        by_layer.entry(s.name).or_default().push(*own as f64);
    }
    let layer_median = |name: &str| by_layer.get(name).map_or(0.0, |v| median(v.clone()));

    // Executor, from the served engine's own metrics over the timed loop.
    let (b, a) = (input.executor_before, input.executor_after);
    let waits = a.waits - b.waits;
    let queue_wait_ms = if waits == 0 {
        0.0
    } else {
        (a.wait_s - b.wait_s) / waits as f64 * 1e3
    };
    let busy_s = a.busy_s - b.busy_s;
    let busy_ratio = busy_s / (WORKERS as f64 * input.service_wall.as_secs_f64());

    let line_ms: Vec<f64> = input
        .records
        .iter()
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    let c = &acc;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let metrics = vec![
        Metric::new(
            "datasets.generate_ms",
            median(input.generate_s.clone()) * 1e3,
            "ms",
        ),
        Metric::new("preprocess.index_build_ms", index_build_s * 1e3, "ms"),
        Metric::new(
            "preprocess.parts_per_query",
            ratio(c.parts, c.queries),
            "count",
        ),
        Metric::new(
            "semantics.plan_ms",
            layer_median("semantics.plan") / 1e6,
            "ms",
        ),
        Metric::new(
            "semantics.combine_us",
            layer_median("semantics.combine") / 1e3,
            "us",
        ),
        Metric::new(
            "planner.plan_part_us",
            layer_median("planner.plan_part") / 1e3,
            "us",
        ),
        Metric::new("planner.routes.exact", c.routes[0] as f64, "count"),
        Metric::new("planner.routes.bounded", c.routes[1] as f64, "count"),
        Metric::new("planner.routes.sampling", c.routes[2] as f64, "count"),
        Metric::new("planner.routes.bit_sampling", c.routes[3] as f64, "count"),
        Metric::new("planner.routes.enumeration", c.routes[4] as f64, "count"),
        Metric::new(
            "planner.predicted_over_actual_nodes",
            median(c.predicted_over_actual.clone()),
            "ratio",
        ),
        Metric::new("cache.lookup_us", layer_median("cache.lookup") / 1e3, "us"),
        Metric::new(
            "cache.hit_ratio",
            ratio(c.cache_hits, c.cache_lookups),
            "ratio",
        ),
        Metric::new("cache.invalidated_per_write", mean(&invalidated), "count"),
        Metric::new("executor.queue_wait_ms", queue_wait_ms, "ms"),
        Metric::new("executor.busy_ratio", busy_ratio, "ratio"),
        Metric::new("s2bdd.solve_ms", layer_median("s2bdd.solve") / 1e6, "ms"),
        Metric::new("s2bdd.nodes_created", c.s2bdd_nodes as f64, "count"),
        Metric::new("s2bdd.peak_width", c.s2bdd_peak_width as f64, "count"),
        Metric::new("s2bdd.deleted_nodes", c.s2bdd_deleted as f64, "count"),
        Metric::new("s2bdd.samples_used", c.s2bdd_samples as f64, "count"),
        Metric::new("s2bdd.strata", c.s2bdd_strata as f64, "count"),
        Metric::new(
            "s2bdd.ns_per_node",
            if c.s2bdd_nodes_all > 0.0 {
                c.s2bdd_ns_all / c.s2bdd_nodes_all
            } else {
                0.0
            },
            "ns",
        ),
        Metric::new("s2bdd.peak_layer_bytes", c.s2bdd_peak_bytes as f64, "bytes"),
        Metric::new(
            "bitsample.draw_part_ms",
            median(c.draw_ns.clone()) / 1e6,
            "ms",
        ),
        Metric::new(
            "bitsample.reuse_part_ms",
            median(c.reuse_ns.clone()) / 1e6,
            "ms",
        ),
        Metric::new(
            "bitsample.bank_hit_ratio",
            ratio(
                c.reuse_ns.len() as u64,
                (c.reuse_ns.len() + c.draw_ns.len()) as u64,
            ),
            "ratio",
        ),
        Metric::new("bitsample.mask_bytes", mean(&c.mask_bytes), "bytes"),
        Metric::new("mutate.apply_us", layer_median("mutate.apply") / 1e3, "us"),
        Metric::new("mutate.index_patched", c.index_patched as f64, "count"),
        Metric::new("mutate.index_rebuilt", c.index_rebuilt as f64, "count"),
        Metric::new("service.line_ms", median(line_ms), "ms"),
        Metric::new(
            "service.parse_us",
            layer_median("service.parse") / 1e3,
            "us",
        ),
        Metric::new("service.response_bytes", mean(&c.response_bytes), "bytes"),
        Metric::new(
            "obs.trace_overhead_ratio",
            replay_wall.as_secs_f64() / input.service_wall.as_secs_f64(),
            "ratio",
        ),
    ];

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!(
            "{}-seed{}.jsonl",
            input.workload.name(),
            input.seed
        ));
    if let Err(e) = tracer.write(&path, &self_ns) {
        eprintln!(
            "netrel-servicebench: could not write {}: {e}",
            path.display()
        );
    }
    Output {
        metrics,
        mismatches,
    }
}
