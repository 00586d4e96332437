//! The three workloads: their graphs, their warm-up lines, and the seeded
//! request stream each one sends.
//!
//! What the workload is stays fixed from run to run, like a dataset: the
//! graphs are the repository's default-seed instances, and the `road-cold`
//! terminal-set sequence, the `hot-mixed-rw` hot pairs and the order in
//! which `hot-mixed-rw` writes visit the road edges are drawn from the
//! same dataset seed. The run seed draws the traffic on top: the solver
//! seed of every `road-cold` query, the `dense-sampled` pair order and
//! fresh seeds, and the `hot-mixed-rw` read order and written
//! probabilities.
//!
//! The `road-cold` terminal sets are fixed because their cost is not: one
//! set's S2BDD stops after 30 layers, the next after 650, and no cheap
//! property of the set predicts which. Drawing the sets per seed moved the
//! median latency of a 100-query run by ±40% between seeds, far beyond any
//! bound a change could be judged by.

use netrel_core::SemanticsSpec;
use netrel_datasets::{clique, Dataset};
use netrel_ugraph::traversal::connected_components;
use netrel_ugraph::UncertainGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Seed of the dataset generators (the repository's default `--seed`).
pub const DATASET_SEED: u64 = 7;

/// Scale of the synthetic road and co-author graphs (≈1296 / ≈1294 vertices).
pub const DATASET_SCALE: f64 = 0.05;

/// Engine worker threads, fixed rather than probed so runs on any machine
/// share one executor shape.
pub const WORKERS: usize = 2;

/// The benchmark's workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Planned queries on the road graph, every terminal set new.
    RoadCold,
    /// Planned k-terminal and d-hop pairs on two cliques, sampled.
    DenseSampled,
    /// Hot pairs on two graphs, classic and planned reads, prob writes.
    HotMixedRw,
}

impl Workload {
    /// Every workload, in the order `--help` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::RoadCold,
        Workload::DenseSampled,
        Workload::HotMixedRw,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RoadCold => "road-cold",
            Workload::DenseSampled => "dense-sampled",
            Workload::HotMixedRw => "hot-mixed-rw",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Query lines every run times at least, and over which the
    /// determinism record (digest and exact-repeat counts) is taken.
    pub fn prefix_queries(self) -> usize {
        match self {
            Workload::RoadCold => 200,
            Workload::DenseSampled => 7200,
            Workload::HotMixedRw => 400,
        }
    }

    /// Full set-ups per run, before and after the timed loop; `setup_s` is
    /// their median. Fewer where one set-up (warming 40 hot plan-cache
    /// entries) takes seconds, more where one takes milliseconds.
    pub fn setup_reps(self) -> (usize, usize) {
        match self {
            Workload::RoadCold => (3, 3),
            Workload::DenseSampled => (8, 8),
            Workload::HotMixedRw => (1, 1),
        }
    }

    /// The workload's graphs, named as the `register` lines name them.
    pub fn graphs(self) -> Vec<(&'static str, UncertainGraph)> {
        match self {
            Workload::RoadCold => vec![("tokyo", tokyo())],
            Workload::DenseSampled => vec![("clique55", clique(55)), ("clique80", clique(80))],
            Workload::HotMixedRw => vec![
                ("tokyo", tokyo()),
                (
                    "dblp1",
                    Dataset::Dblp1.generate(DATASET_SCALE, DATASET_SEED),
                ),
            ],
        }
    }
}

fn tokyo() -> UncertainGraph {
    Dataset::Tokyo.generate(DATASET_SCALE, DATASET_SEED)
}

/// One query as the client sends it.
#[derive(Clone, Debug)]
pub struct QueryReq {
    /// Index into the workload's graph list.
    pub graph: usize,
    /// Terminal vertices.
    pub terminals: Vec<usize>,
    /// Query semantics (k-terminal or d-hop).
    pub semantics: SemanticsSpec,
    /// `"plan": true` (adaptive planner) or the classic path.
    pub planned: bool,
    /// Classic-path width knob.
    pub width: Option<usize>,
    /// Classic-path sample knob.
    pub samples: Option<usize>,
    /// Explicit solver seed (otherwise the protocol default).
    pub seed: Option<u64>,
}

/// One request line of the closed loop.
#[derive(Clone, Debug)]
pub enum Request {
    /// A `query` line.
    Query(QueryReq),
    /// A `mutate` line carrying one `update_prob`.
    UpdateProb {
        /// Index into the workload's graph list.
        graph: usize,
        /// Edge id.
        edge: usize,
        /// New probability.
        p: f64,
    },
}

impl Request {
    /// The NDJSON line for this request.
    pub fn line(&self, names: &[&str]) -> String {
        let mut s = String::with_capacity(128);
        match self {
            Request::Query(q) => {
                let _ = write!(
                    s,
                    r#"{{"op":"query","graph":"{}","terminals":["#,
                    names[q.graph]
                );
                for (i, t) in q.terminals.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{t}");
                }
                s.push(']');
                if let SemanticsSpec::DHop { d } = q.semantics {
                    let _ = write!(s, r#","semantics":"d-hop","d":{d}"#);
                }
                if q.planned {
                    s.push_str(r#","plan":true"#);
                }
                if let Some(w) = q.width {
                    let _ = write!(s, r#","width":{w}"#);
                }
                if let Some(n) = q.samples {
                    let _ = write!(s, r#","samples":{n}"#);
                }
                if let Some(seed) = q.seed {
                    let _ = write!(s, r#","seed":{seed}"#);
                }
                s.push('}');
            }
            Request::UpdateProb { graph, edge, p } => {
                let _ = write!(
                    s,
                    r#"{{"op":"mutate","graph":"{}","mutations":[{{"kind":"update_prob","edge":{edge},"p":{p}}}]}}"#,
                    names[*graph]
                );
            }
        }
        s
    }
}

/// The `register` line for one graph.
pub fn register_line(name: &str, g: &UncertainGraph) -> String {
    let mut s = String::with_capacity(32 * g.num_edges() + 64);
    let _ = write!(
        s,
        r#"{{"op":"register","name":"{name}","vertices":{},"edges":["#,
        g.num_vertices()
    );
    for (i, e) in g.edges().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{},{},{}]", e.u, e.v, e.p);
    }
    s.push_str("]}");
    s
}

/// Classic-path knobs of `hot-mixed-rw` reads.
const CLASSIC_WIDTH: usize = 32;
const CLASSIC_SAMPLES: usize = 2000;

/// Hot terminal pairs per graph on `hot-mixed-rw`.
const HOT_PAIRS: usize = 10;

/// One line in this many on `hot-mixed-rw` is a write.
const WRITE_EVERY: usize = 10;

/// Clique sizes of the two `dense-sampled` graphs.
const CLIQUES: [usize; 2] = [55, 80];

/// The `dense-sampled` kinds, (graph, semantics), rotating line by line:
/// kind `k` is graph `k % 2`, k-terminal for `k < 2` and d-hop otherwise.
const DENSE_KINDS: usize = 4;

/// One `dense-sampled` line in this many carries a fresh seed. Not 10: the
/// fresh lines are the slowest, so with one in ten the p90 would fall on
/// the boundary between reused and fresh draws and flip between them.
const FRESH_SEED_EVERY: usize = 2 * DENSE_KINDS;

/// Strata per terminal-set kind on `road-cold`: each stratum is one slice
/// of the vertex range, visited once per `STRATA` queries of that kind,
/// so every run spreads its terminals over the whole map.
const STRATA: usize = 50;

/// The seeded request stream of one workload, plus its warm-up lines.
pub struct Traffic {
    workload: Workload,
    /// Draws from the run seed.
    rng: StdRng,
    /// Draws from the dataset seed (the `road-cold` terminal sets and the
    /// `hot-mixed-rw` write order).
    design: StdRng,
    sent: usize,
    kind: Vec<Shuffled>,
    road: Option<RoadShape>,
    hot: Vec<Vec<Vec<usize>>>,
    /// Every vertex pair of each `dense-sampled` clique.
    clique_pairs: Vec<Vec<[usize; 2]>>,
    /// Per `dense-sampled` kind: a seeded order over its clique's pairs,
    /// walked round and round, so a pair repeats only after all the others.
    pair_order: Vec<Shuffled>,
    /// The order in which `hot-mixed-rw` writes visit the road edges.
    write_order: Shuffled,
    /// Per (graph, path) of `hot-mixed-rw` reads: a seeded order over the
    /// hot pairs, so each pair is read equally often.
    hot_order: Vec<Shuffled>,
    /// The road graph's original edge probabilities, which writes nudge.
    road_probs: Vec<f64>,
    seen: BTreeSet<Vec<usize>>,
}

/// A seeded shuffle of `0..n`, handed out one entry at a time
/// ([`next_in_order`]).
#[derive(Default)]
struct Shuffled {
    order: Vec<usize>,
    next: usize,
}

/// What `road-cold` draws terminals from.
struct RoadShape {
    side: usize,
    /// Vertices of the largest connected component, ascending.
    members: Vec<usize>,
}

impl Traffic {
    /// The stream of `workload` under `seed`, over the given graphs.
    pub fn new(workload: Workload, seed: u64, graphs: &[(&str, UncertainGraph)]) -> Self {
        let rng = StdRng::seed_from_u64(seed ^ 0x5e55_1ce0_be4c_0001);
        let mut road = None;
        let mut hot = Vec::new();
        let mut road_probs = Vec::new();
        let mut clique_pairs = Vec::new();
        match workload {
            Workload::RoadCold => {
                let g = &graphs[0].1;
                road = Some(RoadShape {
                    side: (g.num_vertices() as f64).sqrt() as usize,
                    members: largest_component(g),
                });
            }
            Workload::DenseSampled => {
                clique_pairs = CLIQUES
                    .iter()
                    .map(|&n| {
                        (0..n)
                            .flat_map(|a| (a + 1..n).map(move |b| [a, b]))
                            .collect()
                    })
                    .collect();
            }
            Workload::HotMixedRw => {
                road_probs = graphs[0].1.edges().iter().map(|e| e.p).collect();
                // The hot set is part of the workload, like its graphs:
                // drawn once from the dataset seed, so every run serves the
                // same hot entries and the run seed picks the access order
                // and the writes.
                let mut hot_rng = StdRng::seed_from_u64(DATASET_SEED);
                hot = graphs
                    .iter()
                    .map(|(_, g)| hot_pairs(&largest_component(g), &mut hot_rng))
                    .collect();
            }
        }
        Traffic {
            workload,
            rng,
            design: StdRng::seed_from_u64(DATASET_SEED),
            sent: 0,
            kind: vec![Shuffled::default(), Shuffled::default()],
            road,
            hot_order: (0..2 * hot.len()).map(|_| Shuffled::default()).collect(),
            hot,
            clique_pairs,
            pair_order: (0..DENSE_KINDS).map(|_| Shuffled::default()).collect(),
            write_order: Shuffled::default(),
            road_probs,
            seen: BTreeSet::new(),
        }
    }

    /// Untimed lines sent before the closed loop: they touch every code
    /// path once and, on `dense-sampled` and `hot-mixed-rw`, fill the world
    /// bank and the plan cache with what the timed traffic reuses.
    pub fn warmup(&mut self) -> Vec<Request> {
        match self.workload {
            // Terminal sets drawn from the stream itself are marked seen,
            // so the timed traffic never repeats them.
            Workload::RoadCold => (0..4).map(|_| self.next_request()).collect(),
            Workload::DenseSampled => {
                let mut out = Vec::new();
                for graph in 0..2 {
                    for semantics in [SemanticsSpec::KTerminal, SemanticsSpec::DHop { d: 2 }] {
                        out.push(Request::Query(QueryReq {
                            graph,
                            terminals: vec![0, 1],
                            semantics,
                            planned: true,
                            width: None,
                            samples: None,
                            seed: None,
                        }));
                    }
                }
                out
            }
            Workload::HotMixedRw => {
                let mut out = Vec::new();
                for (graph, pairs) in self.hot.iter().enumerate() {
                    for pair in pairs {
                        for planned in [false, true] {
                            out.push(Request::Query(hot_read(graph, pair.clone(), planned)));
                        }
                    }
                }
                out
            }
        }
    }

    /// The next line of the timed closed loop.
    pub fn next_request(&mut self) -> Request {
        let i = self.sent;
        self.sent += 1;
        match self.workload {
            Workload::RoadCold => Request::Query(self.road_query(i % 2)),
            Workload::DenseSampled => {
                // The kinds rotate, so every run sends the same mix. Each
                // kind walks its clique's pairs round and round in one
                // seeded order, so every line misses the plan cache (a pair
                // comes back only after more than the cache's capacity of
                // other lines) and the work per line stays the same through
                // the run.
                let kind = i % DENSE_KINDS;
                let graph = kind % 2;
                let semantics = if kind < 2 {
                    SemanticsSpec::KTerminal
                } else {
                    SemanticsSpec::DHop { d: 2 }
                };
                let pairs = &self.clique_pairs[graph];
                let slot = next_in_cycle(&mut self.pair_order[kind], pairs.len(), &mut self.rng);
                let [a, b] = pairs[slot];
                // The fresh line of each block of `FRESH_SEED_EVERY` lines
                // belongs to each kind in turn.
                let block = i / FRESH_SEED_EVERY;
                let seed = (i % FRESH_SEED_EVERY == DENSE_KINDS + block % DENSE_KINDS)
                    .then(|| self.rng.gen::<u64>() >> 11);
                Request::Query(QueryReq {
                    graph,
                    terminals: vec![a, b],
                    semantics,
                    planned: true,
                    width: None,
                    samples: None,
                    seed,
                })
            }
            Workload::HotMixedRw => {
                if i % WRITE_EVERY == WRITE_EVERY - 1 {
                    // Every run writes the same edges, in an order drawn
                    // once from the dataset seed over all road edges: which
                    // edge is written decides how much the next reads
                    // re-solve, so drawing the edges per run seed would
                    // make the cost of a run a lottery.
                    let edge = next_in_order(
                        &mut self.write_order,
                        self.road_probs.len(),
                        &mut self.design,
                    );
                    // A live update: within ±10% of the edge's original
                    // probability, to four decimals, so the graph stays
                    // near its original state and the cost of re-solving
                    // it stays the same through the run.
                    let nudge = self.rng.gen_range(900..=1100usize) as f64 / 1000.0;
                    let p = ((self.road_probs[edge] * nudge * 1e4).round() / 1e4).clamp(1e-4, 1.0);
                    return Request::UpdateProb { graph: 0, edge, p };
                }
                // Reads rotate over (graph, path) so every run sends the
                // same mix; the hot pair of each read is drawn.
                let reads = i - i / WRITE_EVERY;
                let graph = (reads / 2) % self.hot.len();
                let planned = reads % 2 == 1;
                let slot = next_in_order(
                    &mut self.hot_order[2 * graph + planned as usize],
                    HOT_PAIRS,
                    &mut self.rng,
                );
                Request::Query(hot_read(graph, self.hot[graph][slot].clone(), planned))
            }
        }
    }

    /// A `road-cold` query of `kind` (0: pair, 1: city block) whose
    /// terminal set the run has not sent before.
    fn road_query(&mut self, kind: usize) -> QueryReq {
        let road = self.road.as_ref().expect("road-cold has a road shape");
        let (side, members) = (road.side, road.members.clone());
        loop {
            let stratum = self.next_stratum(kind);
            let terminals = if kind == 0 {
                let a = members[pick(&mut self.design, stratum, members.len())];
                let b = members[self.design.gen_range(0..members.len())];
                if a == b {
                    continue;
                }
                vec![a.min(b), a.max(b)]
            } else {
                // A unit square of the row-major grid: `v`, `v+1`,
                // `v+side`, `v+side+1` (the block's top-left corner `v`
                // ranges over every vertex with a right and a lower
                // neighbour).
                let cell = pick(&mut self.design, stratum, (side - 1) * (side - 1));
                let v = (cell / (side - 1)) * side + cell % (side - 1);
                vec![v, v + 1, v + side, v + side + 1]
            };
            if self.seen.insert(terminals.clone()) {
                return QueryReq {
                    graph: 0,
                    terminals,
                    semantics: SemanticsSpec::KTerminal,
                    planned: true,
                    width: None,
                    samples: None,
                    seed: Some(self.rng.gen::<u64>() >> 11),
                };
            }
        }
    }

    /// The stratum the next query of `kind` draws from.
    fn next_stratum(&mut self, kind: usize) -> usize {
        next_in_order(&mut self.kind[kind], STRATA, &mut self.design)
    }
}

/// The next entry of a shuffled `0..n`, reshuffled after every `n` draws.
fn next_in_order(st: &mut Shuffled, n: usize, rng: &mut StdRng) -> usize {
    if st.next == st.order.len() {
        st.order = (0..n).collect();
        for j in (1..n).rev() {
            let k = rng.gen_range(0..=j);
            st.order.swap(j, k);
        }
        st.next = 0;
    }
    st.next += 1;
    st.order[st.next - 1]
}

/// The next entry of a seeded order over `0..n`, drawn once and then
/// repeated.
fn next_in_cycle(st: &mut Shuffled, n: usize, rng: &mut StdRng) -> usize {
    if st.order.is_empty() {
        return next_in_order(st, n, rng);
    }
    if st.next == st.order.len() {
        st.next = 0;
    }
    st.next += 1;
    st.order[st.next - 1]
}

/// A uniform index inside stratum `stratum` of `0..len`.
fn pick(rng: &mut StdRng, stratum: usize, len: usize) -> usize {
    let lo = stratum * len / STRATA;
    let hi = ((stratum + 1) * len / STRATA).max(lo + 1);
    rng.gen_range(lo..hi).min(len - 1)
}

fn hot_read(graph: usize, terminals: Vec<usize>, planned: bool) -> QueryReq {
    QueryReq {
        graph,
        terminals,
        semantics: SemanticsSpec::KTerminal,
        planned,
        width: (!planned).then_some(CLASSIC_WIDTH),
        samples: (!planned).then_some(CLASSIC_SAMPLES),
        seed: None,
    }
}

/// `HOT_PAIRS` distinct vertex pairs of one component.
fn hot_pairs(members: &[usize], rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut pairs = BTreeSet::new();
    while pairs.len() < HOT_PAIRS {
        let a = members[rng.gen_range(0..members.len())];
        let b = members[rng.gen_range(0..members.len())];
        if a != b {
            pairs.insert(vec![a.min(b), a.max(b)]);
        }
    }
    pairs.into_iter().collect()
}

/// Vertices of the largest connected component, ascending.
fn largest_component(g: &UncertainGraph) -> Vec<usize> {
    let (comp, num) = connected_components(g);
    let mut sizes = vec![0usize; num];
    for &c in &comp {
        sizes[c] += 1;
    }
    let biggest = (0..num)
        .max_by_key(|&c| (sizes[c], usize::MAX - c))
        .unwrap_or(0);
    (0..g.num_vertices())
        .filter(|&v| comp[v] == biggest)
        .collect()
}
