//! Rebuild-equivalence property suite (ISSUE 10, DESIGN.md §13).
//!
//! The headline guarantee of the mutation layer: after **any** sequence of
//! committed mutations, the mutated engine answers every query
//! bit-identically to a fresh engine registered with the mutated edge list
//! — across all five semantics, both solver routes (exact and sampling),
//! and any worker count. The incremental index patching, the scoped cache
//! invalidation, and the shared world bank are all behind this contract,
//! so a single surviving stale entry or a mis-patched bridge flag shows up
//! as a bit mismatch here.

use netrel_core::{ProConfig, SemanticsSpec};
use netrel_engine::{Engine, EngineConfig, Mutation, PlanBudget, Query, ReliabilityAnswer, Route};
use netrel_ugraph::UncertainGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The bit pattern of everything answer-affecting in a planned answer.
/// Cache telemetry (`cache_hits`/`cache_misses`) is deliberately excluded:
/// a mutated engine's warm cache and a fresh engine's cold one legitimately
/// differ there while the answer itself must not.
fn fingerprint(a: &ReliabilityAnswer) -> (u64, u64, u64, u64, u64, bool, u64) {
    (
        a.estimate.to_bits(),
        a.lower_bound.to_bits(),
        a.upper_bound.to_bits(),
        a.ci.unwrap().lower.to_bits(),
        a.ci.unwrap().upper.to_bits(),
        a.exact,
        a.samples_used as u64,
    )
}

/// Rebuild the engine-side graph from its mutated edge list, exactly as a
/// new client would register it.
fn fresh_copy(g: &UncertainGraph) -> UncertainGraph {
    UncertainGraph::new(g.num_vertices(), g.edges().iter().map(|e| (e.u, e.v, e.p))).unwrap()
}

/// One query per semantics, sized for an `n`-vertex graph.
fn all_semantics_queries(n: usize) -> Vec<Query> {
    let far = n - 1;
    [
        (SemanticsSpec::TwoTerminal, vec![0, far]),
        (SemanticsSpec::KTerminal, vec![0, 1, far]),
        (SemanticsSpec::AllTerminal, vec![]),
        (SemanticsSpec::DHop { d: 3 }, vec![0, far]),
        (SemanticsSpec::ReachSet, vec![0]),
    ]
    .into_iter()
    .map(|(spec, terminals)| {
        Query::with_semantics(spec, terminals, ProConfig::default()).planned(PlanBudget::default())
    })
    .collect()
}

/// Answer `queries` on `engine` and on a fresh engine registered with the
/// same (mutated) edge list; every slot must match bit for bit.
fn assert_matches_fresh(
    engine: &mut Engine,
    id: netrel_engine::GraphId,
    g: &UncertainGraph,
    queries: &[Query],
    what: &str,
) {
    let mut fresh = Engine::new(EngineConfig::default());
    let fid = fresh.register("fresh", fresh_copy(g));
    let mutated = engine.run_batch(id, queries).unwrap();
    let rebuilt = fresh.run_batch(fid, queries).unwrap();
    for (i, (m, f)) in mutated.into_iter().zip(rebuilt).enumerate() {
        match (m, f) {
            (Ok(m), Ok(f)) => assert_eq!(
                fingerprint(&m),
                fingerprint(&f),
                "{what}, query {i}: mutated {} vs fresh {}",
                m.estimate,
                f.estimate
            ),
            // Both engines must agree even on failure (e.g. a terminal
            // isolated by removals).
            (m, f) => assert_eq!(m.is_err(), f.is_err(), "{what}, query {i}"),
        }
    }
}

/// Pick a random applicable mutation for the current shadow graph, or
/// `None` when the draw is inapplicable (caller just skips the step).
fn random_mutation(rng: &mut StdRng, g: &UncertainGraph) -> Option<Mutation> {
    let n = g.num_vertices();
    match rng.gen_range(0..4u8) {
        0 | 1 if g.num_edges() > 0 => Some(Mutation::UpdateProb {
            edge: rng.gen_range(0..g.num_edges()),
            p: rng.gen_range(0.05..=1.0f64),
        }),
        2 => {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v || g.neighbors(u).iter().any(|&(w, _)| w == v) {
                return None;
            }
            Some(Mutation::AddEdge {
                u,
                v,
                p: rng.gen_range(0.05..=1.0f64),
            })
        }
        // Keep at least a spanning-tree's worth of edges so queries stay
        // mostly answerable; disconnection is still reachable (and must
        // then fail identically on both engines).
        3 if g.num_edges() > n => Some(Mutation::RemoveEdge {
            edge: rng.gen_range(0..g.num_edges()),
        }),
        _ => None,
    }
}

/// A connected random graph: a random spanning path plus density-`p`
/// chords, so every fixture starts answerable for every semantics.
fn random_graph(rng: &mut StdRng, n: usize, density: f64) -> UncertainGraph {
    let mut edges: Vec<(usize, usize, f64)> = (0..n - 1)
        .map(|i| (i, i + 1, rng.gen_range(0.05..=1.0f64)))
        .collect();
    for u in 0..n {
        for v in (u + 2)..n {
            if rng.gen_bool(density) {
                edges.push((u, v, rng.gen_range(0.05..=1.0f64)));
            }
        }
    }
    UncertainGraph::new(n, edges).unwrap()
}

/// Small sparse fixtures, exact route, all five semantics: every step of a
/// random mutation sequence answers bit-identically to a fresh rebuild.
#[test]
fn random_mutation_sequences_match_fresh_engines_exactly() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0xBEEF + seed);
        let n = rng.gen_range(4..10usize);
        let g = random_graph(&mut rng, n, 0.25);
        let queries = all_semantics_queries(n);

        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("live", g.clone());
        let mut shadow = g;
        for step in 0..10 {
            let Some(mutation) = random_mutation(&mut rng, &shadow) else {
                continue;
            };
            // The shadow tracks what the engine's graph must now equal.
            match mutation {
                Mutation::UpdateProb { edge, p } => {
                    shadow.update_edge_prob(edge, p).unwrap();
                }
                Mutation::AddEdge { u, v, p } => {
                    shadow.add_edge(u, v, p).unwrap();
                }
                Mutation::RemoveEdge { edge } => {
                    shadow.remove_edge(edge).unwrap();
                }
            }
            engine.apply_mutation(id, mutation).unwrap();
            assert_matches_fresh(
                &mut engine,
                id,
                &shadow,
                &queries,
                &format!("seed {seed} step {step} {mutation:?}"),
            );
        }
    }
}

/// Dense ~200-edge fixture: the planner routes to the bit-parallel
/// sampler, and the guarantee must hold there too — including across
/// worker counts (1 vs 8), since sampled answers are seeded per part, not
/// per thread.
#[test]
fn dense_mutated_graphs_match_fresh_engines_on_the_sampling_route() {
    let mut rng = StdRng::seed_from_u64(0xD0_5E);
    let n = 26;
    let g = random_graph(&mut rng, n, 0.55);
    assert!(
        (150..=220).contains(&g.num_edges()),
        "fixture drifted: {} edges",
        g.num_edges()
    );
    let queries: Vec<Query> = [vec![0, n - 1], vec![1, n / 2, n - 2]]
        .into_iter()
        .map(|t| {
            Query::with_semantics(SemanticsSpec::KTerminal, t, ProConfig::default())
                .planned(PlanBudget::default())
        })
        .collect();

    let mut seq = Engine::new(EngineConfig::sequential());
    let mut par = Engine::new(EngineConfig {
        workers: 8,
        ..EngineConfig::default()
    });
    let sid = seq.register("seq", g.clone());
    let pid = par.register("par", g.clone());
    let mut shadow = g;

    let mut sampled = false;
    for step in 0..6 {
        let Some(mutation) = random_mutation(&mut rng, &shadow) else {
            continue;
        };
        match mutation {
            Mutation::UpdateProb { edge, p } => {
                shadow.update_edge_prob(edge, p).unwrap();
            }
            Mutation::AddEdge { u, v, p } => {
                shadow.add_edge(u, v, p).unwrap();
            }
            Mutation::RemoveEdge { edge } => {
                shadow.remove_edge(edge).unwrap();
            }
        }
        seq.apply_mutation(sid, mutation).unwrap();
        par.apply_mutation(pid, mutation).unwrap();

        let mut fresh = Engine::new(EngineConfig {
            workers: 8,
            ..EngineConfig::default()
        });
        let fid = fresh.register("fresh", fresh_copy(&shadow));
        let a = seq.run_batch(sid, &queries).unwrap();
        let b = par.run_batch(pid, &queries).unwrap();
        let c = fresh.run_batch(fid, &queries).unwrap();
        for (i, ((a, b), c)) in a.into_iter().zip(b).zip(c).enumerate() {
            let (a, b, c) = (a.unwrap(), b.unwrap(), c.unwrap());
            sampled |= a.routes.contains(&Route::BitSampling) || a.samples_used > 0;
            assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "step {step} query {i}: workers 1 vs 8"
            );
            assert_eq!(
                fingerprint(&a),
                fingerprint(&c),
                "step {step} query {i}: mutated vs fresh"
            );
        }
    }
    assert!(sampled, "fixture never exercised the sampling route");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary mutation scripts on arbitrary small graphs. The script is
    /// a list of draws decoded against the evolving graph state, so every
    /// shrunken counterexample is still a valid mutation sequence.
    #[test]
    fn any_mutation_script_preserves_rebuild_equivalence(
        seed in 0u64..1u64 << 48,
        script in proptest::collection::vec((0u8..4, 0usize..64, 0usize..64, 5u32..=100u32), 1..8),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 4 + (seed % 5) as usize;
        let g = random_graph(&mut rng, n, 0.3);
        let queries = all_semantics_queries(n);
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("live", g.clone());
        let mut shadow = g;
        for (kind, a, b, pq) in script {
            let p = f64::from(pq) / 100.0;
            let mutation = match kind {
                0 | 1 if shadow.num_edges() > 0 =>
                    Mutation::UpdateProb { edge: a % shadow.num_edges(), p },
                2 => {
                    let (u, v) = (a % n, b % n);
                    if u == v || shadow.neighbors(u).iter().any(|&(w, _)| w == v) {
                        continue;
                    }
                    Mutation::AddEdge { u, v, p }
                }
                3 if shadow.num_edges() > n =>
                    Mutation::RemoveEdge { edge: a % shadow.num_edges() },
                _ => continue,
            };
            match mutation {
                Mutation::UpdateProb { edge, p } => { shadow.update_edge_prob(edge, p).unwrap(); }
                Mutation::AddEdge { u, v, p } => { shadow.add_edge(u, v, p).unwrap(); }
                Mutation::RemoveEdge { edge } => { shadow.remove_edge(edge).unwrap(); }
            }
            engine.apply_mutation(id, mutation).unwrap();
            assert_matches_fresh(&mut engine, id, &shadow, &queries, &format!("{mutation:?}"));
        }
    }
}
