//! Cache-invalidation aliasing regressions (ISSUE 10, DESIGN.md §13).
//!
//! The structural keys (`PlanKey`, `WorldKey`) are the engine's actual
//! correctness mechanism — a post-mutation lookup re-keys on the mutated
//! edge list, so a stale entry *cannot* be served even if invalidation
//! never ran. These tests pin both halves of that story:
//!
//! * **aliasing**: a pre-mutation plan or packed-world mask is never
//!   served after the edge it covers changes — including entries the
//!   scoped predicate cannot see because preprocessing folded the touched
//!   edge's probability into a derived one (the under-scope fixture);
//! * **scoping**: the hygiene pass drops the owner's entries keyed on the
//!   touched probability bits and nothing else — entries of other graphs
//!   and entries not covering the edge survive (the over-scope fixtures);
//! * **telemetry**: `graph_stats` occupancy stays consistent with what
//!   the mutation outcome reported.

use netrel_core::{ProConfig, SemanticsSpec};
use netrel_engine::{Engine, EngineConfig, IndexPatch, Mutation, PlanBudget, Query, Route};
use netrel_ugraph::UncertainGraph;

/// 4-cycle 0-1-2-3 with per-fixture probabilities.
fn cycle4(p: [f64; 4]) -> UncertainGraph {
    UncertainGraph::new(4, [(0, 1, p[0]), (1, 2, p[1]), (2, 3, p[2]), (3, 0, p[3])]).unwrap()
}

fn planned(terminals: Vec<usize>) -> Query {
    Query::with_semantics(SemanticsSpec::KTerminal, terminals, ProConfig::default())
        .planned(PlanBudget::default())
}

/// Two-terminal reliability of a 4-cycle between opposite corners:
/// `1 − (1 − p01·p12)(1 − p03·p32)`.
fn cycle4_opposite(p: [f64; 4]) -> f64 {
    1.0 - (1.0 - p[0] * p[1]) * (1.0 - p[3] * p[2])
}

/// The under-scope fixture: a two-terminal cycle query is series/parallel
/// reduced, so its cache key holds a *derived* probability — the scoped
/// predicate cannot match the touched edge's bits and reports 0 dropped.
/// The stale entry is unreachable garbage (it ages out under LRU), and
/// the post-mutation answer must track the new probability regardless.
#[test]
fn mutated_probabilities_are_never_answered_from_stale_plans() {
    let mut engine = Engine::new(EngineConfig::default());
    let id = engine.register("g", cycle4([0.5, 0.8, 0.9, 0.7]));
    let q = planned(vec![0, 2]);

    let before = engine.run(id, &q).unwrap();
    assert!(
        (before.estimate - cycle4_opposite([0.5, 0.8, 0.9, 0.7])).abs() < 1e-12,
        "{}",
        before.estimate
    );

    let outcome = engine.update_edge_prob(id, 0, 0.25).unwrap();
    assert_eq!(outcome.patch, IndexPatch::Patched);
    let after = engine.run(id, &q).unwrap();
    assert!(
        (after.estimate - cycle4_opposite([0.25, 0.8, 0.9, 0.7])).abs() < 1e-12,
        "stale plan served: got {}",
        after.estimate
    );

    // Same aliasing check through the what-if path: a hypothesis must not
    // see entries for other probabilities, and must not disturb the
    // committed graph's answers.
    let whatif = engine
        .evaluate_with(id, &[Mutation::UpdateProb { edge: 0, p: 0.75 }], &q)
        .unwrap();
    assert!((whatif.estimate - cycle4_opposite([0.75, 0.8, 0.9, 0.7])).abs() < 1e-12);
    let again = engine.run(id, &q).unwrap();
    assert_eq!(again.estimate.to_bits(), after.estimate.to_bits());
}

/// Invalidation is owner-scoped: graph `b` shares the touched raw
/// probability with graph `a`, but mutating `a` must not drop `b`'s
/// entries. Three terminals keep the terminal-incident edges unreduced,
/// so the raw bits really are in both keys.
#[test]
fn invalidation_does_not_cross_graph_owners() {
    let mut engine = Engine::new(EngineConfig::default());
    let a = engine.register("a", cycle4([0.5, 0.8, 0.9, 0.7]));
    let b = engine.register("b", cycle4([0.5, 0.8, 0.6, 0.7]));
    engine.run(a, &planned(vec![0, 1, 2])).unwrap();
    engine.run(b, &planned(vec![0, 1, 2])).unwrap();

    let occupancy = |engine: &Engine, name: &str| {
        engine
            .graph_stats()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap()
            .cache_entries
    };
    let b_before = occupancy(&engine, "b");
    assert!(b_before >= 1, "warmup left no entries for b");

    let outcome = engine.update_edge_prob(a, 0, 0.25).unwrap();
    assert!(
        outcome.invalidated_plans >= 1,
        "a's entries keyed on the old bits must drop"
    );
    assert_eq!(
        occupancy(&engine, "a"),
        0,
        "a's only entries covered the touched edge"
    );
    assert_eq!(
        occupancy(&engine, "b"),
        b_before,
        "owner scoping violated: b lost entries to a's mutation"
    );
    // b still answers with its own, untouched probabilities.
    let b_answer = engine.run(b, &planned(vec![0, 2])).unwrap();
    assert!((b_answer.estimate - cycle4_opposite([0.5, 0.8, 0.6, 0.7])).abs() < 1e-12);
}

/// Invalidation is probability-scoped within one owner: entries whose key
/// does not cover the old bits survive, occupancy drops by exactly the
/// reported count, and additions invalidate nothing.
#[test]
fn invalidation_is_probability_scoped_and_occupancy_consistent() {
    let mut engine = Engine::new(EngineConfig::default());
    // Two disjoint 4-cycles in one graph with disjoint probabilities.
    let g = UncertainGraph::new(
        8,
        [
            (0, 1, 0.5),
            (1, 2, 0.8),
            (2, 3, 0.9),
            (3, 0, 0.7),
            (4, 5, 0.3),
            (5, 6, 0.6),
            (6, 7, 0.85),
            (7, 4, 0.95),
        ],
    )
    .unwrap();
    let id = engine.register("g", g);
    engine.run(id, &planned(vec![0, 1, 2])).unwrap();
    engine.run(id, &planned(vec![4, 5, 6])).unwrap();
    let before = engine.graph_stats()[0].cache_entries;
    assert!(
        before >= 2,
        "expected one cached part per cycle, got {before}"
    );

    // Touch edge 4 (p = 0.3, terminal-incident in the second query): only
    // keys covering those bits may drop.
    let outcome = engine.update_edge_prob(id, 4, 0.35).unwrap();
    assert!(outcome.invalidated_plans >= 1);
    let after = engine.graph_stats()[0].cache_entries;
    assert_eq!(
        before - after,
        outcome.invalidated_plans,
        "occupancy must drop by exactly the reported invalidation"
    );
    assert!(after >= 1, "the first cycle's entry must survive");
    // The untouched component still answers its unchanged exact value.
    let a = engine.run(id, &planned(vec![0, 2])).unwrap();
    assert!((a.estimate - cycle4_opposite([0.5, 0.8, 0.9, 0.7])).abs() < 1e-12);

    // Adding an edge invalidates nothing: no pre-existing key can cover
    // an edge that did not exist when the key was written.
    let warm = engine.graph_stats()[0].cache_entries;
    let added = engine.add_edge(id, 0, 2, 0.77).unwrap();
    assert_eq!(added.invalidated_plans, 0);
    assert_eq!(added.invalidated_worlds, 0);
    assert_eq!(engine.graph_stats()[0].cache_entries, warm);
}

/// The world bank shares invalidation: on a bit-sampling-routed graph a
/// mutation drops the packed-world masks keyed on the old bits, and the
/// resampled answer matches a fresh engine bit for bit.
#[test]
fn world_bank_masks_are_invalidated_with_the_plans() {
    let g = netrel_datasets::clique(50);
    let mut engine = Engine::new(EngineConfig::default());
    let id = engine.register("g", g.clone());
    let q = planned(vec![0, 49]);
    let before = engine.run(id, &q).unwrap();
    assert!(
        before.routes.contains(&Route::BitSampling),
        "fixture must route to the bit-parallel sampler: {:?}",
        before.routes
    );

    let p_old = g.prob(0);
    let outcome = engine.update_edge_prob(id, 0, p_old * 0.5).unwrap();
    assert!(
        outcome.invalidated_worlds >= 1,
        "sampled masks covering edge 0 must drop: {outcome:?}"
    );
    let after = engine.run(id, &q).unwrap();

    let mut fresh = Engine::new(EngineConfig::default());
    let mut fg = g;
    fg.update_edge_prob(0, p_old * 0.5).unwrap();
    let fid = fresh.register("fresh", fg);
    let expected = fresh.run(fid, &q).unwrap();
    assert_eq!(after.estimate.to_bits(), expected.estimate.to_bits());
    assert_eq!(
        after.ci.unwrap().lower.to_bits(),
        expected.ci.unwrap().lower.to_bits()
    );
    assert_eq!(
        after.ci.unwrap().upper.to_bits(),
        expected.ci.unwrap().upper.to_bits()
    );
}
