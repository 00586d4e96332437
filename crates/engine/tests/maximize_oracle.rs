//! Oracle tests for the greedy maximizer and the what-if path (ISSUE 10).
//!
//! On ≤20-edge fixtures the exponential possible-world oracle
//! (`netrel_core::oracle_value`) gives the ground-truth two-terminal
//! reliability of every mutated graph, so the greedy loop can be replayed
//! independently: each round's argmax over "chosen set + one candidate"
//! (ties toward the lowest candidate index) must match the engine's
//! choice *and* its reported reliability. A second test pins the
//! what-if == commit-then-query equivalence directly, and a third
//! brute-forces every k-subset to bound how far greedy can sit from the
//! optimum on a fixture where greedy is known to be optimal.

use netrel_core::{oracle_value, ProConfig, SemanticsSpec};
use netrel_engine::{Engine, EngineConfig, Mutation, PlanBudget, Query};
use netrel_ugraph::UncertainGraph;

/// Apply a mutation set to a copy of `g` (panics on inapplicable sets —
/// callers pre-check like the maximizer does).
fn mutated(g: &UncertainGraph, set: &[Mutation]) -> Option<UncertainGraph> {
    let mut g = g.clone();
    for m in set {
        match *m {
            Mutation::UpdateProb { edge, p } => {
                g.update_edge_prob(edge, p).ok()?;
            }
            Mutation::AddEdge { u, v, p } => {
                g.add_edge(u, v, p).ok()?;
            }
            Mutation::RemoveEdge { edge } => {
                g.remove_edge(edge).ok()?;
            }
        }
    }
    Some(g)
}

/// Ground-truth `s`–`t` reliability of `g` with `set` applied, or `None`
/// when the set is inapplicable.
fn truth(g: &UncertainGraph, set: &[Mutation], s: usize, t: usize) -> Option<f64> {
    let g = mutated(g, set)?;
    oracle_value(&g, SemanticsSpec::TwoTerminal, &[s, t]).ok()
}

/// Two triangles joined by a bridge — 7 edges, far under the oracle cap.
fn fixture() -> UncertainGraph {
    UncertainGraph::new(
        6,
        [
            (0, 1, 0.6),
            (1, 2, 0.5),
            (0, 2, 0.4),
            (2, 3, 0.7),
            (3, 4, 0.6),
            (4, 5, 0.5),
            (3, 5, 0.4),
        ],
    )
    .unwrap()
}

fn candidates() -> Vec<Mutation> {
    vec![
        Mutation::UpdateProb { edge: 3, p: 0.99 }, // strengthen the bridge
        Mutation::AddEdge {
            u: 0,
            v: 5,
            p: 0.55,
        }, // bypass it entirely
        Mutation::AddEdge {
            u: 1,
            v: 4,
            p: 0.35,
        },
        Mutation::UpdateProb { edge: 0, p: 0.95 },
        Mutation::RemoveEdge { edge: 2 }, // can only hurt
        Mutation::AddEdge {
            u: 0,
            v: 5,
            p: 0.55,
        }, // duplicate of 1: dead after it
    ]
}

/// Replay the greedy loop against the oracle: at every round the engine
/// must have chosen the candidate the ground truth ranks highest (ties
/// toward the lowest index), and its reported reliability must match the
/// oracle to exact-solver precision.
#[test]
fn greedy_choices_match_an_oracle_replay_round_for_round() {
    let g = fixture();
    let candidates = candidates();
    let (s, t, k) = (0, 5, 3);
    let mut engine = Engine::new(EngineConfig::default());
    let id = engine.register("g", g.clone());
    let result = engine
        .maximize_reliability(id, s, t, k, &candidates, PlanBudget::default())
        .unwrap();

    let baseline = truth(&g, &[], s, t).unwrap();
    assert!((result.baseline - baseline).abs() < 1e-9);

    let mut chosen: Vec<usize> = Vec::new();
    for (round, step) in result.steps.iter().enumerate() {
        let mut best: Option<(f64, usize)> = None;
        for ci in 0..candidates.len() {
            if chosen.contains(&ci) {
                continue;
            }
            let set: Vec<Mutation> = chosen
                .iter()
                .chain(std::iter::once(&ci))
                .map(|&i| candidates[i])
                .collect();
            let Some(r) = truth(&g, &set, s, t) else {
                continue;
            };
            // Strict > replicates the engine's lowest-index tie-break.
            // Compare through the same tolerance used to check the engine
            // so solver/oracle rounding cannot flip near-ties.
            let better = match best {
                None => true,
                Some((b, _)) => r > b + 1e-9,
            };
            if better {
                best = Some((r, ci));
            }
        }
        let (expected_r, expected_ci) = best.expect("oracle found no applicable candidate");
        assert_eq!(
            step.candidate, expected_ci,
            "round {round}: engine chose {} over oracle argmax {expected_ci}",
            step.candidate
        );
        assert!(
            (step.reliability - expected_r).abs() < 1e-9,
            "round {round}: {} vs oracle {expected_r}",
            step.reliability
        );
        chosen.push(step.candidate);
    }
    assert_eq!(result.steps.len(), k, "pool is large enough for k rounds");
    // Greedy gains are monotone here: each accepted upgrade helps.
    let mut last = result.baseline;
    for step in &result.steps {
        assert!(step.reliability >= last - 1e-12);
        last = step.reliability;
    }
}

/// `evaluate_with` equals commit-then-query, pinned against both the
/// engine's own committed path and the oracle's ground truth.
#[test]
fn whatif_equals_commit_then_query_and_the_oracle() {
    let g = fixture();
    let query = Query::with_semantics(SemanticsSpec::TwoTerminal, vec![0, 5], ProConfig::default())
        .planned(PlanBudget::default());
    let sets: Vec<Vec<Mutation>> = vec![
        vec![Mutation::UpdateProb { edge: 3, p: 0.99 }],
        vec![
            Mutation::AddEdge {
                u: 0,
                v: 5,
                p: 0.55,
            },
            Mutation::RemoveEdge { edge: 3 },
        ],
        vec![
            Mutation::RemoveEdge { edge: 2 },
            Mutation::UpdateProb { edge: 0, p: 0.95 },
            Mutation::AddEdge {
                u: 1,
                v: 4,
                p: 0.35,
            },
        ],
    ];
    for set in sets {
        let engine = {
            let mut e = Engine::new(EngineConfig::default());
            e.register("g", g.clone());
            e
        };
        let id = engine.graph_id("g").unwrap();
        let hypothetical = engine.evaluate_with(id, &set, &query).unwrap();

        let mut committed = Engine::new(EngineConfig::default());
        let cid = committed.register("g", g.clone());
        for m in &set {
            committed.apply_mutation(cid, *m).unwrap();
        }
        let after = committed.run(cid, &query).unwrap();
        assert_eq!(
            hypothetical.estimate.to_bits(),
            after.estimate.to_bits(),
            "{set:?}"
        );
        assert_eq!(hypothetical.exact, after.exact);

        let expected = truth(&g, &set, 0, 5).unwrap();
        assert!(
            (hypothetical.estimate - expected).abs() < 1e-9,
            "{set:?}: {} vs oracle {expected}",
            hypothetical.estimate
        );
    }
}

/// Brute-force every k-subset (in every order, since removals/additions
/// do not commute with edge-id shifts) and verify greedy lands on the
/// true optimum for this fixture — chosen so the single dominant
/// candidate makes greedy provably optimal — while never overreporting.
#[test]
fn greedy_matches_the_brute_forced_optimum_on_a_dominant_fixture() {
    let g = fixture();
    let (s, t, k) = (0, 5, 2);
    // A dominant direct edge plus weak alternatives: greedy's first pick
    // is the global best single mutation, and the second pick commutes.
    let candidates = vec![
        Mutation::UpdateProb { edge: 1, p: 0.55 },
        Mutation::AddEdge {
            u: 0,
            v: 5,
            p: 0.95,
        },
        Mutation::UpdateProb { edge: 4, p: 0.65 },
    ];
    let mut engine = Engine::new(EngineConfig::default());
    let id = engine.register("g", g.clone());
    let result = engine
        .maximize_reliability(id, s, t, k, &candidates, PlanBudget::default())
        .unwrap();

    // Enumerate every ordered k-permutation of candidate indices.
    let n = candidates.len();
    let mut best = truth(&g, &[], s, t).unwrap();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let set = [candidates[i], candidates[j]];
            if let Some(r) = truth(&g, &set, s, t) {
                best = best.max(r);
            }
        }
    }
    assert!(
        (result.final_reliability() - best).abs() < 1e-9,
        "greedy {} vs optimum {best}",
        result.final_reliability()
    );
    assert!(result.final_reliability() <= best + 1e-9, "overreported");
}
