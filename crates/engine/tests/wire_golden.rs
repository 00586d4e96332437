//! Wire golden: the exact response bytes of a fixed NDJSON script.
//!
//! Every request below goes through [`Service::handle_line`] on one
//! service, in order, and each response must equal the matching line of
//! `wire_golden.expected.ndjson` byte for byte. The script covers both
//! routing policies of every query-carrying op: classic (`Fixed`) queries
//! and batches with solver knobs, batch defaults, per-query overrides and
//! error slots; d-hop parts on both sides of the exact-enumeration limit;
//! planned queries and batches under a budget; `whatif`, `mutate`, a
//! re-query on the mutated graph and `maximize`. `stats`, `metrics` and
//! traced queries are left out because they carry wall-clock fields.
//!
//! A failure here means the wire format changed. If that is intended,
//! regenerate the expected file from the new responses and say so in the
//! change description; never edit it to make a refactor pass.

use netrel_engine::service::Service;
use netrel_engine::{Engine, EngineConfig, Recorder};

/// The request script, one NDJSON line per entry.
const SCRIPT: &[&str] = &[
    // A 2-edge-connected 6-cycle with two chords, plus a pendant bridge to 6.
    r#"{"op":"register","name":"g","vertices":7,"edges":[[0,1,0.9],[1,2,0.8],[2,3,0.7],[3,4,0.9],[4,5,0.85],[5,0,0.75],[1,4,0.6],[0,3,0.5],[5,6,0.95]]}"#,
    // K7 (21 edges, above the d-hop exact-enumeration limit of 20).
    r#"{"op":"register","name":"k7","vertices":7,"edges":[[0,1,0.25],[0,2,0.35],[0,3,0.45],[0,4,0.55],[0,5,0.15],[0,6,0.25],[1,2,0.45],[1,3,0.55],[1,4,0.15],[1,5,0.25],[1,6,0.35],[2,3,0.15],[2,4,0.25],[2,5,0.35],[2,6,0.45],[3,4,0.35],[3,5,0.45],[3,6,0.55],[4,5,0.55],[4,6,0.15],[5,6,0.25]]}"#,
    // Classic query with every solver knob.
    r#"{"op":"query","graph":"g","terminals":[0,3,6],"width":2,"samples":200,"seed":5,"estimator":"ht"}"#,
    // The same query again: served from the plan cache.
    r#"{"op":"query","graph":"g","terminals":[0,3,6],"width":2,"samples":200,"seed":5,"estimator":"ht"}"#,
    r#"{"op":"query","graph":"g","terminals":[1,6],"width":3,"samples":150,"seed":11,"estimator":"mc"}"#,
    r#"{"op":"query","graph":"g","terminals":[0,2],"exact":true}"#,
    // Classic batch: batch defaults, a per-query override, a bad terminal.
    r#"{"op":"batch","graph":"g","width":2,"samples":120,"seed":3,"queries":[{"terminals":[0,6]},{"terminals":[0,6],"seed":9,"estimator":"ht"},{"terminals":[0,99]},{"terminals":[2,4,6],"exact":true}]}"#,
    // Classic d-hop: <= 20-edge part (enumeration), > 20-edge part (sampling).
    r#"{"op":"query","graph":"g","terminals":[0,6],"semantics":"d-hop","d":3}"#,
    r#"{"op":"query","graph":"k7","terminals":[0,6],"semantics":"d-hop","d":2,"samples":300,"seed":4}"#,
    // Classic, other semantics.
    r#"{"op":"query","graph":"g","semantics":"all-terminal","width":4,"samples":100,"seed":2}"#,
    r#"{"op":"query","graph":"g","terminals":[3],"semantics":"reach-set"}"#,
    r#"{"op":"batch","graph":"g","semantics":"two-terminal","queries":[{"terminals":[0,4]},{"terminals":[1,5],"semantics":"d-hop","d":2}]}"#,
    // Planned query and batches (budget, plan flag, per-query overrides).
    r#"{"op":"query","graph":"g","terminals":[0,6],"budget":{"nodes":100000,"confidence":0.99}}"#,
    r#"{"op":"query","graph":"k7","terminals":[0,6],"plan":true,"seed":8}"#,
    r#"{"op":"query","graph":"k7","terminals":[2],"semantics":"reach-set","budget":{"samples":700}}"#,
    r#"{"op":"batch","graph":"k7","budget":{"samples":500},"queries":[{"terminals":[0,6]},{"terminals":[1,5],"semantics":"d-hop","d":2,"budget":{"confidence":0.9}},{"terminals":[0,77]},{"terminals":[0,3],"estimator":"ht","budget":{"nodes":10}},{"terminals":[0,6],"semantics":"d-hop","d":2,"estimator":"ht"}]}"#,
    r#"{"op":"query","graph":"k7","terminals":[0,6],"plan":true,"seed":8}"#,
    r#"{"op":"batch","graph":"g","queries":[{"terminals":[0,5]},{"terminals":[1,4],"plan":true}]}"#,
    r#"{"op":"query","graph":"g","terminals":[0,2],"budget":{"time_ms":1,"confidence":0.9}}"#,
    // What-if, commit, re-query, maximize.
    r#"{"op":"whatif","graph":"g","terminals":[0,6],"mutations":[{"kind":"update_prob","edge":0,"p":0.5}]}"#,
    r#"{"op":"whatif","graph":"g","terminals":[0,6],"budget":{"nodes":50},"mutations":[{"kind":"remove_edge","edge":6},{"kind":"add_edge","u":2,"v":5,"p":0.4}]}"#,
    r#"{"op":"mutate","graph":"g","mutations":[{"kind":"update_prob","edge":0,"p":0.5},{"kind":"add_edge","u":0,"v":2,"p":0.6},{"kind":"remove_edge","edge":99},{"kind":"remove_edge","edge":7}]}"#,
    r#"{"op":"query","graph":"g","terminals":[0,3,6],"width":2,"samples":200,"seed":5,"estimator":"ht"}"#,
    r#"{"op":"query","graph":"g","terminals":[0,6],"budget":{"nodes":100000,"confidence":0.99}}"#,
    r#"{"op":"maximize","graph":"g","s":0,"t":6,"k":2,"candidates":[{"kind":"update_prob","edge":1,"p":0.99},{"kind":"add_edge","u":3,"v":5,"p":0.9},{"kind":"add_edge","u":2,"v":4,"p":0.3}]}"#,
    r#"{"op":"maximize","graph":"g","s":1,"t":6,"k":1,"budget":{"nodes":20,"samples":300},"candidates":[{"kind":"update_prob","edge":8,"p":0.99}]}"#,
    // Request-level errors.
    r#"{"op":"query","graph":"nope","terminals":[0,1]}"#,
    r#"{"op":"query","graph":"g","terminals":[0,1],"budget":{"confidence":0.5}}"#,
];

const EXPECTED: &str = include_str!("wire_golden.expected.ndjson");

#[test]
fn responses_match_the_golden_bytes() {
    // Two workers: answers are worker-count invariant, so the choice only
    // keeps the run cheap and the same on every machine.
    let engine = Engine::with_recorder(
        EngineConfig {
            workers: 2,
            ..Default::default()
        },
        Recorder::enabled(),
    );
    let mut service = Service::new(engine);
    let expected: Vec<&str> = EXPECTED.lines().collect();
    assert_eq!(
        expected.len(),
        SCRIPT.len(),
        "one expected response per request"
    );
    for (i, (request, want)) in SCRIPT.iter().zip(&expected).enumerate() {
        let got = service.handle_line(request);
        assert_eq!(
            got, *want,
            "response {i} differs\nrequest: {request}\n   got: {got}\n  want: {want}"
        );
    }
}
