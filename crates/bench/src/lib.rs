//! Shared harness for the paper-reproduction binaries.
//!
//! Every binary accepts:
//!
//! * `--scale=<f>`  — vertex-count scale for the large synthetic datasets
//!   (default 0.05; the paper's full sizes need `--scale=1.0` and patience),
//! * `--searches=<n>` — random terminal draws per configuration,
//! * `--seed=<n>`  — base RNG seed,
//! * `--full`      — paper-fidelity sizes (scale 1.0, paper search counts),
//! * `--json=<path>` — also dump machine-readable rows,
//! * `--help` — print the usage and exit.
//!
//! An unknown flag or a malformed value is an error (exit status 2).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod accuracy;
pub mod throughput;

use netrel_ugraph::UncertainGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// Common CLI arguments.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Scale factor for large synthetic datasets.
    pub scale: f64,
    /// Terminal draws per configuration.
    pub searches: usize,
    /// Base seed.
    pub seed: u64,
    /// Paper-fidelity mode.
    pub full: bool,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Suite selector for multi-suite runners (`netrel-testrunner`).
    pub suite: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            scale: 0.05,
            searches: 3,
            seed: 7,
            full: false,
            json: None,
            suite: None,
        }
    }
}

/// Usage text shared by every binary built on [`parse_args`].
pub const USAGE: &str = "\
options:
  --scale=<f>      vertex-count scale for the large synthetic datasets (default 0.05)
  --searches=<n>   random terminal draws per configuration (default 3)
  --seed=<n>       base RNG seed (default 7)
  --full           paper-fidelity sizes: scale 1.0, 20 searches
  --json=<path>    also write machine-readable rows to <path>
  --suite=<name>   suite selector of netrel-testrunner
  -h, --help       print this help and exit";

/// Why a command line yields no [`RunArgs`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help` or `-h`: print [`USAGE`] and exit 0.
    Help,
    /// An unknown flag or a malformed value: report it and exit 2.
    Invalid(String),
}

/// Parse command-line arguments (without the program name), with `--full`
/// upgrading the defaults. Pure: it prints nothing and never exits.
pub fn parse_arg_list(args: impl IntoIterator<Item = String>) -> Result<RunArgs, ArgsError> {
    fn value<T: std::str::FromStr>(flag: &str, v: &str, kind: &str) -> Result<T, ArgsError> {
        v.parse()
            .map_err(|_| ArgsError::Invalid(format!("{flag} takes {kind}, got {v:?}")))
    }
    let mut a = RunArgs::default();
    for arg in args {
        if let Some(v) = arg.strip_prefix("--scale=") {
            a.scale = value("--scale", v, "a float")?;
        } else if let Some(v) = arg.strip_prefix("--searches=") {
            a.searches = value("--searches", v, "an integer")?;
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            a.seed = value("--seed", v, "an integer")?;
        } else if let Some(v) = arg.strip_prefix("--json=") {
            a.json = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("--suite=") {
            a.suite = Some(v.to_string());
        } else if arg == "--full" {
            a.full = true;
            a.scale = 1.0;
            a.searches = 20;
        } else if arg == "--help" || arg == "-h" {
            return Err(ArgsError::Help);
        } else {
            return Err(ArgsError::Invalid(format!("unknown argument {arg:?}")));
        }
    }
    Ok(a)
}

/// Parse `std::env::args` via [`parse_arg_list`]. `--help` prints the usage
/// and exits 0; an unknown flag or a malformed value prints a message and
/// exits 2.
pub fn parse_args() -> RunArgs {
    let mut argv = std::env::args();
    let program = argv.next().unwrap_or_default();
    match parse_arg_list(argv) {
        Ok(a) => a,
        Err(ArgsError::Help) => {
            println!("usage: {program} [options]\n\n{USAGE}");
            std::process::exit(0)
        }
        Err(ArgsError::Invalid(msg)) => {
            eprintln!("error: {msg}\n\nusage: {program} [options]\n\n{USAGE}");
            std::process::exit(2)
        }
    }
}

/// Wall-clock one closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// `distinct` terminal pairs drawn from the graph's largest connected
/// component — the hot-pair workload of multi-query (s-t) benchmarks, where
/// the same pairs recur and decompositions overlap. Deterministic per seed.
pub fn overlapping_terminal_pairs(
    g: &UncertainGraph,
    distinct: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    let (comp, num) = netrel_ugraph::traversal::connected_components(g);
    let mut sizes = vec![0usize; num];
    for &c in &comp {
        sizes[c] += 1;
    }
    let biggest = (0..num).max_by_key(|&c| sizes[c]).expect("non-empty graph");
    let members: Vec<usize> = (0..g.num_vertices())
        .filter(|&v| comp[v] == biggest)
        .collect();
    let possible = members.len() * members.len().saturating_sub(1) / 2;
    assert!(
        distinct <= possible,
        "largest component ({} vertices) holds only {possible} distinct pairs, {distinct} requested",
        members.len()
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = std::collections::BTreeSet::new();
    while pairs.len() < distinct {
        let a = members[rng.gen_range(0..members.len())];
        let b = members[rng.gen_range(0..members.len())];
        if a != b {
            pairs.insert((a.min(b), a.max(b)));
        }
    }
    pairs.into_iter().map(|(a, b)| vec![a, b]).collect()
}

/// `k` distinct random terminals (the paper selects terminals uniformly).
pub fn random_terminals(g: &UncertainGraph, k: usize, seed: u64) -> Vec<usize> {
    assert!(k <= g.num_vertices());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = std::collections::BTreeSet::new();
    while t.len() < k {
        t.insert(rng.gen_range(0..g.num_vertices()));
    }
    t.into_iter().collect()
}

/// Write serializable rows as pretty JSON if `--json` was given.
pub fn maybe_dump_json<T: Serialize>(args: &RunArgs, rows: &T) {
    if let Some(path) = &args.json {
        let text = serde_json::to_string_pretty(rows).expect("rows serialize");
        std::fs::write(path, text).expect("write json output");
        eprintln!("wrote {path}");
    }
}

/// Format seconds human-readably.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Format a byte count.
pub fn fmt_bytes(b: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KB", "MB", "GB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.1}{}", UNITS[u])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_distinct_and_in_range() {
        let g = UncertainGraph::new(10, (0..9).map(|i| (i, i + 1, 0.5))).unwrap();
        let t = random_terminals(&g, 5, 3);
        assert_eq!(t.len(), 5);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
        assert!(t.iter().all(|&v| v < 10));
        assert_eq!(t, random_terminals(&g, 5, 3), "seeded determinism");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(0.5), "500.0ms");
        assert_eq!(fmt_secs(2.0), "2.00s");
        assert!(fmt_secs(5e-5).ends_with("µs"));
        assert_eq!(fmt_bytes(512), "512.0B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
    }

    #[test]
    fn default_args() {
        let a = RunArgs::default();
        assert_eq!(a.scale, 0.05);
        assert!(!a.full);
    }

    fn parse(args: &[&str]) -> Result<RunArgs, ArgsError> {
        parse_arg_list(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_and_full_upgrades_defaults() {
        let a = parse(&["--full", "--seed=3", "--json=out.json", "--suite=engine"]).unwrap();
        assert_eq!((a.scale, a.searches, a.seed), (1.0, 20, 3));
        assert!(a.full);
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.suite.as_deref(), Some("engine"));
        // A later explicit flag refines `--full`.
        assert_eq!(parse(&["--full", "--scale=0.5"]).unwrap().scale, 0.5);
    }

    #[test]
    fn help_flag_requests_the_usage() {
        assert_eq!(parse(&["--help"]).unwrap_err(), ArgsError::Help);
        assert_eq!(parse(&["--seed=1", "-h"]).unwrap_err(), ArgsError::Help);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let Err(ArgsError::Invalid(msg)) = parse(&["--scale=0.1", "--bogus"]) else {
            panic!("an unknown flag must be rejected");
        };
        assert!(msg.contains("--bogus"), "{msg}");
    }

    #[test]
    fn malformed_values_are_rejected_not_panics() {
        for bad in ["--seed=abc", "--scale=x", "--searches=-1", "--searches="] {
            let Err(ArgsError::Invalid(msg)) = parse(&[bad]) else {
                panic!("{bad} must be rejected");
            };
            let flag = bad.split('=').next().unwrap();
            assert!(msg.starts_with(flag), "{bad}: {msg}");
        }
    }
}
