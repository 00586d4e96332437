//! Service benchmark: one closed-loop client driving `Service::handle_line`
//! in-process, end-to-end metrics with answer checks, and (with
//! `--trace 1`) a layer-by-layer replay of the same lines. See
//! `servicebench/README.md` and `--help`.

mod check;
mod cli;
mod replay;
mod stats;
mod workload;

use check::{Answer, Determinism, Reply};
use cli::{Args, Command};
use netrel_engine::service::Service;
use netrel_engine::{Engine, EngineConfig, Recorder};
use netrel_ugraph::UncertainGraph;
use stats::{median, percentile, Metric};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{register_line, Request, Traffic, Workload, WORKERS};

/// Plan-cache capacity of the served engine (the engine default).
pub const PLAN_CACHE_CAPACITY: usize = 4096;

fn main() -> ExitCode {
    match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Help) => {
            // A closed pipe (`--help | head`) is not an error worth a panic.
            let _ = writeln!(std::io::stdout(), "{}", cli::USAGE);
            ExitCode::SUCCESS
        }
        Ok(Command::Run(args)) => run(args),
        Err(msg) => {
            eprintln!("netrel-servicebench: {msg}\n\n{}", cli::USAGE);
            ExitCode::from(2)
        }
    }
}

/// A served engine with its graphs registered and warmed.
struct Served {
    service: Service,
    traffic: Traffic,
    graphs: Vec<(&'static str, UncertainGraph)>,
    /// The untimed warm-up lines and their responses.
    warmup: Vec<LineRecord>,
}

/// Times of one set-up.
struct SetupTimes {
    total: Duration,
    generate: Duration,
}

/// Dataset generation, `register` lines and warm-up lines, into a fresh
/// service. Fails when a set-up line is answered with an error.
fn set_up(args: &Args) -> Result<(Served, SetupTimes), String> {
    let t0 = Instant::now();
    let graphs = args.workload.graphs();
    let generate = t0.elapsed();
    let engine = Engine::with_recorder(
        EngineConfig {
            plan_cache_capacity: PLAN_CACHE_CAPACITY,
            workers: WORKERS,
        },
        Recorder::enabled(),
    );
    let mut service = Service::new(engine);
    for (name, g) in &graphs {
        let response = service.handle_line(&register_line(name, g));
        if !response.starts_with(r#"{"ok":true"#) {
            return Err(format!("register `{name}` failed: {response}"));
        }
    }
    let mut traffic = Traffic::new(args.workload, args.seed, &graphs);
    let names: Vec<&str> = graphs.iter().map(|(n, _)| *n).collect();
    let mut warmup = Vec::new();
    for req in traffic.warmup() {
        let line = req.line(&names);
        let t0 = Instant::now();
        let response = service.handle_line(&line);
        let latency = t0.elapsed();
        check::read_reply(&req, &response).map_err(|e| format!("warm-up line failed: {e}"))?;
        warmup.push(LineRecord {
            req,
            line,
            response,
            latency,
        });
    }
    let total = t0.elapsed();
    Ok((
        Served {
            service,
            traffic,
            graphs,
            warmup,
        },
        SetupTimes { total, generate },
    ))
}

/// One line of the timed closed loop.
pub struct LineRecord {
    /// What was sent.
    pub req: Request,
    /// The exact line sent.
    pub line: String,
    /// The exact line returned.
    pub response: String,
    /// `handle_line` call to return.
    pub latency: Duration,
}

/// The timed closed loop: send a line, wait for its response, repeat,
/// until `seconds` have passed and at least `min_queries` query lines were
/// answered.
fn drive(served: &mut Served, seconds: u64, min_queries: usize) -> (Vec<LineRecord>, Duration) {
    let names: Vec<&str> = served.graphs.iter().map(|(n, _)| *n).collect();
    let budget = Duration::from_secs(seconds);
    let mut records = Vec::new();
    let mut queries = 0usize;
    let start = Instant::now();
    while start.elapsed() < budget || queries < min_queries {
        let req = served.traffic.next_request();
        let line = req.line(&names);
        let t0 = Instant::now();
        let response = served.service.handle_line(&line);
        let latency = t0.elapsed();
        queries += matches!(req, Request::Query(_)) as usize;
        records.push(LineRecord {
            req,
            line,
            response,
            latency,
        });
    }
    (records, start.elapsed())
}

/// `VmHWM` of this process in MiB (0 when `/proc` is unavailable).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn run(args: Args) -> ExitCode {
    match run_checked(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("netrel-servicebench: {msg}");
            ExitCode::from(1)
        }
    }
}

/// Run one workload; `Ok(correct)` once the result line is printed.
fn run_checked(args: Args) -> Result<bool, String> {
    let workload = args.workload;
    // Half the set-ups run before the timed loop and half after it, so
    // their median averages over the host's speed across the whole run.
    let (reps_before, reps_after) = workload.setup_reps();
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..reps_before {
        // Drop the previous set-up first, so `peak_rss_mb` sees one served
        // engine at a time, as a real server holds.
        drop(served.take());
        let (s, times) = set_up(&args)?;
        served = Some(s);
        setups.push(times);
    }
    let mut served = served.expect("at least one set-up");

    let before = scrape(&mut served.service)?;
    let prefix = workload.prefix_queries();
    let (records, wall) = drive(&mut served, args.seconds, prefix);
    let after = scrape(&mut served.service)?;
    // Read before the reference solves and the replay add their own memory.
    let peak_rss = peak_rss_mib();

    // Checks, outside the timed loop.
    let mut failures: Vec<String> = Vec::new();
    let mut replies: Vec<Option<Reply>> = Vec::with_capacity(records.len());
    for (i, r) in records.iter().enumerate() {
        match check::read_reply(&r.req, &r.response) {
            Ok(reply) => replies.push(Some(reply)),
            Err(e) => {
                failures.push(format!("line {i}: {e}"));
                replies.push(None);
            }
        }
    }
    let attempted = records.len();

    // The determinism prefix: every line up to the `prefix`-th query line.
    let mut seen = 0usize;
    let prefix_lines = records
        .iter()
        .position(|r| {
            seen += matches!(r.req, Request::Query(_)) as usize;
            seen == prefix
        })
        .map_or(records.len(), |i| i + 1);
    let prefix_answers: Vec<(Request, Option<Answer>)> = records[..prefix_lines]
        .iter()
        .zip(&replies)
        .map(|(r, reply)| {
            let a = match reply {
                Some(Reply::Query(a)) => Some(a.clone()),
                _ => None,
            };
            (r.req.clone(), a)
        })
        .collect();
    let det = Determinism::of(prefix_answers.iter().filter_map(|(_, a)| a.as_ref()));

    let references =
        check::exact_references(workload, args.seed, &served.graphs[0].1, &prefix_answers);
    failures.extend(references.violations.iter().cloned());

    // End-to-end metrics.
    let query_latencies: Vec<f64> = records
        .iter()
        .filter(|r| matches!(r.req, Request::Query(_)))
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    let answered = replies
        .iter()
        .filter(|r| matches!(r, Some(Reply::Query(_))))
        .count();
    let write_latencies: Vec<f64> = records
        .iter()
        .filter(|r| matches!(r.req, Request::UpdateProb { .. }))
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    let ci_widths: Vec<f64> = prefix_answers
        .iter()
        .filter_map(|(_, a)| a.as_ref()?.ci.map(|(lo, hi)| hi - lo))
        .collect();
    let mean_ci_width = stats::mean(&ci_widths);
    let qps = answered as f64 / wall.as_secs_f64();
    let p50 = percentile(&query_latencies, 0.5);
    let p90 = percentile(&query_latencies, 0.9);

    // Layer replay (traced run only).
    let layers = if args.trace {
        let replayed = replay::run(replay::Input {
            workload,
            seed: args.seed,
            graphs: &served.graphs,
            records: &records,
            replies: &replies,
            warmup: &served.warmup,
            prefix_lines,
            service_wall: wall,
            executor_before: before,
            executor_after: after,
            generate_s: setups.iter().map(|t| t.generate.as_secs_f64()).collect(),
        });
        failures.extend(replayed.mismatches);
        Some(replayed.metrics)
    } else {
        None
    };

    drop(served);
    for _ in 0..reps_after {
        setups.push(set_up(&args)?.1);
    }
    let setup_s = median(setups.iter().map(|t| t.total.as_secs_f64()).collect());

    let failed = failures.len();
    let correct = failed == 0;
    let error_rate = failed as f64 / attempted as f64;

    // Human-readable report: all end-to-end metrics, units, sample counts.
    println!(
        "netrel-servicebench workload={} seed={} seconds={} trace={} | closed loop, 1 client, {} workers",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        WORKERS
    );
    println!(
        "  qps             {qps:>14.4} queries/s  ({answered} answered in {:.3} s)",
        wall.as_secs_f64()
    );
    println!("  latency_p50_ms  {p50:>14.4} ms");
    println!(
        "  latency_p90_ms  {p90:>14.4} ms         (n={}, {} beyond)",
        query_latencies.len(),
        query_latencies.len() - (0.9 * query_latencies.len() as f64).ceil() as usize
    );
    if workload == Workload::HotMixedRw {
        println!(
            "  write_p50_ms    {:>14.4} ms         (n={})",
            percentile(&write_latencies, 0.5),
            write_latencies.len()
        );
    }
    println!(
        "  setup_s         {setup_s:>14.4} s          (median of {} set-ups: {reps_before} before the loop, {reps_after} after)",
        setups.len()
    );
    println!("  peak_rss_mb     {peak_rss:>14.4} MiB");
    println!("  error_rate      {error_rate:>14.4} fraction   ({failed}/{attempted})");
    println!(
        "  mean_ci_width   {mean_ci_width:>14.6} probability (n={} planned answers in the prefix)",
        ci_widths.len()
    );
    println!(
        "  exact references: {} checked, {} skipped (over the node cap), {} eligible",
        references.checked, references.skipped, references.eligible
    );
    println!(
        "determinism {{\"workload\":\"{}\",\"seed\":{},\"prefix_queries\":{},\"record\":{}}}",
        workload.name(),
        args.seed,
        prefix,
        det.to_json()
    );
    for f in failures.iter().take(10) {
        println!("FAILED {f}");
    }

    let metrics: Vec<Metric> = match layers {
        Some(layers) => {
            for m in &layers {
                println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
            }
            layers
        }
        None => vec![
            Metric::new("qps", qps, "queries/s"),
            Metric::new("latency_p50_ms", p50, "ms"),
            Metric::new("latency_p90_ms", p90, "ms"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mb", peak_rss, "MiB"),
            Metric::new("mean_ci_width", mean_ci_width, "probability"),
        ],
    };
    println!(
        "{}",
        stats::result_line(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

/// Executor histograms from the protocol's own `{"op":"metrics"}` scrape.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecutorScrape {
    /// `queue_wait_seconds.sum`.
    pub wait_s: f64,
    /// `queue_wait_seconds.count`.
    pub waits: u64,
    /// `worker_busy_seconds.sum`.
    pub busy_s: f64,
}

fn scrape(service: &mut Service) -> Result<ExecutorScrape, String> {
    let response = service.handle_line(r#"{"op":"metrics"}"#);
    let v: serde::Value =
        serde_json::from_str(&response).map_err(|e| format!("metrics scrape: {e}"))?;
    let hist = |name: &str, field: &str| match v
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|h| h.get(field))
    {
        Some(serde::Value::F64(x)) => Ok(*x),
        Some(serde::Value::U64(n)) => Ok(*n as f64),
        other => Err(format!(
            "metrics scrape without `{name}.{field}`: {other:?}"
        )),
    };
    Ok(ExecutorScrape {
        wait_s: hist("queue_wait_seconds", "sum")?,
        waits: hist("queue_wait_seconds", "count")? as u64,
        busy_s: hist("worker_busy_seconds", "sum")?,
    })
}
