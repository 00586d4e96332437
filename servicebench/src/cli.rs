//! Command-line parsing: strict, with exit code 2 on any bad argument.

use crate::workload::Workload;

/// Usage text printed by `--help` and after every argument error.
pub const USAGE: &str = "\
usage: netrel-servicebench --workload <name> --seconds <n> [--seed <n>] [--trace <0|1>]

Drives the NDJSON protocol in-process through Service::handle_line with one
closed-loop client (the next line is sent when the previous one returns) and
an engine of 2 workers, checks every answer, and prints each metric by name
with its unit. The last line of standard output is one JSON object:
{\"correct\", \"attempted\", \"failed\", \"metrics\"}.

  --workload <name>   road-cold | dense-sampled | hot-mixed-rw
  --seed <n>          traffic seed (unsigned integer, default 1); the same
                      seed sends the same lines
  --seconds <n>       timed seconds of the closed loop (1..=600, required:
                      BENCHMARK.json's run_seconds is the one run length);
                      every run also times at least its determinism prefix
  --trace <0|1>       0: end-to-end metrics; 1: also replay every line through
                      the layers' public functions and report per-layer
                      metrics (default 0)
  --help              print this text and exit

Exit status: 0 when every answer checked out, 1 when a check failed, 2 on a
usage error.";

/// Parsed arguments of one run.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Which traffic to send.
    pub workload: Workload,
    /// Seed of the traffic.
    pub seed: u64,
    /// Timed seconds.
    pub seconds: u64,
    /// Run the layer replay and report per-layer metrics.
    pub trace: bool,
}

/// What the command line asked for.
#[derive(Debug)]
pub enum Command {
    /// Print usage and exit 0.
    Help,
    /// Run one workload.
    Run(Args),
}

/// Parse the arguments after the program name. Accepts `--flag value` and
/// `--flag=value`; rejects unknown flags, repeated flags, missing and
/// malformed values.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(Command::Help);
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument `{arg}`")),
        };
        if slot.is_some() {
            return Err(format!("`{flag}` given twice"));
        }
        let value = match inline {
            Some(v) => v,
            None => it.next().ok_or_else(|| format!("`{flag}` needs a value"))?,
        };
        *slot = Some(value);
    }

    let workload = match workload {
        Some(name) => Workload::parse(&name).ok_or_else(|| {
            format!("unknown workload `{name}` (use road-cold, dense-sampled or hot-mixed-rw)")
        })?,
        None => return Err("missing `--workload`".into()),
    };
    let seed = match seed {
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| format!("`--seed` takes an unsigned integer, got `{s}`"))?,
        None => 1,
    };
    let seconds = match seconds {
        Some(s) => match s.parse::<u64>() {
            Ok(n) if (1..=600).contains(&n) => n,
            _ => {
                return Err(format!(
                    "`--seconds` takes an integer in 1..=600, got `{s}`"
                ))
            }
        },
        None => return Err("missing `--seconds`".into()),
    };
    let trace = match trace.as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("`--trace` takes 0 or 1, got `{other}`")),
    };
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<Command, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn accepts_both_value_forms() {
        let Ok(Command::Run(a)) = run(&[
            "--workload",
            "road-cold",
            "--seed=9",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]) else {
            panic!("valid arguments rejected");
        };
        assert_eq!(a.workload, Workload::RoadCold);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 15, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "road-cold", "--seconds", "1", "--bogus"][..],
            &["--workload", "nope", "--seconds", "1"],
            &["--seed", "3", "--seconds", "1"],
            &["--workload", "road-cold", "--seed", "3"],
            &["--workload", "road-cold", "--seconds", "1", "--seed", "-1"],
            &["--workload", "road-cold", "--seconds", "0"],
            &["--workload", "road-cold", "--seconds", "1", "--trace", "2"],
            &["--workload", "road-cold", "--seconds", "1", "--seed"],
            &[
                "--workload",
                "road-cold",
                "--workload",
                "road-cold",
                "--seconds",
                "1",
            ],
        ] {
            assert!(run(bad).is_err(), "{bad:?} accepted");
        }
        assert!(matches!(run(&["--help"]), Ok(Command::Help)));
    }
}
