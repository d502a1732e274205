//! Command-line parsing.
//!
//! The driver's contract is
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; `all` and
//! `selfcheck` are the two human-facing subcommands and take the same
//! `--seed` / `--seconds` flags. `--dataset <1|2>` (default 1) picks which
//! frozen dataset any of the three runs on.

use crate::workloads::{Workload, DATASETS};

/// `--seconds` of a nominal run — the `run_seconds` of `BENCHMARK.json`.
/// Pass counts are frozen at this value and scale linearly from it.
pub const NOMINAL_SECONDS: u64 = 20;

/// One measured run, as the driver asks for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Which frozen dataset: 1 is the one every bound and trajectory is
    /// taken on, 2 the cross-check a perf claim must also hold on.
    pub dataset: u64,
}

/// What `all` and `selfcheck` hand every child run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: u64,
    pub dataset: u64,
}

/// What the binary was asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// One workload, one contract line.
    Run(RunArgs),
    /// Every workload, untraced then traced, every metric printed by name.
    All(SuiteArgs),
    /// Every workload twice in alternating order; non-zero exit on
    /// disagreement.
    Selfcheck(SuiteArgs),
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let (sub, flags) = match args.first().map(String::as_str) {
        Some("all") => ("all", &args[1..]),
        Some("selfcheck") => ("selfcheck", &args[1..]),
        _ => ("run", args),
    };
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dataset = 1;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number(flag, value)?),
            "--seconds" => {
                let s = number(flag, value)?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds must be 1..=60, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--dataset" => {
                dataset = number(flag, value)?;
                if !(1..=DATASETS).contains(&dataset) {
                    return Err(format!("--dataset must be 1..={DATASETS}, got {dataset}"));
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    match sub {
        "run" => Ok(Command::Run(RunArgs {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            dataset,
        })),
        _ if workload.is_some() || trace.is_some() => {
            Err(format!("{sub} takes only --seed, --seconds and --dataset"))
        }
        _ => {
            let suite = SuiteArgs {
                seed: seed.unwrap_or(1),
                seconds: seconds.unwrap_or(NOMINAL_SECONDS),
                dataset,
            };
            Ok(if sub == "all" { Command::All(suite) } else { Command::Selfcheck(suite) })
        }
    }
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value.parse().map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn contract_line_parses_in_any_flag_order() {
        let want = Command::Run(RunArgs {
            workload: Workload::StreamDirty,
            seed: 7,
            seconds: 20,
            trace: true,
            dataset: 1,
        });
        assert_eq!(
            parse(&v("--workload stream_dirty --seed 7 --seconds 20 --trace 1")).unwrap(),
            want
        );
        assert_eq!(
            parse(&v("--trace 1 --seconds 20 --seed 7 --workload stream_dirty")).unwrap(),
            want
        );
    }

    #[test]
    fn run_requires_every_flag() {
        for missing in ["--workload static_paper", "--seed 1", "--seconds 5", "--trace 0"] {
            let all = "--workload static_paper --seed 1 --seconds 5 --trace 0";
            let args = v(&all.replace(missing, ""));
            assert!(parse(&args).is_err(), "accepted a run without {missing}");
        }
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(parse(&v("--workload nope --seed 1 --seconds 5 --trace 0")).is_err());
        assert!(parse(&v("--workload static_paper --seed x --seconds 5 --trace 0")).is_err());
        assert!(parse(&v("--workload static_paper --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(&v("--workload static_paper --seed 1 --seconds 61 --trace 0")).is_err());
        assert!(parse(&v("--workload static_paper --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse(&v("--workload static_paper --seed 1 --seconds 5 --trace")).is_err());
        assert!(parse(&v("--workload static_paper --seed 1 --seconds 5 --bogus 1")).is_err());
        assert!(parse(&v("--workload static_paper --seed 1 --seconds 5 --trace 0 --dataset 3"))
            .is_err());
    }

    #[test]
    fn subcommands_default_seed_and_seconds() {
        assert_eq!(
            parse(&v("all")).unwrap(),
            Command::All(SuiteArgs { seed: 1, seconds: NOMINAL_SECONDS, dataset: 1 })
        );
        assert_eq!(
            parse(&v("selfcheck --seed 9 --seconds 5 --dataset 2")).unwrap(),
            Command::Selfcheck(SuiteArgs { seed: 9, seconds: 5, dataset: 2 })
        );
        assert!(parse(&v("all --workload static_paper")).is_err());
        assert!(parse(&v("selfcheck --trace 1")).is_err());
    }
}
