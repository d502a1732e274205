//! `gpm-benchmark` — the repository's benchmark.
//!
//! ```text
//! gpm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gpm-benchmark all        [--seed <n>] [--seconds <s>]
//! gpm-benchmark selfcheck  [--seed <n>] [--seconds <s>]
//! any form:                [--dataset <1|2>]
//! ```
//!
//! The first form is the driver's contract: it prints a human-readable
//! report and, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` for the
//! measurement rules and `NOISE.md` for where the bounds come from.

mod args;
mod digest;
mod estimator;
mod host;
mod measure;
mod report;
mod selfcheck;
mod spans;
mod workloads;

use std::process::ExitCode;

use args::Command;

/// Where traces and the traced run's delta log go: `out/` next to this
/// package's manifest, inside the checkout and ignored by git.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match args::parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gpm-benchmark: {e}");
            eprintln!(
                "usage: gpm-benchmark --workload <{}> --seed <n> --seconds <1..60> --trace <0|1>\n       \
                 gpm-benchmark all|selfcheck [--seed <n>] [--seconds <s>]\n\
                 any form: [--dataset <1|2>] (default 1; --seed never varies the data)",
                workloads::Workload::ALL.map(|w| w.name()).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Run(run) => {
            let outcome = workloads::run(&run);
            let catalog = if run.trace { report::PER_LAYER } else { report::END_TO_END };
            for row in outcome.metrics.in_catalog(catalog) {
                println!("{:<48} {:>18.6} {:<6} n={}", row.name, row.value, row.unit, row.samples);
            }
            println!("{}", outcome.contract_line(run.trace));
            ExitCode::SUCCESS
        }
        Command::All(suite) => selfcheck::all(suite),
        Command::Selfcheck(suite) => selfcheck::selfcheck(suite),
    }
}
