//! `pam-benchmark`: the repo's benchmark, from the tree to the wire.
//!
//! ```text
//! pam-benchmark --workload uniform|zipf --seed N --seconds S --trace 0|1 [--only PHASE,...]
//! pam-benchmark suite --runs N [--seed BASE] [--trace 0|1] --out FILE
//! pam-benchmark compare A.json B.json [--bench BENCHMARK.json]
//! pam-benchmark describe
//! ```
//!
//! A run executes six phases under one key distribution, checks every
//! output against an oracle, and prints every metric by name and unit;
//! the last line of stdout is the result object `BENCHMARK.json`'s
//! contract asks for. See `README.md` beside this package.

mod calib;
mod catalog;
mod compare;
mod env;
mod gen;
mod measure;
mod oracle;
mod phases;
mod profile;
mod remote;
mod report;
mod run;
mod stats;
mod trace;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("suite") => compare::suite(&args[1..]),
        Some("describe") => {
            print!("{}", catalog::markdown());
            Ok(())
        }
        Some("run") => run::main(&args[1..]),
        _ => run::main(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pam-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}
