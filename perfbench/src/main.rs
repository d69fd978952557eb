//! Command-line entry point of the benchmark; run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exit status: 0 when the
//! run completed (its correctness is in the JSON), 1 when it could not run,
//! 2 on a usage error.

use perfbench::bench::{run, setup_probe, Config};
use perfbench::reference::{Reference, REFERENCE_BURST};
use perfbench::workload::{find, WORKLOADS};

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "error: {msg}\n\nusage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 2u64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("{flag} requires a value")));
        match flag {
            "--workload" => {
                workload = Some(
                    find(value).unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => {
                seed = value.parse().unwrap_or_else(|_| {
                    usage(&format!("--seed requires an integer, got '{value}'"))
                })
            }
            "--seconds" => {
                seconds = value.parse().unwrap_or_else(|_| {
                    usage(&format!("--seconds requires an integer, got '{value}'"))
                })
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("--trace requires 0 or 1, got '{value}'")),
                }
            }
            _ => usage(&format!("unknown argument: {flag}")),
        }
        i += 2;
    }
    Config {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

fn main() {
    // Internal: one set-up repetition in a fresh process (see
    // `bench::setup_probe`); the parent times it from spawn to exit.
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Internal: one burst of the host reference kernel in a fresh process
    // (see `bench::HostSpeed`); prints sweeps per second.
    if args.len() == 1 && args[0] == "--reference-probe" {
        println!("{}", Reference::new().rate(REFERENCE_BURST));
        return;
    }
    if let [flag, name, seed] = args.as_slice() {
        if flag == "--setup-probe" {
            let workload =
                find(name).unwrap_or_else(|| usage(&format!("unknown workload '{name}'")));
            let seed = seed
                .parse()
                .unwrap_or_else(|_| usage("--setup-probe needs a seed"));
            if let Err(e) = setup_probe(workload, seed) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
    }
    let cfg = parse();
    let root = std::env::current_dir().unwrap_or_else(|e| {
        eprintln!("error: no working directory: {e}");
        std::process::exit(1);
    });
    match run(&cfg, &root) {
        Ok(outcome) => println!("{}", outcome.result_json()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
