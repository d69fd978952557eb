//! The unified sweep driver: run any registered scenario (or all of them)
//! through the engine, with parallel cell execution and the content-keyed
//! result cache — plus artifact diffing for before/after regression checks.
//!
//! ```text
//! sweep --list                         # scenario index
//! sweep --scenario fig02               # one scenario, reduced scale
//! sweep --scenario all --full --csv    # every scenario at paper scale
//! sweep --scenario fig02 --jobs 2 --expect-cache-hot
//! sweep --scenario all --write-golden  # refresh results/golden/
//!
//! sweep diff results/golden/fig02.json results/fig02.json
//! sweep diff --all results/golden/ results/
//! sweep diff --tolerance 1e-9 old.json new.json
//!
//! sweep --scenario fig02 --certify     # attach optimality certificates
//! sweep verify results/fig02.json      # re-check the stored certificates
//! sweep verify --all results/golden/
//! ```
//!
//! Unlike the per-figure binaries, `sweep` always writes (and validates) the
//! JSON artifact `results/<scenario>.json` (filtered runs:
//! `results/<scenario>.partial.json`, marked `"partial": true`) and prints a
//! cache/solver/build summary per scenario. `--expect-cache-hot` turns a
//! warm cache into an assertion: the run fails unless every cell came from
//! the cache with zero solver invocations **and zero topology
//! constructions** — CI uses this to prove that both the cache and the
//! construction-free metadata layer work end to end.
//!
//! `sweep diff` compares two artifacts (or, with `--all`, two artifact
//! directories) cell by cell: values must match bit for bit (or within
//! `--tolerance`), and added/removed cells, label changes and schema changes
//! are reported. Exit status: 0 clean, 1 regressions, 2 usage/IO errors.
//!
//! `sweep verify` independently re-checks the optimality certificates stored
//! by a `--certify` run: each certified cell's instance is rebuilt from its
//! spec and the evidence re-verified bit for bit (same exit convention).

use experiments::{find_scenario, registry, run_and_emit, ExtraFlag, RunOptions};
use topobench::sweep::{diff_dirs, diff_files, DiffOptions};

const EXTRA_FLAGS: [ExtraFlag; 4] = [
    ExtraFlag {
        name: "--list",
        takes_value: false,
        help: "print the scenario index and exit",
    },
    ExtraFlag {
        name: "--scenario",
        takes_value: true,
        help: "scenario name to run (or 'all')",
    },
    ExtraFlag {
        name: "--expect-cache-hot",
        takes_value: false,
        help: "fail unless every cell is served from the cache (zero solver calls, zero builds)",
    },
    ExtraFlag {
        name: "--write-golden",
        takes_value: false,
        help: "also copy each complete artifact to results/golden/<name>.json",
    },
];

fn print_index() {
    println!("Registered scenarios (run with --scenario <name>):\n");
    for s in registry() {
        println!("  {:<14} {}", s.name, s.title);
    }
    println!("\nCells are cached under results/cache/; artifacts go to results/<name>.json.");
    println!("Compare artifacts with: sweep diff [--all] [--tolerance X] <old> <new>");
}

fn run_diff(args: &[String]) -> i32 {
    let mut all = false;
    let mut tolerance = 0.0f64;
    let mut paths: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => all = true,
            "--tolerance" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("error: --tolerance requires a value");
                    return 2;
                };
                match v.parse::<f64>() {
                    Ok(t) if t >= 0.0 => tolerance = t,
                    _ => {
                        eprintln!("error: --tolerance requires a non-negative number, got '{v}'");
                        return 2;
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "Usage: sweep diff [--all] [--tolerance X] <old> <new>\n\n\
                     Compares two topobench-sweep/v1 artifacts cell by cell (bit-exact by\n\
                     default). With --all, <old> and <new> are directories and every *.json\n\
                     artifact present in both is compared; artifacts missing from <new> are\n\
                     regressions. Exit status: 0 clean, 1 regressions, 2 usage/IO errors."
                );
                return 0;
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown argument: {flag}");
                return 2;
            }
            path => paths.push(path),
        }
        i += 1;
    }
    let [old, new] = paths.as_slice() else {
        eprintln!("error: sweep diff requires exactly two paths (old, new); see sweep diff --help");
        return 2;
    };
    let opts = DiffOptions { tolerance };
    if all {
        match diff_dirs(old.as_ref(), new.as_ref(), &opts) {
            Ok(diff) => {
                print!("{}", diff.render());
                if diff.is_clean() {
                    println!("[sweep diff] OK: {} artifact(s) compared", diff.diffs.len());
                    0
                } else {
                    eprintln!("[sweep diff] FAILED: {} regression(s)", diff.regressions());
                    1
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                2
            }
        }
    } else {
        match diff_files(old.as_ref(), new.as_ref(), &opts) {
            Ok(diff) => {
                print!("{}", diff.render());
                if diff.is_clean() {
                    0
                } else {
                    eprintln!("[sweep diff] FAILED: {} regression(s)", diff.regressions());
                    1
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                2
            }
        }
    }
}

fn run_verify(args: &[String]) -> i32 {
    let mut all = false;
    let mut paths: Vec<&str> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--all" => all = true,
            "--help" | "-h" => {
                println!(
                    "Usage: sweep verify [--all] <artifact|dir>\n\n\
                     Re-checks the optimality certificates stored in a topobench-sweep/v1\n\
                     artifact (produce one with --certify): each certified cell's instance is\n\
                     rebuilt from its spec and the stored evidence is re-verified against it,\n\
                     bit for bit. Failed and budget-exhausted cells are reported as\n\
                     unverifiable, never certified. With --all, every *.json artifact in the\n\
                     directory is verified and at least one certificate must be present\n\
                     overall (an accidentally uncertified tree must not read as clean).\n\
                     Exit status: 0 verified clean, 1 bad certificate (or nothing certified\n\
                     with --all), 2 usage/IO errors."
                );
                return 0;
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown argument: {flag}");
                return 2;
            }
            path => paths.push(path),
        }
    }
    let [path] = paths.as_slice() else {
        eprintln!("error: sweep verify requires exactly one path; see sweep verify --help");
        return 2;
    };
    if all {
        let results = match experiments::verify::verify_artifact_dir(path.as_ref()) {
            Ok(results) => results,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        let mut certified = 0usize;
        let mut bad = 0usize;
        let mut io_errors = 0usize;
        for (name, result) in &results {
            match result {
                Ok(report) => {
                    print!("{}", report.render());
                    certified += report.certified;
                    bad += report.bad.len();
                }
                Err(e) => {
                    eprintln!("error: {name}: {e}");
                    io_errors += 1;
                }
            }
        }
        if io_errors > 0 {
            return 2;
        }
        if bad > 0 {
            eprintln!("[sweep verify] FAILED: {bad} bad certificate(s)");
            return 1;
        }
        if certified == 0 {
            // A tree with zero certificates verifies nothing; succeeding here
            // would let an accidentally uncertified golden refresh pass CI.
            eprintln!(
                "[sweep verify] FAILED: no certificates found in {path} \
                 (regenerate the artifacts with --certify)"
            );
            return 1;
        }
        println!(
            "[sweep verify] OK: {certified} certificate(s) verified across {} artifact(s)",
            results.len()
        );
        0
    } else {
        match experiments::verify::verify_artifact_file(path.as_ref()) {
            Ok(report) => {
                print!("{}", report.render());
                if report.is_clean() {
                    0
                } else {
                    eprintln!(
                        "[sweep verify] FAILED: {} bad certificate(s)",
                        report.bad.len()
                    );
                    1
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                2
            }
        }
    }
}

fn main() {
    // `sweep diff` / `sweep verify` are subcommands with their own argument
    // grammar; dispatch before the shared strict option parser sees the args.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("diff") {
        std::process::exit(run_diff(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("verify") {
        std::process::exit(run_verify(&raw[1..]));
    }

    let (opts, extras) = RunOptions::from_args_with(&EXTRA_FLAGS);
    let flag = |name: &str| extras.iter().find(|(n, _)| n == name);
    if flag("--list").is_some() {
        print_index();
        return;
    }
    let Some((_, target)) = flag("--scenario") else {
        print_index();
        eprintln!("\nerror: --scenario <name> (or --list) is required");
        std::process::exit(2);
    };
    let expect_cache_hot = flag("--expect-cache-hot").is_some();
    let write_golden = flag("--write-golden").is_some();
    if write_golden && opts.filter.is_some() {
        eprintln!("error: --write-golden cannot be combined with --filter (partial artifacts are not golden)");
        std::process::exit(2);
    }

    let scenarios = if target == "all" {
        registry()
    } else {
        match find_scenario(target) {
            Some(s) => vec![s],
            None => {
                eprintln!("error: unknown scenario '{target}' (see --list)");
                std::process::exit(2);
            }
        }
    };

    let mut cache_cold = false;
    for scenario in &scenarios {
        let (report, render, written) = run_and_emit(scenario, &opts);
        // The per-figure binaries only write the artifact with --csv; the
        // sweep driver always writes (and validates) it. Filtered runs land
        // in results/<name>.partial.json via the artifact writer.
        let artifact_path = written.unwrap_or_else(|| {
            experiments::write_and_validate_artifact(
                scenario,
                &opts.sweep_options(),
                &report,
                &render,
            )
        });
        if write_golden {
            let golden_dir = std::path::PathBuf::from("results").join("golden");
            std::fs::create_dir_all(&golden_dir).expect("failed to create results/golden");
            let golden_path = golden_dir.join(format!("{}.json", scenario.name));
            std::fs::copy(&artifact_path, &golden_path).expect("failed to copy golden artifact");
            println!("(golden: {})", golden_path.display());
        }
        println!(
            "\n[sweep] {}: {} cells ({} unique), {} cache hits, {} solver calls, {} topology builds",
            scenario.name,
            report.outcomes.len(),
            report.unique_cells,
            report.cache_hits,
            report.solver_calls,
            report.topo_builds
        );
        if report.failed_cells > 0 {
            // Failed cells are isolated, not fatal: the artifact records them
            // with "status": "failed" and `sweep diff` flags the change.
            eprintln!(
                "[sweep] warning: {}: {} cell(s) failed (marked in the artifact)",
                scenario.name, report.failed_cells
            );
        }
        if report.cache_hits < report.unique_cells
            || report.solver_calls > 0
            || report.topo_builds > 0
        {
            cache_cold = true;
        }
    }
    if expect_cache_hot && cache_cold {
        eprintln!(
            "error: --expect-cache-hot but at least one cell was computed fresh \
             (or a topology was constructed)"
        );
        std::process::exit(1);
    }
}
