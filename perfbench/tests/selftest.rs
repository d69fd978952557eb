//! Self-tests of the benchmark harness: its metric arithmetic, and the
//! replica of every cell kind against `CellSpec::compute`, bit for bit.

use perfbench::reference::Reference;
use perfbench::replay::{kind_name, replay};
use perfbench::stats::{
    failed_frac, gap_summary, median, quartiles, relative_gap, relative_spread,
};
use perfbench::workload::WORKLOADS;
use tb_flow::SolverWorkspace;
use topobench::sweep::{CellSpec, FbMatrix, TopoSpec};
use topobench::{EvalConfig, TmSpec};

/// Reference values from Python's `statistics.quantiles(xs, n=4)` and
/// `statistics.median(xs)`, the functions the acceptance check uses.
#[test]
fn quartiles_match_python_statistics() {
    let cases: [(&[f64], [f64; 3]); 5] = [
        (
            &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
            [2.75, 5.5, 8.25],
        ),
        (&[1., 2., 3., 4.], [1.25, 2.5, 3.75]),
        (&[5., 1.], [0.0, 3.0, 6.0]),
        (&[3.5, 1.25, 9.0, 2.0, 7.75], [1.625, 3.5, 8.375]),
        (
            &[0.31, 0.29, 0.33, 0.30, 0.35, 0.28, 0.32, 0.34, 0.36, 0.27],
            [0.2875, 0.315, 0.3425],
        ),
    ];
    for (xs, [q1, q2, q3]) in cases {
        let (a, b, c) = quartiles(xs);
        for (got, want) in [(a, q1), (b, q2), (c, q3)] {
            assert!((got - want).abs() < 1e-12, "{xs:?}: got {got}, want {want}");
        }
        assert!((median(xs) - q2).abs() < 1e-12, "{xs:?}: median");
    }
    assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    let spread = relative_spread(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]);
    assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
}

#[test]
fn gaps_and_failure_fraction() {
    assert_eq!(relative_gap(0.9, 1.0, false), (1.0 - 0.9) / 1.0);
    assert_eq!(relative_gap(0.5, 0.5, false), 0.0);
    // Exact solves count as zero even when rounding leaves upper < lower.
    assert_eq!(relative_gap(1.0, 0.9999999999999951, true), 0.0);
    // A zero-throughput instance has no meaningful gap.
    assert_eq!(relative_gap(0.0, 0.0, false), 0.0);
    let (max, mean) = gap_summary(&[0.0, 0.04, 0.02]);
    assert_eq!(max, 0.04);
    assert!((mean - 0.02).abs() < 1e-15);
    assert_eq!(gap_summary(&[]), (0.0, 0.0));
    assert_eq!(failed_frac(0, 309), 0.0);
    assert_eq!(failed_frac(3, 12), 0.25);
    assert_eq!(failed_frac(0, 0), 0.0);
}

#[test]
fn workloads_name_registered_scenarios_and_fixed_pool_widths() {
    for w in WORKLOADS {
        assert!(w.jobs >= 1, "{}", w.name);
        for pass in w.passes {
            assert!(
                experiments::find_scenario(pass.scenario).is_some(),
                "{}: unknown scenario {}",
                w.name,
                pass.scenario
            );
        }
    }
}

fn cube(dims: usize) -> TopoSpec {
    TopoSpec::Hypercube { dims, servers: 1 }
}

/// One tiny instance of every cell kind; hypercube d=3 takes the exact-LP
/// path, d=5 the FPTAS.
fn tiny_cells() -> Vec<CellSpec> {
    let mut cells = vec![
        CellSpec::Throughput {
            topo: cube(3),
            tm: TmSpec::AllToAll,
            tm_seed: 1,
        },
        CellSpec::Throughput {
            topo: cube(5),
            tm: TmSpec::LongestMatching,
            tm_seed: 1,
        },
        CellSpec::Relative {
            topo: cube(3),
            tm: TmSpec::LongestMatching,
        },
        CellSpec::Relative {
            topo: cube(5),
            tm: TmSpec::RandomMatching {
                servers_per_switch: 1,
            },
        },
        CellSpec::CutEstimate {
            topo: cube(3),
            tm: TmSpec::AllToAll,
            tm_seed: 1,
        },
        CellSpec::PathLengthRatio {
            topo: cube(3),
            rnd_seed: 78,
        },
        CellSpec::PathRestricted {
            topo: cube(3),
            k_paths: 2,
            tm_seed: 1,
        },
        CellSpec::Degradation {
            topo: cube(4),
            tm: TmSpec::AllToAll,
            tm_seed: 1,
            link_fail_frac: 0.125,
            switch_failures: 1,
            failure_seeds: 3,
            seed: 91,
        },
        CellSpec::Search {
            start: TopoSpec::Jellyfish {
                switches: 8,
                degree: 3,
                servers: 2,
                seed: 1,
            },
            tm: TmSpec::AllToAll,
            tm_seed: 1,
            max_steps: 1,
        },
        CellSpec::PanicProbe { fail_attempts: 0 },
    ];
    for matrix in [FbMatrix::Hadoop, FbMatrix::Frontend] {
        for shuffled in [false, true] {
            cells.push(CellSpec::FacebookRelative {
                topo: cube(4),
                matrix,
                shuffled,
                tm_seed: 1,
                shuffle_seed: 10,
            });
        }
    }
    cells
}

#[test]
fn replica_is_bit_identical_to_the_program_for_every_cell_kind() {
    let cfg = EvalConfig::fast();
    let mut kinds = std::collections::BTreeSet::new();
    for spec in tiny_cells() {
        let want = spec.compute(&cfg, &mut SolverWorkspace::new());
        let got = replay(&spec, &cfg, &mut SolverWorkspace::new());
        assert!(
            got.values.bit_identical(&want),
            "{spec:?}\n replica {:?}\n program {:?}",
            got.values,
            want
        );
        let kind = kind_name(&spec);
        kinds.insert(kind);
        let timed = got.trace.cells.get(kind).expect("whole-cell span recorded");
        assert_eq!(timed.count, 1);
        let timed_whole = matches!(spec, CellSpec::Search { .. } | CellSpec::PanicProbe { .. });
        assert_eq!(got.whole, timed_whole, "{kind}");
        if timed_whole {
            assert!(
                got.solves.is_empty(),
                "{kind}: solves of a whole cell are invisible"
            );
        } else if !matches!(
            spec,
            CellSpec::CutEstimate { .. } | CellSpec::PathLengthRatio { .. }
        ) {
            assert!(!got.solves.is_empty(), "{kind}: every solve is recorded");
        }
        for s in &got.solves {
            assert!(s.lower.is_finite() && s.upper.is_finite() && s.lower >= 0.0);
        }
    }
    assert_eq!(kinds.len(), 9, "every cell kind is covered: {kinds:?}");
}

#[test]
fn replica_records_each_solver_path() {
    let cfg = EvalConfig::fast();
    let mut ws = SolverWorkspace::new();
    let exact = replay(&tiny_cells()[0], &cfg, &mut ws);
    assert_eq!(
        (exact.trace.exact.count, exact.trace.fleischer.count),
        (1, 0)
    );
    assert!(exact.solves.iter().all(|s| s.exact));
    let fptas = replay(&tiny_cells()[1], &cfg, &mut ws);
    assert_eq!(
        (fptas.trace.exact.count, fptas.trace.fleischer.count),
        (0, 1)
    );
    assert!(fptas.trace.fleischer_phases > 0);
    assert!(fptas.solves.iter().all(|s| !s.exact && s.lower <= s.upper));
    // Relative: the absolute solve plus one per same-equipment sample.
    let rel = replay(&tiny_cells()[3], &cfg, &mut ws);
    let samples = cfg.random_graph_iterations as u64;
    assert_eq!(rel.solves.len() as u64, 1 + samples);
    assert_eq!(rel.trace.same_equipment.count, samples);
    assert_eq!(rel.trace.generate.count, 1 + samples);
    assert_eq!(rel.trace.build.count, 1);
}

/// The host reference kernel is fixed work: the same graph and the same
/// sweeps on every run and every machine.
#[test]
fn reference_kernel_is_fixed_work() {
    let (mut a, mut b) = (Reference::new(), Reference::new());
    let first: Vec<u64> = (0..4).map(|_| a.sweep()).collect();
    let again: Vec<u64> = (0..4).map(|_| b.sweep()).collect();
    assert_eq!(first, again);
    assert!(
        first.iter().all(|&d| d > 0),
        "every source reaches the graph"
    );
    assert_ne!(first[0], first[1], "sweeps rotate their source");
    assert!(a.rate(std::time::Duration::from_millis(5)) > 0.0);
}
