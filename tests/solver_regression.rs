//! Cross-solver regression tests guarding the Fleischer hot-path refactor
//! (CSR arcs, reusable workspace, early-exit SSSP, parallel dual bounds):
//!
//! * on small instances where the exact arc LP is tractable, the FPTAS
//!   brackets must contain the exact optimum and close to within the
//!   configured `target_gap` of it, across topology and TM families with
//!   very different sparsity (A2A: dense; longest-matching and
//!   random-permutation: one destination per source — the early-exit fast
//!   path);
//! * repeated solves through one reused [`SolverWorkspace`] must reproduce
//!   fresh-workspace results bit-for-bit, in any interleaving order;
//! * the aggregated dense-TM routing kernel must match the per-destination
//!   walk within the FPTAS gap on every dense instance of the grid;
//! * solves large enough to fan the dual-bound sweep and the potential
//!   refresh out to the thread pool must be bit-identical to the same solves
//!   with every parallel region run inline. CI re-runs this binary at pool
//!   widths 1, 2 and 8, so the asserted values come from three thread
//!   counts.

use rayon::prelude::*;
use tb_flow::fleischer::PAR_MIN_SWEEP_WORK;
use tb_flow::{
    ExactLpSolver, FleischerConfig, FleischerSolver, FlowProblem, SolveStats, SolverWorkspace,
    ThroughputBounds,
};
use tb_graph::Graph;
use tb_topology::hypercube::hypercube;
use tb_topology::jellyfish::jellyfish;
use tb_topology::Topology;
use tb_traffic::synthetic::{all_to_all, longest_matching, random_permutation};
use tb_traffic::TrafficMatrix;

/// The small instance grid: every (topology, TM family) pair exercised by the
/// regression. Kept small enough for the exact LP.
fn instances() -> Vec<(String, Topology, TrafficMatrix)> {
    let mut out = Vec::new();
    let topos: Vec<(&str, Topology)> = vec![
        ("hypercube_d3", hypercube(3, 1)),
        ("hypercube_d4", hypercube(4, 1)),
        ("jellyfish_10x3", jellyfish(10, 3, 1, 7)),
        ("jellyfish_12x4", jellyfish(12, 4, 1, 11)),
    ];
    for (tname, topo) in topos {
        let tms: Vec<(&str, TrafficMatrix)> = vec![
            ("a2a", all_to_all(&topo.servers)),
            (
                "longest_matching",
                longest_matching(&topo.graph, &topo.servers, true),
            ),
            ("random_permutation", random_permutation(&topo.servers, 3)),
        ];
        for (mname, tm) in tms {
            out.push((format!("{tname}/{mname}"), topo.clone(), tm));
        }
    }
    out
}

#[test]
fn fptas_stays_within_target_gap_of_exact_lp() {
    let cfg = FleischerConfig::precise();
    let solver = FleischerSolver::new(cfg);
    for (name, topo, tm) in instances() {
        let exact = ExactLpSolver::new()
            .solve(&topo.graph, &tm)
            .unwrap_or_else(|e| panic!("{name}: exact LP failed: {e:?}"))
            .lower;
        assert!(exact > 0.0, "{name}: exact throughput not positive");
        let b = solver.solve(&topo.graph, &tm);
        // The bracket must contain the exact optimum...
        assert!(
            b.lower <= exact * (1.0 + 1e-6),
            "{name}: feasible bound {} exceeds exact optimum {exact}",
            b.lower
        );
        assert!(
            b.upper >= exact * (1.0 - 1e-6),
            "{name}: dual bound {} below exact optimum {exact}",
            b.upper
        );
        // ...and the feasible value must be within the configured gap of it
        // (small slack for the gap being measured against `upper`, not
        // `exact`).
        let rel_err = (exact - b.lower) / exact;
        assert!(
            rel_err <= cfg.target_gap + 0.005,
            "{name}: FPTAS lower bound {} misses exact {exact} by {rel_err:.4} \
             (target_gap {})",
            b.lower,
            cfg.target_gap
        );
    }
}

#[test]
fn reused_workspace_reproduces_fresh_results_across_instance_mix() {
    // One workspace is driven across the whole instance grid three times
    // (growing and shrinking between topologies); every result must equal the
    // fresh-workspace solve bit-for-bit.
    let solver = FleischerSolver::new(FleischerConfig::default());
    let grid = instances();
    let fresh: Vec<_> = grid
        .iter()
        .map(|(_, t, tm)| solver.solve(&t.graph, tm))
        .collect();
    let mut ws = SolverWorkspace::new();
    for round in 0..3 {
        for ((name, topo, tm), expect) in grid.iter().zip(&fresh) {
            let b = solver.solve_with(&topo.graph, tm, &mut ws);
            assert_eq!(
                (b.lower, b.upper),
                (expect.lower, expect.upper),
                "{name}: reused-workspace solve diverged in round {round}"
            );
        }
    }
    // Reverse order too: workspace shrink/grow transitions in the other
    // direction.
    for ((name, topo, tm), expect) in grid.iter().zip(&fresh).rev() {
        let b = solver.solve_with(&topo.graph, tm, &mut ws);
        assert_eq!(
            (b.lower, b.upper),
            (expect.lower, expect.upper),
            "{name}: reused-workspace solve diverged in reverse sweep"
        );
    }
}

#[test]
fn aggregated_kernel_matches_per_destination_walk_on_dense_tms() {
    // The aggregated bottom-up routing kernel (sources past
    // `aggregate_min_dests` route all demands in one pass over the settle
    // order) must produce bounds of the same quality as the per-destination
    // parent walk on dense TMs. When no arc's capacity binds within a tree
    // iteration the two are arithmetically identical; when a batch is scaled
    // by the binding `cap/load` ratio the trajectories may diverge within
    // the FPTAS gap, so the shared `tb_bench` kernel-equivalence contract
    // applies: overlapping brackets, no lost gap quality, and feasible
    // values within twice the target gap.
    for cfg0 in [FleischerConfig::default(), FleischerConfig::fast()] {
        for (name, topo, tm) in instances() {
            if tm.num_flows() < 2 * topo.num_switches() {
                continue; // only dense TMs exercise both kernels meaningfully
            }
            let aggregated = FleischerSolver::new(FleischerConfig {
                aggregate_min_dests: Some(2),
                ..cfg0
            })
            .solve(&topo.graph, &tm);
            let per_dest = FleischerSolver::new(FleischerConfig {
                aggregate_min_dests: Some(usize::MAX),
                ..cfg0
            })
            .solve(&topo.graph, &tm);
            tb_bench::assert_same_quality(&name, &cfg0, aggregated, per_dest);
        }
    }
}

#[test]
fn sparse_and_dense_tms_agree_with_exact_on_jellyfish() {
    // Focused check of the early-exit fast path: a sparse permutation TM on an
    // irregular random graph, compared against the exact LP at the tight
    // configuration.
    let topo = jellyfish(14, 4, 1, 3);
    let tm = random_permutation(&topo.servers, 9);
    let exact = ExactLpSolver::new().solve(&topo.graph, &tm).unwrap().lower;
    let b = FleischerSolver::new(FleischerConfig::precise()).solve(&topo.graph, &tm);
    assert!(b.lower <= exact * (1.0 + 1e-6) && exact <= b.upper * (1.0 + 1e-6));
    assert!(
        (exact - b.lower) / exact <= 0.015,
        "lower {} vs exact {exact}",
        b.lower
    );
}

/// Solves on a pool worker: with a pool of >= 2 workers the job is dispatched
/// to one, and every nested parallel region inside the solve then runs inline
/// (the vendored rayon's reentrancy rule). Two jobs are submitted because a
/// single-item fan-out short-circuits to the caller thread; with a 1-wide
/// pool everything is inline anyway.
fn solve_on_worker(
    solver: &FleischerSolver,
    g: &Graph,
    tm: &TrafficMatrix,
) -> (ThroughputBounds, SolveStats) {
    let results: Vec<Option<(ThroughputBounds, SolveStats)>> = (0..2usize)
        .into_par_iter()
        .map(|i| (i == 0).then(|| solver.solve_with_stats(g, tm, &mut SolverWorkspace::new())))
        .collect();
    results[0].expect("job 0 computes the solve")
}

#[test]
fn serial_solves_bit_identical_parallel_vs_inline_sweeps() {
    // A 128-switch jellyfish: 128 sources over 1024 arcs puts both the
    // single-destination longest-matching TM (potential refresh + bound
    // sweep) and the dense all-to-all TM (bound sweep over aggregated-kernel
    // sources) at the parallel work threshold, so on a wide pool the direct
    // solve fans out while the on-worker solve runs every region inline.
    let topo = jellyfish(128, 8, 1, 5);
    let cfg = FleischerConfig::fast().with_auto_aggregation(topo.num_switches());
    let solver = FleischerSolver::new(cfg);
    for (name, tm) in [
        (
            "longest_matching",
            longest_matching(&topo.graph, &topo.servers, true),
        ),
        ("a2a", all_to_all(&topo.servers)),
    ] {
        let prob = FlowProblem::new(&topo.graph, &tm);
        assert!(
            prob.sources().len() * prob.num_arcs() >= PAR_MIN_SWEEP_WORK,
            "{name}: {} sources x {} arcs stays below the parallel sweep threshold",
            prob.sources().len(),
            prob.num_arcs()
        );
        let (direct, direct_stats) =
            solver.solve_with_stats(&topo.graph, &tm, &mut SolverWorkspace::new());
        let (inline, inline_stats) = solve_on_worker(&solver, &topo.graph, &tm);
        assert!(direct.lower > 0.0, "{name}: {direct:?}");
        assert_eq!(
            (direct.lower.to_bits(), direct.upper.to_bits()),
            (inline.lower.to_bits(), inline.upper.to_bits()),
            "{name}: parallel sweeps {direct:?} vs inline {inline:?}"
        );
        assert_eq!(direct_stats, inline_stats, "{name}");
    }
}
