//! The phase scheduler: owns the multiplicative-weights loop.
//!
//! A *phase* routes every source's full (pre-scaled) demand once, source by
//! source in a fixed order, with lengths updated in place as each
//! capacity-limited tree iteration commits — the classical Fleischer
//! trajectory. The scheduler runs phases until the classical termination
//! `D(l) >= 1`, the bound gap closes, or a phase or time budget runs out,
//! refreshing the goal-direction potentials and evaluating the bounds on a
//! fixed phase cadence.

use super::route::{self, RouteCtx, RouteState, SerialState};
use super::{FleischerConfig, SolveStats, SolverWorkspace, PAR_MIN_SWEEP_WORK};
use crate::certificate::{CertCapture, ThroughputCertificate};
use crate::instance::FlowProblem;
use crate::lengths::MwuLengths;
use crate::ThroughputBounds;
use rayon::prelude::*;
use tb_graph::{Graph, SsspPool, SsspWorkspace};

/// Runs the full solve: setup, the phase loop, and the closing bound
/// evaluation. See the module docs of [`super`] for the algorithm.
pub(super) fn solve_problem(
    cfg: &FleischerConfig,
    graph: &Graph,
    prob: &FlowProblem,
    ws: &mut SolverWorkspace,
    want_cert: bool,
) -> (ThroughputBounds, SolveStats, Option<ThroughputCertificate>) {
    let n = prob.num_nodes();
    let m = prob.num_arcs();
    let eps = cfg.epsilon;
    assert!(eps > 0.0 && eps < 0.5, "epsilon must be in (0, 0.5)");
    let trivial_stats = SolveStats {
        phases: 0,
        converged: true,
    };
    // Trivial exits certify their zero with empty evidence at the
    // instance's real dimensions: zero flow, zero served amounts, unit
    // lengths (under which a disconnected pair drives the dual bound to an
    // exact zero).
    let trivial_cert = |prob: &FlowProblem| {
        want_cert.then(|| {
            let commodities = prob.sources().iter().map(|s| s.dests.len()).sum();
            ThroughputCertificate::build(
                prob,
                vec![0.0; prob.num_arcs()],
                vec![0.0; commodities],
                vec![1.0; prob.num_arcs()],
            )
        })
    };
    if m == 0 {
        return (
            ThroughputBounds::exact(0.0),
            trivial_stats,
            trivial_cert(prob),
        );
    }
    // Set TB_SOLVER_TRACE=1 to print per-solve convergence counters when
    // tuning the kernel. The global counters are process-cumulative, so
    // snapshot them here and print deltas: the trace line then pairs
    // tree/potential counts with the per-solve `phases=`/`d_l=` values.
    let trace = std::env::var_os("TB_SOLVER_TRACE").is_some();
    let trace_start = if trace {
        (
            route::TREE_COUNT.load(std::sync::atomic::Ordering::Relaxed),
            route::POT_COUNT.load(std::sync::atomic::Ordering::Relaxed),
        )
    } else {
        (0, 0)
    };

    // Pre-scale demands so the scaled optimum is near 1; this keeps the
    // phase count predictable regardless of the raw demand magnitudes.
    // The estimate doubles as the reachability check (0 iff some demand
    // pair is disconnected, which forces throughput 0) — one BFS sweep
    // instead of the former two.
    let est = prob.volumetric_estimate(graph);
    if est <= 0.0 {
        return (
            ThroughputBounds::exact(0.0),
            trivial_stats,
            trivial_cert(prob),
        );
    }
    let scale = est.max(1e-12);
    let demands: Vec<Vec<f64>> = prob
        .sources()
        .iter()
        .map(|s| s.dests.iter().map(|&(_, d)| d * scale).collect())
        .collect();
    // Destination node list per source, for early-exit SSSP.
    let targets: Vec<Vec<usize>> = prob
        .sources()
        .iter()
        .map(|s| s.dests.iter().map(|&(dst, _)| dst).collect())
        .collect();
    // Goal-direction bookkeeping: sources with exactly one destination
    // get an A* potential row (see module docs).
    let single_dest: Vec<Option<usize>> = prob
        .sources()
        .iter()
        .map(|s| {
            if s.dests.len() == 1 {
                Some(s.dests[0].0)
            } else {
                None
            }
        })
        .collect();
    let pot_rows: Vec<usize> = {
        let mut next = 0usize;
        single_dest
            .iter()
            .map(|d| {
                if d.is_some() {
                    next += 1;
                    next - 1
                } else {
                    usize::MAX
                }
            })
            .collect()
    };
    let num_single = single_dest.iter().filter(|d| d.is_some()).count();

    let SolverWorkspace {
        sssp,
        remaining,
        mwu,
        arc_state,
        touched,
        path,
        potentials,
        rev_lens,
        subtree,
        cur_len,
        sweep_pool,
    } = ws;
    // Sources at or above the aggregation threshold route all their
    // remaining demands in one bottom-up pass over the tree's settle
    // order instead of one parent walk per destination (see module docs).
    let agg_min_dests = cfg
        .aggregate_min_dests
        .unwrap_or(super::DEFAULT_AGGREGATE_MIN_DESTS)
        .max(1);
    let any_dense = prob
        .sources()
        .iter()
        .any(|s| s.dests.len() >= agg_min_dests);

    // Reuse a tree across a source's capacity-limited iterations while
    // the walked path is within this factor of the tree's recorded
    // distance; a quarter step keeps routed paths well inside the slack
    // the analysis absorbs.
    let reuse_slack = 1.0 + 0.25 * eps;
    // A zero `check_interval` would otherwise silently disable every
    // mid-run bound evaluation (and with it early termination).
    let check_interval = cfg.check_interval.max(1);
    let pot_refresh = check_interval;
    // Goal direction is kept on for the whole solve whenever any source
    // qualifies: switching kernels mid-solve was tried and reverted — it
    // changes tie-breaking, and with it the routing trajectory, enough to
    // slow convergence on some topologies.
    let goal_enabled = num_single > 0;

    let num_sources = prob.sources().len();
    let ctx = RouteCtx {
        prob,
        demands: &demands,
        targets: &targets,
        single_dest: &single_dest,
        pot_rows: &pot_rows,
        num_single,
        goal_enabled,
        reuse_slack,
    };

    // The optional wall-clock budget; checked on the bound-evaluation
    // cadence so the deterministic trajectory is untouched when unset.
    let solve_start = cfg.time_budget_ms.map(|_| std::time::Instant::now());

    let mut flow_arc = vec![0.0f64; m];
    let mut routed: Vec<Vec<f64>> = demands.iter().map(|d| vec![0.0; d.len()]).collect();
    let mut best_lower = 0.0f64;
    let mut best_upper = f64::INFINITY;
    // Certificate capture: pure snapshots of the state behind each best
    // bound, never arithmetic on solver state — the trajectory is
    // identical with capture on or off.
    let mut capture = want_cert.then(CertCapture::default);

    // Lengths start at the classical delta init.
    mwu.reset(eps, prob.arc_caps());
    arc_state.clear();
    arc_state.extend(prob.arcs().iter().map(|a| RouteState {
        avail: a.cap,
        used: 0.0,
        cap: a.cap,
    }));
    touched.clear();
    if num_single > 0 {
        potentials.clear();
        potentials.resize(num_single * n, f64::INFINITY);
    }
    if any_dense {
        subtree.clear();
        subtree.resize(n, 0.0);
        cur_len.clear();
        cur_len.resize(n, 0.0);
    }

    let mut phase = 0usize;
    let mut state_evaluated = false;
    'phases: while phase < cfg.max_phases && !mwu.saturated() {
        if goal_enabled && phase.is_multiple_of(pot_refresh) {
            route::refresh_potentials(&ctx, mwu.lens(), rev_lens, potentials, sssp, sweep_pool);
        }
        for si in 0..num_sources {
            if mwu.saturated() {
                break 'phases;
            }
            remaining.clear();
            remaining.extend_from_slice(&demands[si]);
            // Compute this source's tree at the current lengths, goal-
            // directed when it has a single destination.
            route::compute_tree(&ctx, si, potentials, mwu.lens(), sssp);
            let dense = prob.sources()[si].dests.len() >= agg_min_dests;
            let mut state = SerialState {
                mwu: &mut *mwu,
                st: &mut arc_state[..],
                flow_arc: &mut flow_arc,
                remaining: &mut *remaining,
                touched: &mut *touched,
                path: &mut *path,
                subtree: &mut subtree[..],
                cur_len: &mut cur_len[..],
                sssp: &mut *sssp,
            };
            let ok = if dense {
                route::route_source_tree(&ctx, si, potentials, &mut state, &mut routed[si])
            } else {
                route::route_source_walk(&ctx, si, potentials, &mut state, &mut routed[si])
            };
            if !ok {
                break 'phases;
            }
        }
        phase += 1;
        if phase.is_multiple_of(check_interval) {
            let (lo, up, mu) = evaluate_bounds(
                &ctx, potentials, &routed, &flow_arc, mwu, arc_state, sssp, sweep_pool,
            );
            if let Some(cap) = capture.as_mut() {
                cap.observe(
                    lo,
                    up,
                    mu,
                    best_lower,
                    best_upper,
                    mwu.lens(),
                    &flow_arc,
                    &routed,
                );
            }
            best_lower = best_lower.max(lo);
            best_upper = best_upper.min(up);
            if best_upper.is_finite() && (best_upper - best_lower) / best_upper <= cfg.target_gap {
                // No routing has happened since this evaluation, so the
                // closing sweep below would recompute the same bounds;
                // skip it.
                state_evaluated = true;
                break 'phases;
            }
            if let (Some(budget_ms), Some(start)) = (cfg.time_budget_ms, solve_start) {
                if start.elapsed().as_millis() >= u128::from(budget_ms) {
                    state_evaluated = true;
                    break 'phases;
                }
            }
        }
    }

    if trace {
        eprintln!(
            "TB_SOLVER_TRACE phases={phase} trees={} pot_refreshes={} d_l={:.4}",
            route::TREE_COUNT
                .load(std::sync::atomic::Ordering::Relaxed)
                .wrapping_sub(trace_start.0),
            route::POT_COUNT
                .load(std::sync::atomic::Ordering::Relaxed)
                .wrapping_sub(trace_start.1),
            mwu.d_l(),
        );
    }

    // Final bound evaluation (unless the state was already evaluated by
    // the gap check that ended the run).
    if !state_evaluated {
        let (lo, up, mu) = evaluate_bounds(
            &ctx, potentials, &routed, &flow_arc, mwu, arc_state, sssp, sweep_pool,
        );
        if let Some(cap) = capture.as_mut() {
            cap.observe(
                lo,
                up,
                mu,
                best_lower,
                best_upper,
                mwu.lens(),
                &flow_arc,
                &routed,
            );
        }
        best_lower = best_lower.max(lo);
        best_upper = best_upper.min(up);
    }
    if !best_upper.is_finite() {
        best_upper = best_lower;
    }

    // Converged = the accuracy contract held when the loop ended: either the
    // classical FPTAS termination (`D(l) >= 1`, the (1±ε) guarantee) or the
    // target bound gap. A solve that merely ran out of its phase or time
    // budget reports `converged: false`, which the outcome layer maps to
    // `SolveStatus::BudgetExhausted`.
    let stats = SolveStats {
        phases: phase,
        converged: mwu.saturated()
            || best_upper <= 0.0
            || (best_upper - best_lower) / best_upper <= cfg.target_gap,
    };
    // Undo the demand pre-scaling: bounds computed for demands d*scale are
    // 1/scale times the bounds for d. The certificate needs no scale field:
    // its flow and served amounts are absolute, so the canonical claims come
    // out in original demand units directly.
    let cert = capture.map(|cap| cap.into_certificate(prob));
    (
        ThroughputBounds {
            lower: best_lower * scale,
            upper: best_upper * scale,
        },
        stats,
        cert,
    )
}

/// Evaluates the practical feasible lower bound and the dual upper bound
/// for the current state, returning `(lower, upper, mu)` where `mu` is the
/// capacity-rescale factor behind the lower bound (the certificate capture
/// stores it alongside the flow snapshot). Bounds are in the *scaled*
/// demand space.
///
/// The dual bound needs one shortest-path computation per source under the
/// current lengths (goal-directed where a potential row exists); the sweep is
/// read-only over the lengths, so for larger instances it fans out across
/// threads (each worker leasing its own SSSP workspace from `pool`), with a
/// fixed summation order keeping the result independent of thread count.
#[allow(clippy::too_many_arguments)]
fn evaluate_bounds(
    ctx: &RouteCtx<'_>,
    potentials: &[f64],
    routed: &[Vec<f64>],
    flow_arc: &[f64],
    mwu: &MwuLengths,
    st: &[RouteState],
    sssp: &mut SsspWorkspace,
    pool: &SsspPool,
) -> (f64, f64, f64) {
    // Feasible lower bound: scale the accumulated flow down so that no arc
    // exceeds its capacity, then the worst-served commodity determines the
    // concurrent throughput.
    let mut mu = f64::INFINITY;
    for (f, a) in flow_arc.iter().zip(st) {
        if *f > 1e-15 {
            mu = mu.min(a.cap / f);
        }
    }
    let lower = if mu.is_finite() {
        let mut worst = f64::INFINITY;
        for (r, d) in routed.iter().zip(ctx.demands) {
            for (rj, dj) in r.iter().zip(d) {
                worst = worst.min(rj / dj);
            }
        }
        if worst.is_finite() {
            worst * mu
        } else {
            0.0
        }
    } else {
        0.0
    };

    // Dual upper bound: D(l) / alpha(l) with alpha(l) the demand-weighted
    // shortest-path distances under the current lengths.
    let alpha_of = |sw: &mut SsspWorkspace, si: usize| -> f64 {
        let s = &ctx.prob.sources()[si];
        route::compute_tree(ctx, si, potentials, mwu.lens(), sw);
        s.dests
            .iter()
            .enumerate()
            .map(|(j, &(dst, _))| ctx.demands[si][j] * sw.dist(dst))
            .sum()
    };
    let num_sources = ctx.prob.sources().len();
    let alpha: f64 = if num_sources * ctx.prob.num_arcs() >= PAR_MIN_SWEEP_WORK
        && rayon::current_num_threads() > 1
    {
        // Materialize per-source alphas, then sum sequentially in source
        // order: the thread-count bit-identity contract must not lean on
        // any rayon implementation's `sum()` reduction order (the vendored
        // stand-in happens to be ordered; real rayon's split tree is not).
        let per_source: Vec<f64> = (0..num_sources)
            .into_par_iter()
            .map_init(|| pool.lease(), |sw, si| alpha_of(sw, si))
            .collect();
        per_source.iter().sum()
    } else {
        (0..num_sources).map(|si| alpha_of(sssp, si)).sum()
    };
    (lower, mwu.dual_bound(alpha), mu)
}
