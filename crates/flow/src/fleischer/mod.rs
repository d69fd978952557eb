//! Fleischer / Garg–Könemann multiplicative-weights FPTAS for maximum
//! concurrent flow, with a practical twist: alongside the classical
//! guarantee, the solver maintains
//!
//! * a **feasible lower bound** obtained by rescaling the accumulated primal
//!   flow to respect capacities exactly, and
//! * a **dual upper bound** `D(l)/alpha(l)` evaluated on the current length
//!   function (valid for any positive lengths by LP duality),
//!
//! and stops as soon as the two are within `target_gap` of each other (or the
//! classical termination `D(l) >= 1` fires). On the instances the paper
//! evaluates the bounds typically close to within a few percent long before
//! the worst-case phase count is reached.
//!
//! ## Layout
//!
//! The solver is split across two submodules:
//!
//! * [`phase`] — the phase scheduler: owns the multiplicative-weights length
//!   state ([`crate::MwuLengths`]), routes every source once per phase in
//!   source order, and runs the potential-refresh and bound-evaluation
//!   cadence;
//! * [`route`] — the per-source routing kernels (goal-directed single
//!   destination, per-destination walk, aggregated bottom-up tree), which
//!   route a source's full demand in place, updating lengths between
//!   capacity-limited tree iterations.
//!
//! ## Hot-path machinery
//!
//! The inner loop is a shortest-path computation per source per iteration, so
//! the solver is built around the shared `tb_graph` SSSP kernel:
//!
//! * arcs live in a CSR view ([`FlowProblem::csr`]); no nested adjacency
//!   vectors are chased,
//! * all per-iteration state (Dijkstra arrays and heap, remaining demand,
//!   availability bookkeeping, the recorded routing path) lives in a
//!   [`SolverWorkspace`] that is allocated once and reset in O(1) via
//!   generation counters; parallel regions lease per-worker scratch from the
//!   workspace's [`tb_graph::WorkspacePool`]s instead of allocating,
//! * every SSSP call passes the source's destination set, so Dijkstra stops
//!   as soon as the last relevant node is settled,
//! * a tree is **reused** across a source's capacity-limited iterations while
//!   the walked path stays within a small factor of the tree's recorded
//!   distance (sound because arc lengths only ever grow, so the recorded
//!   distance lower-bounds the current one — the classical Fleischer
//!   argument),
//! * the dual bound's per-source SSSP sweep is read-only over the length
//!   function and fans out with rayon once the instance is large enough to
//!   amortize the pool.
//!
//! ## Goal-directed routing for sparse TMs
//!
//! Monotone lengths yield one more structural win: shortest-path distances
//! *to* a node, computed under any earlier (pointwise smaller) length
//! function, form a **consistent A\* potential** for the current lengths.
//! For every source with a single destination — the shape of matching-style
//! near-worst-case TMs, where each switch talks to one peer — the solver
//! caches reverse distances to that destination (refreshed on a fixed phase
//! cadence, in parallel for large instances) and runs the goal-directed
//! kernel [`tb_graph::sssp_csr_goal`] instead of a full Dijkstra. Distances
//! and routed paths remain *exact*; once the length function differentiates,
//! the search expands little beyond the shortest path itself, instead of
//! settling the whole graph per iteration.
//!
//! ## Aggregated tree routing for dense TMs
//!
//! At the opposite end of the TM spectrum (all-to-all and friends, where one
//! source talks to most of the graph), walking every destination's path
//! individually costs O(sum of path lengths) per tree iteration and re-touches
//! the arcs near the source once per destination. Sources whose destination
//! count reaches [`FleischerConfig::aggregate_min_dests`] instead route *all*
//! remaining demands in one bottom-up pass: the SSSP workspace exposes its
//! settle order ([`tb_graph::SsspWorkspace::settle_order`]), a reverse walk
//! over that order folds per-node subtree demand into the parent, and each
//! tree arc is loaded exactly once with its aggregate. If some arc's
//! aggregate load exceeds its capacity, the whole batch is scaled by the
//! binding `cap/load` ratio and the tree iteration repeats, so the
//! per-iteration length-update factor stays within `1 + eps` exactly as in
//! the per-destination walk. Sparse TMs keep the per-destination walk, where
//! goal direction wins; `tb_core`'s evaluation plumbing auto-picks the
//! threshold from the graph size via
//! [`FleischerConfig::with_auto_aggregation`].
//!
//! ## Determinism
//!
//! The trajectory is serial: sources route in a fixed order and every
//! length update lands in place before the next tree is computed. The only
//! parallel regions are the read-only per-source sweeps (the dual bound and
//! the potential refresh), which write per-source results that are combined
//! in source order, so results are bit-identical at any pool width.

mod phase;
mod route;

use crate::instance::FlowProblem;
use crate::lengths::MwuLengths;
use crate::ThroughputBounds;
use tb_graph::{Graph, SsspPool, SsspWorkspace};
use tb_traffic::TrafficMatrix;

/// Tuning knobs for the FPTAS.
#[derive(Debug, Clone, Copy)]
pub struct FleischerConfig {
    /// Multiplicative-weights step size (the classical epsilon). Smaller is
    /// more accurate but runs more phases.
    pub epsilon: f64,
    /// Stop once `(upper - lower) / upper <= target_gap`.
    pub target_gap: f64,
    /// Hard cap on the number of phases (safety valve).
    pub max_phases: usize,
    /// How many phases to run between bound evaluations (also the refresh
    /// cadence of the goal-direction potentials).
    pub check_interval: usize,
    /// Route a source's demands with the aggregated bottom-up tree kernel
    /// (one pass over the settle order per tree iteration instead of one
    /// parent walk per destination) once its destination count reaches this.
    /// `None` means "unset": the solver falls back to
    /// [`DEFAULT_AGGREGATE_MIN_DESTS`], and
    /// [`FleischerConfig::with_auto_aggregation`] may fill in a
    /// graph-size-aware value. `Some(usize::MAX)` disables aggregation, and
    /// any explicit `Some` survives the auto-pick.
    pub aggregate_min_dests: Option<usize>,
    /// Optional wall-clock budget in milliseconds, checked on the bound
    /// evaluation cadence. A solve that exhausts it stops and reports
    /// [`SolveStatus::BudgetExhausted`](crate::SolveStatus) with the best
    /// bracketed bounds so far instead of looping on a pathological
    /// instance. `None` (the default) keeps solves fully deterministic —
    /// [`FleischerConfig::max_phases`] is the deterministic phase budget.
    pub time_budget_ms: Option<u64>,
}

/// The aggregation threshold used when [`FleischerConfig::aggregate_min_dests`]
/// is unset: aggregation starts to pay once a source's destination count is a
/// sizable fraction of the graph (the tree then covers most settled nodes, so
/// per-destination walks re-touch the same arcs many times over).
pub const DEFAULT_AGGREGATE_MIN_DESTS: usize = 32;

impl Default for FleischerConfig {
    fn default() -> Self {
        FleischerConfig {
            epsilon: 0.07,
            target_gap: 0.03,
            max_phases: 20_000,
            check_interval: 8,
            aggregate_min_dests: None,
            time_budget_ms: None,
        }
    }
}

impl FleischerConfig {
    /// A faster, slightly looser configuration for large experiment sweeps.
    pub fn fast() -> Self {
        FleischerConfig {
            epsilon: 0.12,
            target_gap: 0.05,
            check_interval: 4,
            ..Default::default()
        }
    }

    /// A tighter configuration for validation against the exact LP.
    pub fn precise() -> Self {
        FleischerConfig {
            epsilon: 0.03,
            target_gap: 0.01,
            check_interval: 16,
            ..Default::default()
        }
    }

    /// Returns this configuration with an unset aggregation threshold picked
    /// for a graph of `num_switches` switches ([`auto_aggregate_min_dests`]).
    /// Once a source talks to that fraction of the graph, its shortest-path
    /// tree spans most settled nodes and the bottom-up kernel is strictly
    /// less work than per-destination walks. An explicit `Some` threshold
    /// (tests forcing one kernel, callers that tuned their own) is left
    /// untouched.
    pub fn with_auto_aggregation(self, num_switches: usize) -> Self {
        if self.aggregate_min_dests.is_some() {
            return self;
        }
        FleischerConfig {
            aggregate_min_dests: Some(auto_aggregate_min_dests(num_switches)),
            ..self
        }
    }

    /// Returns this configuration unchanged. The solver has one (serial)
    /// trajectory, so there is nothing to pick; the method remains only
    /// because the benchmark replica under `perfbench/` still calls it.
    pub fn with_auto_batching(self, _tm: &TrafficMatrix, _solver_jobs: usize) -> Self {
        self
    }
}

/// The auto-picked aggregation threshold for a graph of `num_switches`
/// switches: a quarter of the switch count, clamped to
/// `[8, DEFAULT_AGGREGATE_MIN_DESTS]`.
pub fn auto_aggregate_min_dests(num_switches: usize) -> usize {
    (num_switches / 4).clamp(8, DEFAULT_AGGREGATE_MIN_DESTS)
}

/// Convergence counters of one solve, reported by
/// [`FleischerSolver::solve_with_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Phases executed (each phase routes every source's full demand once).
    pub phases: usize,
    /// Whether the solve met its accuracy contract (classical FPTAS
    /// termination or the target bound gap) before any budget ran out.
    pub converged: bool,
}

/// Reusable scratch state for [`FleischerSolver`]: the SSSP workspace, the
/// multiplicative-weights length state, the per-iteration buffers, and the
/// per-worker scratch pool for parallel regions. Sized lazily and reusable
/// across `solve` calls: once the largest instance has been seen, the buffers
/// held here stop allocating (per-solve setup such as the `FlowProblem` arc
/// view and demand tables still allocates), and results are identical to
/// fresh-workspace runs (see the determinism tests).
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    /// Dijkstra state shared by routing iterations and sequential bound
    /// sweeps.
    sssp: SsspWorkspace,
    /// Remaining un-routed demand of the current source's destinations.
    remaining: Vec<f64>,
    /// Multiplicative-weights lengths + capacities + incremental `D(l)`.
    mwu: MwuLengths,
    /// Interleaved per-arc routing state (availability, use, capacity).
    arc_state: Vec<route::RouteState>,
    /// Arcs touched in the current tree iteration (sparse undo list).
    touched: Vec<usize>,
    /// Arc ids of the path being routed (recorded once, applied linearly).
    path: Vec<usize>,
    /// Goal-direction potentials, one row of `num_nodes` per single-dest
    /// source (reverse distances to its destination).
    potentials: Vec<f64>,
    /// Reversed per-arc lengths (partner-arc view) for potential refreshes.
    rev_lens: Vec<f64>,
    /// Per-node remaining subtree demand, folded bottom-up over the settle
    /// order by the aggregated routing kernel.
    subtree: Vec<f64>,
    /// Per-node current tree-path length, re-derived top-down over the settle
    /// order when the aggregated kernel revalidates a reused tree.
    cur_len: Vec<f64>,
    /// Per-worker SSSP workspaces leased by the parallel bound sweeps and
    /// potential refreshes.
    sweep_pool: SsspPool,
}

impl SolverWorkspace {
    /// Creates an empty workspace; buffers are sized lazily by the first
    /// solve.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Fan the per-source SSSP sweeps (dual bound, potential refresh) out to the
/// thread pool only when `sweeps * num_arcs` clears this much work — below
/// it, pool handoff costs more than it saves.
pub const PAR_MIN_SWEEP_WORK: usize = 1 << 17;

/// A throughput solve's full result: the bracketing bounds, the convergence
/// counters, the structured degradation status, and the optimality
/// certificate backing the bounds. Returned by
/// [`FleischerSolver::solve_outcome_with`], the degradation-aware entry
/// point used by the failure sweeps.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The bracketing interval (always finite, `0 <= lower <= upper`).
    pub bounds: ThroughputBounds,
    /// Convergence counters of the underlying solve (all zero when the
    /// instance was trivial and no phase loop ran).
    pub stats: SolveStats,
    /// Structured status: converged, budget-exhausted, or
    /// disconnected-demands-dropped.
    pub status: crate::SolveStatus,
    /// The optimality certificate for the solved instance. When demands
    /// were dropped ([`SolveStatus::DisconnectedDemandsDropped`]
    /// (crate::SolveStatus::DisconnectedDemandsDropped)), it describes the
    /// surviving sub-TM — verify it against
    /// [`crate::drop_disconnected_demands`]' output.
    pub certificate: crate::ThroughputCertificate,
}

/// Maximum-concurrent-flow solver (see module docs).
#[derive(Debug, Clone, Default)]
pub struct FleischerSolver {
    config: FleischerConfig,
}

impl FleischerSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: FleischerConfig) -> Self {
        FleischerSolver { config }
    }

    /// Computes throughput bounds for `tm` on `graph`.
    ///
    /// Returns `ThroughputBounds { lower: 0.0, upper: 0.0 }` if some demand
    /// pair is disconnected (the concurrent flow is then zero).
    pub fn solve(&self, graph: &Graph, tm: &TrafficMatrix) -> ThroughputBounds {
        let mut ws = SolverWorkspace::new();
        self.solve_with(graph, tm, &mut ws)
    }

    /// Like [`solve`](Self::solve), but drives a caller-provided workspace so
    /// buffers amortize across many solves (sweeps, relative-throughput
    /// sampling). Results are identical to [`solve`](Self::solve).
    pub fn solve_with(
        &self,
        graph: &Graph,
        tm: &TrafficMatrix,
        ws: &mut SolverWorkspace,
    ) -> ThroughputBounds {
        self.solve_with_stats(graph, tm, ws).0
    }

    /// Like [`solve_with`](Self::solve_with), additionally reporting the
    /// solve's convergence counters.
    pub fn solve_with_stats(
        &self,
        graph: &Graph,
        tm: &TrafficMatrix,
        ws: &mut SolverWorkspace,
    ) -> (ThroughputBounds, SolveStats) {
        let (bounds, stats, _) = self.solve_with_certificate(graph, tm, ws, false);
        (bounds, stats)
    }

    /// The full-evidence solve: like [`solve_with_stats`]
    /// (Self::solve_with_stats) but optionally capturing the optimality
    /// certificate. Capture is trajectory-neutral — bounds and stats are
    /// bit-identical either way; it costs two `O(num_arcs)` snapshots per
    /// bound improvement plus one canonical shortest-path sweep at the end.
    pub fn solve_with_certificate(
        &self,
        graph: &Graph,
        tm: &TrafficMatrix,
        ws: &mut SolverWorkspace,
        want_cert: bool,
    ) -> (
        ThroughputBounds,
        SolveStats,
        Option<crate::ThroughputCertificate>,
    ) {
        crate::record_solver_invocation();
        let prob = FlowProblem::new(graph, tm);
        phase::solve_problem(&self.config, graph, &prob, ws, want_cert)
    }

    /// Degradation-aware solve: drops demands whose endpoints are
    /// disconnected in `graph`, solves the surviving sub-TM, and reports a
    /// structured [`SolveStatus`](crate::SolveStatus) instead of collapsing
    /// the whole result to zero (the concurrent-flow definition forces
    /// `t = 0` whenever *any* pair is unreachable, which is useless for
    /// comparing degraded networks). An empty or fully-disconnected TM
    /// yields an exact zero result rather than a panic. Bounds are always
    /// finite and non-negative.
    pub fn solve_outcome_with(
        &self,
        graph: &Graph,
        tm: &TrafficMatrix,
        ws: &mut SolverWorkspace,
    ) -> SolveOutcome {
        let total = tm.num_flows();
        if total == 0 {
            return SolveOutcome {
                bounds: ThroughputBounds::exact(0.0),
                stats: SolveStats {
                    converged: true,
                    ..SolveStats::default()
                },
                status: crate::SolveStatus::Converged,
                certificate: crate::ThroughputCertificate::trivial_zero(),
            };
        }
        let (kept_tm, dropped) = crate::drop_disconnected_demands(graph, tm);
        if kept_tm.num_flows() == 0 {
            return SolveOutcome {
                bounds: ThroughputBounds::exact(0.0),
                stats: SolveStats {
                    converged: true,
                    ..SolveStats::default()
                },
                status: crate::SolveStatus::DisconnectedDemandsDropped { dropped, kept: 0 },
                certificate: crate::ThroughputCertificate::trivial_zero(),
            };
        }
        let (bounds, stats, cert) = if dropped == 0 {
            self.solve_with_certificate(graph, tm, ws, true)
        } else {
            self.solve_with_certificate(graph, &kept_tm, ws, true)
        };
        let status = if dropped > 0 {
            crate::SolveStatus::DisconnectedDemandsDropped {
                dropped,
                kept: total - dropped,
            }
        } else if stats.converged {
            crate::SolveStatus::Converged
        } else {
            crate::SolveStatus::BudgetExhausted
        };
        SolveOutcome {
            bounds,
            stats,
            status,
            certificate: cert.expect("certificate requested"),
        }
    }

    /// Like [`solve_outcome_with`](Self::solve_outcome_with) with a fresh
    /// workspace.
    pub fn solve_outcome(&self, graph: &Graph, tm: &TrafficMatrix) -> SolveOutcome {
        let mut ws = SolverWorkspace::new();
        self.solve_outcome_with(graph, tm, &mut ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::Graph;
    use tb_traffic::{Demand, TrafficMatrix};

    fn solver() -> FleischerSolver {
        FleischerSolver::new(FleischerConfig::precise())
    }

    fn demand(src: usize, dst: usize, amount: f64) -> Demand {
        Demand { src, dst, amount }
    }

    #[test]
    fn single_link_single_flow() {
        // One unit-capacity link, demand 1: throughput exactly 1.
        let g = Graph::from_edges(2, &[(0, 1)]);
        let tm = TrafficMatrix::new(2, vec![demand(0, 1, 1.0)]);
        let b = solver().solve(&g, &tm);
        assert!(b.lower <= b.upper + 1e-9);
        assert!((b.lower - 1.0).abs() < 0.03, "lower {}", b.lower);
        assert!((b.upper - 1.0).abs() < 0.03, "upper {}", b.upper);
    }

    #[test]
    fn path_graph_shared_bottleneck() {
        // Path 0-1-2, demands 0->2 and 1->2 of 1 each share link (1,2):
        // throughput 0.5.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0), demand(1, 2, 1.0)]);
        let b = solver().solve(&g, &tm);
        assert!((b.lower - 0.5).abs() < 0.02, "lower {}", b.lower);
        assert!(b.upper >= 0.5 - 1e-9);
        assert!(b.gap() < 0.05);
    }

    #[test]
    fn two_disjoint_paths_double_capacity() {
        // A 4-cycle gives two disjoint 2-hop paths between opposite corners:
        // demand 0->2 of 1 achieves throughput 2.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let tm = TrafficMatrix::new(4, vec![demand(0, 2, 1.0)]);
        let b = solver().solve(&g, &tm);
        assert!((b.lower - 2.0).abs() < 0.08, "lower {}", b.lower);
    }

    #[test]
    fn disconnected_demand_gives_zero() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let tm = TrafficMatrix::new(4, vec![demand(0, 3, 1.0)]);
        let b = solver().solve(&g, &tm);
        assert_eq!(b.lower, 0.0);
        assert_eq!(b.upper, 0.0);
    }

    #[test]
    fn outcome_drops_disconnected_demands() {
        // Two components: 0-1 and 2-3. One demand inside a component, one
        // across. The strict concurrent-flow answer is zero; the
        // degradation-aware path drops the unreachable pair and solves the
        // survivor.
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let tm = TrafficMatrix::new(4, vec![demand(0, 1, 1.0), demand(0, 3, 1.0)]);
        let strict = solver().solve(&g, &tm);
        assert_eq!(strict.lower, 0.0);
        let out = solver().solve_outcome(&g, &tm);
        assert_eq!(
            out.status,
            crate::SolveStatus::DisconnectedDemandsDropped {
                dropped: 1,
                kept: 1
            }
        );
        assert!(out.status.is_degraded());
        assert!(out.bounds.lower > 0.5, "{:?}", out.bounds);
        assert!(out.bounds.lower <= out.bounds.upper + 1e-9);
    }

    #[test]
    fn outcome_with_all_demands_disconnected_is_zero() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let tm = TrafficMatrix::new(4, vec![demand(0, 2, 1.0), demand(1, 3, 1.0)]);
        let out = solver().solve_outcome(&g, &tm);
        assert_eq!(out.bounds, ThroughputBounds::exact(0.0));
        assert_eq!(
            out.status,
            crate::SolveStatus::DisconnectedDemandsDropped {
                dropped: 2,
                kept: 0
            }
        );
        assert_eq!(out.status.label(), "dropped-2-kept-0");
    }

    #[test]
    fn outcome_on_empty_tm_is_zero_not_panic() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let tm = TrafficMatrix::new(2, Vec::new());
        let out = solver().solve_outcome(&g, &tm);
        assert_eq!(out.bounds, ThroughputBounds::exact(0.0));
        assert_eq!(out.status, crate::SolveStatus::Converged);
        assert!(out.stats.converged);
    }

    #[test]
    fn outcome_converges_on_clean_instance() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0), demand(1, 2, 1.0)]);
        let out = solver().solve_outcome(&g, &tm);
        assert_eq!(out.status, crate::SolveStatus::Converged);
        assert!(out.stats.converged);
        // Bit-identical to the plain entry point: the drop pass is a no-op
        // on connected instances.
        let plain = solver().solve(&g, &tm);
        assert_eq!(out.bounds.lower.to_bits(), plain.lower.to_bits());
        assert_eq!(out.bounds.upper.to_bits(), plain.upper.to_bits());
    }

    #[test]
    fn exhausted_phase_budget_reports_degraded_status() {
        // A zero phase budget leaves the bound gap wide open; the result
        // still carries valid best-so-far bounds (lower 0, the initial dual
        // certificate as upper).
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let tm = tb_traffic::synthetic::all_to_all(&[1usize; 4]);
        let cfg = FleischerConfig {
            max_phases: 0,
            ..FleischerConfig::default()
        };
        let out = FleischerSolver::new(cfg).solve_outcome(&g, &tm);
        assert_eq!(out.status, crate::SolveStatus::BudgetExhausted);
        assert!(!out.stats.converged);
        assert_eq!(out.stats.phases, 0);
        assert!(out.bounds.lower >= 0.0 && out.bounds.upper.is_finite());
        assert!(out.bounds.lower <= out.bounds.upper + 1e-9);
    }

    #[test]
    fn zero_time_budget_stops_early_with_valid_bounds() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let tm = tb_traffic::synthetic::all_to_all(&[1usize; 6]);
        let cfg = FleischerConfig {
            time_budget_ms: Some(0),
            check_interval: 1,
            target_gap: 1e-12,
            ..FleischerConfig::default()
        };
        let out = FleischerSolver::new(cfg).solve_outcome(&g, &tm);
        assert_eq!(out.status, crate::SolveStatus::BudgetExhausted);
        assert_eq!(
            out.stats.phases, 1,
            "a zero budget stops at the first check"
        );
        assert!(out.bounds.upper.is_finite());
        assert!(out.bounds.lower <= out.bounds.upper + 1e-9);
    }

    #[test]
    fn outcome_certificate_verifies_independently() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0), demand(1, 2, 1.0)]);
        let out = solver().solve_outcome(&g, &tm);
        assert_eq!(out.status, crate::SolveStatus::Converged);
        crate::verify_certificate(&g, &tm, &out.certificate, 0.01 + 1e-9)
            .expect("converged certificate must verify at the target gap");
        // The certificate's canonical bounds agree with the solver's claimed
        // bounds (different rounding paths, same mathematics).
        let b = out.bounds;
        assert!((out.certificate.lower - b.lower).abs() <= 1e-7 * b.lower.max(1.0));
        assert!((out.certificate.upper - b.upper).abs() <= 1e-7 * b.upper.max(1.0));
        // Certificate capture is trajectory-neutral: the certified outcome's
        // bounds are bit-identical to the plain solve.
        let plain = solver().solve(&g, &tm);
        assert_eq!(b.lower.to_bits(), plain.lower.to_bits());
        assert_eq!(b.upper.to_bits(), plain.upper.to_bits());
    }

    #[test]
    fn dropped_demand_certificate_covers_the_kept_sub_tm() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let tm = TrafficMatrix::new(4, vec![demand(0, 1, 1.0), demand(0, 3, 1.0)]);
        let out = solver().solve_outcome(&g, &tm);
        assert!(out.status.is_degraded());
        let (kept_tm, dropped) = crate::drop_disconnected_demands(&g, &tm);
        assert_eq!(dropped, 1);
        crate::verify_certificate(&g, &kept_tm, &out.certificate, 0.01 + 1e-9)
            .expect("certificate must verify against the surviving sub-TM");
        // Against the full TM the dimensions no longer line up.
        assert!(crate::verify_certificate(&g, &tm, &out.certificate, f64::INFINITY).is_err());
    }

    #[test]
    fn budget_exhausted_certificate_still_verifies_with_open_gap() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let tm = tb_traffic::synthetic::all_to_all(&[1usize; 4]);
        let cfg = FleischerConfig {
            max_phases: 0,
            ..FleischerConfig::default()
        };
        let out = FleischerSolver::new(cfg).solve_outcome(&g, &tm);
        assert_eq!(out.status, crate::SolveStatus::BudgetExhausted);
        // The bounds are valid even though the budget ran out, so the
        // certificate verifies once the gap check is waived…
        crate::verify_certificate(&g, &tm, &out.certificate, f64::INFINITY).unwrap();
        // …but not at the target gap the solve failed to reach.
        assert!(matches!(
            crate::verify_certificate(&g, &tm, &out.certificate, 0.03),
            Err(crate::CertificateError::GapTooWide { .. })
        ));
    }

    #[test]
    fn empty_and_disconnected_outcomes_carry_trivial_certificates() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let empty = TrafficMatrix::new(2, Vec::new());
        let out = solver().solve_outcome(&g, &empty);
        crate::verify_certificate(&g, &empty, &out.certificate, 0.0).unwrap();
        let mut g2 = Graph::new(4);
        g2.add_unit_edge(0, 1);
        g2.add_unit_edge(2, 3);
        let tm = TrafficMatrix::new(4, vec![demand(0, 2, 1.0), demand(1, 3, 1.0)]);
        let out = solver().solve_outcome(&g2, &tm);
        let (kept_tm, _) = crate::drop_disconnected_demands(&g2, &tm);
        assert_eq!(kept_tm.num_flows(), 0);
        crate::verify_certificate(&g2, &kept_tm, &out.certificate, 0.0).unwrap();
    }

    #[test]
    fn ring_all_to_all_symmetry() {
        // On a C4 with one server per switch, A2A throughput is the same from
        // every node; just check bounds are consistent and positive.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let servers = vec![1usize; 4];
        let tm = tb_traffic::synthetic::all_to_all(&servers);
        let b = solver().solve(&g, &tm);
        assert!(b.lower > 0.0);
        assert!(b.lower <= b.upper + 1e-9);
        assert!(b.gap() < 0.05, "gap {}", b.gap());
    }

    #[test]
    fn capacity_scaling_scales_throughput() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0)]);
        let b1 = solver().solve(&g, &tm);
        let g2 = g.scaled_capacities(3.0);
        let b3 = solver().solve(&g2, &tm);
        assert!(
            (b3.lower / b1.lower - 3.0).abs() < 0.1,
            "{} vs {}",
            b3.lower,
            b1.lower
        );
    }

    #[test]
    fn demand_scaling_inversely_scales_throughput() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0)]);
        let tm_half = tm.scaled(0.5);
        let b1 = solver().solve(&g, &tm);
        let b2 = solver().solve(&g, &tm_half);
        assert!((b2.lower / b1.lower - 2.0).abs() < 0.1);
    }

    #[test]
    fn star_graph_hose_limit() {
        // Star with 4 leaves, each leaf sends 1 unit to the next leaf
        // (a ring of demands): every leaf link carries 1 in and 1 out,
        // so throughput is 1.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let tm = TrafficMatrix::new(
            5,
            vec![
                demand(1, 2, 1.0),
                demand(2, 3, 1.0),
                demand(3, 4, 1.0),
                demand(4, 1, 1.0),
            ],
        );
        let b = solver().solve(&g, &tm);
        assert!((b.lower - 1.0).abs() < 0.03, "lower {}", b.lower);
    }

    #[test]
    fn fast_config_still_brackets() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0), demand(1, 2, 1.0)]);
        let b = FleischerSolver::new(FleischerConfig::fast()).solve(&g, &tm);
        assert!(b.lower <= 0.5 + 1e-9);
        assert!(b.upper >= 0.5 - 1e-9);
    }

    #[test]
    fn auto_aggregation_threshold_scales_with_graph_size() {
        // A quarter of the switch count, clamped to [8, default].
        let base = FleischerConfig::default();
        assert_eq!(base.with_auto_aggregation(16).aggregate_min_dests, Some(8));
        assert_eq!(base.with_auto_aggregation(64).aggregate_min_dests, Some(16));
        assert_eq!(
            base.with_auto_aggregation(4096).aggregate_min_dests,
            Some(DEFAULT_AGGREGATE_MIN_DESTS)
        );
        // Explicit settings — disabled, forced, or exactly the default value —
        // survive the auto-pick.
        for explicit in [usize::MAX, 2, DEFAULT_AGGREGATE_MIN_DESTS] {
            let cfg = FleischerConfig {
                aggregate_min_dests: Some(explicit),
                ..base
            };
            assert_eq!(
                cfg.with_auto_aggregation(64).aggregate_min_dests,
                Some(explicit)
            );
        }
    }

    #[test]
    fn aggregated_ring_a2a_matches_per_destination_walk() {
        // Small dense instance driven through both routing kernels: when no
        // capacity binds within a tree iteration the two are arithmetically
        // identical, so the bounds must agree to the last bit here.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let servers = vec![1usize; 6];
        let tm = tb_traffic::synthetic::all_to_all(&servers);
        let agg = FleischerSolver::new(FleischerConfig {
            aggregate_min_dests: Some(2),
            ..FleischerConfig::precise()
        })
        .solve(&g, &tm);
        let walk = FleischerSolver::new(FleischerConfig {
            aggregate_min_dests: Some(usize::MAX),
            ..FleischerConfig::precise()
        })
        .solve(&g, &tm);
        assert!(agg.lower > 0.0);
        assert!(
            (agg.lower - walk.lower).abs() <= 1e-12 * walk.lower
                && (agg.upper - walk.upper).abs() <= 1e-12 * walk.upper,
            "aggregated {agg:?} vs per-destination {walk:?}"
        );
    }

    #[test]
    fn reused_workspace_matches_fresh_solves() {
        // A single workspace driven across different graphs and TMs (of
        // different sizes, in both directions) must reproduce fresh-workspace
        // results bit-for-bit.
        let g1 = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm1 = TrafficMatrix::new(3, vec![demand(0, 2, 1.0), demand(1, 2, 1.0)]);
        let g2 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let servers = vec![1usize; 4];
        let tm2 = tb_traffic::synthetic::all_to_all(&servers);
        let s = solver();
        let fresh1 = s.solve(&g1, &tm1);
        let fresh2 = s.solve(&g2, &tm2);
        let mut ws = SolverWorkspace::new();
        for _ in 0..3 {
            let b1 = s.solve_with(&g1, &tm1, &mut ws);
            assert_eq!(b1.lower, fresh1.lower);
            assert_eq!(b1.upper, fresh1.upper);
            let b2 = s.solve_with(&g2, &tm2, &mut ws);
            assert_eq!(b2.lower, fresh2.lower);
            assert_eq!(b2.upper, fresh2.upper);
        }
    }
}
