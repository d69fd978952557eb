//! The traced replica: re-executes one sweep cell from public calls, in the
//! order `CellSpec::compute` and the `topobench` evaluators make them, and
//! records a span around every call into a layer plus the bounds of every
//! solve.
//!
//! The replica must stay bit-identical to the program: the benchmark checks
//! every replayed cell against the value the real sweep produced, so a drift
//! between this file and `crates/core/src/sweep/cell.rs` or
//! `crates/core/src/eval.rs` shows up as a failed cell, never as a silently
//! wrong trace.

use crate::trace::Trace;
use std::time::Instant;
use tb_cuts::{estimate_sparsest_cut, ALL_ESTIMATORS};
use tb_flow::restricted::{k_shortest_path_sets, PathRestrictedSolver, SubflowCountingEstimator};
use tb_flow::{
    drop_disconnected_demands, ExactLpSolver, FleischerSolver, SolveStatus, SolverWorkspace,
    ThroughputBounds,
};
use tb_graph::shortest_path::average_path_length;
use tb_topology::faults::{apply_faults, FaultPlan};
use tb_topology::jellyfish::same_equipment;
use tb_topology::Topology;
use tb_traffic::{facebook, ops, TrafficMatrix};
use topobench::stats::Stats;
use topobench::sweep::{CellSpec, CellValues, FbMatrix, TopoSpec};
use topobench::{EvalConfig, TmSpec};

/// The bounds one solver call returned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Solve {
    /// Feasible (lower) bound.
    pub lower: f64,
    /// Dual (upper) bound.
    pub upper: f64,
    /// Whether an exact LP produced it.
    pub exact: bool,
}

/// One replayed cell.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The values the cell computes, bit-identical to `CellSpec::compute`.
    pub values: CellValues,
    /// Every solve the cell made, in call order. Empty for a cell timed
    /// whole, whose solves the replica cannot see.
    pub solves: Vec<Solve>,
    /// Per-layer spans of this cell.
    pub trace: Trace,
    /// True when the cell kind has no replica and was timed whole through
    /// `CellSpec::compute` (recorded as `cell.<kind>_s` only).
    pub whole: bool,
}

/// Stable name of a cell kind, as used in `cell.<kind>_s`.
pub fn kind_name(spec: &CellSpec) -> &'static str {
    match spec {
        CellSpec::Throughput { .. } => "throughput",
        CellSpec::Relative { .. } => "relative",
        CellSpec::CutEstimate { .. } => "cut_estimate",
        CellSpec::PathLengthRatio { .. } => "path_length_ratio",
        CellSpec::FacebookRelative { .. } => "facebook_relative",
        CellSpec::PathRestricted { .. } => "path_restricted",
        CellSpec::Degradation { .. } => "degradation",
        CellSpec::Search { .. } => "search",
        CellSpec::PanicProbe { .. } => "panic_probe",
    }
}

/// Replays `spec` under `cfg`. Only the cold, uncertified, serial-solver
/// configuration the benchmark runs is replicated.
///
/// # Panics
/// Panics when `cfg` asks for warm starts, certificates or batched solves,
/// and wherever the program's own cell would panic.
pub fn replay(spec: &CellSpec, cfg: &EvalConfig, ws: &mut SolverWorkspace) -> Replay {
    assert!(
        !cfg.warm && !cfg.certify && cfg.solver_jobs == 1,
        "the replica covers cold, uncertified, serial-solver runs only"
    );
    let mut r = Replayer::default();
    let start = Instant::now();
    let values = r.cell(spec, cfg, ws);
    let secs = start.elapsed().as_secs_f64();
    let span = r.trace.cells.entry(kind_name(spec)).or_default();
    span.secs += secs;
    span.count += 1;
    r.trace.max_cell_s = secs;
    Replay {
        values,
        solves: r.solves,
        trace: r.trace,
        whole: r.whole,
    }
}

#[derive(Default)]
struct Replayer {
    trace: Trace,
    solves: Vec<Solve>,
    whole: bool,
}

impl Replayer {
    fn build(&mut self, spec: &TopoSpec) -> Topology {
        self.trace
            .build
            .time(|| spec.build())
            .unwrap_or_else(|| panic!("unsatisfiable topology spec {spec:?}"))
    }

    fn generate(&mut self, tm: &TmSpec, topo: &Topology, seed: u64) -> TrafficMatrix {
        self.trace.generate.time(|| tm.generate(topo, seed))
    }

    fn same_equipment(&mut self, topo: &Topology, seed: u64) -> Topology {
        self.trace
            .same_equipment
            .time(|| same_equipment(topo, seed))
    }

    /// Exact LP on small instances; `None` when the LP errs (the program
    /// then falls back to the FPTAS).
    fn exact(&mut self, topo: &Topology, tm: &TrafficMatrix) -> Option<ThroughputBounds> {
        match self
            .trace
            .exact
            .time(|| ExactLpSolver::new().solve(&topo.graph, tm))
        {
            Ok(b) => {
                self.record(b, true);
                Some(b)
            }
            Err(_) => {
                self.trace.exact_errors += 1;
                None
            }
        }
    }

    fn record(&mut self, b: ThroughputBounds, exact: bool) {
        self.solves.push(Solve {
            lower: b.lower,
            upper: b.upper,
            exact,
        });
    }

    fn record_fptas(&mut self, secs: f64, b: ThroughputBounds, stats: &tb_flow::SolveStats) {
        self.trace.fleischer.secs += secs;
        self.trace.fleischer.count += 1;
        self.trace.fleischer_phases += stats.phases as u64;
        self.trace.fleischer_max_s = self.trace.fleischer_max_s.max(secs);
        if !stats.converged {
            self.trace.fleischer_unconverged += 1;
        }
        self.record(b, false);
    }

    fn small(topo: &Topology, flows: usize, cfg: &EvalConfig) -> bool {
        topo.num_switches() <= cfg.exact_switch_limit && flows <= 64
    }

    fn fptas(topo: &Topology, tm: &TrafficMatrix, cfg: &EvalConfig) -> FleischerSolver {
        FleischerSolver::new(
            cfg.solver
                .with_auto_aggregation(topo.num_switches())
                .with_auto_batching(tm, cfg.solver_jobs),
        )
    }

    /// Mirrors `evaluate_throughput_with`.
    fn evaluate(
        &mut self,
        topo: &Topology,
        tm: &TrafficMatrix,
        cfg: &EvalConfig,
        ws: &mut SolverWorkspace,
    ) -> ThroughputBounds {
        if tm.num_flows() == 0 {
            return ThroughputBounds::exact(0.0);
        }
        if Self::small(topo, tm.num_flows(), cfg) {
            if let Some(b) = self.exact(topo, tm) {
                return b;
            }
        }
        let solver = Self::fptas(topo, tm, cfg);
        let start = Instant::now();
        let (b, stats) = solver.solve_with_stats(&topo.graph, tm, ws);
        self.record_fptas(start.elapsed().as_secs_f64(), b, &stats);
        b
    }

    /// Mirrors `evaluate_throughput_status_with`.
    fn evaluate_status(
        &mut self,
        topo: &Topology,
        tm: &TrafficMatrix,
        cfg: &EvalConfig,
        ws: &mut SolverWorkspace,
    ) -> (ThroughputBounds, SolveStatus) {
        if tm.num_flows() == 0 {
            return (ThroughputBounds::exact(0.0), SolveStatus::Converged);
        }
        let (kept_tm, dropped) = drop_disconnected_demands(&topo.graph, tm);
        let kept = kept_tm.num_flows();
        if kept == 0 {
            return (
                ThroughputBounds::exact(0.0),
                SolveStatus::DisconnectedDemandsDropped { dropped, kept: 0 },
            );
        }
        let demand_status =
            (dropped > 0).then_some(SolveStatus::DisconnectedDemandsDropped { dropped, kept });
        if Self::small(topo, kept, cfg) {
            if let Some(b) = self.exact(topo, &kept_tm) {
                return (b, demand_status.unwrap_or(SolveStatus::Converged));
            }
        }
        let solver = Self::fptas(topo, &kept_tm, cfg);
        let start = Instant::now();
        let outcome = solver.solve_outcome_with(&topo.graph, &kept_tm, ws);
        self.record_fptas(
            start.elapsed().as_secs_f64(),
            outcome.bounds,
            &outcome.stats,
        );
        (outcome.bounds, demand_status.unwrap_or(outcome.status))
    }

    /// Mirrors `relative_throughput` (cold) and `relative_throughput_fixed_tm`:
    /// the absolute solve, then each same-equipment sample in index order,
    /// with the traffic regenerated per graph or fixed, as `tm` says.
    fn relative(
        &mut self,
        topo: &Topology,
        tm: Relative<'_>,
        cfg: &EvalConfig,
        ws: &mut SolverWorkspace,
    ) -> (f64, Vec<f64>, Stats) {
        let (absolute, seed_base) = match tm {
            Relative::Spec(spec) => {
                let matrix = self.generate(spec, topo, cfg.seed);
                (self.evaluate(topo, &matrix, cfg, ws).value(), 1000)
            }
            Relative::Fixed(matrix) => (self.evaluate(topo, matrix, cfg, ws).value(), 2000),
        };
        let iters = cfg.random_graph_iterations.max(1);
        let mut samples = Vec::with_capacity(iters);
        for i in 0..iters {
            let seed = cfg.seed.wrapping_add(seed_base).wrapping_add(i as u64);
            let rnd = self.same_equipment(topo, seed);
            let value = match tm {
                Relative::Spec(spec) => {
                    let rnd_tm = self.generate(spec, &rnd, seed);
                    self.evaluate(&rnd, &rnd_tm, cfg, ws).value()
                }
                Relative::Fixed(matrix) => self.evaluate(&rnd, matrix, cfg, ws).value(),
            };
            samples.push(value);
        }
        let ratios: Vec<f64> = samples
            .iter()
            .map(|&r| if r > 0.0 { absolute / r } else { f64::INFINITY })
            .collect();
        let stats = Stats::from_samples(&ratios);
        (absolute, samples, stats)
    }

    /// Mirrors `CellSpec::compute_attempt` for every production cell kind.
    fn cell(&mut self, spec: &CellSpec, cfg: &EvalConfig, ws: &mut SolverWorkspace) -> CellValues {
        let mut out = CellValues::default();
        match spec {
            CellSpec::Throughput { topo, tm, tm_seed } => {
                let topo = self.build(topo);
                let matrix = self.generate(tm, &topo, *tm_seed);
                let bounds = self.evaluate(&topo, &matrix, cfg, ws);
                out.push("lower", bounds.lower);
                out.push("upper", bounds.upper);
                out.push_text("tm_fp", format!("{:016x}", matrix.fingerprint()));
            }
            CellSpec::Relative { topo, tm } => {
                let topo = self.build(topo);
                let (absolute, samples, rel) = self.relative(&topo, Relative::Spec(tm), cfg, ws);
                out.push("absolute", absolute);
                out.push("rel_mean", rel.mean);
                out.push("rel_std", rel.std_dev);
                out.push("rel_ci95", rel.ci95);
                for (i, s) in samples.iter().enumerate() {
                    out.push(format!("sample_{i}"), *s);
                }
            }
            CellSpec::CutEstimate { topo, tm, tm_seed } => {
                let topo = self.build(topo);
                let matrix = self.generate(tm, &topo, *tm_seed);
                let report = self
                    .trace
                    .cuts
                    .time(|| estimate_sparsest_cut(&topo.graph, &matrix));
                out.push("best_sparsity", report.best_sparsity);
                out.push_text("tm_fp", format!("{:016x}", matrix.fingerprint()));
                let found = report.found_by(1e-6);
                for est in ALL_ESTIMATORS {
                    out.push(
                        format!("found_{}", est.name().to_lowercase().replace(' ', "_")),
                        if found.contains(&est) { 1.0 } else { 0.0 },
                    );
                }
            }
            CellSpec::PathLengthRatio { topo, rnd_seed } => {
                let topo = self.build(topo);
                let rnd = self.same_equipment(&topo, *rnd_seed);
                let apl_topo = average_path_length(&topo.graph).unwrap_or(f64::NAN);
                let apl_rnd = average_path_length(&rnd.graph).unwrap_or(f64::NAN);
                out.push("apl_topo", apl_topo);
                out.push("apl_rnd", apl_rnd);
                out.push("ratio", apl_topo / apl_rnd);
            }
            CellSpec::FacebookRelative {
                topo,
                matrix,
                shuffled,
                tm_seed,
                shuffle_seed,
            } => {
                let topo = self.build(topo);
                let (racks, placed) = self.trace.generate.time(|| {
                    let tm = match matrix {
                        FbMatrix::Hadoop => facebook::tm_h(facebook::FACEBOOK_RACKS, *tm_seed),
                        FbMatrix::Frontend => facebook::tm_f(facebook::FACEBOOK_RACKS, *tm_seed),
                    };
                    let racks = topo.server_switches().len().min(tm.num_switches());
                    let placed = if *shuffled {
                        let shuffled_tm =
                            ops::shuffle(&ops::downsample(&tm, racks.max(2)), *shuffle_seed);
                        place_rack_tm(&shuffled_tm, &topo)
                    } else {
                        place_rack_tm(&tm, &topo)
                    };
                    (racks, placed)
                });
                let (absolute, _, rel) = self.relative(&topo, Relative::Fixed(&placed), cfg, ws);
                out.push("racks", racks as f64);
                out.push("absolute", absolute);
                out.push("rel_mean", rel.mean);
                out.push("rel_ci95", rel.ci95);
            }
            CellSpec::PathRestricted {
                topo,
                k_paths,
                tm_seed,
            } => {
                let topo = self.build(topo);
                let tm = self.generate(&TmSpec::AllToAll, &topo, *tm_seed);
                let paths = self
                    .trace
                    .restricted_paths
                    .time(|| k_shortest_path_sets(&topo.graph, &tm, *k_paths));
                let counting = SubflowCountingEstimator::new().estimate(&paths)
                    * paths.len() as f64
                    / topo.num_servers() as f64;
                let lp = self
                    .trace
                    .restricted
                    .time(|| PathRestrictedSolver::new().solve(&topo.graph, &paths));
                // The path-restricted solver is itself an MWU scheme with a
                // bound gap, not an exact LP.
                self.record(lp, false);
                out.push("counting", counting);
                out.push("lp", lp.value());
            }
            CellSpec::Degradation {
                topo,
                tm,
                tm_seed,
                link_fail_frac,
                switch_failures,
                failure_seeds,
                seed,
            } => {
                let base = self.build(topo);
                let base_tm = self.generate(tm, &base, *tm_seed);
                let (baseline, base_status) = self.evaluate_status(&base, &base_tm, cfg, ws);
                let base_value = baseline.value();
                let link_failures =
                    (link_fail_frac * base.num_links() as f64).round().max(0.0) as usize;
                let draws = (*failure_seeds).max(1);
                let mut ratios = Vec::with_capacity(draws as usize);
                let mut dropped_total = 0usize;
                let mut degraded = 0u64;
                for i in 0..draws {
                    let plan = FaultPlan {
                        link_failures,
                        switch_failures: *switch_failures,
                        seed: seed.wrapping_add(i),
                    };
                    let (faulted, _) = self.trace.faults.time(|| apply_faults(&base, &plan));
                    let faulted_tm = self.generate(tm, &faulted, *tm_seed);
                    let (bounds, status) = self.evaluate_status(&faulted, &faulted_tm, cfg, ws);
                    let ratio = if base_value > 0.0 {
                        bounds.value() / base_value
                    } else {
                        0.0
                    };
                    ratios.push(ratio);
                    out.push(format!("ratio_{i}"), ratio);
                    if let SolveStatus::DisconnectedDemandsDropped { dropped, .. } = status {
                        dropped_total += dropped;
                    }
                    if status.is_degraded() {
                        degraded += 1;
                    }
                }
                let stats = Stats::from_samples(&ratios);
                out.push("baseline", base_value);
                out.push("rel_mean", stats.mean);
                out.push("rel_std", stats.std_dev);
                out.push("rel_ci95", stats.ci95);
                out.push("dropped_mean", dropped_total as f64 / draws as f64);
                out.push("degraded_draws", degraded as f64);
                out.push_text("baseline_status", base_status.label());
            }
            // The design search climbs through private helpers of the cell
            // module, and the panic probe is test-only: both run whole.
            CellSpec::Search { .. } | CellSpec::PanicProbe { .. } => {
                self.whole = true;
                out = spec.compute(cfg, ws);
            }
        }
        out
    }
}

/// The traffic of a relative-throughput cell: a recipe regenerated per
/// graph, or one fixed matrix applied to every graph.
#[derive(Clone, Copy)]
enum Relative<'a> {
    Spec(&'a TmSpec),
    Fixed(&'a TrafficMatrix),
}

/// Mirrors the Fig. 13/14 rack placement of the cell module.
fn place_rack_tm(tm: &TrafficMatrix, topo: &Topology) -> TrafficMatrix {
    let endpoints = topo.server_switches();
    let tm = if endpoints.len() < tm.num_switches() {
        ops::downsample(tm, endpoints.len())
    } else {
        tm.clone()
    };
    let mapped = ops::map_onto(&tm, &endpoints, topo.num_switches());
    mapped.normalized_to_hose(&topo.servers).0
}
