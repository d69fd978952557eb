//! Per-layer accumulators recorded around the calls into each module's
//! public functions. Nothing here reaches into the program: every span is
//! opened and closed by the benchmark's own code.

use std::collections::BTreeMap;
use std::time::Instant;

/// Busy time and call count of one layer boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Wall seconds spent inside the calls.
    pub secs: f64,
    /// Number of calls.
    pub count: u64,
}

impl Span {
    /// Times `f` as one call of this span.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.secs += start.elapsed().as_secs_f64();
        self.count += 1;
        out
    }

    fn merge(&mut self, other: &Span) {
        self.secs += other.secs;
        self.count += other.count;
    }
}

/// Everything one replay records, per layer. Layers are named after the
/// workspace modules they time (`tb_flow`, `tb_cuts`, `tb_topology`,
/// `tb_traffic`, and the `topobench::sweep` engine).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// `FleischerSolver::solve_with_stats` / `solve_outcome_with`.
    pub fleischer: Span,
    /// MWU phases summed over FPTAS solves.
    pub fleischer_phases: u64,
    /// Slowest single FPTAS solve.
    pub fleischer_max_s: f64,
    /// FPTAS solves that did not meet their accuracy contract.
    pub fleischer_unconverged: u64,
    /// `ExactLpSolver::solve`, successful or not.
    pub exact: Span,
    /// Exact-LP errors that fell back to the FPTAS.
    pub exact_errors: u64,
    /// `PathRestrictedSolver::solve`.
    pub restricted: Span,
    /// `k_shortest_path_sets` feeding the path-restricted solves.
    pub restricted_paths: Span,
    /// `estimate_sparsest_cut`.
    pub cuts: Span,
    /// `TopoSpec::build`.
    pub build: Span,
    /// `same_equipment` random-graph constructions.
    pub same_equipment: Span,
    /// `apply_faults` fault injections.
    pub faults: Span,
    /// Traffic-matrix generation: `TmSpec::generate`, the Facebook matrices
    /// and their placement operators.
    pub generate: Span,
    /// Whole-cell time per cell kind.
    pub cells: BTreeMap<&'static str, Span>,
    /// Slowest single cell.
    pub max_cell_s: f64,
}

impl Trace {
    /// Folds another replay's record into this one.
    pub fn merge(&mut self, other: &Trace) {
        self.fleischer.merge(&other.fleischer);
        self.fleischer_phases += other.fleischer_phases;
        self.fleischer_max_s = self.fleischer_max_s.max(other.fleischer_max_s);
        self.fleischer_unconverged += other.fleischer_unconverged;
        self.exact.merge(&other.exact);
        self.exact_errors += other.exact_errors;
        self.restricted.merge(&other.restricted);
        self.restricted_paths.merge(&other.restricted_paths);
        self.cuts.merge(&other.cuts);
        self.build.merge(&other.build);
        self.same_equipment.merge(&other.same_equipment);
        self.faults.merge(&other.faults);
        self.generate.merge(&other.generate);
        for (kind, span) in &other.cells {
            self.cells.entry(kind).or_default().merge(span);
        }
        self.max_cell_s = self.max_cell_s.max(other.max_cell_s);
    }

    /// Sum of whole-cell time over every kind.
    pub fn cell_s_sum(&self) -> f64 {
        self.cells.values().map(|s| s.secs).sum()
    }
}
