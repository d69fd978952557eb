//! The shared multiplicative-weights length layer.
//!
//! Every solver in this crate prices routes against a *length function*: a
//! positive weight per directed arc (Fleischer, exact-LP validation sweeps) or
//! per link (the path-restricted solver). Before this module, each solver
//! carried its own copy of the same machinery — `delta` initialization,
//! the multiplicative update, the incremental `D(l)` potential, and ad-hoc
//! closures summing lengths along a path. They now all read lengths through
//! one interface:
//!
//! * [`ArcLengths`] — the read side: `len_of` plus derived `path_cost`.
//!   Implemented by plain `[f64]` slices and [`MwuLengths`].
//! * [`MwuLengths`] — the owned state: lengths, capacities (plus cached
//!   reciprocals), the step size and the incrementally-maintained
//!   `D(l) = Σ_a len_a · cap_a`. [`reset`](MwuLengths::reset) re-initializes
//!   in place so a solver workspace reuses the buffers across solves.
//!
//! Two update flavors exist for bit-compatibility with the committed golden
//! artifacts: [`apply`](MwuLengths::apply) multiplies by the cached reciprocal
//! capacity (the Fleischer hot path, where a multiply measurably beats a
//! divide), while [`apply_quotient`](MwuLengths::apply_quotient) divides by
//! the capacity — the arithmetic the path-restricted solver has always used.
//! The two differ by at most one rounding step per update, but the golden
//! suite pins results bit-for-bit, so each solver keeps its historical form.

/// Read access to a per-arc (or per-link) length function.
pub trait ArcLengths {
    /// The length of arc/link `id`.
    fn len_of(&self, id: usize) -> f64;

    /// Sum of lengths along a path given as length indices.
    fn path_cost<I: IntoIterator<Item = usize>>(&self, ids: I) -> f64 {
        ids.into_iter().map(|id| self.len_of(id)).sum()
    }
}

impl ArcLengths for [f64] {
    #[inline]
    fn len_of(&self, id: usize) -> f64 {
        self[id]
    }
}

/// Multiplicative-weights length state: lengths + capacities + step size +
/// the incrementally maintained potential `D(l) = Σ_a len_a · cap_a`.
#[derive(Debug, Clone, Default)]
pub struct MwuLengths {
    lens: Vec<f64>,
    caps: Vec<f64>,
    /// Cached reciprocals: the update loops run one per loaded arc, and a
    /// multiply beats a divide several times over there.
    inv_caps: Vec<f64>,
    eps: f64,
    d_l: f64,
}

impl MwuLengths {
    /// Creates empty state; call [`reset`](MwuLengths::reset) before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// (Re-)initializes for a new solve over the given capacities: every
    /// length starts at `delta / cap` with the classical
    /// `delta = (m / (1 - eps))^(-1/eps)`, and `D(l)` is summed fresh.
    /// Buffers are reused, so repeated resets stop allocating once the
    /// largest instance has been seen.
    ///
    /// # Panics
    /// Panics if `eps` is outside `(0, 0.5)` (the FPTAS step-size range).
    pub fn reset<I: IntoIterator<Item = f64>>(&mut self, eps: f64, caps: I) {
        assert!(eps > 0.0 && eps < 0.5, "epsilon must be in (0, 0.5)");
        self.eps = eps;
        self.caps.clear();
        self.caps.extend(caps);
        let m = self.caps.len();
        let delta = (m as f64 / (1.0 - eps)).powf(-1.0 / eps);
        self.inv_caps.clear();
        self.inv_caps.extend(self.caps.iter().map(|c| 1.0 / c));
        self.lens.clear();
        self.lens.extend(self.caps.iter().map(|c| delta / c));
        self.d_l = self
            .lens
            .iter()
            .zip(self.caps.iter())
            .map(|(l, c)| l * c)
            .sum();
    }

    /// Number of arcs/links the state covers.
    pub fn num_arcs(&self) -> usize {
        self.caps.len()
    }

    /// The dense length slice (what SSSP kernels index).
    #[inline]
    pub fn lens(&self) -> &[f64] {
        &self.lens
    }

    /// Capacity of arc/link `id`.
    #[inline]
    pub fn cap(&self, id: usize) -> f64 {
        self.caps[id]
    }

    /// The capacities slice.
    #[inline]
    pub fn caps(&self) -> &[f64] {
        &self.caps
    }

    /// The current potential `D(l)`.
    #[inline]
    pub fn d_l(&self) -> f64 {
        self.d_l
    }

    /// Whether the classical termination `D(l) >= 1` has fired.
    #[inline]
    pub fn saturated(&self) -> bool {
        self.d_l >= 1.0
    }

    /// The multiplicative update for routing `load` over arc `id`:
    /// `len *= 1 + eps · load / cap` in the reciprocal form
    /// (`eps · load · (1/cap)`), maintaining `D(l)` incrementally. One
    /// definition serves every Fleischer routing kernel — per-destination
    /// walk and aggregated tree — keeping them arithmetically identical.
    #[inline]
    pub fn apply(&mut self, id: usize, load: f64) {
        let old = self.lens[id];
        let new = old * (1.0 + self.eps * load * self.inv_caps[id]);
        self.d_l += (new - old) * self.caps[id];
        self.lens[id] = new;
    }

    /// The same update in quotient form (`eps · load / cap`): the arithmetic
    /// the path-restricted solver has always used, preserved because the
    /// committed golden artifacts pin its results bit-for-bit. Differs from
    /// [`apply`](MwuLengths::apply) by at most one rounding step per update.
    #[inline]
    pub fn apply_quotient(&mut self, id: usize, load: f64) {
        let old = self.lens[id];
        let new = old * (1.0 + self.eps * load / self.caps[id]);
        self.d_l += (new - old) * self.caps[id];
        self.lens[id] = new;
    }

    /// The dual throughput bound `D(l) / alpha` for a demand-weighted
    /// shortest-path sum `alpha` computed under these lengths (infinite when
    /// `alpha` is not positive).
    pub fn dual_bound(&self, alpha: f64) -> f64 {
        if alpha > 0.0 {
            self.d_l / alpha
        } else {
            f64::INFINITY
        }
    }
}

impl ArcLengths for MwuLengths {
    #[inline]
    fn len_of(&self, id: usize) -> f64 {
        self.lens[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_matches_classical_init() {
        let mut mwu = MwuLengths::new();
        mwu.reset(0.1, [1.0, 2.0, 4.0]);
        let delta = (3.0f64 / 0.9).powf(-10.0);
        assert_eq!(mwu.len_of(0), delta);
        assert_eq!(mwu.len_of(1), delta / 2.0);
        assert_eq!(mwu.num_arcs(), 3);
        // d_l = sum len*cap = 3 * delta exactly (each term is delta).
        assert!((mwu.d_l() - 3.0 * delta).abs() <= f64::EPSILON * 3.0 * delta);
        assert!(!mwu.saturated());
    }

    #[test]
    fn apply_forms_agree_on_unit_caps_and_track_d_l() {
        let mut a = MwuLengths::new();
        let mut b = MwuLengths::new();
        a.reset(0.2, [1.0, 1.0]);
        b.reset(0.2, [1.0, 1.0]);
        a.apply(0, 0.5);
        b.apply_quotient(0, 0.5);
        // Unit capacity: reciprocal and quotient forms are bit-identical.
        assert_eq!(a.len_of(0).to_bits(), b.len_of(0).to_bits());
        assert_eq!(a.d_l().to_bits(), b.d_l().to_bits());
        // d_l maintained incrementally equals a fresh sum.
        let direct: f64 = a.lens().iter().zip(a.caps()).map(|(l, c)| l * c).sum();
        assert!((a.d_l() - direct).abs() < 1e-15);
    }

    #[test]
    fn snapshot_and_path_cost() {
        let mut mwu = MwuLengths::new();
        mwu.reset(0.1, [1.0, 1.0, 1.0]);
        mwu.apply(1, 1.0);
        let cost = mwu.path_cost([0, 1]);
        assert_eq!(cost, mwu.len_of(0) + mwu.len_of(1));
        // A copied snapshot of the lengths, read through the slice trait
        // impl, agrees.
        let snap = mwu.lens().to_vec();
        assert_eq!(snap.as_slice().path_cost([0, 1]), cost);
    }

    #[test]
    fn reset_reuses_buffers_across_sizes() {
        let mut mwu = MwuLengths::new();
        mwu.reset(0.1, (0..16).map(|_| 1.0));
        let big = mwu.d_l();
        mwu.reset(0.1, (0..4).map(|_| 2.0));
        assert_eq!(mwu.num_arcs(), 4);
        assert_ne!(mwu.d_l(), big);
        // Same init as a fresh state.
        let mut fresh = MwuLengths::new();
        fresh.reset(0.1, (0..4).map(|_| 2.0));
        assert_eq!(mwu.lens(), fresh.lens());
        assert_eq!(mwu.d_l().to_bits(), fresh.d_l().to_bits());
    }

    #[test]
    fn dual_bound_guards_nonpositive_alpha() {
        let mut mwu = MwuLengths::new();
        mwu.reset(0.1, [1.0]);
        assert!(mwu.dual_bound(0.0).is_infinite());
        assert!(mwu.dual_bound(2.0) > 0.0);
    }

    #[test]
    #[should_panic]
    fn bad_epsilon_rejected() {
        MwuLengths::new().reset(0.7, [1.0]);
    }
}
