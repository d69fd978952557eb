//! # topobench
//!
//! A framework for **measuring and understanding throughput of network
//! topologies** — a Rust reproduction of Jyothi, Singla, Godfrey & Kolla
//! (SC 2016).
//!
//! The framework answers two questions about a topology:
//!
//! 1. *What throughput does it sustain under a given traffic matrix?*
//!    Throughput is the maximum concurrent flow (§II-A of the paper),
//!    computed here by [`evaluate_throughput`] with either the exact LP
//!    (small instances) or a bounded-gap FPTAS.
//! 2. *How does that compare to a random graph built from exactly the same
//!    equipment?* [`relative_throughput`] builds same-equipment random graphs
//!    (Jellyfish) and reports the ratio, the paper's headline metric (§IV).
//!
//! Near-worst-case traffic is produced by the longest-matching TM
//! ([`TmSpec::LongestMatching`]); the theoretical lower bound `T_A2A / 2`
//! (Theorem 2) is available as [`lower_bound`].
//!
//! ## Quick example
//!
//! ```
//! use topobench::{evaluate_throughput, lower_bound, EvalConfig, TmSpec};
//! use tb_topology::hypercube::hypercube;
//!
//! let topo = hypercube(4, 1);
//! let cfg = EvalConfig::default();
//! let tm = TmSpec::LongestMatching.generate(&topo, 1);
//! let worst = evaluate_throughput(&topo, &tm, &cfg);
//! let bound = lower_bound(&topo, &cfg);
//! assert!(worst.lower >= bound.lower - 0.05);
//! ```
//!
//! The `experiments` crate in this workspace regenerates every table and
//! figure of the paper's evaluation on top of this API, driving the
//! declarative [`sweep`] engine (parallel cell execution, content-keyed
//! result caching, unified JSON artifacts).

pub mod eval;
pub mod spec;
pub mod stats;
pub mod sweep;

pub use eval::{
    evaluate_throughput, evaluate_throughput_with, lower_bound, lower_bound_from,
    relative_throughput, relative_throughput_fixed_tm, EvalConfig, RelativeThroughput,
};
pub use spec::TmSpec;
pub use stats::Stats;

// Re-export the sub-crates under stable names so downstream users only need
// one dependency.
pub use tb_cuts as cuts;
pub use tb_flow as flow;
pub use tb_graph as graph;
pub use tb_lp as lp;
pub use tb_topology as topology;
pub use tb_traffic as traffic;
