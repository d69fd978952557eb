//! End-to-end and per-layer benchmark of the topobench sweep engine.
//!
//! The benchmark drives registered scenarios from outside the program, the
//! way `sweep --scenario <name> --jobs <N>` runs them, and measures what a
//! user waits for: a golden-correct artifact at a stated solver accuracy.
//! A separate traced run replays every cell from public calls
//! ([`replay`]) and reports where the time went, layer by layer.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload family_lm --seed 1 --seconds 6 --trace 0
//! ```

pub mod bench;
pub mod reference;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;
