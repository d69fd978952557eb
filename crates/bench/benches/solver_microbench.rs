//! Microbenchmarks of the solver stack: the current Fleischer kernel against
//! a frozen copy of the pre-refactor kernel, the exact LP at the crossover
//! sizes, the Hungarian assignment used by the longest-matching TM, and the
//! same-equipment random-graph constructor.
//!
//! Run with `TB_BENCH_JSON=BENCH_solver.json cargo bench --bench
//! solver_microbench` to (re)generate the committed baseline file.
//!
//! The new-vs-legacy pairs cover the hot-path refactor's behavior space
//! (see `tb_bench::legacy` for what the baseline is):
//!
//! * sparse single-destination TMs (longest-matching, random-permutation),
//!   where the goal-directed early-exit SSSP prunes most of the graph —
//!   the big wins, up to >3x on the 256-switch jellyfish;
//! * the hypercube is the adversarial case for goal direction (every node
//!   lies on some antipodal geodesic, so nothing can be pruned without
//!   giving up exact shortest-path routing) — longest-matching there leans
//!   on the decrease-key SSSP heap alone;
//! * dense all-to-all (hypercube and jellyfish), where the aggregated
//!   bottom-up tree routing loads each tree arc once per iteration instead
//!   of walking every destination's path, on top of the shared kernel wins
//!   — the dense-TM shapes the PR 1 kernel left at parity;
//! * the Facebook frontend fixed TM (`tm_f`, the Figs 13–14 workload) on a
//!   64-switch jellyfish — the skewed dense shape the sweeps spend real time
//!   on.

use criterion::{criterion_group, criterion_main, Criterion};
use tb_bench::{assert_same_quality, legacy};
use tb_flow::{ExactLpSolver, FleischerConfig, FleischerSolver};
use tb_graph::matching::max_weight_assignment;
use tb_graph::shortest_path::apsp_unweighted;
use tb_graph::Graph;
use tb_topology::{hypercube::hypercube, jellyfish::jellyfish, jellyfish::same_equipment};
use tb_traffic::facebook::tm_f;
use tb_traffic::synthetic::{all_to_all, longest_matching, random_permutation};
use tb_traffic::TrafficMatrix;

fn versus_legacy(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    cfg: FleischerConfig,
    g: &Graph,
    tm: &TrafficMatrix,
) {
    let new = FleischerSolver::new(cfg).solve(g, tm);
    let old = legacy::solve(&cfg, g, tm);
    assert_same_quality(name, &cfg, new, old);
    group.bench_function(format!("fptas_{name}"), |b| {
        b.iter(|| FleischerSolver::new(cfg).solve(g, tm))
    });
    group.bench_function(format!("fptas_legacy_{name}"), |b| {
        b.iter(|| legacy::solve(&cfg, g, tm))
    });
}

fn bench(c: &mut Criterion) {
    let cfg_fast = FleischerConfig::fast();

    let mut group = c.benchmark_group("solver");
    group.sample_size(10);

    let small = hypercube(3, 1);
    let small_tm = longest_matching(&small.graph, &small.servers, true);
    group.bench_function("exact_lp_hypercube_d3", |b| {
        b.iter(|| ExactLpSolver::new().solve(&small.graph, &small_tm).unwrap())
    });
    group.bench_function("fptas_hypercube_d3", |b| {
        b.iter(|| FleischerSolver::new(FleischerConfig::default()).solve(&small.graph, &small_tm))
    });

    // 64-switch topologies: the hypercube (structured, geodesic-rich) and a
    // same-degree jellyfish (the paper's central random-graph object).
    let medium = hypercube(6, 1);
    let jelly = jellyfish(64, 6, 1, 42);
    versus_legacy(
        &mut group,
        "hypercube_d6_lm",
        cfg_fast,
        &medium.graph,
        &longest_matching(&medium.graph, &medium.servers, true),
    );
    versus_legacy(
        &mut group,
        "hypercube_d6_perm",
        cfg_fast,
        &medium.graph,
        &random_permutation(&medium.servers, 3),
    );
    versus_legacy(
        &mut group,
        "hypercube_d6_a2a",
        cfg_fast,
        &medium.graph,
        &all_to_all(&medium.servers),
    );
    versus_legacy(
        &mut group,
        "jellyfish64_lm",
        cfg_fast,
        &jelly.graph,
        &longest_matching(&jelly.graph, &jelly.servers, true),
    );
    versus_legacy(
        &mut group,
        "jellyfish64_a2a",
        cfg_fast,
        &jelly.graph,
        &all_to_all(&jelly.servers),
    );
    versus_legacy(
        &mut group,
        "facebook_tmf_jellyfish64",
        cfg_fast,
        &jelly.graph,
        &tm_f(64, 7),
    );

    group.bench_function("apsp_hypercube_d6", |b| {
        b.iter(|| apsp_unweighted(&medium.graph))
    });

    let dist = apsp_unweighted(&medium.graph);
    let weights: Vec<Vec<f64>> = dist
        .iter()
        .map(|row| row.iter().map(|&d| d as f64).collect())
        .collect();
    group.bench_function("hungarian_64x64", |b| {
        b.iter(|| max_weight_assignment(&weights))
    });

    group.bench_function("same_equipment_hypercube_d6", |b| {
        b.iter(|| same_equipment(&medium, 5))
    });
    group.finish();

    // Paper-scale sparse instance: this is where the goal-directed kernel's
    // pruning compounds with the allocation-free workspace.
    let mut large = c.benchmark_group("solver_large");
    large.sample_size(3);
    let jelly256 = jellyfish(256, 8, 1, 42);
    versus_legacy(
        &mut large,
        "jellyfish256_lm",
        cfg_fast,
        &jelly256.graph,
        &longest_matching(&jelly256.graph, &jelly256.servers, true),
    );
    // The paper-scale dense shape.
    versus_legacy(
        &mut large,
        "jellyfish256_a2a",
        cfg_fast,
        &jelly256.graph,
        &all_to_all(&jelly256.servers),
    );
    large.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
