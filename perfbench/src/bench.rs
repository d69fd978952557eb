//! One benchmark run: pinned environment, repeated set-up, the cold pass,
//! cache-hot passes, the replica, the correctness checks and the record.
//!
//! A run with `trace = false` measures the end-to-end metrics. The replica
//! still runs afterwards (untimed, on two threads) because the gap metrics
//! and the parity check need the bounds of every solve, which artifacts do
//! not store. A run with `trace = true` replaces that replica with a traced
//! one that mirrors the sweep engine's own structure (expansion, keys, cache
//! probes, cell execution on the pinned pool, cache stores, rendering,
//! artifact writes) and reports the per-layer metrics. End-to-end times are
//! scaled to a reference host speed (see `HostSpeed`).

use crate::replay::{kind_name, replay, Replay};
use crate::stats;
use crate::trace::{Span, Trace};
use crate::workload::{Pass, Workload};
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tb_flow::SolverWorkspace;
use topobench::sweep::json::Json;
use topobench::sweep::{
    cell_key, diff_files, fnv1a, run_scenario, validate_artifact, write_artifact, CellOutcome,
    CellSet, CellValues, DiffOptions, NamedTable, RenderOutput, ResultCache, Scenario, SweepCell,
    SweepOptions, SweepReport, Table,
};

/// Set-up repetitions per sampling point; `setup_s` is the median over the
/// run's seven points (before the cold pass and after each hot window).
const SETUP_REPS: usize = 9;
/// Cache-hot passes always run at least this often, however short the run.
const MIN_HOT_PASSES: usize = 5;
/// Threads of the untimed replica that feeds the gap metrics.
const GAP_THREADS: usize = 2;
/// Segments of that replica; a cache-hot window and a group of set-up
/// probes follow the cold pass and each segment, spreading both
/// measurements (and `--seconds` of hot passes) over the run.
const REPLAY_SEGMENTS: usize = 5;
/// The reference kernel's rate, in sweeps per second, that the time
/// metrics are scaled to: its median over quiet phases of the 2-vCPU box
/// this benchmark was built on, so scaled values read close to that box's
/// wall clock.
const REFERENCE_RATE: f64 = 4000.0;
/// Relative slack of the `lower <= upper` check: an exact LP can return an
/// upper bound a few ulps below its lower bound (e.g. `1` vs
/// `0.9999999999999951`), which is rounding, not a broken bracket.
const BOUND_ROUNDING: f64 = 1e-9;
/// The only seed the committed goldens were generated at.
const GOLDEN_SEED: u64 = 1;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: &'static Workload,
    /// Sweep base seed (the workload's inputs derive from it).
    pub seed: u64,
    /// Seconds of cache-hot passes, split over the run's hot windows.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Cells attempted by the cold pass.
    pub attempted: usize,
    /// Cells that failed any check (computation, golden diff, replica
    /// parity, bounds, cache-hot contract).
    pub failed: usize,
    /// The metrics of this kind of run.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The benchmark's last output line.
    pub fn result_json(&self) -> String {
        let metrics: BTreeMap<String, Json> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        // Counts are written as JSON integers (`Json::Num` would print 29.0).
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            Json::Obj(metrics)
        )
    }
}

/// Cells that failed a check, each with every reason, printed as found.
#[derive(Default)]
struct Failures {
    bad: BTreeSet<(usize, String)>,
}

impl Failures {
    fn flag(&mut self, pass: usize, id: &str, why: &str) {
        println!("perfbench: FAILED pass {pass} cell {id}: {why}");
        self.bad.insert((pass, id.to_string()));
    }
}

/// A scenario run prepared for execution.
struct Prepared {
    scenario: Scenario,
    opts: SweepOptions,
}

impl Prepared {
    fn new(pass: &Pass, seed: u64, jobs: usize) -> Result<Self, String> {
        let scenario = experiments::find_scenario(pass.scenario)
            .ok_or_else(|| format!("scenario '{}' is not registered", pass.scenario))?;
        // Exactly the options `sweep --scenario <name> --jobs <N> [--filter S]`
        // builds: reduced scale, cache on under ./results/cache, cold serial
        // solves, no certificates.
        let mut opts = SweepOptions::new(false, seed);
        opts.jobs = Some(jobs);
        opts.filter = pass.filter.map(str::to_string);
        Ok(Prepared { scenario, opts })
    }

    /// The cells `run_cells` executes: the expansion, filtered.
    fn cells(&self) -> Vec<SweepCell> {
        let cells = (self.scenario.build)(&self.opts);
        match &self.opts.filter {
            Some(f) => cells.into_iter().filter(|c| c.id.contains(f)).collect(),
            None => cells,
        }
    }
}

/// Removes the run's working directory when the run ends, however it ends.
struct WorkDir {
    root: PathBuf,
    dir: PathBuf,
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir(&self.root);
        let _ = std::fs::remove_dir_all(&self.dir);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs the benchmark from the repository root `root`.
pub fn run(cfg: &Config, root: &Path) -> Result<Outcome, String> {
    let workload = cfg.workload;
    let golden_dir = root.join("results").join("golden");
    if !golden_dir.is_dir() {
        return Err(format!(
            "no golden artifacts under {}",
            golden_dir.display()
        ));
    }
    let source = source_digest(root)?;
    // Pinned environment: the solver trajectory and the pool width come
    // from the workload alone, never from the caller's shell.
    std::env::remove_var("TB_SOLVER_JOBS");
    std::env::remove_var("TB_SOLVER_TRACE");
    std::env::remove_var("TB_PROBE_BLEND");
    std::env::set_var("RAYON_NUM_THREADS", workload.jobs.to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload={} seed={} jobs={} nproc={} trace={} source={source:016x}",
        workload.name,
        cfg.seed,
        workload.jobs,
        nproc,
        u8::from(cfg.trace)
    );
    let runs: Vec<Prepared> = workload
        .passes
        .iter()
        .map(|p| Prepared::new(p, cfg.seed, workload.jobs))
        .collect::<Result<_, _>>()?;

    // Every pass writes into a fresh directory outside results/: the cache
    // starts empty and no committed file is ever touched.
    let dir = root
        .join(".bench_work")
        .join(format!("{}-{}", workload.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let _guard = WorkDir {
        root: root.to_path_buf(),
        dir: dir.clone(),
    };
    std::env::set_current_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let mut setup = SetupProbe::new(workload, cfg.seed, &dir)?;
    if !cfg.trace {
        setup.sample()?;
    }

    let mut host = HostSpeed::new()?;
    let mut failures = Failures::default();
    // The cold pass is the scenario runs' summed time; a burst of the host
    // kernel before each run and after the last samples the host's speed
    // over the pass without entering it.
    let mut cold_s = 0.0;
    let mut cold: Vec<(SweepReport, PathBuf)> = Vec::with_capacity(runs.len());
    for run in &runs {
        host.sample()?;
        let start = Instant::now();
        cold.push(execute(run)?);
        cold_s += start.elapsed().as_secs_f64();
    }
    host.sample()?;
    let attempted: usize = cold.iter().map(|(r, _)| r.outcomes.len()).sum();
    for (i, (run, (report, artifact))) in runs.iter().zip(&cold).enumerate() {
        println!(
            "perfbench: cold {}: {} cells ({} unique), {} cache hits, {} solver calls",
            run.scenario.name,
            report.outcomes.len(),
            report.unique_cells,
            report.cache_hits,
            report.solver_calls
        );
        for o in report.outcomes.iter().filter(|o| o.is_failed()) {
            failures.flag(i, &o.cell.id, o.error.as_deref().unwrap_or("failed"));
        }
        if cfg.seed == GOLDEN_SEED {
            check_golden(i, run, artifact, &golden_dir, &mut failures);
        }
    }

    let mut hot = HotSampler::new(&runs, &cold);
    let metrics = if cfg.trace {
        // A traced run reports no end-to-end metric: its cache-hot passes
        // are only there for their checks.
        hot.window(Duration::ZERO, MIN_HOT_PASSES, &mut failures)?;
        let mut metrics = traced(&runs, &cold, cold_s, &mut failures)?;
        host.sample()?;
        metrics.push(metric("host.reference_rate", host.rate(), "1/s"));
        metrics
    } else {
        let window = Duration::from_secs_f64(cfg.seconds as f64 / (REPLAY_SEGMENTS + 1) as f64);
        hot.window(window, MIN_HOT_PASSES, &mut failures)?;
        setup.sample()?;
        host.sample()?;
        let peak_rss_mb = peak_rss_mb()?;
        let replays = replay_workload(&runs, || {
            hot.window(window, 1, &mut failures)?;
            host.sample()?;
            setup.sample()
        })?;
        let (gap_max, gap_mean) = check_replays(&runs, &cold, &replays, &mut failures);
        let (hot_rate, setup_s, factor) = (hot.rate(), setup.median(), host.factor());
        println!(
            "perfbench: wall clock: cold_s = {cold_s} s, hot_cells_per_s = {hot_rate} 1/s, \
             setup_s = {setup_s} s; host speed factor {factor} (reference rate {REFERENCE_RATE} 1/s)"
        );
        vec![
            metric("cold_s", cold_s * factor, "s"),
            metric("hot_cells_per_s", hot_rate / factor, "1/s"),
            metric("setup_s", setup_s * factor, "s"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
            metric("gap_max", gap_max, "ratio"),
            metric("gap_mean", gap_mean, "ratio"),
        ]
    };
    let failed = failures.bad.len();
    println!(
        "perfbench: {failed} of {attempted} cells failed a check (failed_frac = {} ratio)",
        stats::failed_frac(failed, attempted)
    );
    for m in &metrics {
        println!("perfbench: metric {} = {} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_spread(what: &str, unit: &str, xs: &[f64]) {
    let (q1, q2, q3) = stats::quartiles(xs);
    println!(
        "perfbench: {what}: median {q2:.6} {unit}, quartiles [{q1:.6}, {q3:.6}] (spread {:.3}), n = {}",
        stats::relative_spread(xs),
        xs.len()
    );
}

/// Set-up as a user meets it: process and pool start, expansion, key
/// derivation and cache probes, each repetition a fresh process timed from
/// spawn to exit. Repetitions run in groups spread over the run, because
/// the speed of a shared host drifts over minutes; the median is taken over
/// all of them.
struct SetupProbe {
    exe: PathBuf,
    args: [String; 3],
    /// An empty directory: the probes' cache lookups all miss, as a cold
    /// run's do, wherever in the run they happen.
    cwd: PathBuf,
    samples: Vec<f64>,
}

impl SetupProbe {
    fn new(workload: &Workload, seed: u64, work: &Path) -> Result<Self, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
        let cwd = work.join("setup-probe");
        std::fs::create_dir_all(&cwd).map_err(|e| format!("{}: {e}", cwd.display()))?;
        Ok(SetupProbe {
            exe,
            args: [
                "--setup-probe".to_string(),
                workload.name.to_string(),
                seed.to_string(),
            ],
            cwd,
            samples: Vec::new(),
        })
    }

    /// Runs one group of [`SETUP_REPS`] probes.
    fn sample(&mut self) -> Result<(), String> {
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let status = Command::new(&self.exe)
                .args(&self.args)
                .current_dir(&self.cwd)
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("set-up probe: {e}"))?;
            if !status.success() {
                return Err(format!("set-up probe failed: {status}"));
            }
            self.samples.push(start.elapsed().as_secs_f64());
        }
        Ok(())
    }

    fn median(&self) -> f64 {
        print_spread("set-up (fresh process)", "s", &self.samples);
        stats::median(&self.samples)
    }
}

/// One set-up repetition, run by `perfbench --setup-probe` in a fresh
/// process from an empty directory: everything before the first cell is
/// dispatched — pool start, expansion, cache-key derivation and
/// cache probes against the (empty) cold cache.
pub fn setup_probe(workload: &Workload, seed: u64) -> Result<(), String> {
    let runs: Vec<Prepared> = workload
        .passes
        .iter()
        .map(|p| Prepared::new(p, seed, workload.jobs))
        .collect::<Result<_, _>>()?;
    std::hint::black_box(rayon::current_num_threads());
    for run in &runs {
        let cfg = run.opts.eval_config();
        let cache = ResultCache::new(&run.opts.cache_dir);
        let mut seen = HashSet::new();
        for cell in run.cells() {
            let key = cell_key(&cell, &cfg);
            if !seen.contains(&key) {
                std::hint::black_box(cache.load(&key));
                seen.insert(key);
            }
        }
    }
    Ok(())
}

/// One scenario run exactly as the `sweep` driver performs it: run, then
/// write and validate the artifact.
fn execute(run: &Prepared) -> Result<(SweepReport, PathBuf), String> {
    let (report, render) = run_scenario(&run.scenario, &run.opts);
    let path = write_and_validate(run, &report, &render)?.0;
    Ok((report, path))
}

fn write_and_validate(
    run: &Prepared,
    report: &SweepReport,
    render: &RenderOutput,
) -> Result<(PathBuf, u64), String> {
    let name = run.scenario.name;
    let path = write_artifact(name, run.scenario.title, &run.opts, report, render)
        .map_err(|e| format!("{name}: artifact write failed: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    validate_artifact(&text).map_err(|e| format!("{name}: {e}"))?;
    Ok((path, text.len() as u64))
}

fn check_golden(pass: usize, run: &Prepared, artifact: &Path, golden_dir: &Path, f: &mut Failures) {
    let golden = golden_dir.join(format!("{}.json", run.scenario.name));
    match diff_files(&golden, artifact, &DiffOptions::default()) {
        Ok(diff) => {
            for change in diff.changes.iter().filter(|c| c.regression) {
                f.flag(pass, &change.id, &format!("golden diff: {:?}", change.kind));
            }
            for note in &diff.notes {
                f.flag(pass, "<artifact>", &format!("golden diff: {note}"));
            }
            if diff.is_clean() {
                println!(
                    "perfbench: golden {}: clean, {} cells bit-identical",
                    run.scenario.name, diff.bit_identical
                );
            }
        }
        Err(e) => f.flag(pass, "<artifact>", &format!("golden diff: {e}")),
    }
}

/// Cache-hot passes over the whole list, measured in windows spread over the
/// run. The speed of a shared host drifts by tens of percent over seconds
/// to minutes; a single millisecond pass, or one window, would measure that
/// drift, so the rate is the median over the windows of cells served per
/// second in each.
/// Every pass must do zero solves and zero topology constructions and serve
/// every cell, bit-identical, from the cache.
struct HotSampler<'a> {
    runs: &'a [Prepared],
    cold: &'a [(SweepReport, PathBuf)],
    /// Cells per second of each pass.
    rates: Vec<f64>,
    /// Cells per second of each window.
    windows: Vec<f64>,
}

impl<'a> HotSampler<'a> {
    fn new(runs: &'a [Prepared], cold: &'a [(SweepReport, PathBuf)]) -> Self {
        HotSampler {
            runs,
            cold,
            rates: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Runs passes until `len` has passed (and at least `min_passes`).
    fn window(&mut self, len: Duration, min_passes: usize, f: &mut Failures) -> Result<(), String> {
        let (mut passes, mut cells, mut secs) = (0, 0, 0.0);
        let start = Instant::now();
        while passes < min_passes || start.elapsed() < len {
            let (c, s) = self.pass(f)?;
            (passes, cells, secs) = (passes + 1, cells + c, secs + s);
        }
        self.windows.push(cells as f64 / secs);
        Ok(())
    }

    /// One pass over the list; returns the cells served and the seconds.
    fn pass(&mut self, f: &mut Failures) -> Result<(usize, f64), String> {
        let start = Instant::now();
        let mut reports = Vec::with_capacity(self.runs.len());
        for run in self.runs {
            reports.push(execute(run)?.0);
        }
        let secs = start.elapsed().as_secs_f64();
        let cells: usize = reports.iter().map(|r| r.outcomes.len()).sum();
        self.rates.push(cells as f64 / secs);
        for (i, (hot, (cold, _))) in reports.iter().zip(self.cold).enumerate() {
            let contract = hot.solver_calls == 0 && hot.topo_builds == 0;
            for (h, c) in hot.outcomes.iter().zip(&cold.outcomes) {
                if c.is_failed() {
                    continue;
                }
                let same = h.values.bit_identical(&c.values);
                if !contract || !h.cached || !same {
                    f.flag(
                        i,
                        &h.cell.id,
                        &format!(
                            "cache-hot pass: cached={} solver_calls={} topo_builds={} same_values={same}",
                            h.cached, hot.solver_calls, hot.topo_builds
                        ),
                    );
                }
            }
        }
        Ok((cells, secs))
    }

    /// Median over the windows of cells served per second.
    fn rate(&self) -> f64 {
        print_spread("cache-hot pass, cells per second", "1/s", &self.rates);
        print_spread("cache-hot window, cells per second", "1/s", &self.windows);
        stats::median(&self.windows)
    }
}

/// The host's speed through a run: bursts of the
/// [`Reference`](crate::reference::Reference) kernel, each in a fresh
/// process so that the kernel's memory stays out of the run's peak RSS. The speed of a shared host drifts by tens of percent over
/// minutes, and the run's wall times drift with it; the time metrics are
/// scaled by [`HostSpeed::factor`] to what they would read at
/// [`REFERENCE_RATE`]. The kernel is the benchmark's own code, so no change
/// to the program can move it (short of leaving threads busy after a pass
/// returns, which would slow the bursts too; the record prints the raw wall
/// values beside the scaled ones).
struct HostSpeed {
    exe: PathBuf,
    rates: Vec<f64>,
}

impl HostSpeed {
    fn new() -> Result<Self, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
        Ok(HostSpeed {
            exe,
            rates: Vec::new(),
        })
    }

    /// One burst of the kernel, in a child process.
    fn sample(&mut self) -> Result<(), String> {
        let out = Command::new(&self.exe)
            .arg("--reference-probe")
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("reference probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let rate: f64 = text
            .trim()
            .parse()
            .ok()
            .filter(|r: &f64| out.status.success() && r.is_finite() && *r > 0.0)
            .ok_or_else(|| format!("reference probe failed: {} '{}'", out.status, text.trim()))?;
        self.rates.push(rate);
        Ok(())
    }

    /// Median burst rate, in reference sweeps per second.
    fn rate(&self) -> f64 {
        print_spread(
            "host reference kernel, sweeps per second",
            "1/s",
            &self.rates,
        );
        stats::median(&self.rates)
    }

    /// Host speed relative to [`REFERENCE_RATE`]: a time measured on this
    /// host times this factor is the time at the reference rate.
    fn factor(&self) -> f64 {
        self.rate() / REFERENCE_RATE
    }
}

/// Peak resident memory of this process so far.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// FNV-1a digest of the program's sources (`Cargo.lock` and every file
/// under `crates/`): identifies the code a run measured, git or not.
fn source_digest(root: &Path) -> Result<u64, String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files).map_err(|e| format!("reading crates/: {e}"))?;
    files.sort();
    let mut text = String::new();
    for file in &files {
        let bytes = std::fs::read(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let rel = file.strip_prefix(root).unwrap_or(file);
        text.push_str(&format!(
            "{}\n{:016x}\n",
            rel.display(),
            fnv1a(&String::from_utf8_lossy(&bytes))
        ));
    }
    Ok(fnv1a(&text))
}

type Replayed = Result<Replay, String>;

fn replay_caught(
    cell: &SweepCell,
    cfg: &topobench::EvalConfig,
    ws: &mut SolverWorkspace,
) -> Replayed {
    catch_unwind(AssertUnwindSafe(|| replay(&cell.spec, cfg, ws))).map_err(|payload| {
        *ws = SolverWorkspace::new();
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "replica panicked".to_string())
    })
}

/// The workload's unique computations in first-seen order, keyed as the
/// sweep engine keys them (later passes hit the entries of earlier ones).
fn unique_cells(runs: &[Prepared]) -> Vec<(String, SweepCell, topobench::EvalConfig)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for run in runs {
        let cfg = run.opts.eval_config();
        for cell in run.cells() {
            let key = cell_key(&cell, &cfg);
            if seen.insert(key.clone()) {
                out.push((key, cell, cfg));
            }
        }
    }
    out
}

/// The untimed replica of every unique computation, spread over
/// [`GAP_THREADS`] threads with dynamic scheduling, in
/// [`REPLAY_SEGMENTS`] segments; `between` runs after each segment (the
/// cache-hot windows).
fn replay_workload(
    runs: &[Prepared],
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<HashMap<String, Replayed>, String> {
    let cells = unique_cells(runs);
    let done = Mutex::new(HashMap::new());
    let per_segment = cells.len().div_ceil(REPLAY_SEGMENTS).max(1);
    for chunk in cells.chunks(per_segment) {
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..GAP_THREADS {
                s.spawn(|| {
                    let mut ws = SolverWorkspace::new();
                    while let Some((key, cell, cfg)) =
                        chunk.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        let r = replay_caught(cell, cfg, &mut ws);
                        done.lock()
                            .expect("a replica thread panicked while holding the result map")
                            .insert(key.clone(), r);
                    }
                });
            }
        });
        between()?;
    }
    Ok(done
        .into_inner()
        .expect("a replica thread panicked while holding the result map"))
}

/// Parity and bounds checks of the replica against the cold pass; returns
/// the largest and mean relative bound gap over every solve.
fn check_replays(
    runs: &[Prepared],
    cold: &[(SweepReport, PathBuf)],
    replays: &HashMap<String, Replayed>,
    f: &mut Failures,
) -> (f64, f64) {
    let mut gaps = Vec::new();
    let mut counted = BTreeSet::new();
    let mut whole = BTreeSet::new();
    for (i, (run, (report, _))) in runs.iter().zip(cold).enumerate() {
        let cfg = run.opts.eval_config();
        for o in &report.outcomes {
            let key = cell_key(&o.cell, &cfg);
            match replays.get(&key) {
                None => f.flag(i, &o.cell.id, "no replica ran"),
                Some(Err(e)) => f.flag(i, &o.cell.id, &format!("replica panicked: {e}")),
                Some(Ok(r)) => {
                    if r.whole {
                        whole.insert(kind_name(&o.cell.spec));
                    }
                    if !o.is_failed() && !r.values.bit_identical(&o.values) {
                        f.flag(i, &o.cell.id, "replica values differ from the artifact");
                    }
                    for s in &r.solves {
                        if !(s.lower.is_finite() && s.upper.is_finite())
                            || s.lower < 0.0
                            || s.lower > s.upper * (1.0 + BOUND_ROUNDING)
                        {
                            f.flag(
                                i,
                                &o.cell.id,
                                &format!(
                                    "solve bounds [{}, {}] not 0 <= lower <= upper",
                                    s.lower, s.upper
                                ),
                            );
                        }
                    }
                    // Each unique computation counts once, as it ran once.
                    if counted.insert(key) {
                        gaps.extend(
                            r.solves
                                .iter()
                                .map(|s| stats::relative_gap(s.lower, s.upper, s.exact)),
                        );
                    }
                }
            }
        }
    }
    let (max, mean) = stats::gap_summary(&gaps);
    println!(
        "perfbench: replica ran {} unique cells; {} solves, gap max {max} mean {mean}",
        counted.len(),
        gaps.len()
    );
    for kind in whole {
        println!("perfbench: cell kind '{kind}' has no replica; it was timed whole as cell.{kind}_s and its solves are not in the gap metrics");
    }
    (max, mean)
}

/// Layer spans of the traced replay outside the cells themselves.
#[derive(Default)]
struct EngineSpans {
    expand: Span,
    keys: Span,
    load: Span,
    hits: u64,
    store: Span,
    render: Span,
    write: Span,
    artifact_bytes: u64,
}

/// The traced run: replays every scenario run through the same steps as
/// `run_scenario` and `run_cells`, cells on the pinned pool exactly as the
/// runner schedules them, with a span around each call; then one traced
/// cache-hot pass. Reports the per-layer metrics.
fn traced(
    runs: &[Prepared],
    cold: &[(SweepReport, PathBuf)],
    cold_s: f64,
    f: &mut Failures,
) -> Result<Vec<Metric>, String> {
    // The replica keeps its own cache next to the cold pass's.
    let cache_dir = PathBuf::from("results").join("replica-cache");
    let cache = ResultCache::new(&cache_dir);
    let mut engine = EngineSpans::default();
    let mut trace = Trace::default();
    let mut replays: HashMap<String, Replayed> = HashMap::new();
    let start = Instant::now();
    for run in runs {
        let cfg = run.opts.eval_config();
        let cells = engine.expand.time(|| run.cells());
        let keys: Vec<String> = engine
            .keys
            .time(|| cells.iter().map(|c| cell_key(c, &cfg)).collect());
        let mut seen = HashSet::new();
        let unique: Vec<usize> = (0..keys.len())
            .filter(|&i| seen.insert(keys[i].as_str()))
            .collect();
        let mut found: HashMap<&str, (CellValues, bool)> = HashMap::new();
        let mut missing = Vec::new();
        for &i in &unique {
            match engine.load.time(|| cache.load(&keys[i])) {
                Some(v) => {
                    engine.hits += 1;
                    found.insert(&keys[i], (v, true));
                }
                None => missing.push(i),
            }
        }
        let hits = unique.len() - missing.len();
        let computed: Vec<(usize, Replayed)> = if run.opts.jobs == Some(1) {
            let mut ws = SolverWorkspace::new();
            missing
                .iter()
                .map(|&i| (i, replay_caught(&cells[i], &cfg, &mut ws)))
                .collect()
        } else {
            missing
                .into_par_iter()
                .map_init(SolverWorkspace::new, |ws, i| {
                    (i, replay_caught(&cells[i], &cfg, ws))
                })
                .collect()
        };
        for (i, r) in computed {
            if let Ok(r) = &r {
                engine.store.time(|| cache.store(&keys[i], &r.values));
                trace.merge(&r.trace);
                found.insert(&keys[i], (r.values.clone(), false));
            }
            replays.insert(keys[i].clone(), r);
        }
        let outcomes: Vec<CellOutcome> = cells
            .iter()
            .zip(&keys)
            .map(|(cell, key)| match found.get(key.as_str()) {
                Some((values, cached)) => outcome(cell.clone(), Some(values.clone()), *cached),
                None => outcome(cell.clone(), None, false),
            })
            .collect();
        let render = engine.render.time(|| render_outcomes(run, &outcomes));
        let report = replica_report(outcomes, unique.len(), hits);
        let (_, bytes) = engine
            .write
            .time(|| write_and_validate(run, &report, &render))?;
        engine.artifact_bytes += bytes;
    }
    let replay_s = start.elapsed().as_secs_f64();
    check_replays(runs, cold, &replays, f);

    // One traced cache-hot pass over the replica's cache.
    let mut hot = EngineSpans::default();
    let hot_start = Instant::now();
    for run in runs {
        let cfg = run.opts.eval_config();
        let cells = hot.expand.time(|| run.cells());
        let outcomes: Vec<CellOutcome> = cells
            .into_iter()
            .map(|cell| {
                let key = hot.keys.time(|| cell_key(&cell, &cfg));
                let values = hot.load.time(|| cache.load(&key));
                outcome(cell, values, true)
            })
            .collect();
        let render = hot.render.time(|| render_outcomes(run, &outcomes));
        let report = replica_report(outcomes, 0, 0);
        hot.write
            .time(|| write_and_validate(run, &report, &render))?;
    }
    let hot_s = hot_start.elapsed().as_secs_f64();

    let cache_bytes: u64 = std::fs::read_dir(&cache_dir)
        .map_err(|e| format!("{}: {e}", cache_dir.display()))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let reports = cold.iter().map(|(r, _)| r);
    let cells: usize = reports.clone().map(|r| r.outcomes.len()).sum();
    let unique: usize = reports.clone().map(|r| r.unique_cells).sum();
    let solver_calls: u64 = reports.map(|r| r.solver_calls).sum();
    for (kind, span) in &trace.cells {
        println!(
            "perfbench: cell kind {kind}: {} cells, {:.6} s",
            span.count, span.secs
        );
    }
    println!(
        "perfbench: traced replay {replay_s:.3} s vs untraced cold pass {cold_s:.3} s (overhead {:+.1}%)",
        100.0 * (replay_s / cold_s - 1.0)
    );
    let cell_s = |kind: &str| trace.cells.get(kind).map_or(0.0, |s| s.secs);
    let t = &trace;
    Ok(vec![
        metric("flow.fleischer.solve_s", t.fleischer.secs, "s"),
        metric("flow.fleischer.solves", t.fleischer.count as f64, "count"),
        metric("flow.fleischer.phases", t.fleischer_phases as f64, "count"),
        metric("flow.fleischer.max_solve_s", t.fleischer_max_s, "s"),
        metric(
            "flow.fleischer.unconverged",
            t.fleischer_unconverged as f64,
            "count",
        ),
        metric("flow.exact.solve_s", t.exact.secs, "s"),
        metric("flow.exact.solves", t.exact.count as f64, "count"),
        metric("flow.exact.errors", t.exact_errors as f64, "count"),
        metric("flow.restricted.solve_s", t.restricted.secs, "s"),
        metric("flow.restricted.solves", t.restricted.count as f64, "count"),
        metric("flow.restricted.paths_s", t.restricted_paths.secs, "s"),
        metric("cuts.estimate_s", t.cuts.secs, "s"),
        metric("cuts.estimates", t.cuts.count as f64, "count"),
        metric("topology.build_s", t.build.secs, "s"),
        metric("topology.builds", t.build.count as f64, "count"),
        metric("topology.same_equipment_s", t.same_equipment.secs, "s"),
        metric(
            "topology.same_equipment_calls",
            t.same_equipment.count as f64,
            "count",
        ),
        metric("topology.faults_s", t.faults.secs, "s"),
        metric("topology.faults", t.faults.count as f64, "count"),
        metric("traffic.generate_s", t.generate.secs, "s"),
        metric("traffic.generates", t.generate.count as f64, "count"),
        metric("sweep.runner.cells", cells as f64, "count"),
        metric("sweep.runner.unique_cells", unique as f64, "count"),
        metric("sweep.runner.solver_calls", solver_calls as f64, "count"),
        metric("sweep.runner.cell_s_sum", t.cell_s_sum(), "s"),
        metric("sweep.runner.max_cell_s", t.max_cell_s, "s"),
        metric("sweep.runner.key_s", engine.keys.secs, "s"),
        metric("sweep.cache.load_s", engine.load.secs, "s"),
        metric("sweep.cache.loads", engine.load.count as f64, "count"),
        metric("sweep.cache.hits", engine.hits as f64, "count"),
        metric("sweep.cache.store_s", engine.store.secs, "s"),
        metric("sweep.cache.stores", engine.store.count as f64, "count"),
        metric("sweep.cache.bytes", cache_bytes as f64, "bytes"),
        metric("sweep.artifact.write_s", engine.write.secs, "s"),
        metric(
            "sweep.artifact.bytes",
            engine.artifact_bytes as f64,
            "bytes",
        ),
        metric("experiments.expand_s", engine.expand.secs, "s"),
        metric("experiments.render_s", engine.render.secs, "s"),
        metric("cell.relative_s", cell_s("relative"), "s"),
        metric("cell.throughput_s", cell_s("throughput"), "s"),
        metric("cell.cut_estimate_s", cell_s("cut_estimate"), "s"),
        metric("cell.facebook_relative_s", cell_s("facebook_relative"), "s"),
        metric("cell.path_restricted_s", cell_s("path_restricted"), "s"),
        metric("cell.degradation_s", cell_s("degradation"), "s"),
        metric("hot.pass_s", hot_s, "s"),
        metric("hot.expand_s", hot.expand.secs, "s"),
        metric("hot.key_s", hot.keys.secs, "s"),
        metric("hot.load_s", hot.load.secs, "s"),
        metric("hot.render_s", hot.render.secs, "s"),
        metric("hot.write_s", hot.write.secs, "s"),
        metric("trace.replay_s", replay_s, "s"),
        metric("trace.cold_s", cold_s, "s"),
        metric("trace.overhead", replay_s / cold_s - 1.0, "ratio"),
    ])
}

/// Renders a scenario run's outcomes the way `run_scenario` does: the
/// scenario's renderer for complete grids, the per-cell dump for filtered
/// runs.
fn render_outcomes(run: &Prepared, outcomes: &[CellOutcome]) -> RenderOutput {
    if run.opts.filter.is_none() {
        return (run.scenario.render)(&run.opts, &CellSet::new(outcomes));
    }
    let mut table = Table::new(
        format!("{}: filtered cell results", run.scenario.name),
        &["cell", "metric", "value", "cached"],
    );
    for o in outcomes {
        for (name, value) in o.values.nums() {
            table.row_strings(vec![
                o.cell.id.clone(),
                name.clone(),
                format!("{value:.6}"),
                o.cached.to_string(),
            ]);
        }
    }
    RenderOutput {
        preamble: Vec::new(),
        tables: vec![NamedTable {
            name: format!("{}_cells", run.scenario.name),
            table,
        }],
        notes: String::new(),
    }
}

/// A replayed cell's outcome; a cell the replica could not produce is
/// marked failed, which the status-aware renderers show as such.
fn outcome(cell: SweepCell, values: Option<CellValues>, cached: bool) -> CellOutcome {
    let error = values.is_none().then(|| "no replica value".to_string());
    CellOutcome {
        cell,
        values: values.unwrap_or_default(),
        cached,
        error,
    }
}

fn replica_report(outcomes: Vec<CellOutcome>, unique: usize, hits: usize) -> SweepReport {
    SweepReport {
        outcomes,
        unique_cells: unique,
        cache_hits: hits,
        solver_calls: 0,
        topo_builds: 0,
        failed_cells: 0,
    }
}
