//! The benchmark's workloads: which registered scenarios run, at which
//! worker-pool width, and why each was chosen.

/// One scenario run inside a workload.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Registry name of the scenario.
    pub scenario: &'static str,
    /// Cell-id filter, exactly as `sweep --filter` applies it.
    pub filter: Option<&'static str>,
}

/// A named list of scenario runs at a fixed pool width.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layers it stresses.
    pub why: &'static str,
    /// Worker-pool width (`sweep --jobs`), fixed whatever the core count.
    pub jobs: usize,
    /// Scenario runs, in order; later runs see the cache entries of
    /// earlier ones, as consecutive `sweep` invocations would.
    pub passes: &'static [Pass],
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "family_lm",
        why: "Fig 5/6 relative throughput under longest matching on every family: \
              29 cells, 87 sparse FPTAS solves, cell-level parallelism at 2 workers",
        jobs: 2,
        passes: &[Pass {
            scenario: "fig05_06",
            filter: Some("/LM"),
        }],
    },
    Workload {
        name: "mixed_serial",
        why: "Seven scenarios at 1 worker: exact LP, cut estimators, path-restricted LP, \
              Facebook fixed-TM and fault-injected cells, plus cross-scenario cache hits",
        jobs: 1,
        passes: &[
            Pass {
                scenario: "fig02",
                filter: None,
            },
            Pass {
                scenario: "fig03",
                filter: None,
            },
            Pass {
                scenario: "table02",
                filter: None,
            },
            Pass {
                scenario: "fig07",
                filter: None,
            },
            Pass {
                scenario: "fig13_14",
                filter: None,
            },
            Pass {
                scenario: "fig15",
                filter: None,
            },
            Pass {
                scenario: "failures",
                filter: None,
            },
        ],
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
