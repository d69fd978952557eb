//! A fixed CPU kernel owned by the benchmark, not by the program: Dijkstra
//! from rotating sources on a seeded random graph, the shape of work the
//! solvers do. Its rate, sampled in short bursts through a run, records how
//! fast the host was while the run measured — the speed of a shared host
//! drifts by tens of percent over minutes — and scales the run's time
//! metrics to a fixed reference speed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Length of one burst of the kernel.
pub const REFERENCE_BURST: Duration = Duration::from_millis(50);
/// Nodes of the reference graph.
const NODES: usize = 1024;
/// Random edges added per node (each in both directions).
const EDGES_PER_NODE: usize = 8;

/// The reference kernel and its scratch state.
pub struct Reference {
    adj: Vec<Vec<(u32, u64)>>,
    dist: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    source: usize,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Builds the graph from a fixed xorshift stream.
    pub fn new() -> Self {
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut adj = vec![Vec::new(); NODES];
        for u in 0..NODES {
            for _ in 0..EDGES_PER_NODE {
                let v = (next() % NODES as u64) as usize;
                let w = 1 + next() % 1000;
                adj[u].push((v as u32, w));
                adj[v].push((u as u32, w));
            }
        }
        Reference {
            adj,
            dist: vec![0; NODES],
            heap: BinaryHeap::new(),
            source: 0,
        }
    }

    /// One shortest-path sweep from the next source; returns the sum of
    /// finite distances (a checksum that keeps the work observable).
    pub fn sweep(&mut self) -> u64 {
        let src = self.source;
        self.source = (self.source + 1) % NODES;
        self.dist.fill(u64::MAX);
        self.dist[src] = 0;
        self.heap.push(Reverse((0, src as u32)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist[u as usize] {
                continue;
            }
            for &(v, w) in &self.adj[u as usize] {
                let nd = d + w;
                if nd < self.dist[v as usize] {
                    self.dist[v as usize] = nd;
                    self.heap.push(Reverse((nd, v)));
                }
            }
        }
        self.dist.iter().filter(|&&d| d != u64::MAX).sum()
    }

    /// Sweeps per second over a burst of at least `len`.
    pub fn rate(&mut self, len: Duration) -> f64 {
        let start = Instant::now();
        let mut sweeps = 0u64;
        while start.elapsed() < len {
            std::hint::black_box(self.sweep());
            sweeps += 1;
        }
        sweeps as f64 / start.elapsed().as_secs_f64()
    }
}
