//! Reusable per-thread scratch state for the BFS-based kernels.
//!
//! Betweenness runs one Brandes pass per source node and closeness
//! runs one multi-source BFS per batch of [`MS_BFS_BATCH`] sources.
//! Allocating the distance/σ/δ/predecessor (or bit-lane) buffers per
//! source or per batch is the dominant non-traversal cost on
//! forum-scale graphs, so the kernels draw scratch from a
//! [`ScratchPool`] instead: a unit of work acquires one scratch, runs
//! its sources through it, and releases it for the next one. The
//! single-source resets are `O(visited)`, not `O(n)` — a per-node
//! *visit epoch stamp* marks which entries belong to the current run,
//! so untouched entries are never cleared.
//!
//! The pool reports how often a scratch was reused (`sources −
//! scratches created`), surfaced by the kernels as the
//! `graph.bfs.scratch_reuses` obs counter — on an armed run this
//! equals the number of BFS sources minus the pool size, proving the
//! inner loops allocate nothing per source.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::graph::Graph;

/// Epoch-stamped BFS scratch: distances, the visit queue, and the
/// stamp array marking which `dist` entries are valid this run.
#[derive(Debug, Default)]
pub struct BfsScratch {
    dist: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Visited nodes in BFS order; doubles as the queue (breadth-first
    /// order is append-only, so a head cursor replaces a deque).
    queue: Vec<u32>,
}

impl BfsScratch {
    /// A fresh scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        BfsScratch::default()
    }

    /// Sizes the buffers for an `n`-node graph and advances the
    /// epoch, wrapping safely (a wrap clears the stamps once).
    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, 0);
            self.stamp.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.queue.clear();
    }

    /// Runs BFS from `source`, leaving distances and the visit order
    /// readable via [`dist`](Self::dist) / [`visited`](Self::visited).
    ///
    /// # Panics
    ///
    /// Panics when `source` is out of range.
    pub fn run(&mut self, g: &Graph, source: u32) {
        assert!(
            (source as usize) < g.num_nodes(),
            "source {source} out of range"
        );
        self.begin(g.num_nodes());
        self.stamp[source as usize] = self.epoch;
        self.dist[source as usize] = 0;
        self.queue.push(source);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let du = self.dist[u as usize];
            for &v in g.neighbors(u) {
                if self.stamp[v as usize] != self.epoch {
                    self.stamp[v as usize] = self.epoch;
                    self.dist[v as usize] = du + 1;
                    self.queue.push(v);
                }
            }
        }
    }

    /// Distance to `v` from the last [`run`](Self::run) source;
    /// `u32::MAX` when unreachable.
    pub fn dist(&self, v: u32) -> u32 {
        if self.stamp[v as usize] == self.epoch {
            self.dist[v as usize]
        } else {
            u32::MAX
        }
    }

    /// The nodes reached by the last run, in BFS order (source first).
    pub fn visited(&self) -> &[u32] {
        &self.queue
    }
}

/// Epoch-stamped scratch for one Brandes source pass: shortest-path
/// counts `σ`, dependencies `δ`, distances, the visit stack, and a
/// flat predecessor store laid out by the graph's CSR offsets (node
/// `w`'s predecessors are a prefix of its neighbor slot range), so a
/// pass performs no allocation at all.
#[derive(Debug, Default)]
pub struct BrandesScratch {
    sigma: Vec<f64>,
    dist: Vec<u32>,
    delta: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
    pred_buf: Vec<u32>,
    pred_count: Vec<u32>,
}

impl BrandesScratch {
    /// A fresh scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        BrandesScratch::default()
    }

    fn begin(&mut self, g: &Graph) {
        let n = g.num_nodes();
        if self.sigma.len() < n {
            self.sigma.resize(n, 0.0);
            self.dist.resize(n, 0);
            self.delta.resize(n, 0.0);
            self.stamp.resize(n, 0);
            self.pred_count.resize(n, 0);
        }
        if self.pred_buf.len() < g.neighbors.len() {
            self.pred_buf.resize(g.neighbors.len(), 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stack.clear();
    }

    /// Runs one Brandes source pass from `s`, adding each visited
    /// node's scaled dependency into `bc`. The floating-point
    /// operation order is identical to the historical per-source
    /// implementation, so accumulated results are bitwise unchanged.
    pub fn accumulate(&mut self, g: &Graph, s: u32, scale: f64, bc: &mut [f64]) {
        self.begin(g);
        let (epoch, s_us) = (self.epoch, s as usize);
        self.stamp[s_us] = epoch;
        self.sigma[s_us] = 1.0;
        self.dist[s_us] = 0;
        self.delta[s_us] = 0.0;
        self.pred_count[s_us] = 0;
        self.stack.push(s);
        let mut head = 0;
        while head < self.stack.len() {
            let v = self.stack[head];
            head += 1;
            let dv = self.dist[v as usize];
            for &w in g.neighbors(v) {
                let w_us = w as usize;
                if self.stamp[w_us] != epoch {
                    self.stamp[w_us] = epoch;
                    self.dist[w_us] = dv + 1;
                    self.sigma[w_us] = 0.0;
                    self.delta[w_us] = 0.0;
                    self.pred_count[w_us] = 0;
                    self.stack.push(w);
                }
                if self.dist[w_us] == dv + 1 {
                    self.sigma[w_us] += self.sigma[v as usize];
                    let slot = g.offsets[w_us] as usize + self.pred_count[w_us] as usize;
                    self.pred_buf[slot] = v;
                    self.pred_count[w_us] += 1;
                }
            }
        }
        for &w in self.stack.iter().rev() {
            let w_us = w as usize;
            let start = g.offsets[w_us] as usize;
            for i in 0..self.pred_count[w_us] as usize {
                let v = self.pred_buf[start + i] as usize;
                self.delta[v] += self.sigma[v] / self.sigma[w_us] * (1.0 + self.delta[w_us]);
            }
            if w != s {
                bc[w_us] += self.delta[w_us] * scale;
            }
        }
    }
}

/// `u64` words of bit lanes per node in a multi-source BFS batch
/// (4 measured best on the paper-scale SLN graphs).
const MS_BFS_WORDS: usize = 4;

/// Sources traversed together by one [`MsBfsScratch`] batch: one bit
/// lane per source.
pub(crate) const MS_BFS_BATCH: usize = 64 * MS_BFS_WORDS;

/// One node's bit lanes: bit `i` of word `i / 64` belongs to the
/// batch's `i`-th source.
type Lanes = [u64; MS_BFS_WORDS];

const NO_LANES: Lanes = [0; MS_BFS_WORDS];

/// The nodes of a [`Graph`] with degree > 0, renumbered `0 .. len`
/// in ascending original-id order, with the adjacency restricted to
/// them in CSR form. Isolated nodes reach nobody and nobody reaches
/// them, so dropping them changes no distance. The renumbering is
/// monotone, so each neighbour slice stays sorted.
#[derive(Debug)]
pub(crate) struct ActiveCsr {
    /// Original node id of each compact node.
    ids: Vec<u32>,
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl ActiveCsr {
    pub(crate) fn new(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut compact = vec![u32::MAX; n];
        let mut ids = Vec::new();
        for u in 0..n as u32 {
            if g.degree(u) > 0 {
                compact[u as usize] = ids.len() as u32;
                ids.push(u);
            }
        }
        // Isolated nodes own empty neighbour slices, so each active
        // node's slice ends where it did in `g`.
        let offsets = std::iter::once(0)
            .chain(ids.iter().map(|&u| g.offsets[u as usize + 1]))
            .collect();
        let neighbors = g.neighbors.iter().map(|&v| compact[v as usize]).collect();
        ActiveCsr {
            ids,
            offsets,
            neighbors,
        }
    }

    /// Number of nodes with degree > 0.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Original node id of each compact node, in compact order.
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    fn neighbors(&self, u: usize) -> &[u32] {
        &self.neighbors[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }
}

/// Bit-parallel multi-source BFS state (Then et al., *The More the
/// Merrier*, PVLDB 2014): every node carries `seen`, `frontier` and
/// `next` bit lanes, one lane per source of the batch, so a single
/// traversal reads each edge once per level for all
/// [`MS_BFS_BATCH`] sources.
#[derive(Debug, Default)]
pub(crate) struct MsBfsScratch {
    seen: Vec<Lanes>,
    frontier: Vec<Lanes>,
    next: Vec<Lanes>,
}

impl MsBfsScratch {
    /// Runs BFS from the compact sources `first ..` (up to
    /// [`MS_BFS_BATCH`] of them, fewer in the last batch) at once and
    /// returns each source's distance sum `Σ_v z_{s,v}` over the nodes
    /// it reaches, indexed by `source − first`; lanes past the last
    /// source read 0.
    ///
    /// At level `d` every lane newly set in a node's `seen` adds `d`
    /// to its source's sum, so each reachable `(source, node)` pair
    /// contributes its BFS distance exactly once: the same integer a
    /// single-source BFS sums.
    pub(crate) fn distance_sums(&mut self, csr: &ActiveCsr, first: usize) -> [u64; MS_BFS_BATCH] {
        let n = csr.len();
        let count = (n - first).min(MS_BFS_BATCH);
        for buf in [&mut self.seen, &mut self.frontier, &mut self.next] {
            buf.clear();
            buf.resize(n, NO_LANES);
        }
        for i in 0..count {
            let bit = 1u64 << (i % 64);
            self.seen[first + i][i / 64] |= bit;
            self.frontier[first + i][i / 64] |= bit;
        }
        let mut sums = [0u64; MS_BFS_BATCH];
        let mut depth = 0u64;
        loop {
            depth += 1;
            // Push: every frontier node ORs its lanes into its
            // neighbours' `next`, consuming the frontier.
            for u in 0..n {
                let lanes = std::mem::replace(&mut self.frontier[u], NO_LANES);
                if lanes == NO_LANES {
                    continue;
                }
                for &v in csr.neighbors(u) {
                    let next = &mut self.next[v as usize];
                    for w in 0..MS_BFS_WORDS {
                        next[w] |= lanes[w];
                    }
                }
            }
            // Settle: lanes not seen before form the next frontier,
            // and each one adds this level's depth to its source.
            let mut advanced = false;
            for v in 0..n {
                let next = std::mem::replace(&mut self.next[v], NO_LANES);
                if next == NO_LANES {
                    continue;
                }
                let seen = &mut self.seen[v];
                let mut fresh = NO_LANES;
                for w in 0..MS_BFS_WORDS {
                    fresh[w] = next[w] & !seen[w];
                    seen[w] |= fresh[w];
                    let mut bits = fresh[w];
                    while bits != 0 {
                        sums[w * 64 + bits.trailing_zeros() as usize] += depth;
                        bits &= bits - 1;
                    }
                }
                if fresh != NO_LANES {
                    self.frontier[v] = fresh;
                    advanced = true;
                }
            }
            if !advanced {
                return sums;
            }
        }
    }
}

/// A lock-guarded free list of scratch buffers shared by the parallel
/// kernels: each work chunk acquires one scratch (reusing a released
/// one when available), runs its sources, and releases it. Tracks how
/// many scratches were ever created so callers can report
/// `sources − created` as the reuse count.
#[derive(Debug, Default)]
pub struct ScratchPool<T> {
    free: Mutex<Vec<T>>,
    created: AtomicUsize,
}

impl<T: Default> ScratchPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
            created: AtomicUsize::new(0),
        }
    }

    /// Pops a released scratch, or creates a fresh one.
    pub fn acquire(&self) -> T {
        let popped = self
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        popped.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            T::default()
        })
    }

    /// Returns a scratch to the pool for the next chunk.
    pub fn release(&self, item: T) {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(item);
    }

    /// How many scratches this pool ever created.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_bfs_runs_from_different_sources_are_correct() {
        // Path 0-1-2-3 plus isolated 4: the second run must not see
        // stale distances from the first.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let mut scratch = BfsScratch::new();
        scratch.run(&g, 0);
        assert_eq!(
            (0..5).map(|v| scratch.dist(v)).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, u32::MAX]
        );
        scratch.run(&g, 3);
        assert_eq!(
            (0..5).map(|v| scratch.dist(v)).collect::<Vec<_>>(),
            vec![3, 2, 1, 0, u32::MAX]
        );
        assert_eq!(scratch.visited(), &[3, 2, 1, 0]);
        // A disconnected source only sees itself.
        scratch.run(&g, 4);
        assert_eq!(scratch.dist(4), 0);
        assert_eq!(scratch.dist(0), u32::MAX);
        assert_eq!(scratch.visited(), &[4]);
    }

    #[test]
    fn scratch_grows_to_larger_graphs() {
        let small = Graph::from_edges(2, &[(0, 1)]);
        let big = Graph::from_edges(6, &[(0, 5), (5, 3)]);
        let mut scratch = BfsScratch::new();
        scratch.run(&small, 1);
        assert_eq!(scratch.dist(0), 1);
        scratch.run(&big, 0);
        assert_eq!(scratch.dist(3), 2);
        assert_eq!(scratch.dist(4), u32::MAX);
    }

    #[test]
    fn epoch_wrap_clears_stamps() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let mut scratch = BfsScratch::new();
        scratch.run(&g, 0);
        scratch.epoch = u32::MAX; // force the wrap path
        scratch.run(&g, 1);
        assert_eq!(scratch.dist(0), 1);
        assert_eq!(scratch.dist(2), u32::MAX);
    }

    #[test]
    fn pool_reuses_released_scratch() {
        let pool: ScratchPool<BfsScratch> = ScratchPool::new();
        let a = pool.acquire();
        assert_eq!(pool.created(), 1);
        pool.release(a);
        let _b = pool.acquire();
        assert_eq!(pool.created(), 1, "released scratch must be reused");
        let _c = pool.acquire();
        assert_eq!(pool.created(), 2);
    }
}
