//! A lock-free exchange of learnt clauses for cooperative portfolio
//! solving.
//!
//! Portfolio workers that race *the same formula* rediscover each other's
//! conflicts: every worker pays for every refutation from scratch. A
//! [`SharedClausePool`] lets solvers exchange short, low-LBD learnt
//! clauses instead — each worker *publishes* the clauses it learns (capped
//! by [`PoolConfig::max_len`]/[`PoolConfig::max_lbd`]) and *imports* its
//! rivals' clauses at restart boundaries, where the trail is at decision
//! level 0 and attaching new clauses is safe.
//!
//! # Lock-free design
//!
//! The pool is a set of per-worker *broadcast rings*, modelled on
//! HordeSat's export buffers (Balyo, Sanders, Sinz; SAT'15). Each
//! registered worker owns one fixed-capacity ring it alone writes
//! (single-producer); every rival scans the ring at its own pace with a
//! private cursor (multi-consumer, read-only). Publishing a clause and
//! draining rivals' rings never take a lock, never allocate, and never
//! wait on another thread: a publisher that laps a slow reader simply
//! *overwrites the oldest* slot and the reader accounts the missed
//! clauses as dropped. Sharing therefore degrades by shedding old clauses
//! under contention instead of serialising the solvers.
//!
//! Each ring slot carries a seqlock-style sequence number: slot `n % cap`
//! holds `2·n + 2` once publication `n` is stable and `2·n + 1` while it
//! is being rewritten. Readers validate the sequence before *and* after
//! copying the literals (with the fence pairing of the classic seqlock
//! recipe), so a clause that is concurrently overwritten is detected and
//! counted as dropped rather than observed torn. The implementation is
//! `unsafe`-free: slots are plain atomics, so the protocol is checkable
//! by Miri and ThreadSanitizer as-is.
//!
//! # Soundness contract
//!
//! The pool copies literals verbatim; it has no notion of what a variable
//! *means*. Callers must only connect solvers that build one formula
//! with one deterministic variable numbering, so that worker A's
//! variable `17` and worker B's variable `17` denote the same
//! proposition. Solvers may grow that formula at different rates, as
//! long as each growth step is a conservative extension: every model of
//! the shorter formula extends to a model of the longer one (in
//! `revpebble-core`, a step-`k` pebbling encoding extends to any
//! `k' > k` by idling). Two facts then make every exchanged clause sound
//! for every importer:
//!
//! * learnt clauses are logical consequences of the clause database
//!   alone (assumptions are decisions, never axioms);
//! * a clause implied by a longer formula and confined to a shorter
//!   one's variables is implied by the shorter formula too.
//!
//! A clause naming a variable the importer has not created yet is
//! deferred and retried at later imports, until the importer's own
//! formula has grown that far.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use revpebble_sat::pool::SharedClausePool;
//! use revpebble_sat::{Solver, SolveResult};
//!
//! let pool = Arc::new(SharedClausePool::new());
//! let mut a = Solver::new();
//! let mut b = Solver::new();
//! a.attach_clause_pool(Arc::clone(&pool));
//! b.attach_clause_pool(Arc::clone(&pool));
//! // Both solvers encode the same formula with identical numbering …
//! for solver in [&mut a, &mut b] {
//!     let x = solver.new_var().positive();
//!     let y = solver.new_var().positive();
//!     solver.add_clause([x, y]);
//!     solver.add_clause([!x, y]);
//! }
//! // … so clauses learnt by `a` are sound for `b` and vice versa.
//! assert_eq!(a.solve(), SolveResult::Sat);
//! assert_eq!(b.solve(), SolveResult::Sat);
//! ```

use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crate::types::Lit;

/// Limits on what a [`SharedClausePool`] accepts and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Longest clause (in literals) the pool accepts. Long clauses prune
    /// little and cost every importer propagation weight; the cap also
    /// sizes every ring slot, so it is a memory knob.
    pub max_len: usize,
    /// Largest literal-block distance the pool accepts. Low-LBD ("glue")
    /// clauses are the ones empirically worth shipping between solvers.
    pub max_lbd: u32,
    /// Slots per worker ring. A publisher that outruns its slowest reader
    /// by more than this many clauses overwrites the oldest (the reader
    /// counts them as dropped).
    pub ring_capacity: usize,
    /// Rings preallocated at construction — the most workers that can
    /// [`register`](SharedClausePool::register). Preallocation is what
    /// keeps registration and publication lock-free.
    pub max_workers: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_len: 8,
            max_lbd: 6,
            ring_capacity: 1024,
            max_workers: 16,
        }
    }
}

/// A reusable flat batch of clauses: all literals in one buffer, one
/// `(end offset, LBD)` record per clause.
///
/// [`SharedClausePool::collect_new`] appends into a batch instead of
/// returning one `Vec<Lit>` per clause, so a solver that imports at every
/// restart boundary reuses the same two allocations for its whole
/// lifetime (see the import path in [`crate::Solver`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClauseBatch {
    lits: Vec<Lit>,
    /// `(end, lbd)` per clause; clause `i` spans
    /// `lits[meta[i-1].0 .. meta[i].0]`.
    meta: Vec<(u32, u32)>,
}

impl ClauseBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one clause.
    pub fn push(&mut self, lits: &[Lit], lbd: u32) {
        self.lits.extend_from_slice(lits);
        self.meta.push((self.lits.len() as u32, lbd));
    }

    /// The `idx`-th clause: its literals and LBD.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn get(&self, idx: usize) -> (&[Lit], u32) {
        let start = if idx == 0 {
            0
        } else {
            self.meta[idx - 1].0 as usize
        };
        let (end, lbd) = self.meta[idx];
        (&self.lits[start..end as usize], lbd)
    }

    /// Number of clauses in the batch.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// `true` when the batch holds no clauses.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Drops all clauses, keeping the capacity of both buffers.
    pub fn clear(&mut self) {
        self.lits.clear();
        self.meta.clear();
    }

    /// Iterates over `(literals, lbd)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[Lit], u32)> + '_ {
        (0..self.len()).map(|idx| self.get(idx))
    }
}

/// What happened to a [`publish`](SharedClausePool::publish)ed clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Publish {
    /// The clause landed in a free ring slot.
    Stored,
    /// The clause landed by overwriting the oldest slot — the ring was
    /// full, so some reader that had not caught up will count a drop.
    Overwrote,
    /// The clause failed [`admits`](SharedClausePool::admits) and was not
    /// stored.
    Rejected,
}

/// Cumulative pool counters (see [`SharedClausePool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Clauses accepted into some worker's ring.
    pub published: u64,
    /// Clauses refused by the [`admits`](SharedClausePool::admits) caps.
    pub rejected: u64,
    /// Publications that overwrote a not-yet-ancient slot (ring full).
    pub overwritten: u64,
    /// Clauses some reader provably missed: lapped by a publisher before
    /// the reader's cursor reached them, or torn mid-copy and discarded.
    pub dropped: u64,
    /// Solvers registered with the pool.
    pub workers: usize,
}

/// Per-worker ring counters (see [`SharedClausePool::worker_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Clauses this worker has published into its ring.
    pub published: u64,
    /// How many of those overwrote a live slot.
    pub overwritten: u64,
}

/// One worker's single-producer broadcast ring.
///
/// `head` is the count of clauses ever published; publication `n` lives
/// in slot `n % capacity`. Slot `i`'s sequence word holds `0` (never
/// written), `2·n + 1` (publication `n` in flight) or `2·n + 2`
/// (publication `n` stable); its literals occupy the flat `lits` block at
/// `i · max_len ..`.
#[derive(Debug)]
struct ExportRing {
    head: AtomicU64,
    overwritten: AtomicU64,
    seqs: Box<[AtomicU64]>,
    /// `len << 32 | lbd` per slot.
    metas: Box<[AtomicU64]>,
    lits: Box<[AtomicU32]>,
}

impl ExportRing {
    fn new(capacity: usize, max_len: usize) -> Self {
        ExportRing {
            head: AtomicU64::new(0),
            overwritten: AtomicU64::new(0),
            seqs: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            metas: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            lits: (0..capacity * max_len).map(|_| AtomicU32::new(0)).collect(),
        }
    }
}

/// A bounded, lock-free broadcast exchange of learnt clauses between
/// portfolio workers. See the [module documentation](self) for the ring
/// protocol and the soundness contract.
#[derive(Debug)]
pub struct SharedClausePool {
    config: PoolConfig,
    rings: Box<[ExportRing]>,
    workers: AtomicUsize,
    rejected: AtomicU64,
    dropped: AtomicU64,
}

impl Default for SharedClausePool {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedClausePool {
    /// Creates a pool with [`PoolConfig::default`] limits.
    pub fn new() -> Self {
        Self::with_config(PoolConfig::default())
    }

    /// Creates a pool with explicit limits.
    ///
    /// # Panics
    ///
    /// Panics if `ring_capacity`, `max_workers` or `max_len` is zero.
    pub fn with_config(config: PoolConfig) -> Self {
        assert!(config.ring_capacity > 0, "rings need at least one slot");
        assert!(config.max_workers > 0, "a pool needs at least one ring");
        assert!(config.max_len > 0, "slots must hold at least one literal");
        SharedClausePool {
            rings: (0..config.max_workers)
                .map(|_| ExportRing::new(config.ring_capacity, config.max_len))
                .collect(),
            config,
            workers: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The pool's limits.
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// Registers a solver with the pool and returns its id — the index of
    /// the ring it publishes into. The id also keys self-import
    /// suppression: [`collect_new`](Self::collect_new) never hands a
    /// solver its own clauses back.
    ///
    /// # Panics
    ///
    /// Panics when more than [`PoolConfig::max_workers`] solvers register
    /// (rings are preallocated; see [`PoolConfig`]).
    pub fn register(&self) -> usize {
        let id = self.workers.fetch_add(1, Ordering::Relaxed);
        assert!(
            id < self.config.max_workers,
            "pool sized for {} workers, worker {} registered",
            self.config.max_workers,
            id
        );
        id
    }

    /// Whether a clause of this shape passes the pool's caps.
    pub fn admits(&self, len: usize, lbd: u32) -> bool {
        len > 0 && len <= self.config.max_len && lbd <= self.config.max_lbd
    }

    /// Publishes a clause into `source`'s ring. Never blocks and never
    /// allocates; when the ring is full the oldest publication is
    /// overwritten ([`Publish::Overwrote`]).
    pub fn publish(&self, source: usize, lits: &[Lit], lbd: u32) -> Publish {
        if !self.admits(lits.len(), lbd) || lits.iter().any(|l| u32::try_from(l.code()).is_err()) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Publish::Rejected;
        }
        let ring = &self.rings[source];
        let cap = self.config.ring_capacity as u64;
        // Single producer: only this worker writes `head`, so a relaxed
        // read of our own last store is exact.
        let n = ring.head.load(Ordering::Relaxed);
        let slot = (n % cap) as usize;
        // Seqlock write: mark the slot in flight, then publish the data,
        // then mark it stable. The release fence pairs with the readers'
        // acquire fence (after their data loads): any reader that observes
        // data written below must also observe the odd sequence — or the
        // final even one — at its post-copy check, so torn copies are
        // always detected.
        ring.seqs[slot].store(2 * n + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        ring.metas[slot].store(
            ((lits.len() as u64) << 32) | u64::from(lbd),
            Ordering::Relaxed,
        );
        let base = slot * self.config.max_len;
        for (cell, lit) in ring.lits[base..base + lits.len()].iter().zip(lits) {
            cell.store(lit.code() as u32, Ordering::Relaxed);
        }
        // Release: a reader that acquires this sequence (or the head
        // advance below) sees the complete clause.
        ring.seqs[slot].store(2 * n + 2, Ordering::Release);
        ring.head.store(n + 1, Ordering::Release);
        if n >= cap {
            ring.overwritten.fetch_add(1, Ordering::Relaxed);
            Publish::Overwrote
        } else {
            Publish::Stored
        }
    }

    /// Appends every clause published since the caller's last visit to
    /// `sink` (skipping the caller's own ring), advancing the caller's
    /// per-ring `cursors` (resized to the ring count on first use).
    /// Returns how many clauses were provably missed — lapped by a
    /// publisher before this reader reached them, or overwritten mid-copy
    /// and discarded. The flat `sink` batch is reusable, so steady-state
    /// collection allocates nothing.
    pub fn collect_new(
        &self,
        source: usize,
        cursors: &mut Vec<u64>,
        sink: &mut ClauseBatch,
    ) -> u64 {
        cursors.resize(self.rings.len(), 0);
        let cap = self.config.ring_capacity as u64;
        let mut dropped = 0u64;
        for (ring_idx, (ring, cursor)) in self.rings.iter().zip(cursors.iter_mut()).enumerate() {
            if ring_idx == source {
                // Skip our own ring entirely (but keep the cursor fresh so
                // a later re-registration under a new id stays cheap).
                *cursor = ring.head.load(Ordering::Relaxed);
                continue;
            }
            // Acquire: everything published at sequence ≤ head is visible.
            let head = ring.head.load(Ordering::Acquire);
            if head > cap && head - cap > *cursor {
                // Lapped: publications in `[cursor, head - cap)` are gone.
                dropped += head - cap - *cursor;
                *cursor = head - cap;
            }
            while *cursor < head {
                let n = *cursor;
                *cursor += 1;
                let slot = (n % cap) as usize;
                let s1 = ring.seqs[slot].load(Ordering::Acquire);
                if s1 != 2 * n + 2 {
                    // The slot was recycled for a newer publication after
                    // we loaded `head` (a smaller sequence is impossible:
                    // the even store happens-before the head advance we
                    // acquired). The clause is gone.
                    dropped += 1;
                    continue;
                }
                let meta = ring.metas[slot].load(Ordering::Relaxed);
                let len = ((meta >> 32) as usize).min(self.config.max_len);
                let lbd = meta as u32;
                let mark = sink.lits.len();
                let base = slot * self.config.max_len;
                for cell in &ring.lits[base..base + len] {
                    sink.lits
                        .push(Lit::from_code(cell.load(Ordering::Relaxed) as usize));
                }
                // Seqlock read validation: the acquire fence pairs with
                // the writer's release fence, so if any literal above came
                // from a newer publication, this re-check observes its
                // odd/advanced sequence and the copy is discarded.
                fence(Ordering::Acquire);
                if ring.seqs[slot].load(Ordering::Relaxed) == s1 {
                    sink.meta.push((sink.lits.len() as u32, lbd));
                } else {
                    sink.lits.truncate(mark);
                    dropped += 1;
                }
            }
        }
        if dropped > 0 {
            self.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
        dropped
    }

    /// One worker's ring counters — contention-free throughput, straight
    /// off the single-producer ring (no cross-worker aggregation).
    pub fn worker_stats(&self, source: usize) -> RingStats {
        let ring = &self.rings[source];
        RingStats {
            published: ring.head.load(Ordering::Relaxed),
            overwritten: ring.overwritten.load(Ordering::Relaxed),
        }
    }

    /// Ring counters for every registered worker, in registration order.
    pub fn per_worker_stats(&self) -> Vec<RingStats> {
        let workers = self.workers.load(Ordering::Relaxed).min(self.rings.len());
        (0..workers).map(|w| self.worker_stats(w)).collect()
    }

    /// Cumulative counters, aggregated over every ring.
    pub fn stats(&self) -> PoolStats {
        let mut published = 0;
        let mut overwritten = 0;
        for ring in self.rings.iter() {
            published += ring.head.load(Ordering::Relaxed);
            overwritten += ring.overwritten.load(Ordering::Relaxed);
        }
        PoolStats {
            published,
            rejected: self.rejected.load(Ordering::Relaxed),
            overwritten,
            dropped: self.dropped.load(Ordering::Relaxed),
            workers: self.workers.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn lits(codes: &[i32]) -> Vec<Lit> {
        codes
            .iter()
            .map(|&d| Lit::new(Var::from_index((d.unsigned_abs() - 1) as usize), d > 0))
            .collect()
    }

    #[test]
    fn publish_and_collect_roundtrip() {
        let pool = SharedClausePool::new();
        let a = pool.register();
        let b = pool.register();
        assert_eq!(pool.publish(a, &lits(&[1, -2]), 2), Publish::Stored);
        assert_eq!(pool.publish(b, &lits(&[2, 3]), 2), Publish::Stored);
        let mut cursors = Vec::new();
        let mut got = ClauseBatch::new();
        assert_eq!(pool.collect_new(a, &mut cursors, &mut got), 0);
        // `a` sees only `b`'s clause.
        assert_eq!(got.len(), 1);
        assert_eq!(got.get(0), (lits(&[2, 3]).as_slice(), 2));
        // A second visit with the same cursors yields nothing new.
        got.clear();
        assert_eq!(pool.collect_new(a, &mut cursors, &mut got), 0);
        assert!(got.is_empty());
    }

    #[test]
    fn clause_batch_is_a_flat_reusable_buffer() {
        let mut batch = ClauseBatch::new();
        assert!(batch.is_empty());
        batch.push(&lits(&[1, -2]), 2);
        batch.push(&lits(&[3]), 1);
        batch.push(&lits(&[-1, 2, 4]), 3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.get(0), (lits(&[1, -2]).as_slice(), 2));
        assert_eq!(batch.get(1), (lits(&[3]).as_slice(), 1));
        assert_eq!(batch.get(2), (lits(&[-1, 2, 4]).as_slice(), 3));
        let collected: Vec<(Vec<Lit>, u32)> =
            batch.iter().map(|(l, lbd)| (l.to_vec(), lbd)).collect();
        assert_eq!(
            collected,
            vec![(lits(&[1, -2]), 2), (lits(&[3]), 1), (lits(&[-1, 2, 4]), 3)]
        );
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&lits(&[5, 6]), 4);
        assert_eq!(batch.get(0), (lits(&[5, 6]).as_slice(), 4));
    }

    #[test]
    fn caps_are_enforced() {
        let pool = SharedClausePool::with_config(PoolConfig {
            max_len: 2,
            max_lbd: 3,
            ..PoolConfig::default()
        });
        let w = pool.register();
        assert_eq!(pool.publish(w, &lits(&[1, 2, 3]), 2), Publish::Rejected);
        assert_eq!(pool.publish(w, &lits(&[1, 2]), 4), Publish::Rejected);
        assert_eq!(pool.publish(w, &[], 1), Publish::Rejected);
        assert_eq!(pool.publish(w, &lits(&[1, 2]), 3), Publish::Stored);
        let stats = pool.stats();
        assert_eq!(stats.published, 1);
        assert_eq!(stats.rejected, 3);
    }

    #[test]
    fn full_rings_overwrite_the_oldest_and_readers_count_the_gap() {
        let pool = SharedClausePool::with_config(PoolConfig {
            ring_capacity: 4,
            max_workers: 2,
            ..PoolConfig::default()
        });
        let a = pool.register();
        let b = pool.register();
        for i in 1..=6i32 {
            let expected = if i <= 4 {
                Publish::Stored
            } else {
                Publish::Overwrote
            };
            assert_eq!(pool.publish(a, &lits(&[i, -i]), 2), expected);
        }
        let mut cursors = Vec::new();
        let mut got = ClauseBatch::new();
        // Publications 1 and 2 were lapped; the newest four survive.
        assert_eq!(pool.collect_new(b, &mut cursors, &mut got), 2);
        assert_eq!(got.len(), 4);
        for (idx, i) in (3..=6i32).enumerate() {
            assert_eq!(got.get(idx), (lits(&[i, -i]).as_slice(), 2));
        }
        let stats = pool.stats();
        assert_eq!(stats.published, 6);
        assert_eq!(stats.overwritten, 2);
        assert_eq!(stats.dropped, 2);
        assert_eq!(
            pool.worker_stats(a),
            RingStats {
                published: 6,
                overwritten: 2
            }
        );
        assert_eq!(pool.per_worker_stats().len(), 2);
        assert_eq!(pool.per_worker_stats()[b], RingStats::default());
    }

    #[test]
    fn a_prompt_reader_survives_many_wraparounds() {
        let pool = SharedClausePool::with_config(PoolConfig {
            ring_capacity: 2,
            max_workers: 2,
            ..PoolConfig::default()
        });
        let a = pool.register();
        let b = pool.register();
        let mut cursors = Vec::new();
        let mut got = ClauseBatch::new();
        for round in 1..=20i32 {
            assert_ne!(pool.publish(a, &lits(&[round]), 1), Publish::Rejected);
            got.clear();
            // Collecting after every publish keeps the cursor within the
            // ring, so nothing is ever dropped despite 10 wraparounds.
            assert_eq!(pool.collect_new(b, &mut cursors, &mut got), 0);
            assert_eq!(got.len(), 1);
            assert_eq!(got.get(0), (lits(&[round]).as_slice(), 1));
        }
        assert_eq!(pool.stats().dropped, 0);
    }

    #[test]
    fn registration_ids_are_distinct() {
        let pool = SharedClausePool::new();
        let ids: Vec<usize> = (0..4).map(|_| pool.register()).collect();
        let unique: std::collections::BTreeSet<usize> = ids.iter().copied().collect();
        assert_eq!(unique.len(), 4);
        assert_eq!(pool.stats().workers, 4);
    }

    #[test]
    #[should_panic(expected = "pool sized for 1 workers")]
    fn registering_past_the_preallocated_rings_panics() {
        let pool = SharedClausePool::with_config(PoolConfig {
            max_workers: 1,
            ..PoolConfig::default()
        });
        let _ = pool.register();
        let _ = pool.register();
    }

    /// Concurrent producers versus a racing reader: every collected clause
    /// must be internally consistent (never a torn mix of two
    /// publications), and the per-ring ledger must balance — everything
    /// published is either collected or counted dropped.
    #[test]
    fn racing_readers_never_observe_torn_clauses() {
        use std::sync::Arc;
        // Small rings force constant lapping and slot reuse; Miri-sized
        // iteration counts keep the interleaving search tractable.
        let rounds: u64 = if cfg!(miri) { 60 } else { 2000 };
        let pool = Arc::new(SharedClausePool::with_config(PoolConfig {
            ring_capacity: 8,
            max_workers: 3,
            max_lbd: u32::MAX,
            ..PoolConfig::default()
        }));
        let reader = pool.register();
        let producers: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let source = pool.register();
                std::thread::spawn(move || {
                    for i in 0..rounds {
                        // Clause `i` is three consecutive literal codes
                        // starting at 3·i — torn copies are detectable.
                        let base = 3 * i as usize;
                        let c: Vec<Lit> = (base..base + 3).map(Lit::from_code).collect();
                        assert_ne!(pool.publish(source, &c, i as u32), Publish::Rejected);
                    }
                })
            })
            .collect();
        let mut cursors = Vec::new();
        let mut got = ClauseBatch::new();
        let mut collected = 0u64;
        let mut dropped = 0u64;
        let mut drain = |got: &mut ClauseBatch, dropped: &mut u64, collected: &mut u64| {
            got.clear();
            *dropped += pool.collect_new(reader, &mut cursors, got);
            for (c, lbd) in got.iter() {
                assert_eq!(c.len(), 3, "torn length");
                let base = 3 * lbd as usize;
                let codes: Vec<usize> = c.iter().map(|l| l.code()).collect();
                assert_eq!(codes, vec![base, base + 1, base + 2], "torn literals");
            }
            *collected += got.len() as u64;
        };
        while producers.iter().any(|p| !p.is_finished()) {
            drain(&mut got, &mut dropped, &mut collected);
        }
        for p in producers {
            p.join().expect("producer panicked");
        }
        drain(&mut got, &mut dropped, &mut collected);
        // Ledger: every publication was either delivered or accounted for.
        assert_eq!(collected + dropped, 2 * rounds);
        assert_eq!(pool.stats().published, 2 * rounds);
        assert_eq!(pool.stats().dropped, dropped);
    }
}
