//! A lock-free exchange of learnt clauses for cooperative portfolio
//! solving.
//!
//! Portfolio workers that race *the same formula* rediscover each other's
//! conflicts: every worker pays for every refutation from scratch. A
//! [`SharedClausePool`] lets solvers exchange short, low-LBD learnt
//! clauses instead — each worker *publishes* the clauses it learns (capped
//! by [`MAX_LEN`] and [`MAX_LBD`]) and *imports* its rivals' clauses at
//! restart boundaries, where the trail is at decision level 0 and
//! attaching new clauses is safe. A pool is sized by its race,
//! [`SharedClausePool::new`]`(workers)`, and used only through
//! [`Solver::attach_clause_pool`](crate::Solver::attach_clause_pool).
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
//! let pool = Arc::new(SharedClausePool::new(2));
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

/// Longest clause (in literals) the pool accepts. Long clauses prune
/// little and cost every importer propagation weight; the cap also sizes
/// every ring slot.
pub const MAX_LEN: usize = 8;

/// Largest literal-block distance the pool accepts. Low-LBD ("glue")
/// clauses are the ones empirically worth shipping between solvers.
pub const MAX_LBD: u32 = 6;

/// Slots per worker ring. A publisher that outruns its slowest reader by
/// more than this many clauses overwrites the oldest (the reader counts
/// them as dropped).
const RING_SLOTS: usize = 1024;

/// A reusable flat batch of clauses: all literals in one buffer, one
/// `(end offset, LBD)` record per clause.
///
/// [`SharedClausePool::collect_new`] appends into a batch instead of
/// returning one `Vec<Lit>` per clause, so a solver that imports at every
/// restart boundary reuses the same two allocations for its whole
/// lifetime (see the import path in [`crate::Solver`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct ClauseBatch {
    lits: Vec<Lit>,
    /// `(end, lbd)` per clause; clause `i` spans
    /// `lits[meta[i-1].0 .. meta[i].0]`.
    meta: Vec<(u32, u32)>,
}

impl ClauseBatch {
    /// Creates an empty batch.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends one clause.
    pub(crate) fn push(&mut self, lits: &[Lit], lbd: u32) {
        self.lits.extend_from_slice(lits);
        self.meta.push((self.lits.len() as u32, lbd));
    }

    /// The `idx`-th clause: its literals and LBD.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub(crate) fn get(&self, idx: usize) -> (&[Lit], u32) {
        let start = if idx == 0 {
            0
        } else {
            self.meta[idx - 1].0 as usize
        };
        let (end, lbd) = self.meta[idx];
        (&self.lits[start..end as usize], lbd)
    }

    /// Number of clauses in the batch.
    pub(crate) fn len(&self) -> usize {
        self.meta.len()
    }

    /// `true` when the batch holds no clauses.
    pub(crate) fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Drops all clauses, keeping the capacity of both buffers.
    pub(crate) fn clear(&mut self) {
        self.lits.clear();
        self.meta.clear();
    }
}

/// One worker's single-producer broadcast ring.
///
/// `head` is the count of clauses ever published; publication `n` lives
/// in slot `n % capacity`. Slot `i`'s sequence word holds `0` (never
/// written), `2·n + 1` (publication `n` in flight) or `2·n + 2`
/// (publication `n` stable); its literals occupy the flat `lits` block at
/// `i · MAX_LEN ..`.
#[derive(Debug)]
struct ExportRing {
    head: AtomicU64,
    seqs: Box<[AtomicU64]>,
    /// `len << 32 | lbd` per slot.
    metas: Box<[AtomicU64]>,
    lits: Box<[AtomicU32]>,
}

impl ExportRing {
    fn new(capacity: usize) -> Self {
        ExportRing {
            head: AtomicU64::new(0),
            seqs: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            metas: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            lits: (0..capacity * MAX_LEN).map(|_| AtomicU32::new(0)).collect(),
        }
    }
}

/// A bounded, lock-free broadcast exchange of learnt clauses between
/// portfolio workers. See the [module documentation](self) for the ring
/// protocol and the soundness contract.
#[derive(Debug)]
pub struct SharedClausePool {
    rings: Box<[ExportRing]>,
    workers: AtomicUsize,
}

impl SharedClausePool {
    /// Creates a pool for a race of `workers` solvers: one ring of
    /// 1,024 slots per worker, preallocated, which is what keeps
    /// registration and publication lock-free.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        Self::with_capacity(workers, RING_SLOTS)
    }

    /// Creates a pool of `workers` rings of `slots` slots each.
    fn with_capacity(workers: usize, slots: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one ring");
        SharedClausePool {
            rings: (0..workers).map(|_| ExportRing::new(slots)).collect(),
            workers: AtomicUsize::new(0),
        }
    }

    /// Registers a solver with the pool and returns its id — the index of
    /// the ring it publishes into. The id also keys self-import
    /// suppression: [`collect_new`](Self::collect_new) never hands a
    /// solver its own clauses back.
    ///
    /// # Panics
    ///
    /// Panics when more solvers register than the pool has rings.
    pub(crate) fn register(&self) -> usize {
        let id = self.workers.fetch_add(1, Ordering::Relaxed);
        assert!(
            id < self.rings.len(),
            "pool sized for {} workers, worker {} registered",
            self.rings.len(),
            id
        );
        id
    }

    /// Whether a clause of this shape passes the pool's caps, [`MAX_LEN`]
    /// and [`MAX_LBD`].
    pub(crate) fn admits(&self, len: usize, lbd: u32) -> bool {
        len > 0 && len <= MAX_LEN && lbd <= MAX_LBD
    }

    /// Publishes a clause into `source`'s ring and returns whether it was
    /// stored (`false`: it failed [`admits`](Self::admits)). Never blocks
    /// and never allocates; when the ring is full the oldest publication
    /// is overwritten.
    pub(crate) fn publish(&self, source: usize, lits: &[Lit], lbd: u32) -> bool {
        if !self.admits(lits.len(), lbd) {
            return false;
        }
        let ring = &self.rings[source];
        let cap = ring.seqs.len() as u64;
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
        let base = slot * MAX_LEN;
        for (cell, lit) in ring.lits[base..base + lits.len()].iter().zip(lits) {
            cell.store(lit.code() as u32, Ordering::Relaxed);
        }
        // Release: a reader that acquires this sequence (or the head
        // advance below) sees the complete clause.
        ring.seqs[slot].store(2 * n + 2, Ordering::Release);
        ring.head.store(n + 1, Ordering::Release);
        true
    }

    /// Appends every clause published since the caller's last visit to
    /// `sink` (skipping the caller's own ring), advancing the caller's
    /// per-ring `cursors` (resized to the ring count on first use).
    /// Returns how many clauses were provably missed — lapped by a
    /// publisher before this reader reached them, or overwritten mid-copy
    /// and discarded. The flat `sink` batch is reusable, so steady-state
    /// collection allocates nothing.
    pub(crate) fn collect_new(
        &self,
        source: usize,
        cursors: &mut Vec<u64>,
        sink: &mut ClauseBatch,
    ) -> u64 {
        cursors.resize(self.rings.len(), 0);
        let mut dropped = 0u64;
        for (ring_idx, (ring, cursor)) in self.rings.iter().zip(cursors.iter_mut()).enumerate() {
            if ring_idx == source {
                // Skip our own ring entirely (but keep the cursor fresh so
                // a later re-registration under a new id stays cheap).
                *cursor = ring.head.load(Ordering::Relaxed);
                continue;
            }
            let cap = ring.seqs.len() as u64;
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
                let len = ((meta >> 32) as usize).min(MAX_LEN);
                let lbd = meta as u32;
                let mark = sink.lits.len();
                let base = slot * MAX_LEN;
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
        dropped
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
        let pool = SharedClausePool::new(2);
        let a = pool.register();
        let b = pool.register();
        assert!(pool.publish(a, &lits(&[1, -2]), 2));
        assert!(pool.publish(b, &lits(&[2, 3]), 2));
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
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&lits(&[5, 6]), 4);
        assert_eq!(batch.get(0), (lits(&[5, 6]).as_slice(), 4));
    }

    #[test]
    fn caps_are_enforced() {
        let pool = SharedClausePool::new(2);
        let w = pool.register();
        let reader = pool.register();
        let long: Vec<i32> = (1..=MAX_LEN as i32 + 1).collect();
        assert!(!pool.publish(w, &lits(&long), 2));
        assert!(!pool.publish(w, &lits(&[1, 2]), MAX_LBD + 1));
        assert!(!pool.publish(w, &[], 1));
        assert!(pool.publish(w, &lits(&long[..MAX_LEN]), MAX_LBD));
        // Only the admitted clause reaches a reader.
        let mut got = ClauseBatch::new();
        assert_eq!(pool.collect_new(reader, &mut Vec::new(), &mut got), 0);
        assert_eq!(got.len(), 1);
        assert_eq!(got.get(0), (lits(&long[..MAX_LEN]).as_slice(), MAX_LBD));
    }

    #[test]
    fn full_rings_overwrite_the_oldest_and_readers_count_the_gap() {
        let pool = SharedClausePool::with_capacity(2, 4);
        let a = pool.register();
        let b = pool.register();
        for i in 1..=6i32 {
            assert!(pool.publish(a, &lits(&[i, -i]), 2));
        }
        let mut cursors = Vec::new();
        let mut got = ClauseBatch::new();
        // Publications 1 and 2 were lapped; the newest four survive.
        assert_eq!(pool.collect_new(b, &mut cursors, &mut got), 2);
        assert_eq!(got.len(), 4);
        for (idx, i) in (3..=6i32).enumerate() {
            assert_eq!(got.get(idx), (lits(&[i, -i]).as_slice(), 2));
        }
    }

    #[test]
    fn a_prompt_reader_survives_many_wraparounds() {
        let pool = SharedClausePool::with_capacity(2, 2);
        let a = pool.register();
        let b = pool.register();
        let mut cursors = Vec::new();
        let mut got = ClauseBatch::new();
        for round in 1..=20i32 {
            assert!(pool.publish(a, &lits(&[round]), 1));
            got.clear();
            // Collecting after every publish keeps the cursor within the
            // ring, so nothing is ever dropped despite 10 wraparounds.
            assert_eq!(pool.collect_new(b, &mut cursors, &mut got), 0);
            assert_eq!(got.len(), 1);
            assert_eq!(got.get(0), (lits(&[round]).as_slice(), 1));
        }
    }

    #[test]
    fn registration_ids_are_distinct() {
        let pool = SharedClausePool::new(4);
        let ids: Vec<usize> = (0..4).map(|_| pool.register()).collect();
        let unique: std::collections::BTreeSet<usize> = ids.iter().copied().collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    #[should_panic(expected = "pool sized for 1 workers")]
    fn registering_past_the_preallocated_rings_panics() {
        let pool = SharedClausePool::new(1);
        let _ = pool.register();
        let _ = pool.register();
    }

    /// Concurrent producers versus a racing reader: every collected clause
    /// must be internally consistent (never a torn mix of two
    /// publications), and the ledger must balance — everything published
    /// is either collected or counted dropped.
    #[test]
    fn racing_readers_never_observe_torn_clauses() {
        use std::sync::Arc;
        // Small rings force constant lapping and slot reuse; Miri-sized
        // iteration counts keep the interleaving search tractable.
        let rounds: u64 = if cfg!(miri) { 60 } else { 2000 };
        let pool = Arc::new(SharedClausePool::with_capacity(3, 8));
        let reader = pool.register();
        let producers: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let source = pool.register();
                std::thread::spawn(move || {
                    let mut published = 0u64;
                    for i in 0..rounds {
                        // Clause `i` is three consecutive literal codes
                        // starting at 3·i, so its first literal tags it
                        // and a torn copy is detectable.
                        let base = 3 * i as usize;
                        let c: Vec<Lit> = (base..base + 3).map(Lit::from_code).collect();
                        assert!(pool.publish(source, &c, 2));
                        published += 1;
                    }
                    published
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
            for idx in 0..got.len() {
                let (c, lbd) = got.get(idx);
                assert_eq!((c.len(), lbd), (3, 2), "torn length");
                let base = c[0].code();
                assert_eq!(base % 3, 0, "torn first literal");
                let codes: Vec<usize> = c.iter().map(|l| l.code()).collect();
                assert_eq!(codes, vec![base, base + 1, base + 2], "torn literals");
            }
            *collected += got.len() as u64;
        };
        while producers.iter().any(|p| !p.is_finished()) {
            drain(&mut got, &mut dropped, &mut collected);
        }
        let published: u64 = producers
            .into_iter()
            .map(|p| p.join().expect("producer panicked"))
            .sum();
        drain(&mut got, &mut dropped, &mut collected);
        // Ledger: every publication was either delivered or accounted for.
        assert_eq!(published, 2 * rounds);
        assert_eq!(collected + dropped, published);
    }
}
