//! A bounded, DAG-keyed cache of finished session results.
//!
//! Serving workloads replay the same netlists: a batch front end probing
//! variants of a circuit, a CI job re-checking known instances, a tuning
//! loop sweeping solver options over one DAG. The SAT work is seconds;
//! the answer is a few words. This module memoizes it.
//!
//! A cache key pairs the asking DAG's pebbling structure *as
//! numbered* — per node, in id order, its weight, output mark and
//! node-child ids — with a hash of the session plan (engine, solver
//! options, budgets), because the *answer* ("minimum = 4, floor = 4")
//! depends on both the instance and how hard the session was allowed to
//! look for it. Keys compare in full, never by a hash alone, so a hit
//! answers exactly the question that was asked, and its strategy is over
//! the asker's own node ids. Names, operations and primary-input fanins
//! stay out of the key: a renamed copy of a netlist hits, while a copy
//! whose nodes are numbered in another order misses, which costs only
//! time. Every [`SessionRuntime`](crate::session::SessionRuntime) owns
//! one cache, and only sessions it
//! [`spawn`](crate::session::SessionRuntime::spawn)s consult it; a
//! session [`run`](crate::session::PebblingSession::run) inline never
//! does.
//!
//! A repeat is answered at spawn: the runtime computes the key on the
//! caller's thread, and a hit returns the cached report without queueing
//! a job. Only a clean finish is inserted, so a repeat spawned while its
//! twin still solves misses at spawn and is queued. Its job looks again
//! when it starts and hits if the twin finished first; two repeats that
//! run at the same time both solve. The cache counts each session once,
//! as one hit or one miss.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use revpebble_graph::Dag;

use crate::session::{SessionOutcome, SessionPlan};

/// Most key words a cache holds at once (16 MiB). Besides the entry
/// cap, the oldest entries are evicted until the held keys fit, so a
/// stream of huge DAGs cannot pin unbounded memory in keys.
const MAX_KEY_WORDS: usize = 4 << 20;

/// A result-cache key: the asking DAG as numbered × session-plan hash
/// (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// Per node, in id order: weight, output mark, node-child count and
    /// node-child ids. The map and the FIFO order share one allocation.
    dag: Arc<[u32]>,
    /// Hash of the plan's `Debug` rendering: [`SessionPlan`] aggregates
    /// plain-data option structs that all derive `Debug`, so the
    /// rendering is a faithful digest of every field that can change the
    /// answer, and cannot silently miss a newly added one.
    plan: u64,
}

impl CacheKey {
    /// The key of asking `plan` about `dag`.
    pub(crate) fn new(dag: &Dag, plan: &SessionPlan) -> Self {
        let mut words = Vec::with_capacity(4 * dag.num_nodes());
        for id in dag.node_ids() {
            let output = u32::from(dag.is_output(id));
            let child_count = dag.children(id).count() as u32;
            words.extend([dag.node(id).weight, output, child_count]);
            words.extend(dag.children(id).map(|child| child.index() as u32));
        }
        let mut hasher = DefaultHasher::new();
        format!("{plan:?}").hash(&mut hasher);
        CacheKey {
            dag: words.into(),
            plan: hasher.finish(),
        }
    }
}

/// The replayable part of a finished session: everything a
/// [`Report`](crate::session::Report) derives its figures from.
#[derive(Debug, Clone)]
pub(crate) struct CachedReport {
    /// The certified minimum budget, if the engine minimizes.
    pub minimum: Option<usize>,
    /// The certified budget floor.
    pub floor: usize,
    /// The full engine outcome (strategy included).
    pub outcome: SessionOutcome,
}

/// A bounded FIFO map from `CacheKey` to finished results with
/// hit/miss counters (see the [module docs](self)). Shared across
/// sessions behind an `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, CachedReport>,
    order: VecDeque<CacheKey>,
    /// Words held by the keys in `order`.
    key_words: usize,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (at least one); the
    /// oldest entry is evicted first.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Results served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the solver.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of results currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("result cache").map.len()
    }

    /// `true` when no result is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry under `key`, counted as a hit when there is one; a
    /// lookup that finds nothing counts nothing.
    pub(crate) fn hit(&self, key: &CacheKey) -> Option<CachedReport> {
        let found = self
            .inner
            .lock()
            .expect("result cache")
            .map
            .get(key)
            .cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// The entry under `key`, counted as a hit or a miss.
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<CachedReport> {
        let found = self.hit(key);
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    pub(crate) fn insert(&self, key: CacheKey, value: CachedReport) {
        let mut inner = self.inner.lock().expect("result cache");
        match inner.map.entry(key.clone()) {
            Entry::Occupied(mut slot) => {
                // Refresh in place; the FIFO order entry stays put.
                slot.insert(value);
                return;
            }
            Entry::Vacant(slot) => {
                slot.insert(value);
            }
        }
        inner.key_words += key.dag.len();
        inner.order.push_back(key);
        while inner.order.len() > self.capacity || inner.key_words > MAX_KEY_WORDS {
            let Some(evicted) = inner.order.pop_front() else {
                break;
            };
            inner.key_words -= evicted.dag.len();
            inner.map.remove(&evicted);
        }
    }
}

impl Default for ResultCache {
    /// A 256-entry cache — plenty for batch workloads, small enough that
    /// strategies (a few steps × nodes each) never add up to real memory.
    fn default() -> Self {
        ResultCache::new(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::PebbleOutcome;

    fn key(n: u32) -> CacheKey {
        CacheKey {
            dag: Arc::from([n, n ^ 0xABCD]),
            plan: 7,
        }
    }

    fn report(floor: usize) -> CachedReport {
        CachedReport {
            minimum: Some(floor),
            floor,
            outcome: SessionOutcome::Single(PebbleOutcome::Infeasible { lower_bound: floor }),
        }
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache = ResultCache::new(4);
        assert!(cache.lookup(&key(1)).is_none());
        cache.insert(key(1), report(3));
        let hit = cache.lookup(&key(1)).expect("cached");
        assert_eq!(hit.floor, 3);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Same DAG, different plan hash: a distinct entry.
        let other_plan = CacheKey { plan: 8, ..key(1) };
        assert!(cache.lookup(&other_plan).is_none());
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn a_hit_only_lookup_never_counts_a_miss() {
        let cache = ResultCache::new(4);
        assert!(cache.hit(&key(1)).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.insert(key(1), report(3));
        assert_eq!(cache.hit(&key(1)).expect("cached").floor, 3);
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = ResultCache::new(2);
        cache.insert(key(1), report(1));
        cache.insert(key(2), report(2));
        cache.insert(key(3), report(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&key(1)).is_none(), "oldest entry evicted");
        assert!(cache.lookup(&key(2)).is_some());
        assert!(cache.lookup(&key(3)).is_some());
    }

    #[test]
    fn reinsert_refreshes_without_growing() {
        let cache = ResultCache::new(2);
        cache.insert(key(1), report(1));
        cache.insert(key(1), report(9));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&key(1)).expect("cached").floor, 9);
    }

    #[test]
    fn held_key_words_are_bounded_oldest_first() {
        let cache = ResultCache::new(16);
        // One allocation shared by every key: the bound counts words
        // per held key, as distinct frames would take them.
        let huge: Arc<[u32]> = vec![0; MAX_KEY_WORDS / 2].into();
        let key = |plan| CacheKey {
            dag: Arc::clone(&huge),
            plan,
        };
        cache.insert(key(1), report(1));
        cache.insert(key(2), report(2));
        assert_eq!(cache.len(), 2, "exactly at the bound");
        cache.insert(key(3), report(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.hit(&key(1)).is_none(), "oldest entry evicted");
        assert!(cache.hit(&key(3)).is_some());
        // A key over the bound on its own is not held at all.
        cache.insert(
            CacheKey {
                dag: vec![0; MAX_KEY_WORDS + 1].into(),
                plan: 4,
            },
            report(4),
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn keys_see_numbered_structure_and_plans_but_not_names() {
        use revpebble_graph::{Op, Source};
        // Three `BUF` leaves a, b, c and three `AND` outputs over
        // `pairs` of leaves, with the given names.
        let build = |pairs: [(usize, usize); 3], names: [&str; 3]| {
            let mut dag = Dag::new();
            let x = dag.add_input("x");
            let leaves: Vec<Source> = (0..3)
                .map(|i| {
                    let leaf = dag.add_node(format!("l{i}"), Op::Buf, [x]).expect("valid");
                    leaf.into()
                })
                .collect();
            for ((a, b), name) in pairs.into_iter().zip(names) {
                let node = dag
                    .add_node(name, Op::And, [leaves[a], leaves[b]])
                    .expect("valid");
                dag.mark_output(node);
            }
            dag
        };
        let triangle = build([(0, 1), (1, 2), (2, 0)], ["p", "q", "r"]);
        let renamed = build([(0, 1), (1, 2), (2, 0)], ["u", "v", "w"]);
        let shared = build([(0, 1), (0, 1), (2, 2)], ["p", "q", "r"]);
        let renumbered = build([(1, 2), (0, 1), (2, 0)], ["q", "p", "r"]);
        let plan = |dag: &Dag| {
            crate::session::PebblingSession::new(dag)
                .minimize()
                .plan()
                .expect("valid")
        };
        let key = |dag: &Dag| CacheKey::new(dag, &plan(dag));
        assert_eq!(key(&triangle), key(&renamed));
        assert_ne!(key(&triangle), key(&shared));
        assert_ne!(key(&triangle), key(&renumbered));
        let fixed = crate::session::PebblingSession::new(&triangle)
            .pebbles(5)
            .plan()
            .expect("valid");
        assert_ne!(key(&triangle), CacheKey::new(&triangle, &fixed));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache = ResultCache::new(0);
        cache.insert(key(1), report(1));
        assert_eq!(cache.len(), 1);
    }
}
