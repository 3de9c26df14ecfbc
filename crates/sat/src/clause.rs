//! Clause storage for the CDCL solver: a flat, bump-allocated arena.
//!
//! All clauses live in **one contiguous `Vec` of 32-bit words**
//! ([`ClauseDb`]); a [`ClauseRef`] is a word offset into it. Each clause
//! is a variable-length record:
//!
//! ```text
//!           ┌────────┬───────┬──────────┬──────┬──────┬───┐
//! original: │ header │ lit 0 │ lit 1    │ …    │      │   │
//!           ├────────┼───────┼──────────┼──────┼──────┼───┤
//! learnt:   │ header │ LBD   │ activity │ lit0 │ lit1 │ … │
//!           └────────┴───────┴──────────┴──────┴──────┴───┘
//! ```
//!
//! The header packs the literal count with the `learnt` and `dead` flags;
//! learnt clauses carry two extra metadata words (LBD and an `f32`
//! activity). The first two literals of every record are the watched ones.
//!
//! This is the MiniSat-lineage layout: reading a clause during unit
//! propagation is a single slice borrow into memory that is hot because
//! *every other clause* lives next to it, instead of two pointer chases
//! (slot table → heap-allocated `Vec<Lit>`) into cold allocations.
//!
//! Deleting a clause ([`ClauseDb::free`]) only sets the `dead` flag and
//! counts the wasted words. The space is reclaimed by a **mark-compact
//! garbage collection** pass ([`ClauseDb::compact`]) that the solver runs
//! at clause-database-reduction time: live records are copied front-to-back
//! into a fresh arena, a forwarding pointer is written over each old
//! header, and the returned [`ClauseReloc`] translates stale refs (watcher
//! lists, trail reasons) in O(1) per lookup. Iteration over live clauses
//! ([`ClauseDb::iter_refs`]) walks the records in order, so right after a
//! compaction it is O(live clauses) — there is no free-list and no
//! O(all-slots-ever) scan.
//!
//! Header and metadata words are stored in the same `Vec` as the literals,
//! smuggled through the [`Lit`] newtype: a `Lit` is nothing but a dense
//! `u32` code, so a header word is simply `Lit::from_code(raw)`. This
//! keeps the arena a single homogeneous allocation without any `unsafe`.

use crate::types::Lit;

/// Header layout: `len << 3 | FORWARD << 2 | LEARNT << 1 | DEAD`.
const DEAD: u32 = 0b001;
const LEARNT: u32 = 0b010;
/// Set only in the *from-space* left behind by [`ClauseDb::compact`]; the
/// upper bits then hold the record's new offset, not a length.
const FORWARD: u32 = 0b100;
const FLAG_BITS: u32 = 3;

/// Metadata words between the header and the literals.
const LEARNT_META: usize = 2; // LBD + activity
const META_LBD: usize = 1;
const META_ACTIVITY: usize = 2;

/// Hard cap on the arena size in words: a compaction forwarding pointer
/// stores the new offset in `32 − FLAG_BITS` bits, so every record start
/// must fit in 29 bits (a 2 GiB arena). [`ClauseDb::alloc`] fails fast at
/// the cap instead of letting a truncated offset silently repoint
/// watchers at the wrong clause. The cap also leaves the top bits of
/// every ref zero; the solver's watchers keep a flag there.
const MAX_ARENA_WORDS: usize = 1 << (32 - FLAG_BITS as usize);

/// A handle to a clause stored in a [`ClauseDb`]: the word offset of its
/// header in the arena. Refs are invalidated by [`ClauseDb::compact`];
/// the accompanying [`ClauseReloc`] maps old refs to new ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClauseRef(u32);

impl ClauseRef {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// The ref at word offset `index` (below 2²⁹, like every ref
    /// [`ClauseDb::alloc`] hands out).
    #[inline]
    pub(crate) fn from_index(index: usize) -> Self {
        debug_assert!(index < MAX_ARENA_WORDS);
        ClauseRef(index as u32)
    }
}

#[inline]
fn word(raw: u32) -> Lit {
    Lit::from_code(raw as usize)
}

#[inline]
fn raw(lit: Lit) -> u32 {
    lit.code() as u32
}

/// Flat clause arena with mark-compact garbage collection.
///
/// See the [module documentation](self) for the record layout. Freed
/// clauses stay in place (flagged dead) until [`compact`](Self::compact)
/// reclaims them, so [`ClauseRef`]s to freed clauses must not be
/// dereferenced; the solver guarantees this by purging watcher lists at
/// reduction time.
#[derive(Debug, Default)]
pub struct ClauseDb {
    /// Headers, metadata and literals, all as 32-bit words (see module docs
    /// for why the words are typed [`Lit`]).
    arena: Vec<Lit>,
    /// Words occupied by dead records, reclaimable by
    /// [`compact`](Self::compact).
    wasted: usize,
    num_original: usize,
    num_learnt: usize,
}

impl ClauseDb {
    /// Creates an empty clause database.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn header(&self, cref: ClauseRef) -> u32 {
        raw(self.arena[cref.index()])
    }

    /// Total record size in words for a given header.
    #[inline]
    fn record_size(header: u32) -> usize {
        let len = (header >> FLAG_BITS) as usize;
        1 + len + if header & LEARNT != 0 { LEARNT_META } else { 0 }
    }

    #[inline]
    fn lits_start(&self, cref: ClauseRef, header: u32) -> usize {
        cref.index() + 1 + if header & LEARNT != 0 { LEARNT_META } else { 0 }
    }

    /// Allocates a clause (copying `lits` into the arena) and returns its
    /// handle.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed 2²⁹ words (2 GiB of clauses) — the
    /// largest offset a compaction forwarding pointer can represent.
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit/empty clauses are not stored");
        assert!(
            self.arena.len() + 1 + LEARNT_META + lits.len() <= MAX_ARENA_WORDS,
            "clause arena exceeds {MAX_ARENA_WORDS} words; offsets would wrap"
        );
        let cref = ClauseRef(self.arena.len() as u32);
        let header = (lits.len() as u32) << FLAG_BITS | if learnt { LEARNT } else { 0 };
        self.arena.push(word(header));
        if learnt {
            self.num_learnt += 1;
            self.arena.push(word(0)); // LBD
            self.arena.push(word(0.0f32.to_bits())); // activity
        } else {
            self.num_original += 1;
        }
        self.arena.extend_from_slice(lits);
        cref
    }

    /// Frees a clause: flags its record dead and counts the wasted words.
    /// The space is reclaimed by the next [`compact`](Self::compact).
    ///
    /// # Panics
    ///
    /// Panics if the clause was already freed.
    pub fn free(&mut self, cref: ClauseRef) {
        let header = self.header(cref);
        assert_eq!(header & DEAD, 0, "double free of clause");
        if header & LEARNT != 0 {
            self.num_learnt -= 1;
        } else {
            self.num_original -= 1;
        }
        self.arena[cref.index()] = word(header | DEAD);
        self.wasted += Self::record_size(header);
    }

    /// Returns `true` if `cref` refers to a live clause. Only meaningful
    /// for refs obtained from [`alloc`](Self::alloc) (an offset into the
    /// middle of a record is not detected).
    #[inline]
    pub fn is_live(&self, cref: ClauseRef) -> bool {
        self.arena
            .get(cref.index())
            .is_some_and(|&w| raw(w) & DEAD == 0)
    }

    /// Number of literals of a live clause.
    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        (self.header(cref) >> FLAG_BITS) as usize
    }

    /// `true` when the arena holds no clauses at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_original == 0 && self.num_learnt == 0
    }

    /// `true` for clauses learned during conflict analysis (including
    /// imported pool clauses, which are installed as learnt).
    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.header(cref) & LEARNT != 0
    }

    /// The literals of a clause, as one contiguous slice borrow out of the
    /// arena. The first two are the watched ones.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let header = self.header(cref);
        debug_assert_eq!(header & DEAD, 0, "clause was freed");
        let start = self.lits_start(cref, header);
        &self.arena[start..start + (header >> FLAG_BITS) as usize]
    }

    /// Mutable view of a clause's literals (the solver reorders watched
    /// literals in place during propagation).
    #[inline]
    pub(crate) fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let header = self.header(cref);
        debug_assert_eq!(header & DEAD, 0, "clause was freed");
        let start = self.lits_start(cref, header);
        &mut self.arena[start..start + (header >> FLAG_BITS) as usize]
    }

    /// Literal block distance recorded at learning time (learnt only).
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        debug_assert!(self.is_learnt(cref));
        raw(self.arena[cref.index() + META_LBD])
    }

    #[inline]
    pub(crate) fn set_lbd(&mut self, cref: ClauseRef, lbd: u32) {
        debug_assert!(self.is_learnt(cref));
        self.arena[cref.index() + META_LBD] = word(lbd);
    }

    /// Activity score for the clause-deletion heuristic (learnt only).
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f32 {
        debug_assert!(self.is_learnt(cref));
        f32::from_bits(raw(self.arena[cref.index() + META_ACTIVITY]))
    }

    #[inline]
    fn set_activity(&mut self, cref: ClauseRef, activity: f32) {
        self.arena[cref.index() + META_ACTIVITY] = word(activity.to_bits());
    }

    #[inline]
    pub(crate) fn bump_activity(&mut self, cref: ClauseRef, inc: f32) {
        let bumped = self.activity(cref) + inc;
        self.set_activity(cref, bumped);
    }

    #[inline]
    pub(crate) fn rescale_activity(&mut self, cref: ClauseRef, factor: f32) {
        let rescaled = self.activity(cref) * factor;
        self.set_activity(cref, rescaled);
    }

    /// Number of live original (problem) clauses.
    #[inline]
    pub fn num_original(&self) -> usize {
        self.num_original
    }

    /// Number of live learned clauses.
    #[inline]
    pub fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// Words currently occupied by dead records — the amount a
    /// [`compact`](Self::compact) call would reclaim.
    #[inline]
    pub fn wasted(&self) -> usize {
        self.wasted
    }

    /// Total arena size in 32-bit words (live + dead).
    #[inline]
    pub fn arena_words(&self) -> usize {
        self.arena.len()
    }

    /// Iterates over the handles of all live clauses, in arena order.
    /// Cost: one linear walk over the records — O(live) right after a
    /// [`compact`](Self::compact), never worse than O(live + dead).
    pub fn iter_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut offset = 0usize;
        std::iter::from_fn(move || {
            while offset < self.arena.len() {
                let header = raw(self.arena[offset]);
                let cref = ClauseRef(offset as u32);
                offset += Self::record_size(header);
                if header & DEAD == 0 {
                    return Some(cref);
                }
            }
            None
        })
    }

    /// Iterates over the handles of live learned clauses, in arena order.
    pub fn iter_learnt_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.iter_refs().filter(|&cref| self.is_learnt(cref))
    }

    /// Mark-compact garbage collection: copies every live record into a
    /// fresh arena (preserving order), leaves a forwarding pointer over
    /// each old header, and swaps the arenas. Every outstanding
    /// [`ClauseRef`] is invalidated; translate them through the returned
    /// [`ClauseReloc`] (the solver updates watcher lists and trail
    /// reasons this way).
    pub fn compact(&mut self) -> ClauseReloc {
        let mut to: Vec<Lit> = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut offset = 0usize;
        while offset < self.arena.len() {
            let header = raw(self.arena[offset]);
            let size = Self::record_size(header);
            if header & DEAD == 0 {
                let relocated = (to.len() as u32) << FLAG_BITS | FORWARD;
                to.extend_from_slice(&self.arena[offset..offset + size]);
                self.arena[offset] = word(relocated);
            }
            offset += size;
        }
        let from = std::mem::replace(&mut self.arena, to);
        self.wasted = 0;
        ClauseReloc { from }
    }
}

/// The relocation map returned by [`ClauseDb::compact`]: the old arena
/// ("from-space") with a forwarding pointer written over every surviving
/// record's header. Lookup is O(1).
#[derive(Debug)]
pub struct ClauseReloc {
    from: Vec<Lit>,
}

impl ClauseReloc {
    /// The post-compaction handle for a pre-compaction ref, or `None` if
    /// the clause was dead and has been reclaimed.
    #[inline]
    pub fn relocate(&self, cref: ClauseRef) -> Option<ClauseRef> {
        let header = raw(self.from[cref.index()]);
        (header & FORWARD != 0).then_some(ClauseRef(header >> FLAG_BITS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(codes: &[i32]) -> Vec<Lit> {
        codes.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    #[test]
    fn alloc_and_get() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(&[1, -2, 3]), false);
        assert_eq!(db.len(c), 3);
        assert_eq!(db.lits(c), lits(&[1, -2, 3]).as_slice());
        assert!(!db.is_learnt(c));
        assert_eq!(db.num_original(), 1);
        assert_eq!(db.num_learnt(), 0);
        assert!(db.is_live(c));
        assert!(!db.is_empty());
    }

    #[test]
    fn learnt_records_carry_metadata() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false);
        let b = db.alloc(&lits(&[2, 3]), true);
        assert!(db.is_learnt(b));
        assert_eq!(db.lbd(b), 0);
        db.set_lbd(b, 3);
        assert_eq!(db.lbd(b), 3);
        // Metadata of one clause never bleeds into a neighbour's literals.
        assert_eq!(db.lits(a), lits(&[1, 2]).as_slice());
        assert_eq!(db.lits(b), lits(&[2, 3]).as_slice());
    }

    #[test]
    fn free_marks_dead_and_counts_waste() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false);
        let words = db.arena_words();
        db.free(a);
        assert!(!db.is_live(a));
        assert_eq!(db.num_original(), 0);
        assert_eq!(db.wasted(), words, "whole record is reclaimable");
        // Dead records keep their space until compaction.
        assert_eq!(db.arena_words(), words);
    }

    #[test]
    fn iter_refs_skips_freed() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false);
        let b = db.alloc(&lits(&[2, 3]), true);
        let c = db.alloc(&lits(&[3, 4]), true);
        db.free(b);
        let live: Vec<_> = db.iter_refs().collect();
        assert_eq!(live, vec![a, c]);
        let learnt: Vec<_> = db.iter_learnt_refs().collect();
        assert_eq!(learnt, vec![c]);
    }

    #[test]
    fn compaction_relocates_live_clauses_and_drops_dead_ones() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false);
        let b = db.alloc(&lits(&[2, 3, 4]), true);
        let c = db.alloc(&lits(&[4, 5]), true);
        db.set_lbd(b, 2);
        db.bump_activity(c, 1.5);
        db.free(a);
        let reloc = db.compact();
        assert_eq!(reloc.relocate(a), None, "dead clauses are reclaimed");
        let b2 = reloc.relocate(b).expect("b survives");
        let c2 = reloc.relocate(c).expect("c survives");
        assert_eq!(db.lits(b2), lits(&[2, 3, 4]).as_slice());
        assert_eq!(db.lbd(b2), 2, "metadata moves with the record");
        assert_eq!(db.lits(c2), lits(&[4, 5]).as_slice());
        assert!((db.activity(c2) - 1.5).abs() < 1e-6);
        assert_eq!(db.wasted(), 0);
        assert_eq!(db.num_learnt(), 2);
        assert_eq!(db.num_original(), 0);
        // The arena is now exactly the live records: O(live) iteration.
        assert_eq!(db.arena_words(), (1 + 2 + 3) + (1 + 2 + 2));
        assert_eq!(db.iter_refs().collect::<Vec<_>>(), vec![b2, c2]);
    }

    #[test]
    fn compaction_of_a_fully_live_arena_is_order_preserving() {
        let mut db = ClauseDb::new();
        let refs: Vec<ClauseRef> = (0..8)
            .map(|i| db.alloc(&lits(&[i + 1, -(i + 2)]), i % 2 == 0))
            .collect();
        let reloc = db.compact();
        let moved: Vec<ClauseRef> = refs
            .iter()
            .map(|&r| reloc.relocate(r).expect("live"))
            .collect();
        assert_eq!(db.iter_refs().collect::<Vec<_>>(), moved);
        for (i, &r) in moved.iter().enumerate() {
            let i = i as i32;
            assert_eq!(db.lits(r), lits(&[i + 1, -(i + 2)]).as_slice());
        }
    }

    #[test]
    fn activity_bump_and_rescale() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(&[1, 2]), true);
        db.bump_activity(c, 2.0);
        db.rescale_activity(c, 0.5);
        assert!((db.activity(c) - 1.0).abs() < 1e-6);
        db.set_lbd(c, 3);
        assert_eq!(db.lbd(c), 3);
    }

    #[test]
    #[should_panic]
    fn double_free_panics() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false);
        db.free(a);
        db.free(a);
    }
}
