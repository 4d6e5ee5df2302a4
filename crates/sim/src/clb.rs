//! The Cryptographic Lookaside Buffer (CLB), §2.3.3 of the paper.
//!
//! The architectural model is a fully-associative LRU cache; the obvious
//! implementation (linear scan per lookup, two more scans per insert) costs
//! O(capacity) on the simulator's hottest path. This implementation keeps
//! the same observable semantics — hit/miss behaviour, LRU eviction order,
//! per-`ksel` invalidation, [`ClbStats`] accounting — but indexes the
//! entries with two hash maps (one per lookup direction, keyed
//! `(ksel, tweak, plaintext)` and `(ksel, tweak, ciphertext)`) and threads
//! an intrusive doubly-linked LRU list through the entry slots, so every
//! operation is O(1) in the buffer capacity:
//!
//! * **lookup** — one hash probe; a hit unlinks the slot and relinks it at
//!   the MRU head.
//! * **insert** — pop a free slot (or unlink the LRU tail, which *is* the
//!   eviction victim the old linear `min_by_key` scan found, since
//!   list order equals recency order), then link at the head.
//! * **occupancy** — allocated slots minus free-stack depth; no recount.
//! * **invalidation** — walks only live entries via the list.
//!
//! Index maps are updated with *guarded removal* (a key is removed only if
//! it still maps to the slot being retired), so unreachable corner states —
//! duplicate tuples injected by fault campaigns poisoning cached plaintext —
//! degrade gracefully instead of corrupting unrelated entries.

use crate::fxhash::FxHashMap;

/// Null link in the intrusive LRU list.
const NONE: u32 = u32::MAX;

/// Index key for one lookup direction: `(ksel, tweak, pt-or-ct)`.
type IndexKey = (u8, u64, u64);

/// One CLB slot: a cached `(ksel, tweak) : plaintext ↔ ciphertext` mapping
/// plus its links in the recency list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ksel: u8,
    tweak: u64,
    plaintext: u64,
    ciphertext: u64,
    /// Towards the MRU head.
    prev: u32,
    /// Towards the LRU tail.
    next: u32,
}

/// Hit/miss counters for the CLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClbStats {
    /// Lookups that found a matching entry.
    pub hits: u64,
    /// Lookups that missed and required the multi-cycle QARMA datapath.
    pub misses: u64,
    /// Valid entries evicted by LRU replacement.
    pub evictions: u64,
    /// Entries invalidated by key-register writes.
    pub invalidations: u64,
}

impl ClbStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups happened.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One entry of the [naive reference implementation](Clb::new_reference):
/// the cached tuple plus a monotonically increasing recency stamp.
#[derive(Debug, Clone, Copy)]
struct NaiveEntry {
    ksel: u8,
    tweak: u64,
    plaintext: u64,
    ciphertext: u64,
    last_used: u64,
}

/// The deliberately naive fully-associative LRU cache: linear scan per
/// lookup, `min_by_key(last_used)` eviction — exactly the "obvious
/// implementation" the indexed [`Clb`] replaced. Kept as the reference
/// datapath for the lockstep differential executor: it shares *no* code
/// with the indexed implementation (no hash maps, no intrusive list), so
/// an indexing or recency-tracking bug in either side shows up as a
/// divergence.
#[derive(Debug, Clone, Default)]
struct NaiveClb {
    entries: Vec<NaiveEntry>,
    tick: u64,
}

impl NaiveClb {
    fn touch(&mut self, index: usize) {
        self.tick += 1;
        self.entries[index].last_used = self.tick;
    }

    fn lookup(&mut self, ksel: u8, tweak: u64, value: u64, by_ct: bool) -> Option<u64> {
        let found = self.entries.iter().position(|e| {
            e.ksel == ksel
                && e.tweak == tweak
                && (if by_ct { e.ciphertext } else { e.plaintext }) == value
        })?;
        self.touch(found);
        let entry = self.entries[found];
        Some(if by_ct {
            entry.plaintext
        } else {
            entry.ciphertext
        })
    }

    /// Returns `true` when a valid entry was evicted to make room.
    fn insert(&mut self, capacity: usize, ksel: u8, tweak: u64, pt: u64, ct: u64) -> bool {
        if let Some(found) = self
            .entries
            .iter()
            .position(|e| e.ksel == ksel && e.tweak == tweak && e.plaintext == pt)
        {
            self.entries[found].ciphertext = ct;
            self.touch(found);
            return false;
        }
        let mut evicted = false;
        let index = if self.entries.len() < capacity {
            self.entries.push(NaiveEntry {
                ksel: 0,
                tweak: 0,
                plaintext: 0,
                ciphertext: 0,
                last_used: 0,
            });
            self.entries.len() - 1
        } else {
            evicted = true;
            self.entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("capacity > 0 implies at least one entry")
        };
        self.entries[index] = NaiveEntry {
            ksel,
            tweak,
            plaintext: pt,
            ciphertext: ct,
            last_used: 0,
        };
        self.touch(index);
        evicted
    }

    /// Returns the number of entries invalidated.
    fn invalidate_ksel(&mut self, ksel: u8) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|e| e.ksel != ksel);
        (before - self.entries.len()) as u64
    }

    fn poison_mru(&mut self, xor: u64) -> bool {
        let Some(found) = self
            .entries
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)
        else {
            return false;
        };
        self.entries[found].plaintext ^= xor;
        true
    }
}

/// A fully-associative, LRU-replaced cache of recent cryptographic results.
///
/// Each entry stores a 3-bit key-selection index rather than the 128-bit key
/// itself, so a key-register write invalidates all entries with the matching
/// `ksel` (§2.3.3). One entry serves both directions: an encryption that
/// cached `(tweak, pt) → ct` also accelerates the later decryption of `ct`.
///
/// A capacity of 0 disables the buffer (every lookup misses), which is the
/// "CLB 0" hardware configuration of Table 3.
///
/// # Examples
///
/// ```
/// use regvault_sim::Clb;
///
/// let mut clb = Clb::new(8);
/// assert_eq!(clb.lookup_encrypt(1, 0x40, 0xdead), None);
/// clb.insert(1, 0x40, 0xdead, 0xc1c1);
/// assert_eq!(clb.lookup_encrypt(1, 0x40, 0xdead), Some(0xc1c1));
/// assert_eq!(clb.lookup_decrypt(1, 0x40, 0xc1c1), Some(0xdead));
/// clb.invalidate_ksel(1);
/// assert_eq!(clb.lookup_encrypt(1, 0x40, 0xdead), None);
/// ```
#[derive(Debug, Clone)]
pub struct Clb {
    capacity: usize,
    /// `Some` selects the naive reference implementation; the indexed
    /// fields below are then unused.
    naive: Option<NaiveClb>,
    /// Slot storage; grows on demand up to `capacity` and is then recycled
    /// through `free`.
    slots: Vec<Slot>,
    /// Stack of retired slot indices available for reuse.
    free: Vec<u32>,
    /// `(ksel, tweak, plaintext) → slot` index (encrypt direction).
    by_pt: FxHashMap<IndexKey, u32>,
    /// `(ksel, tweak, ciphertext) → slot` index (decrypt direction).
    by_ct: FxHashMap<IndexKey, u32>,
    /// Most-recently-used slot, or [`NONE`] when empty.
    head: u32,
    /// Least-recently-used slot (the eviction victim), or [`NONE`].
    tail: u32,
    stats: ClbStats,
}

impl Clb {
    /// Creates a CLB with `capacity` entries (0 disables caching).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            naive: None,
            slots: Vec::new(),
            free: Vec::new(),
            by_pt: FxHashMap::default(),
            by_ct: FxHashMap::default(),
            head: NONE,
            tail: NONE,
            stats: ClbStats::default(),
        }
    }

    /// Creates a CLB backed by the naive linear-scan reference
    /// implementation (same observable semantics, no shared code with the
    /// indexed fast path) — the CLB half of the reference datapath used by
    /// the lockstep differential executor.
    #[must_use]
    pub fn new_reference(capacity: usize) -> Self {
        Self {
            naive: Some(NaiveClb::default()),
            ..Self::new(capacity)
        }
    }

    /// `true` when this CLB runs the naive reference implementation.
    #[must_use]
    pub fn is_reference(&self) -> bool {
        self.naive.is_some()
    }

    /// Number of entries (the hardware configuration parameter).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently valid entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        match &self.naive {
            Some(naive) => naive.entries.len(),
            None => self.slots.len() - self.free.len(),
        }
    }

    /// The valid entries as `(ksel, tweak, plaintext, ciphertext)` tuples in
    /// LRU → MRU order — the canonical architectural view used by snapshots
    /// and the lockstep state comparison (both implementations produce the
    /// same sequence when they agree).
    #[must_use]
    pub fn entries_lru_to_mru(&self) -> Vec<(u8, u64, u64, u64)> {
        if let Some(naive) = &self.naive {
            let mut sorted: Vec<&NaiveEntry> = naive.entries.iter().collect();
            sorted.sort_by_key(|e| e.last_used);
            return sorted
                .into_iter()
                .map(|e| (e.ksel, e.tweak, e.plaintext, e.ciphertext))
                .collect();
        }
        let mut out = Vec::with_capacity(self.occupancy());
        let mut cursor = self.tail;
        while cursor != NONE {
            let s = self.slots[cursor as usize];
            out.push((s.ksel, s.tweak, s.plaintext, s.ciphertext));
            cursor = s.prev;
        }
        out
    }

    /// Rebuilds the buffer from a snapshot: entries in LRU → MRU order plus
    /// the statistics counters captured with them. Preserves the
    /// implementation choice (indexed vs. reference) of `self`.
    pub(crate) fn restore_entries(&mut self, entries: &[(u8, u64, u64, u64)], stats: ClbStats) {
        *self = if self.naive.is_some() {
            Self::new_reference(self.capacity)
        } else {
            Self::new(self.capacity)
        };
        for &(ksel, tweak, pt, ct) in entries {
            self.insert(ksel, tweak, pt, ct);
        }
        self.stats = stats;
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> ClbStats {
        self.stats
    }

    /// Resets the statistics counters (entries are kept).
    pub fn reset_stats(&mut self) {
        self.stats = ClbStats::default();
    }

    /// Unlinks `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NONE => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NONE => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Links `slot` at the MRU head.
    fn push_front(&mut self, slot: u32) {
        self.slots[slot as usize].prev = NONE;
        self.slots[slot as usize].next = self.head;
        match self.head {
            NONE => self.tail = slot,
            h => self.slots[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Marks `slot` most-recently-used.
    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// Removes an index key only if it still points at `slot` (a later
    /// insert or poison may have redirected it to a different slot).
    fn remove_index(map: &mut FxHashMap<IndexKey, u32>, key: IndexKey, slot: u32) {
        if map.get(&key) == Some(&slot) {
            map.remove(&key);
        }
    }

    /// Drops both index keys of `slot`.
    fn unindex(&mut self, slot: u32) {
        let s = self.slots[slot as usize];
        Self::remove_index(&mut self.by_pt, (s.ksel, s.tweak, s.plaintext), slot);
        Self::remove_index(&mut self.by_ct, (s.ksel, s.tweak, s.ciphertext), slot);
    }

    /// Looks up a cached ciphertext for `(ksel, tweak, plaintext)`.
    pub fn lookup_encrypt(&mut self, ksel: u8, tweak: u64, plaintext: u64) -> Option<u64> {
        self.lookup(ksel, tweak, plaintext, false)
    }

    /// Looks up a cached plaintext for `(ksel, tweak, ciphertext)`.
    pub fn lookup_decrypt(&mut self, ksel: u8, tweak: u64, ciphertext: u64) -> Option<u64> {
        self.lookup(ksel, tweak, ciphertext, true)
    }

    /// One lookup in either direction, counted once as a hit or a miss.
    #[inline]
    fn lookup(&mut self, ksel: u8, tweak: u64, value: u64, by_ct: bool) -> Option<u64> {
        let found = match &mut self.naive {
            Some(naive) => naive.lookup(ksel, tweak, value, by_ct),
            None => {
                let index = if by_ct { &self.by_ct } else { &self.by_pt };
                index.get(&(ksel, tweak, value)).copied().map(|slot| {
                    self.touch(slot);
                    let s = self.slots[slot as usize];
                    if by_ct {
                        s.plaintext
                    } else {
                        s.ciphertext
                    }
                })
            }
        };
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }

    /// Inserts a freshly computed result, evicting the LRU entry if full.
    ///
    /// A zero-capacity CLB ignores the insertion. Re-inserting an existing
    /// `(ksel, tweak, plaintext)` tuple refreshes that entry in place
    /// (unreachable in real operation — the preceding lookup would have
    /// hit — but harmless).
    pub fn insert(&mut self, ksel: u8, tweak: u64, plaintext: u64, ciphertext: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(naive) = &mut self.naive {
            if naive.insert(self.capacity, ksel, tweak, plaintext, ciphertext) {
                self.stats.evictions += 1;
            }
            return;
        }
        if let Some(&slot) = self.by_pt.get(&(ksel, tweak, plaintext)) {
            let old_ct = self.slots[slot as usize].ciphertext;
            Self::remove_index(&mut self.by_ct, (ksel, tweak, old_ct), slot);
            self.slots[slot as usize].ciphertext = ciphertext;
            self.by_ct.insert((ksel, tweak, ciphertext), slot);
            self.touch(slot);
            return;
        }

        let slot = if let Some(free) = self.free.pop() {
            free
        } else if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                ksel: 0,
                tweak: 0,
                plaintext: 0,
                ciphertext: 0,
                prev: NONE,
                next: NONE,
            });
            (self.slots.len() - 1) as u32
        } else {
            // Full: the LRU tail is exactly the victim the linear-scan
            // implementation's `min_by_key(last_used)` selected.
            let victim = self.tail;
            self.stats.evictions += 1;
            self.unindex(victim);
            self.unlink(victim);
            victim
        };

        {
            let s = &mut self.slots[slot as usize];
            s.ksel = ksel;
            s.tweak = tweak;
            s.plaintext = plaintext;
            s.ciphertext = ciphertext;
        }
        self.by_pt.insert((ksel, tweak, plaintext), slot);
        self.by_ct.insert((ksel, tweak, ciphertext), slot);
        self.push_front(slot);
    }

    /// Invalidates every entry whose key selector matches `ksel` — the
    /// hardware behaviour on a key-register write.
    pub fn invalidate_ksel(&mut self, ksel: u8) {
        if let Some(naive) = &mut self.naive {
            self.stats.invalidations += naive.invalidate_ksel(ksel);
            return;
        }
        let mut cursor = self.head;
        while cursor != NONE {
            let next = self.slots[cursor as usize].next;
            if self.slots[cursor as usize].ksel == ksel {
                self.unindex(cursor);
                self.unlink(cursor);
                self.free.push(cursor);
                self.stats.invalidations += 1;
            }
            cursor = next;
        }
    }

    /// Fault-injection hook: XORs `xor` into the cached plaintext of the
    /// most-recently-used valid entry, modelling a bit upset in the CLB's
    /// data array. Returns `false` (and changes nothing) when `xor` is zero
    /// or no valid entry exists.
    ///
    /// A poisoned entry serves the corrupted plaintext on its next decrypt
    /// hit; whether the consumer notices is exactly what the fault campaign
    /// measures.
    pub fn poison_mru(&mut self, xor: u64) -> bool {
        if xor == 0 {
            return false;
        }
        if let Some(naive) = &mut self.naive {
            return naive.poison_mru(xor);
        }
        if self.head == NONE {
            return false;
        }
        let slot = self.head;
        let s = self.slots[slot as usize];
        Self::remove_index(&mut self.by_pt, (s.ksel, s.tweak, s.plaintext), slot);
        let poisoned = s.plaintext ^ xor;
        self.slots[slot as usize].plaintext = poisoned;
        self.by_pt.insert((s.ksel, s.tweak, poisoned), slot);
        true
    }

    /// Invalidates the whole buffer.
    pub fn invalidate_all(&mut self) {
        self.stats.invalidations += self.occupancy() as u64;
        if let Some(naive) = &mut self.naive {
            naive.entries.clear();
            return;
        }
        self.by_pt.clear();
        self.by_ct.clear();
        self.free.clear();
        self.free.extend((0..self.slots.len() as u32).rev());
        self.head = NONE;
        self.tail = NONE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_always_misses() {
        let mut clb = Clb::new(0);
        clb.insert(1, 2, 3, 4);
        assert_eq!(clb.lookup_encrypt(1, 2, 3), None);
        assert_eq!(clb.stats().misses, 1);
        assert_eq!(clb.occupancy(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut clb = Clb::new(2);
        clb.insert(0, 0, 1, 101);
        clb.insert(0, 0, 2, 102);
        // Touch entry 1 so entry 2 becomes LRU.
        assert_eq!(clb.lookup_encrypt(0, 0, 1), Some(101));
        clb.insert(0, 0, 3, 103);
        assert_eq!(clb.stats().evictions, 1);
        assert_eq!(clb.lookup_encrypt(0, 0, 1), Some(101), "recently used kept");
        assert_eq!(clb.lookup_encrypt(0, 0, 2), None, "LRU evicted");
        assert_eq!(clb.lookup_encrypt(0, 0, 3), Some(103));
    }

    #[test]
    fn decrypt_hit_refreshes_recency() {
        let mut clb = Clb::new(2);
        clb.insert(0, 0, 1, 101);
        clb.insert(0, 0, 2, 102);
        // Touch entry 1 through the *decrypt* index.
        assert_eq!(clb.lookup_decrypt(0, 0, 101), Some(1));
        clb.insert(0, 0, 3, 103);
        assert_eq!(
            clb.lookup_encrypt(0, 0, 1),
            Some(101),
            "refreshed entry kept"
        );
        assert_eq!(clb.lookup_encrypt(0, 0, 2), None, "stale entry evicted");
    }

    #[test]
    fn ksel_invalidation_is_selective() {
        let mut clb = Clb::new(4);
        clb.insert(1, 0, 10, 110);
        clb.insert(2, 0, 20, 120);
        clb.invalidate_ksel(1);
        assert_eq!(clb.lookup_encrypt(1, 0, 10), None);
        assert_eq!(clb.lookup_encrypt(2, 0, 20), Some(120));
        assert_eq!(clb.stats().invalidations, 1);
    }

    #[test]
    fn invalidated_slots_are_recycled() {
        let mut clb = Clb::new(2);
        clb.insert(1, 0, 10, 110);
        clb.insert(2, 0, 20, 120);
        clb.invalidate_ksel(1);
        assert_eq!(clb.occupancy(), 1);
        clb.insert(3, 0, 30, 130);
        assert_eq!(clb.occupancy(), 2);
        assert_eq!(
            clb.stats().evictions,
            0,
            "reused the freed slot, no eviction"
        );
        assert_eq!(clb.lookup_encrypt(2, 0, 20), Some(120));
        assert_eq!(clb.lookup_encrypt(3, 0, 30), Some(130));
    }

    #[test]
    fn tweak_distinguishes_entries() {
        let mut clb = Clb::new(4);
        clb.insert(0, 0xA, 5, 50);
        clb.insert(0, 0xB, 5, 60);
        assert_eq!(clb.lookup_encrypt(0, 0xA, 5), Some(50));
        assert_eq!(clb.lookup_encrypt(0, 0xB, 5), Some(60));
    }

    #[test]
    fn hit_ratio_accounts_both_directions() {
        let mut clb = Clb::new(4);
        clb.insert(0, 0, 1, 2);
        let _ = clb.lookup_encrypt(0, 0, 1); // hit
        let _ = clb.lookup_decrypt(0, 0, 2); // hit
        let _ = clb.lookup_decrypt(0, 0, 99); // miss
        let stats = clb.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn poison_mru_corrupts_only_the_latest_entry() {
        let mut clb = Clb::new(4);
        assert!(!clb.poison_mru(1), "empty buffer has no target");
        clb.insert(1, 0, 10, 110);
        clb.insert(1, 0, 20, 120);
        assert!(!clb.poison_mru(0), "zero xor is a no-op");
        assert!(clb.poison_mru(0xFF));
        assert_eq!(clb.lookup_decrypt(1, 0, 120), Some(20 ^ 0xFF));
        assert_eq!(
            clb.lookup_decrypt(1, 0, 110),
            Some(10),
            "older entry untouched"
        );
    }

    #[test]
    fn poison_updates_the_encrypt_index() {
        let mut clb = Clb::new(4);
        clb.insert(1, 0, 10, 110);
        assert!(clb.poison_mru(0xF0));
        assert_eq!(
            clb.lookup_encrypt(1, 0, 10),
            None,
            "old plaintext unindexed"
        );
        assert_eq!(clb.lookup_encrypt(1, 0, 10 ^ 0xF0), Some(110));
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let mut clb = Clb::new(4);
        clb.insert(0, 0, 1, 2);
        clb.insert(3, 0, 4, 5);
        clb.invalidate_all();
        assert_eq!(clb.occupancy(), 0);
        assert_eq!(clb.stats().invalidations, 2);
    }

    /// Drives the indexed and naive implementations through the same
    /// operation sequence and demands identical observables at every step.
    #[test]
    fn reference_implementation_matches_indexed() {
        let mut fast = Clb::new(3);
        let mut reference = Clb::new_reference(3);
        assert!(reference.is_reference() && !fast.is_reference());
        // A mixed workload: inserts past capacity, both lookup directions,
        // selective invalidation, MRU poison.
        let tuples: [(u8, u64, u64, u64); 6] = [
            (1, 0x10, 0xA, 0x1A),
            (2, 0x20, 0xB, 0x2B),
            (1, 0x30, 0xC, 0x3C),
            (3, 0x40, 0xD, 0x4D),
            (2, 0x20, 0xB, 0x2B),
            (1, 0x10, 0xA, 0x1A),
        ];
        for (i, &(ksel, tweak, pt, ct)) in tuples.iter().enumerate() {
            fast.insert(ksel, tweak, pt, ct);
            reference.insert(ksel, tweak, pt, ct);
            if i % 2 == 0 {
                assert_eq!(
                    fast.lookup_decrypt(ksel, tweak, ct),
                    reference.lookup_decrypt(ksel, tweak, ct)
                );
            } else {
                assert_eq!(
                    fast.lookup_encrypt(ksel, tweak, pt),
                    reference.lookup_encrypt(ksel, tweak, pt)
                );
            }
            assert_eq!(fast.entries_lru_to_mru(), reference.entries_lru_to_mru());
            assert_eq!(fast.stats(), reference.stats());
        }
        assert_eq!(fast.poison_mru(0xF0), reference.poison_mru(0xF0));
        assert_eq!(fast.entries_lru_to_mru(), reference.entries_lru_to_mru());
        fast.invalidate_ksel(1);
        reference.invalidate_ksel(1);
        assert_eq!(fast.entries_lru_to_mru(), reference.entries_lru_to_mru());
        assert_eq!(fast.stats(), reference.stats());
    }

    #[test]
    fn restore_entries_reproduces_order_and_stats() {
        let mut clb = Clb::new(4);
        clb.insert(1, 0, 10, 110);
        clb.insert(2, 0, 20, 120);
        let _ = clb.lookup_encrypt(1, 0, 10); // entry 1 becomes MRU
        let entries = clb.entries_lru_to_mru();
        let stats = clb.stats();
        let mut rebuilt = Clb::new(4);
        rebuilt.restore_entries(&entries, stats);
        assert_eq!(rebuilt.entries_lru_to_mru(), entries);
        assert_eq!(rebuilt.stats(), stats);
        // LRU order survived: inserting two more evicts entry 2 first.
        rebuilt.insert(3, 0, 30, 130);
        rebuilt.insert(4, 0, 40, 140);
        rebuilt.insert(5, 0, 50, 150);
        assert_eq!(rebuilt.lookup_encrypt(1, 0, 10), Some(110));
        assert_eq!(rebuilt.lookup_encrypt(2, 0, 20), None);
    }
}
