//! Set-associative caches and the per-domain three-level hierarchy.
//!
//! This reimplements the extended QEMU cache plugin of §7.3: split L1
//! instruction/data caches, a unified L2 and a unified, *inclusive* L3,
//! all with LRU replacement. MESI coherence state is tracked at the L3
//! (the coherence point between domains, as in the plugin's CXL model);
//! the upper levels track presence only and are back-invalidated when the
//! inclusive L3 evicts a line.

use stramash_sim::config::CacheGeometry;

/// MESI coherence states (§7.3 models MESI transitions with CXL snoops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mesi {
    /// Dirty, exclusive copy.
    Modified,
    /// Clean, exclusive copy.
    Exclusive,
    /// Clean copy that may exist in other caches.
    Shared,
}

/// Tag of an empty way.
const EMPTY: u64 = u64::MAX;

/// Checkpoint wire code for a MESI state.
fn mesi_code(m: Mesi) -> u8 {
    match m {
        Mesi::Modified => 0,
        Mesi::Exclusive => 1,
        Mesi::Shared => 2,
    }
}

/// Inverse of [`mesi_code`].
fn mesi_from_code(b: u8) -> Result<Mesi, stramash_sim::checkpoint::CheckpointError> {
    match b {
        0 => Ok(Mesi::Modified),
        1 => Ok(Mesi::Exclusive),
        2 => Ok(Mesi::Shared),
        _ => Err(stramash_sim::checkpoint::CheckpointError::Malformed("MESI state code")),
    }
}

/// A single set-associative, LRU cache level.
///
/// Per-way tags and MESI states are packed densely by set, and each
/// set's LRU order is a permutation packed four bits per way — hence at
/// most [`CacheGeometry::MAX_WAYS`] ways, which `SimConfig::validate`
/// enforces. Sets are indexed with a mask (set counts are powers of
/// two). A probe checks an L0 "same line again" hint, then the MRU and
/// rank-1 ways, then the rest of the set. The unit tests hold every
/// operation against a naive stamp-LRU model.
#[derive(Debug, Clone)]
pub struct Cache {
    geo: CacheGeometry,
    /// `set_count - 1`; valid because set counts are power-of-two
    /// (enforced by `SimConfig::validate` / `CacheGeometry::new`).
    set_mask: u64,
    /// Each way's line address (`addr / line_bytes`, or `EMPTY`),
    /// densely packed so a set's tags share one host cache line and the
    /// match scan vectorises.
    tags: Vec<u64>,
    /// Each way's coherence state (1 byte per way; only meaningful at
    /// the L3), so probe hits never touch anything wider.
    states: Vec<Mesi>,
    /// Per-set LRU order, packed 4 bits per way: nibble `r` holds the
    /// way index at recency rank `r` (0 = MRU, `ways-1` = LRU/victim).
    /// A hit is a register permutation update, not a stamp write.
    perms: Vec<u64>,
    /// Per-set resident-way count, derived from `tags`. Full sets — the
    /// steady state — skip empty-way tracking in the miss scans.
    occ: Vec<u8>,
    /// L0 hint: the line of the last probe hit and the slot/set it
    /// lives in. Self-validating — the tag is re-checked before use, so
    /// no invalidation bookkeeping is needed on eviction.
    last_line: u64,
    last_slot: usize,
}

/// Identity LRU permutation (nibble `r` = way `r`); ranks at and above
/// the way count are never read.
const PERM_IDENTITY: u64 = 0xFEDC_BA98_7654_3210;

/// The way index at recency rank `rank`.
#[inline]
fn perm_way_at(perm: u64, rank: u32) -> usize {
    ((perm >> (4 * rank)) & 0xF) as usize
}

/// Whether the low `ways` nibbles of `perm` are a permutation of
/// `0..ways` — the invariant every probe relies on to stay inside its
/// set.
fn perm_is_valid(perm: u64, ways: u32) -> bool {
    let mut seen = 0u32;
    for r in 0..ways {
        seen |= 1 << perm_way_at(perm, r);
    }
    seen == (1u32 << ways) - 1
}

/// Bit offset (4 × rank) of the lowest nibble equal to `way`, found
/// branchlessly with SWAR zero-nibble detection. `way` must be present
/// in the low `ways` nibbles; any stale duplicate in the unused high
/// ranks sits above the real occurrence and is never selected.
#[inline]
fn perm_find(perm: u64, way: u64) -> u32 {
    let x = perm ^ (way.wrapping_mul(0x1111_1111_1111_1111));
    let z = x.wrapping_sub(0x1111_1111_1111_1111) & !x & 0x8888_8888_8888_8888;
    debug_assert!(z != 0, "way {way} absent from permutation {perm:#x}");
    // trailing_zeros is 4r+3; clear the low bits to get 4r. (SWAR
    // borrow propagation can flag nibbles above the first match, never
    // below it, so the lowest set bit is always the true occurrence.)
    z.trailing_zeros() & !3
}

/// Moves the `way` known to sit at bit offset `idx` (4 × its rank) to
/// the MRU nibble, shifting the ranks it overtakes down by one.
#[inline]
fn perm_promote_at(perm: u64, way: u64, idx: u32) -> u64 {
    let below = perm & ((1u64 << idx) - 1);
    // Double shift: `idx + 4` may be 64, which a single shift forbids.
    let above = (perm >> idx >> 4) << idx << 4;
    above | (below << 4) | way
}

/// Moves `way` to the MRU (rank-0) nibble, shifting the ranks it
/// overtakes down by one. No-op if it is already MRU.
#[inline]
fn perm_promote(perm: u64, way: usize) -> u64 {
    let way = way as u64;
    perm_promote_at(perm, way, perm_find(perm, way))
}

/// Scans a set's ways in LRU-recency order, starting at rank 1 (the
/// caller has already checked the MRU way). On a hit, returns the way
/// index and its bit offset in the permutation, so the promote needs
/// no find. Hit/miss and the found slot are identical to a slot-order
/// scan — a line is resident in at most one way — but temporal
/// locality lands hits at the low ranks, where this order exits first.
#[inline]
fn scan_recency(tags: &[u64], base: usize, perm: u64, ways: usize, line: u64) -> Option<(usize, u32)> {
    let mut p = perm >> 4;
    for r in 1..ways as u32 {
        let w = (p & 0xF) as usize;
        if tags[base + w] == line {
            return Some((w, 4 * r));
        }
        p >>= 4;
    }
    None
}

/// Branchless presence test over one fixed-width set: `|`-accumulated
/// compares with no early exit, which the backend turns into SIMD
/// compares — a *miss* (the case that must scan everything anyway)
/// costs a couple of vector ops instead of `ways` compare-and-branch
/// iterations.
#[inline]
fn contain_fixed<const N: usize>(t: &[u64], line: u64) -> bool {
    let t: &[u64; N] = t.try_into().expect("slice length equals the way count");
    let mut hit = false;
    for &x in t {
        hit |= x == line;
    }
    hit
}

/// Presence test over a set's packed tags, specialised for the common
/// associativities so the compare chain vectorises.
#[inline]
fn tags_contain(t: &[u64], line: u64) -> bool {
    match t.len() {
        4 => contain_fixed::<4>(t, line),
        8 => contain_fixed::<8>(t, line),
        16 => contain_fixed::<16>(t, line),
        _ => t.contains(&line),
    }
}

/// Lane sweep for fixed associativity `N`: per lane, the same
/// `|`-accumulated compare chain as [`contain_fixed`] (which the
/// backend lowers to vector compares) decides hit/miss. Which way hit
/// is not extracted — that defeats the vectorisation — so
/// [`Cache::touch_hits`] re-finds it with the probe cascade.
///
/// Safety contract: the caller (`classify_lanes`) guarantees
/// `tags.len()` is `set_count * N` with `set_mask == set_count - 1`,
/// so `(line & set_mask) * N + N <= tags.len()` for any line. The
/// unchecked indexing below relies on exactly that; the sweep is the
/// replay's innermost loop and the checks cost more than the compares.
#[inline]
fn classify_sweep<const N: usize>(tags: &[u64], set_mask: u64, lines: &[u64]) -> u32 {
    debug_assert!(tags.len() == (set_mask as usize + 1) * N);
    let mut mask = 0u32;
    for (j, &line) in lines.iter().enumerate() {
        let base = (line & set_mask) as usize * N;
        // SAFETY: see the contract above.
        let t: &[u64; N] = unsafe { &*tags.as_ptr().add(base).cast() };
        let mut hit = false;
        for &x in t {
            hit |= x == line;
        }
        mask |= u32::from(hit) << j;
    }
    mask
}

/// Moves `way` to the LRU (rank `ways-1`) nibble — used when a way is
/// invalidated, so the emptied way is the next one refilled.
#[inline]
fn perm_demote(perm: u64, way: usize, ways: u32) -> u64 {
    let way64 = way as u64;
    let last = ways - 1;
    if perm_way_at(perm, last) == way {
        return perm;
    }
    let idx = perm_find(perm, way64);
    let below = perm & ((1u64 << idx) - 1);
    let shifted = (perm >> idx >> 4) << idx;
    let res = below | shifted;
    (res & !(0xFu64 << (4 * last))) | (way64 << (4 * last))
}

/// Result of inserting a line into a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line address.
    pub line: u64,
    /// Its state at eviction (a `Modified` eviction implies a writeback).
    pub state: Mesi,
}

/// Result of [`Cache::probe_or_plan`]: either a hit (identical to
/// [`Cache::probe`]) or a miss carrying the fill slot the insert scan
/// would choose, computed in the same pass.
#[derive(Debug, Clone, Copy)]
pub enum ProbeFill {
    /// The line is resident; LRU was refreshed. (Presence only — the
    /// streaming call sites never read the MESI state here, coherence
    /// upgrades go through `state_of`/`set_state` at the L3.)
    Hit,
    /// The line is absent; `plan` pre-computes the fill.
    Miss(FillPlan),
}

/// A pre-computed fill decision for a line that just missed: the slot
/// [`Cache::insert`] would pick (first empty way, else the LRU way).
/// Only valid while the set is untouched between the probe and
/// [`Cache::fill_planned`] — the caller guarantees that (upper-level
/// fills on an L2/L3 hit; a full memory miss drops the plan because
/// inclusive back-invalidation may edit the set).
#[derive(Debug, Clone, Copy)]
pub struct FillPlan {
    /// Global way index to fill.
    slot: usize,
    /// The set index (for the MRU hint update).
    set: usize,
    /// The slot's current LRU rank, when the probe learned it (an LRU
    /// victim is at rank `ways-1`); `u32::MAX` when unknown (empty-way
    /// fills), in which case the fill falls back to the SWAR find.
    rank: u32,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(geo: CacheGeometry) -> Self {
        let set_count = geo.sets();
        assert!(
            set_count.is_power_of_two(),
            "cache set count must be a power of two (got {set_count}); \
             SimConfig::validate reports this as ConfigError::NonPowerOfTwoSets"
        );
        assert!(
            (1..=CacheGeometry::MAX_WAYS).contains(&geo.ways),
            "cache associativity must be 1..={} (got {}); \
             SimConfig::validate reports this as ConfigError::TooManyWays",
            CacheGeometry::MAX_WAYS,
            geo.ways
        );
        let slots = set_count as usize * geo.ways as usize;
        Cache {
            geo,
            set_mask: set_count - 1,
            tags: vec![EMPTY; slots],
            states: vec![Mesi::Shared; slots],
            perms: vec![PERM_IDENTITY; set_count as usize],
            occ: vec![0; set_count as usize],
            last_line: EMPTY,
            last_slot: 0,
        }
    }

    /// The geometry of this level.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geo
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line & self.set_mask) as usize;
        let ways = self.geo.ways as usize;
        set * ways..(set + 1) * ways
    }

    /// Probes for a line; on hit, refreshes LRU and returns its state.
    #[inline]
    pub fn probe(&mut self, line: u64) -> Option<Mesi> {
        // L0: the same line probed again. The tag re-check makes the
        // hint self-validating, so eviction needs no bookkeeping here.
        if line == self.last_line && line != EMPTY && self.tags[self.last_slot] == line {
            let set = (line & self.set_mask) as usize;
            let way = self.last_slot - set * self.geo.ways as usize;
            // Already-MRU promotes are the common case here and are
            // identity — skipping them keeps the L0 hit store-free.
            if (self.perms[set] & 0xF) as usize != way {
                self.perms[set] = perm_promote(self.perms[set], way);
            }
            return Some(self.states[self.last_slot]);
        }
        let set = (line & self.set_mask) as usize;
        let ways = self.geo.ways as usize;
        let base = set * ways;
        let perm = self.perms[set];
        // MRU-first: the way that hit or filled last usually hits again
        // (and then the permutation needs no update at all).
        let mru_slot = base + (perm & 0xF) as usize;
        if self.tags[mru_slot] == line {
            self.last_line = line;
            self.last_slot = mru_slot;
            return Some(self.states[mru_slot]);
        }
        // Rank-1 next: alternating two-line sets hit here every time,
        // with the promote offset known statically.
        let w1 = ((perm >> 4) & 0xF) as usize;
        if ways > 1 && self.tags[base + w1] == line {
            self.perms[set] = perm_promote_at(perm, w1 as u64, 4);
            // No hint update: the line is MRU now, so a repeat access
            // hits the MRU check (which sets the hint) — scan hits stay
            // store-light.
            return Some(self.states[base + w1]);
        }
        if tags_contain(&self.tags[base..base + ways], line) {
            let (w, idx) = scan_recency(&self.tags, base, perm, ways, line)
                .expect("contained line is found by the recency scan");
            self.perms[set] = perm_promote_at(perm, w as u64, idx);
            return Some(self.states[base + w]);
        }
        None
    }

    /// Presence-only probe: refreshes LRU exactly like [`Cache::probe`]
    /// but never reads the state array — the streaming L2/L3 probes only
    /// ask *whether* the level hit (coherence state is handled at the L3
    /// through `state_of`/`set_state`), so the hot loop skips one array
    /// touch per level.
    #[inline]
    pub fn probe_hit(&mut self, line: u64) -> bool {
        if line == self.last_line && line != EMPTY && self.tags[self.last_slot] == line {
            let set = (line & self.set_mask) as usize;
            let way = self.last_slot - set * self.geo.ways as usize;
            if (self.perms[set] & 0xF) as usize != way {
                self.perms[set] = perm_promote(self.perms[set], way);
            }
            return true;
        }
        let set = (line & self.set_mask) as usize;
        let ways = self.geo.ways as usize;
        let base = set * ways;
        let perm = self.perms[set];
        let mru_slot = base + (perm & 0xF) as usize;
        if self.tags[mru_slot] == line {
            self.last_line = line;
            self.last_slot = mru_slot;
            return true;
        }
        let w1 = ((perm >> 4) & 0xF) as usize;
        if ways > 1 && self.tags[base + w1] == line {
            self.perms[set] = perm_promote_at(perm, w1 as u64, 4);
            return true;
        }
        if tags_contain(&self.tags[base..base + ways], line) {
            let (w, idx) = scan_recency(&self.tags, base, perm, ways, line)
                .expect("contained line is found by the recency scan");
            self.perms[set] = perm_promote_at(perm, w as u64, idx);
            return true;
        }
        false
    }

    /// Probes for a line like [`Cache::probe`], but on a miss also
    /// returns the fill slot the subsequent insert would choose —
    /// computed in the *same* way walk, so the hot L1-miss/L2-hit
    /// pattern scans the set once instead of twice. Consuming the plan
    /// via [`Cache::fill_planned`] is state-identical to calling
    /// [`Cache::insert`] — provided the set is untouched in between,
    /// which the `MemorySystem` call sites guarantee.
    #[inline]
    pub fn probe_or_plan(&mut self, line: u64) -> ProbeFill {
        if line == self.last_line && line != EMPTY && self.tags[self.last_slot] == line {
            let set = (line & self.set_mask) as usize;
            let way = self.last_slot - set * self.geo.ways as usize;
            if (self.perms[set] & 0xF) as usize != way {
                self.perms[set] = perm_promote(self.perms[set], way);
            }
            return ProbeFill::Hit;
        }
        let set = (line & self.set_mask) as usize;
        let ways = self.geo.ways as usize;
        let base = set * ways;
        let perm = self.perms[set];
        let mru_slot = base + (perm & 0xF) as usize;
        if self.tags[mru_slot] == line {
            self.last_line = line;
            self.last_slot = mru_slot;
            return ProbeFill::Hit;
        }
        let w1 = ((perm >> 4) & 0xF) as usize;
        if ways > 1 && self.tags[base + w1] == line {
            self.perms[set] = perm_promote_at(perm, w1 as u64, 4);
            return ProbeFill::Hit;
        }
        if tags_contain(&self.tags[base..base + ways], line) {
            let (w, idx) = scan_recency(&self.tags, base, perm, ways, line)
                .expect("contained line is found by the recency scan");
            self.perms[set] = perm_promote_at(perm, w as u64, idx);
            return ProbeFill::Hit;
        }
        // The victim is the LRU rank of the packed permutation; its
        // rank rides along so the fill can promote without re-finding
        // the way. Full sets (the steady state, tracked in `occ`) skip
        // the empty-way search.
        let (slot, rank) = if self.occ[set] == ways as u8 {
            let last = self.geo.ways - 1;
            (base + perm_way_at(perm, last), last)
        } else {
            let first_empty = self.tags[base..base + ways]
                .iter()
                .position(|&t| t == EMPTY)
                .expect("occ < ways implies an empty way");
            (base + first_empty, u32::MAX)
        };
        ProbeFill::Miss(FillPlan { slot, set, rank })
    }

    /// Consumes a [`FillPlan`] from [`Cache::probe_or_plan`], filling
    /// the planned slot. Equivalent to `insert(line, state)` under the
    /// plan's validity condition (set untouched since the probe); the
    /// eviction, if any, is the one upper-level fills discard anyway.
    #[inline]
    pub fn fill_planned(&mut self, plan: FillPlan, line: u64, state: Mesi) {
        let way = (plan.slot - plan.set * self.geo.ways as usize) as u64;
        self.tags[plan.slot] = line;
        self.states[plan.slot] = state;
        let perm = self.perms[plan.set];
        let idx = if plan.rank != u32::MAX {
            4 * plan.rank
        } else {
            // An empty way was planned: it joins the residents.
            self.occ[plan.set] += 1;
            perm_find(perm, way)
        };
        self.perms[plan.set] = perm_promote_at(perm, way, idx);
    }

    /// Pure lane classification for the vectorised plan replay
    /// ([`MemorySystem::run_plan`]'s dense path): bit `j` of the
    /// returned mask is set iff `lines[j]` is resident. No LRU, hint,
    /// or stat side effects — and since *hits* never move tags, a batch
    /// classified up front stays valid across the leading all-hit
    /// prefix the caller then commits via [`Cache::touch_hits`].
    ///
    /// [`MemorySystem::run_plan`]: crate::system::MemorySystem::run_plan
    #[inline]
    #[must_use]
    pub fn classify_lanes(&self, lines: &[u64]) -> u32 {
        debug_assert!(lines.len() <= 32);
        // Dispatch on the associativity once per batch, so the inner
        // sweep is monomorphic and the per-set compares unroll.
        match self.geo.ways {
            4 => classify_sweep::<4>(&self.tags, self.set_mask, lines),
            8 => classify_sweep::<8>(&self.tags, self.set_mask, lines),
            16 => classify_sweep::<16>(&self.tags, self.set_mask, lines),
            _ => {
                let wc = self.geo.ways as usize;
                let mut mask = 0u32;
                for (j, &line) in lines.iter().enumerate() {
                    let base = (line & self.set_mask) as usize * wc;
                    mask |= u32::from(tags_contain(&self.tags[base..base + wc], line)) << j;
                }
                mask
            }
        }
    }

    /// Commits the LRU/hint side effects of a run of probes known to
    /// hit (classified by [`Cache::classify_lanes`]). Per element it is
    /// state-identical to [`Cache::probe_or_plan`]'s hit arms: the L0
    /// arm promotes without moving the hint, a hit on the MRU way only
    /// moves the hint, and any other way is promoted to MRU from its
    /// current rank. The arm order matters: the hint trajectory is
    /// serialised by checkpoints, so it must match the probe's exactly.
    /// Batching lets the field borrows split (`&tags` / `&mut perms`),
    /// so the permutation stores can't be taken to alias the tag loads
    /// and the whole run schedules with cross-element parallelism.
    #[inline]
    pub fn touch_hits(&mut self, lines: &[u64]) {
        let set_mask = self.set_mask;
        let wc = self.geo.ways as usize;
        let tags = self.tags.as_slice();
        let perms = self.perms.as_mut_slice();
        let mut hint_line = self.last_line;
        let mut hint_slot = self.last_slot;
        // SAFETY throughout: `set <= set_mask < perms.len()`; every way
        // index comes from a permutation's low nibbles, so it is `< wc`
        // (restore rejects any other permutation); `base + wc <=
        // tags.len()` by the geometry; and `hint_slot` stays a valid
        // slot of the line's own set (it only ever takes `base + way`
        // values, and restore rejects a tag stored outside its set).
        for &line in lines {
            let set = (line & set_mask) as usize;
            if line == hint_line && line != EMPTY && unsafe { *tags.get_unchecked(hint_slot) } == line
            {
                // A resident line occupies exactly one way, so the
                // hinted way is the resident way.
                let way = hint_slot - set * wc;
                let perm = unsafe { *perms.get_unchecked(set) };
                if (perm & 0xF) as usize != way {
                    unsafe { *perms.get_unchecked_mut(set) = perm_promote(perm, way) };
                }
                continue;
            }
            // The probe cascade: MRU, rank 1, then the recency scan.
            let perm = unsafe { *perms.get_unchecked(set) };
            let base = set * wc;
            let mru_slot = base + (perm & 0xF) as usize;
            if unsafe { *tags.get_unchecked(mru_slot) } == line {
                hint_line = line;
                hint_slot = mru_slot;
                continue;
            }
            let w1 = ((perm >> 4) & 0xF) as usize;
            if wc > 1 && unsafe { *tags.get_unchecked(base + w1) } == line {
                unsafe { *perms.get_unchecked_mut(set) = perm_promote_at(perm, w1 as u64, 4) };
                continue;
            }
            let (w, idx) = scan_recency(tags, base, perm, wc, line)
                .expect("classified line is found by the recency scan");
            unsafe { *perms.get_unchecked_mut(set) = perm_promote_at(perm, w as u64, idx) };
        }
        self.last_line = hint_line;
        self.last_slot = hint_slot;
    }

    /// Whether the line is resident in state [`Mesi::Modified`],
    /// without disturbing LRU — the plan replay's write-lane ownership
    /// test (`state_of(line) == Some(Mesi::Modified)`).
    #[inline]
    #[must_use]
    pub fn state_modified(&self, line: u64) -> bool {
        self.state_of(line) == Some(Mesi::Modified)
    }

    /// Whether the line is present, without disturbing LRU.
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        self.tags[self.set_range(line)].contains(&line)
    }

    /// Reads a line's state without disturbing LRU.
    #[must_use]
    pub fn state_of(&self, line: u64) -> Option<Mesi> {
        let range = self.set_range(line);
        let base = range.start;
        let i = self.tags[range].iter().position(|&t| t == line)?;
        Some(self.states[base + i])
    }

    /// Sets the state of a resident line, returning the *previous*
    /// state so callers can observe the transition (`None` if absent).
    pub fn set_state(&mut self, line: u64, state: Mesi) -> Option<Mesi> {
        let range = self.set_range(line);
        let base = range.start;
        let i = self.tags[range].iter().position(|&t| t == line)?;
        Some(std::mem::replace(&mut self.states[base + i], state))
    }

    /// Inserts a line (replacing LRU if the set is full), returning any
    /// eviction. If the line is already resident its state is updated.
    #[inline]
    pub fn insert(&mut self, line: u64, state: Mesi) -> Option<Eviction> {
        // One pass over the packed tags finds the matching way; a miss
        // fills the first empty way, else the permutation's LRU rank.
        let set = (line & self.set_mask) as usize;
        let ways = self.geo.ways as usize;
        let base = set * ways;
        let perm = self.perms[set];
        let mru_slot = base + (perm & 0xF) as usize;
        if self.tags[mru_slot] == line {
            self.states[mru_slot] = state;
            self.last_line = line;
            self.last_slot = mru_slot;
            return None;
        }
        if tags_contain(&self.tags[base..base + ways], line) {
            let (w, idx) = scan_recency(&self.tags, base, perm, ways, line)
                .expect("contained line is found by the recency scan");
            self.states[base + w] = state;
            self.perms[set] = perm_promote_at(perm, w as u64, idx);
            return None;
        }
        let (slot, evicted, idx) = if self.occ[set] == ways as u8 {
            let last = self.geo.ways - 1;
            let slot = base + perm_way_at(perm, last);
            let ev = Eviction { line: self.tags[slot], state: self.states[slot] };
            (slot, Some(ev), 4 * last)
        } else {
            let first_empty = self.tags[base..base + ways]
                .iter()
                .position(|&t| t == EMPTY)
                .expect("occ < ways implies an empty way");
            self.occ[set] += 1;
            (base + first_empty, None, perm_find(perm, first_empty as u64))
        };
        self.tags[slot] = line;
        self.states[slot] = state;
        self.perms[set] = perm_promote_at(perm, (slot - base) as u64, idx);
        evicted
    }

    /// Removes a line; returns its state if it was present.
    pub fn invalidate(&mut self, line: u64) -> Option<Mesi> {
        let range = self.set_range(line);
        let base = range.start;
        let i = self.tags[range].iter().position(|&t| t == line)?;
        let slot = base + i;
        self.tags[slot] = EMPTY;
        let set = base / self.geo.ways as usize;
        self.perms[set] = perm_demote(self.perms[set], i, self.geo.ways);
        self.occ[set] -= 1;
        Some(self.states[slot])
    }

    /// Drops every line (e.g. between experiment phases).
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
        self.perms.fill(PERM_IDENTITY);
        self.occ.fill(0);
        self.last_line = EMPTY;
        self.last_slot = 0;
    }

    /// Number of resident lines (for tests and occupancy metrics).
    #[must_use]
    pub fn resident(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Serializes the mutable cache state into a checkpoint section:
    /// tags, states, LRU permutations and the L0 hint. The per-set
    /// occupancy is derived from the tags, so restore recounts it.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4343_4845); // "CCHE"
        e.u64s(&self.tags);
        let states: Vec<u8> = self.states.iter().map(|&s| mesi_code(s)).collect();
        e.bytes(&states);
        e.u64s(&self.perms);
        e.u64(self.last_line);
        e.u64(self.last_slot as u64);
    }

    /// Restores the cache from a checkpoint section taken on an
    /// identically-configured cache.
    ///
    /// # Errors
    ///
    /// Decoding errors; [`CheckpointError::ConfigMismatch`] when the
    /// artifact's slot count does not match this cache's geometry; and
    /// [`CheckpointError::Malformed`] for state no cache operation can
    /// produce — an LRU order that is not a permutation of the set's
    /// ways, a tag stored outside its set, or an out-of-range hint.
    /// Nothing but the MESI states is written before those checks pass.
    ///
    /// [`CheckpointError::ConfigMismatch`]: stramash_sim::checkpoint::CheckpointError::ConfigMismatch
    /// [`CheckpointError::Malformed`]: stramash_sim::checkpoint::CheckpointError::Malformed
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        use stramash_sim::checkpoint::CheckpointError;
        d.tag(0x4343_4845)?;
        let tags = d.u64s()?;
        if tags.len() != self.tags.len() {
            return Err(CheckpointError::ConfigMismatch);
        }
        let states = d.bytes()?;
        if states.len() != self.states.len() {
            return Err(CheckpointError::ConfigMismatch);
        }
        for (dst, &b) in self.states.iter_mut().zip(states) {
            *dst = mesi_from_code(b)?;
        }
        let perms = d.u64s()?;
        if perms.len() != self.perms.len() {
            return Err(CheckpointError::ConfigMismatch);
        }
        let last_line = d.u64()?;
        let last_slot = d.u64()? as usize;
        if last_slot >= tags.len() && last_line != EMPTY {
            return Err(CheckpointError::Malformed("cache MRU hint slot"));
        }
        let ways = self.geo.ways;
        let mut occ = Vec::with_capacity(perms.len());
        for (set, (set_tags, &perm)) in tags.chunks_exact(ways as usize).zip(&perms).enumerate() {
            if !perm_is_valid(perm, ways) {
                return Err(CheckpointError::Malformed("cache LRU permutation"));
            }
            let mut resident = 0u8;
            for &t in set_tags {
                if t != EMPTY {
                    if (t & self.set_mask) as usize != set {
                        return Err(CheckpointError::Malformed("cache tag outside its set"));
                    }
                    resident += 1;
                }
            }
            occ.push(resident);
        }
        self.tags = tags;
        self.perms = perms;
        self.occ = occ;
        self.last_line = last_line;
        self.last_slot = last_slot.min(self.tags.len() - 1);
        Ok(())
    }

    /// Iterates every resident line with its state, without disturbing
    /// LRU. Used by the coherence auditor.
    pub fn lines(&self) -> impl Iterator<Item = (u64, Mesi)> + '_ {
        self.tags
            .iter()
            .zip(&self.states)
            .filter(|&(&t, _)| t != EMPTY)
            .map(|(&t, &s)| (t, s))
    }
}

/// The per-domain hierarchy: split L1, unified L2, inclusive L3.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    /// L1 instruction cache (presence only).
    pub l1i: Cache,
    /// L1 data cache (presence only).
    pub l1d: Cache,
    /// Unified L2 (presence only).
    pub l2: Cache,
    /// Unified, inclusive L3 — the coherence point holding MESI state.
    pub l3: Cache,
}

impl CacheHierarchy {
    /// Builds a hierarchy from a domain's cache configuration.
    #[must_use]
    pub fn new(cfg: &stramash_sim::CacheConfig) -> Self {
        CacheHierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
        }
    }

    /// Whether any level holds the line (the L3 suffices: inclusive).
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        self.l3.contains(line)
    }

    /// The coherence state of a resident line.
    #[must_use]
    pub fn state_of(&self, line: u64) -> Option<Mesi> {
        self.l3.state_of(line)
    }

    /// Invalidates a line in every level; returns the L3 state it had.
    pub fn invalidate(&mut self, line: u64) -> Option<Mesi> {
        self.l1i.invalidate(line);
        self.l1d.invalidate(line);
        self.l2.invalidate(line);
        self.l3.invalidate(line)
    }

    /// Whether a line is present in a level above the L3 (used to price
    /// back-invalidations on inclusive evictions).
    #[must_use]
    pub fn in_upper_levels(&self, line: u64) -> bool {
        self.l1i.contains(line) || self.l1d.contains(line) || self.l2.contains(line)
    }

    /// Drops the line from the upper levels only (back-invalidation).
    pub fn back_invalidate_upper(&mut self, line: u64) {
        self.l1i.invalidate(line);
        self.l1d.invalidate(line);
        self.l2.invalidate(line);
    }

    /// Flushes every level.
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
        self.l3.flush();
    }

    /// Serializes all four levels into a checkpoint section.
    pub fn save_state(&self, e: &mut stramash_sim::checkpoint::Encoder) {
        e.tag(0x4348_4945); // "CHIE"
        self.l1i.save_state(e);
        self.l1d.save_state(e);
        self.l2.save_state(e);
        self.l3.save_state(e);
    }

    /// Restores all four levels from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Decoding errors.
    pub fn load_state(
        &mut self,
        d: &mut stramash_sim::checkpoint::Decoder<'_>,
    ) -> Result<(), stramash_sim::checkpoint::CheckpointError> {
        d.tag(0x4348_4945)?;
        self.l1i.load_state(d)?;
        self.l1d.load_state(d)?;
        self.l2.load_state(d)?;
        self.l3.load_state(d)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stramash_sim::CacheConfig;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B lines = 256 B.
        Cache::new(CacheGeometry::new(256, 2, 64))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.probe(10), None);
        assert_eq!(c.insert(10, Mesi::Exclusive), None);
        assert_eq!(c.probe(10), Some(Mesi::Exclusive));
        assert!(c.contains(10));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0 (2 sets → even lines share set 0).
        c.insert(0, Mesi::Shared);
        c.insert(2, Mesi::Shared);
        c.probe(0); // refresh 0, so 2 is LRU
        let ev = c.insert(4, Mesi::Shared).expect("set full, must evict");
        assert_eq!(ev.line, 2);
        assert!(c.contains(0));
        assert!(c.contains(4));
        assert!(!c.contains(2));
    }

    #[test]
    fn insert_existing_updates_state_without_eviction() {
        let mut c = tiny();
        c.insert(8, Mesi::Shared);
        assert_eq!(c.insert(8, Mesi::Modified), None);
        assert_eq!(c.state_of(8), Some(Mesi::Modified));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn eviction_reports_modified_state() {
        let mut c = tiny();
        c.insert(0, Mesi::Modified);
        c.insert(2, Mesi::Shared);
        c.probe(2);
        // Refresh 2; 0 is LRU and dirty.
        let ev = c.insert(4, Mesi::Shared).unwrap();
        assert_eq!(ev, Eviction { line: 0, state: Mesi::Modified });
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(6, Mesi::Exclusive);
        assert_eq!(c.invalidate(6), Some(Mesi::Exclusive));
        assert_eq!(c.invalidate(6), None);
        assert!(!c.contains(6));
    }

    #[test]
    fn set_state_on_missing_line_is_none() {
        let mut c = tiny();
        assert_eq!(c.set_state(1, Mesi::Shared), None);
        c.insert(1, Mesi::Exclusive);
        assert_eq!(c.set_state(1, Mesi::Shared), Some(Mesi::Exclusive));
        assert_eq!(c.state_of(1), Some(Mesi::Shared));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.insert(0, Mesi::Shared);
        c.insert(1, Mesi::Shared);
        c.flush();
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        // Lines 0,2 → set 0; lines 1,3 → set 1.
        c.insert(0, Mesi::Shared);
        c.insert(2, Mesi::Shared);
        c.insert(1, Mesi::Shared);
        c.insert(3, Mesi::Shared);
        assert_eq!(c.resident(), 4);
    }

    #[test]
    fn hierarchy_inclusive_queries() {
        let mut h = CacheHierarchy::new(&CacheConfig::paper_default());
        h.l3.insert(100, Mesi::Exclusive);
        h.l2.insert(100, Mesi::Exclusive);
        h.l1d.insert(100, Mesi::Exclusive);
        assert!(h.contains(100));
        assert!(h.in_upper_levels(100));
        h.back_invalidate_upper(100);
        assert!(!h.in_upper_levels(100));
        assert!(h.contains(100), "back-invalidation keeps the L3 copy");
        assert_eq!(h.invalidate(100), Some(Mesi::Exclusive));
        assert!(!h.contains(100));
    }

    /// The naive reference model: per-way stamp LRU with modulo set
    /// indexing and straight-line scans — the replacement policy as
    /// §7.3 states it, with none of [`Cache`]'s packing.
    struct NaiveLru {
        ways: usize,
        sets: u64,
        /// `(line, stamp, state)` per way; an `EMPTY` line is an empty
        /// way, and emptied ways get stamp 0 (least recent).
        slots: Vec<(u64, u64, Mesi)>,
        tick: u64,
    }

    impl NaiveLru {
        fn new(geo: CacheGeometry) -> Self {
            let slots = vec![(EMPTY, 0, Mesi::Shared); geo.lines() as usize];
            NaiveLru { ways: geo.ways as usize, sets: geo.sets(), slots, tick: 0 }
        }

        fn set(&mut self, line: u64) -> &mut [(u64, u64, Mesi)] {
            let base = (line % self.sets) as usize * self.ways;
            &mut self.slots[base..base + self.ways]
        }

        fn probe(&mut self, line: u64) -> Option<Mesi> {
            self.tick += 1;
            let tick = self.tick;
            let w = self.set(line).iter_mut().find(|w| w.0 == line)?;
            w.1 = tick;
            Some(w.2)
        }

        fn insert(&mut self, line: u64, state: Mesi) -> Option<Eviction> {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set(line);
            if let Some(w) = set.iter_mut().find(|w| w.0 == line) {
                *w = (line, tick, state);
                return None;
            }
            if let Some(w) = set.iter_mut().find(|w| w.0 == EMPTY) {
                *w = (line, tick, state);
                return None;
            }
            let victim = set.iter_mut().min_by_key(|w| w.1).expect("ways > 0");
            let evicted = Eviction { line: victim.0, state: victim.2 };
            *victim = (line, tick, state);
            Some(evicted)
        }

        fn invalidate(&mut self, line: u64) -> Option<Mesi> {
            let w = self.set(line).iter_mut().find(|w| w.0 == line)?;
            *w = (EMPTY, 0, w.2);
            Some(w.2)
        }

        fn state_of(&mut self, line: u64) -> Option<Mesi> {
            self.set(line).iter().find(|w| w.0 == line).map(|w| w.2)
        }

        fn set_state(&mut self, line: u64, state: Mesi) -> Option<Mesi> {
            let w = self.set(line).iter_mut().find(|w| w.0 == line)?;
            Some(std::mem::replace(&mut w.2, state))
        }

        fn lines(&self) -> Vec<(u64, Mesi)> {
            let mut v: Vec<_> =
                self.slots.iter().filter(|w| w.0 != EMPTY).map(|w| (w.0, w.2)).collect();
            v.sort_unstable_by_key(|(l, _)| *l);
            v
        }
    }

    /// Every field of a cache, for whole-state equality.
    fn snapshot(c: &Cache) -> (Vec<u64>, Vec<Mesi>, Vec<u64>, Vec<u8>, u64, usize) {
        (c.tags.clone(), c.states.clone(), c.perms.clone(), c.occ.clone(), c.last_line, c.last_slot)
    }

    fn sorted_lines(c: &Cache) -> Vec<(u64, Mesi)> {
        let mut v: Vec<_> = c.lines().collect();
        v.sort_unstable_by_key(|(l, _)| *l);
        v
    }

    /// Differential test: a long deterministic op mix, checked op by op
    /// against [`NaiveLru`] — return values, LRU victims, MESI states
    /// and residency — at 4, 8, 12 and 16 ways (12 takes the generic
    /// arm of `classify_lanes`). Lane batches check `classify_lanes`
    /// against the model's residency, and the `touch_hits` commit of
    /// their leading all-hit run against the same run of `probe`s,
    /// field for field (the L0 hint included).
    #[test]
    fn packed_cache_matches_naive_lru_model() {
        for ways in [4u32, 8, 12, 16] {
            let geo = CacheGeometry::new(16 * u64::from(ways) * 64, ways, 64); // 16 sets
            let mut cache = Cache::new(geo);
            let mut model = NaiveLru::new(geo);
            // 1.5× the capacity: hits, conflicts and evictions all occur.
            let universe = geo.lines() * 3 / 2;
            let mut recent = [0u64; 8];
            let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ u64::from(ways);
            let mut next = |step: u64| {
                x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(step);
                x
            };
            for step in 0..20_000u64 {
                let r = next(step);
                let line = (r >> 17) % universe;
                recent[(step % 8) as usize] = line;
                let state = match (r >> 7) % 3 {
                    0 => Mesi::Modified,
                    1 => Mesi::Exclusive,
                    _ => Mesi::Shared,
                };
                let at = format!("{ways} ways, step {step}");
                match r % 9 {
                    0 | 1 => assert_eq!(cache.probe(line), model.probe(line), "probe, {at}"),
                    2 => {
                        let hit = model.probe(line).is_some();
                        assert_eq!(cache.probe_hit(line), hit, "probe_hit, {at}");
                    }
                    3 | 4 => {
                        let want = model.insert(line, state);
                        assert_eq!(cache.insert(line, state), want, "insert, {at}");
                    }
                    5 => assert_eq!(cache.invalidate(line), model.invalidate(line), "inval, {at}"),
                    6 => {
                        // The fused streaming pair: probe, then consume
                        // the plan immediately (its validity condition).
                        match (cache.probe_or_plan(line), model.probe(line)) {
                            (ProbeFill::Hit, Some(_)) => {}
                            (ProbeFill::Miss(plan), None) => {
                                cache.fill_planned(plan, line, state);
                                model.insert(line, state);
                            }
                            _ => panic!("probe_or_plan hit/miss diverged, {at}"),
                        }
                    }
                    7 => {
                        assert_eq!(cache.state_of(line), model.state_of(line), "state_of, {at}");
                        assert_eq!(cache.set_state(line, state), model.set_state(line, state));
                    }
                    _ => {
                        // Mostly recently used lines, so all-hit runs
                        // are long, with repeats for the L0 arm.
                        let mut lanes = [0u64; 16];
                        for (j, lane) in lanes.iter_mut().enumerate() {
                            let q = next(step + j as u64);
                            *lane = if q % 4 == 0 {
                                (q >> 17) % universe
                            } else {
                                recent[(q >> 9) as usize % 8]
                            };
                        }
                        let mask = cache.classify_lanes(&lanes);
                        for (j, &l) in lanes.iter().enumerate() {
                            let resident = model.state_of(l).is_some();
                            assert_eq!(mask >> j & 1 == 1, resident, "classify lane {j}, {at}");
                        }
                        let run = (!mask).trailing_zeros() as usize;
                        let mut probed = cache.clone();
                        for &l in &lanes[..run] {
                            assert!(probed.probe(l).is_some());
                            assert!(model.probe(l).is_some());
                        }
                        cache.touch_hits(&lanes[..run]);
                        assert!(snapshot(&cache) == snapshot(&probed), "touch_hits vs probe, {at}");
                    }
                }
                assert_eq!(cache.resident(), model.lines().len(), "residency, {at}");
            }
            assert_eq!(sorted_lines(&cache), model.lines(), "{ways} ways: final contents");
            for (set, &occ) in cache.occ.iter().enumerate() {
                let base = set * ways as usize;
                let tags = &cache.tags[base..base + ways as usize];
                let resident = tags.iter().filter(|&&t| t != EMPTY).count();
                assert_eq!(usize::from(occ), resident, "{ways} ways: occupancy of set {set}");
            }
        }
    }

    /// 4 sets × 8 ways, every way filled (lines `0..32`).
    fn full_eight_way() -> Cache {
        let mut c = Cache::new(CacheGeometry::new(4 * 8 * 64, 8, 64));
        for line in 0..32 {
            c.insert(line, Mesi::Exclusive);
        }
        c
    }

    /// Checkpoints `src` and restores the section into a fresh cache of
    /// the same geometry.
    fn round_trip(src: &Cache) -> Result<Cache, stramash_sim::checkpoint::CheckpointError> {
        let mut e = stramash_sim::checkpoint::Encoder::new();
        src.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut dst = Cache::new(src.geo);
        dst.load_state(&mut stramash_sim::checkpoint::Decoder::new(&bytes))?;
        Ok(dst)
    }

    #[test]
    fn restore_rejects_lru_orders_that_are_not_permutations() {
        use stramash_sim::checkpoint::CheckpointError;
        let malformed = Err(CheckpointError::Malformed("cache LRU permutation"));
        // An out-of-range MRU way: probing set 3 would read slot 24 + 15.
        let mut c = full_eight_way();
        c.perms[3] = 0xFEDC_BA98_7654_321F;
        assert_eq!(round_trip(&c).map(|_| ()), malformed);
        // A repeated way (way 0 missing): the victim scan would run off
        // the permutation.
        let mut c = full_eight_way();
        c.perms[1] = 0xFEDC_BA98_7654_3211;
        assert_eq!(round_trip(&c).map(|_| ()), malformed);
    }

    #[test]
    fn restore_rejects_a_tag_outside_its_set() {
        use stramash_sim::checkpoint::CheckpointError;
        let mut c = full_eight_way();
        c.tags[0] = 1; // line 1 belongs to set 1, slot 0 to set 0
        assert_eq!(
            round_trip(&c).map(|_| ()),
            Err(CheckpointError::Malformed("cache tag outside its set"))
        );
    }

    #[test]
    fn restore_rebuilds_occupancy_from_the_tags() {
        // A full set recorded as having an empty way: the next miss
        // must evict the LRU way, not search for a way that is not empty.
        let mut c = full_eight_way();
        c.occ[2] = 7;
        let mut r = round_trip(&c).unwrap();
        assert_eq!(r.occ, [8; 4]);
        let lru = Eviction { line: 2, state: Mesi::Exclusive };
        assert_eq!(r.insert(2 + 4 * 100, Mesi::Shared), Some(lru));
        // A set with free ways recorded as full: the next miss must
        // fill a free way, not evict.
        let mut c = full_eight_way();
        c.invalidate(1);
        c.invalidate(5);
        c.occ[1] = 8;
        let mut r = round_trip(&c).unwrap();
        assert_eq!(r.occ, [8, 6, 8, 8]);
        assert_eq!(r.insert(1 + 4 * 100, Mesi::Shared), None);
        assert_eq!(r.resident(), 31);
    }

    #[test]
    fn hierarchy_flush() {
        let mut h = CacheHierarchy::new(&CacheConfig::paper_default());
        h.l3.insert(5, Mesi::Shared);
        h.flush();
        assert!(!h.contains(5));
    }
}
