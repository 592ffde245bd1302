//! Incremental memory-disambiguation index.
//!
//! The legacy issue scan rebuilt two address sets from scratch every
//! cycle: the addresses of every incomplete store (blocks younger loads
//! and stores) and every incomplete load (blocks younger stores). On a
//! machine stalled with a full dispatch queue that is O(in-flight memory
//! ops) hash insertions per *cycle* — and it was the single largest
//! per-cycle cost after the scan itself.
//!
//! [`HazardIndex`] maintains the same information *event-incrementally*:
//! an address enters when its operation is renamed into the active list,
//! and leaves when the operation completes or is squashed. Between those
//! events the index is constant, so a cycle's disambiguation check is a
//! single hash lookup per ready memory candidate.
//!
//! The disambiguation predicate itself is unchanged from the per-cycle
//! rebuild: *"does any **older** (lower sequence number) incomplete
//! operation touch this address?"*. Per-address sequence lists are kept
//! sorted ascending — insertions arrive in program order, and squash
//! removes a suffix — so the oldest conflicting operation is the first
//! list element.
//!
//! # Hashing
//!
//! Keys are word-aligned simulated addresses, already well mixed by the
//! workload generator's layout. [`U64HashBuilder`] (shared with the
//! `rf-check` oracle's and sanitizer's `u64`-keyed maps) applies a fixed
//! SplitMix64 finalizer — deterministic (no per-process seed), ~4
//! instructions, and strong enough for hashbrown's 7-bit control bytes.
//! Nothing iterates the map, so determinism of results never depends on
//! bucket order anyway; the fixed seed just keeps run timing stable.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// SplitMix64 finalizer: a fixed, seedless avalanche of one `u64` key
/// (a simulated address or a sequence number), far cheaper than std's
/// SipHash for maps keyed on trusted simulator values.
#[derive(Debug, Clone, Copy, Default)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; tolerate other widths anyway.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`BuildHasher`] for [`U64Hasher`]: stateless, so every map built
/// from it hashes identically across runs and processes.
#[derive(Debug, Clone, Copy, Default)]
pub struct U64HashBuilder;

impl BuildHasher for U64HashBuilder {
    type Hasher = U64Hasher;

    #[inline]
    fn build_hasher(&self) -> U64Hasher {
        U64Hasher::default()
    }
}

/// Backing map of a [`HazardIndex`], exposed for arena recycling.
pub(crate) type AddrMap = HashMap<u64, Vec<u64>, U64HashBuilder>;

/// Sequence numbers of the incomplete memory operations touching each
/// address, kept sorted ascending (program order).
#[derive(Debug, Default)]
pub(crate) struct HazardIndex {
    map: AddrMap,
    /// Emptied per-address lists, kept for reuse: most addresses host one
    /// operation at a time, so without recycling every memory op would
    /// pay a heap allocation (first push) and a free (entry removal).
    spare: Vec<Vec<u64>>,
}

impl HazardIndex {
    /// Builds an empty index on a recycled map (contents discarded,
    /// capacity kept).
    pub(crate) fn new_in(mut map: AddrMap) -> Self {
        map.clear();
        Self { map, spare: Vec::new() }
    }

    /// Tears the index down into its map for arena recycling.
    pub(crate) fn into_map(self) -> AddrMap {
        self.map
    }

    /// Records that operation `seq` (renamed this cycle, hence younger
    /// than everything already present) addresses `addr`.
    #[inline]
    pub(crate) fn add(&mut self, addr: u64, seq: u64) {
        let list = self
            .map
            .entry(addr)
            .or_insert_with(|| self.spare.pop().unwrap_or_default());
        debug_assert!(list.last().is_none_or(|&l| l < seq));
        list.push(seq);
    }

    /// Removes operation `seq` from `addr`'s list (completion or squash).
    #[inline]
    pub(crate) fn remove(&mut self, addr: u64, seq: u64) {
        let Some(list) = self.map.get_mut(&addr) else {
            debug_assert!(false, "removing {seq} from untracked address {addr:#x}");
            return;
        };
        match list.binary_search(&seq) {
            Ok(i) => {
                list.remove(i);
            }
            Err(_) => debug_assert!(false, "removing untracked seq {seq} at {addr:#x}"),
        }
        if list.is_empty() {
            // Dropping the entry keeps lookups on dead addresses O(1)
            // negative; parking its list in `spare` keeps the allocator
            // off the hot path.
            if let Some(empty) = self.map.remove(&addr) {
                self.spare.push(empty);
            }
        }
    }

    /// Whether any tracked operation at `addr` is older than `seq` — the
    /// exact predicate the per-cycle scan evaluated against its rebuilt
    /// address sets (a candidate never conflicts with itself or with
    /// younger operations).
    #[inline]
    pub(crate) fn older_than(&self, addr: u64, seq: u64) -> bool {
        self.map.get(&addr).is_some_and(|list| {
            debug_assert!(!list.is_empty());
            list[0] < seq
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oldest_conflict_decides() {
        let mut idx = HazardIndex::default();
        idx.add(0x100, 5);
        idx.add(0x100, 9);
        idx.add(0x200, 7);
        // Older-than is strict: an operation never conflicts with itself.
        assert!(!idx.older_than(0x100, 5));
        assert!(idx.older_than(0x100, 6));
        assert!(idx.older_than(0x100, 99));
        assert!(!idx.older_than(0x300, 99));
        // Removing the oldest exposes the next; removing the last clears
        // the address entirely.
        idx.remove(0x100, 5);
        assert!(!idx.older_than(0x100, 9));
        assert!(idx.older_than(0x100, 10));
        idx.remove(0x100, 9);
        assert!(!idx.older_than(0x100, u64::MAX));
    }

    #[test]
    fn mid_list_removal_preserves_order() {
        let mut idx = HazardIndex::default();
        for seq in [2, 4, 6, 8] {
            idx.add(0x40, seq);
        }
        idx.remove(0x40, 4);
        idx.remove(0x40, 8);
        assert!(idx.older_than(0x40, 3));
        assert!(!idx.older_than(0x40, 2));
        idx.remove(0x40, 2);
        assert!(idx.older_than(0x40, 7));
        assert!(!idx.older_than(0x40, 6));
    }

    #[test]
    fn hashing_is_deterministic_across_builders() {
        let b = U64HashBuilder;
        let h1 = b.hash_one(0xdead_beefu64);
        let h2 = U64HashBuilder.hash_one(0xdead_beefu64);
        assert_eq!(h1, h2);
        assert_ne!(b.hash_one(0u64), b.hash_one(1u64));
    }
}
