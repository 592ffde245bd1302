//! The suite's counter registry: one named cell per suite-level event.
//!
//! A simulation starting, completing or failing, the instructions and
//! cycles it contributes, its insert stalls, the time it spends in each
//! phase, and every lookup of the global run cache and the durable store
//! tier is one relaxed increment of exactly one cell here. Nothing else
//! counts these events, so every sink — `BENCH_suite.json`, the ledger
//! record, the live stream, `/metrics`, `rfstudy top` and the stdout and
//! `RF_LOG` summary lines — renders a [`Snapshot`] of this registry.
//! A harness's counts are the difference of the snapshots taken before
//! and after it ([`Snapshot::since`]); the live stream reports the
//! difference from the snapshot taken when it started.
//!
//! The event-driven kernel's idle-skip totals are kept by `rf-core`,
//! which sits below this crate; [`Snapshot::take`] reads them with the
//! cells, so a snapshot is the complete set.

use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! registry {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// One registry cell.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in snapshot and rendering order.
            pub const ALL: [Counter; COUNT] = [$(Counter::$variant,)*];

            /// The counter's name in renderings.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }
        }
    };
}

registry! {
    /// Simulations that entered the runner (each later completes or
    /// fails).
    SimsStarted => "sims_started",
    /// Simulations that completed (run-cache and store hits excluded).
    SimsCompleted => "sims_completed",
    /// Simulations that panicked, were cancelled, or named an unknown
    /// benchmark.
    SimsFailed => "sims_failed",
    /// Instructions committed by completed simulations.
    InstructionsCommitted => "instructions_committed",
    /// Cycles simulated by completed simulations.
    Cycles => "cycles",
    /// Insert-stall cycles with no free register.
    StallNoReg => "stall_no_reg",
    /// Insert-stall cycles with a full dispatch queue.
    StallDqFull => "stall_dq_full",
    /// Cycles with an empty free list (either class).
    NoFreeCycles => "no_free_cycles",
    /// Nanoseconds spent constructing trace generators, summed over
    /// workers.
    GenerateNs => "generate_ns",
    /// Nanoseconds spent inside the pipeline, summed over workers (trace
    /// generation is lazy, so it is included here).
    SimulateNs => "simulate_ns",
    /// Global run-cache lookups served from memory.
    CacheHits => "cache_hits",
    /// Global run-cache lookups that missed.
    CacheMisses => "cache_misses",
    /// Global run-cache entries evicted by the LRU bound.
    CacheEvictions => "cache_evictions",
    /// Durable-store lookups served from disk.
    StoreHits => "store_hits",
    /// Durable-store lookups that fell through to a simulation.
    StoreMisses => "store_misses",
    /// Executed results appended to the durable store.
    StoreWrites => "store_writes",
    /// Cycles the event-driven kernel accounted in bulk instead of
    /// simulating (kept by `rf_core::skip_telemetry`).
    CyclesSkipped => "cycles_skipped",
    /// Idle-skip jumps the kernel took (kept by `rf_core::skip_telemetry`).
    WakeupEvents => "wakeup_events",
}

/// Number of registry counters.
pub const COUNT: usize = Counter::WakeupEvents as usize + 1;

/// Cells this crate owns: every counter before the two kernel ones.
const OWNED: usize = Counter::CyclesSkipped as usize;

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static CELLS: [AtomicU64; OWNED] = [ZERO; OWNED];

impl Counter {
    /// Counts `n` events.
    ///
    /// # Panics
    ///
    /// Panics for [`Counter::CyclesSkipped`] and
    /// [`Counter::WakeupEvents`], which the kernel counts.
    #[inline]
    pub fn add(self, n: u64) {
        CELLS[self as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// A copy of every registry counter: absolute values from
/// [`Snapshot::take`], or the difference of two ([`Snapshot::since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot([u64; COUNT]);

impl Snapshot {
    /// Reads every counter now.
    pub fn take() -> Snapshot {
        let mut s = Snapshot::default();
        for (value, cell) in s.0.iter_mut().zip(&CELLS) {
            *value = cell.load(Ordering::Relaxed);
        }
        let (skipped, wakeups) = rf_core::skip_telemetry();
        s[Counter::CyclesSkipped] = skipped;
        s[Counter::WakeupEvents] = wakeups;
        s
    }

    /// The counts accumulated between `base` and `self`, cell by cell.
    #[must_use]
    pub fn since(&self, base: &Snapshot) -> Snapshot {
        let mut d = *self;
        for (value, old) in d.0.iter_mut().zip(base.0) {
            *value = value.saturating_sub(old);
        }
        d
    }

    /// `(name, value)` for every counter, in [`Counter::ALL`] order.
    pub fn as_pairs(&self) -> [(&'static str, u64); COUNT] {
        Counter::ALL.map(|c| (c.name(), self[c]))
    }
}

/// A snapshot holding `values` and zero in every other cell.
impl<const N: usize> From<[(Counter, u64); N]> for Snapshot {
    fn from(values: [(Counter, u64); N]) -> Snapshot {
        let mut s = Snapshot::default();
        for (c, v) in values {
            s[c] = v;
        }
        s
    }
}

impl Index<Counter> for Snapshot {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        &self.0[c as usize]
    }
}

impl IndexMut<Counter> for Snapshot {
    fn index_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_all_is_declaration_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?} is out of place in ALL");
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNT, "duplicate counter name");
    }

    #[test]
    fn deltas_subtract_per_cell() {
        let mut base = Snapshot::default();
        let mut now = Snapshot::default();
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            base[c] = i as u64;
            now[c] = 10 * i as u64 + 1;
        }
        let d = now.since(&base);
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(d[c], 9 * i as u64 + 1, "{c:?}");
        }
        // A cell behind its base saturates at zero instead of wrapping.
        assert_eq!(base.since(&now), Snapshot::default());
    }

    #[test]
    fn as_pairs_renders_in_snapshot_order() {
        let mut s = Snapshot::default();
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            s[c] = 100 + i as u64;
        }
        let pairs = s.as_pairs();
        for (i, (name, value)) in pairs.into_iter().enumerate() {
            assert_eq!(name, Counter::ALL[i].name());
            assert_eq!(value, 100 + i as u64);
        }
    }
}
