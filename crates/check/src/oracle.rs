//! The static trace analyzer: def-use chains, live ranges, a sound
//! lower bound on physical-register demand, and an ideal-schedule
//! decomposition of register lifetimes into the paper's liveness
//! categories.
//!
//! Everything here is computed from the committed instruction stream
//! alone — no pipeline state — which is what makes it an independent
//! oracle for the simulator (see [`crate::crosscheck`]).
//!
//! ## Soundness of the lower bound
//!
//! Bind each register read to the most recent prior write of the same
//! virtual register; each write opens a *def* whose physical register
//! stays allocated, in any legal schedule, from the cycle its
//! instruction inserts until after the next write of the same virtual
//! register **completes** (imprecise freeing) or **commits** (precise
//! freeing) — and the next write can insert no earlier than its own
//! trace position. Therefore at the point any trace position `j`
//! inserts, every def whose interval `[def_pos, next_def_pos)` covers
//! `j` is still allocated (the interval extends *through* the
//! redefinition position when the redefining instruction also reads the
//! old value, since it renames its source before overwriting). The 31
//! initial architectural mappings per class open defs at position 0.
//! The maximum interval overlap over committed positions is then a
//! schedule-independent floor on the simulator's max-live count.
//!
//! The matching upper bound is `31 + defs`, since every allocation
//! after reset is the destination of one inserted instruction; the
//! cross-check widens it by the simulator's own count of inserted but
//! never-committed (wrong-path or still in-flight) instructions.

use rf_core::U64HashBuilder;
use rf_isa::{Instruction, OpKind, RegClass};
use std::collections::HashMap;

/// Per-class results of the static analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassOracle {
    /// Writes (defs) of this class in the trace, excluding the 31
    /// initial architectural mappings.
    pub defs: u64,
    /// Reads bound to those defs (including reads of initial mappings).
    pub uses: u64,
    /// Defs overwritten without ever being read.
    pub dead_defs: u64,
    /// Schedule-independent lower bound on max simultaneously live
    /// physical registers (see module docs); at least 31.
    pub floor: usize,
    /// Peak register demand of the ideal schedule (unlimited issue at
    /// the configured insert bandwidth, perfect memory and branches,
    /// imprecise freeing): the max overlap of rename-to-free lifetimes.
    pub ideal_demand: usize,
    /// Mean registers whose writer is in-queue / in-flight / waiting to
    /// be freed, per ideal-schedule cycle — the static analogue of the
    /// paper's liveness-category decomposition (Figures 3–7), without
    /// the 31 always-live architectural mappings.
    pub ideal_cat_means: [f64; 3],
    /// Mean trace-position distance from a def to its last use, over
    /// defs that are read at least once.
    pub mean_def_use_span: f64,
}

/// Results of statically analysing one trace prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOracle {
    /// Instructions analysed.
    pub instructions: u64,
    /// Loads in the prefix.
    pub loads: u64,
    /// Stores in the prefix.
    pub stores: u64,
    /// Conditional branches in the prefix.
    pub branches: u64,
    /// Cycles the ideal schedule takes to complete the prefix.
    pub ideal_cycles: u64,
    /// Per-class analysis (indexed by [`RegClass::index`]).
    pub classes: [ClassOracle; 2],
}

impl TraceOracle {
    /// The sound upper bound on the simulator's max-live count for
    /// `class`: initial mappings plus every possible allocation. `slack`
    /// is the simulator's count of inserted-but-never-committed
    /// instructions (wrong-path and end-of-run in-flight), each of which
    /// can hold at most one extra register of the class.
    pub fn upper_bound(&self, class: RegClass, phys_regs: usize, slack: u64) -> usize {
        phys_regs.min(31 + (self.classes[class.index()].defs + slack) as usize)
    }
}

/// One def (write) of a virtual register, including the 31 initial
/// architectural mappings per class (`pos == -1`).
#[derive(Debug, Clone, Copy)]
struct Def {
    pos: i64,
    last_use: i64,
    next_def: i64,
    next_def_id: Option<usize>,
    uses: u32,
    /// Ideal-schedule times: insert (rename), operands-ready (issue),
    /// and completion of the writing instruction.
    rename_at: u64,
    issue_at: u64,
    finish_at: u64,
    /// Latest completion among the def's readers.
    reader_finish: u64,
}

impl Def {
    fn initial() -> Self {
        Def {
            pos: -1,
            last_use: -1,
            next_def: -1,
            next_def_id: None,
            uses: 0,
            rename_at: 0,
            issue_at: 0,
            finish_at: 0,
            reader_finish: 0,
        }
    }
}

/// Statically analyses a trace prefix. `insert_bw` is the machine's
/// per-cycle insert bandwidth (`1.5 x width` in the paper), which paces
/// the ideal schedule's rename times.
pub fn analyze(insts: &[Instruction], insert_bw: usize) -> TraceOracle {
    let n = insts.len();
    let s = schedule(insts, insert_bw);
    let classes = [RegClass::Int, RegClass::Fp]
        .map(|class| summarize(&s.defs[class.index()], n, s.ideal_cycles));
    TraceOracle {
        instructions: n as u64,
        loads: s.loads,
        stores: s.stores,
        branches: s.branches,
        ideal_cycles: s.ideal_cycles,
        classes,
    }
}

/// A trace prefix's defs under the ideal schedule, before summarizing.
struct Schedule {
    /// Per-class def lists; ids 0..31 are the initial mappings.
    defs: [Vec<Def>; 2],
    loads: u64,
    stores: u64,
    branches: u64,
    ideal_cycles: u64,
}

fn schedule(insts: &[Instruction], insert_bw: usize) -> Schedule {
    let ibw = insert_bw.max(1) as u64;
    let mut defs: [Vec<Def>; 2] = [
        (0..31).map(|_| Def::initial()).collect(),
        (0..31).map(|_| Def::initial()).collect(),
    ];
    // Current def id of each virtual register.
    let mut cur: [[usize; 31]; 2] = [std::array::from_fn(|v| v), std::array::from_fn(|v| v)];
    let mut store_finish: HashMap<u64, u64, U64HashBuilder> = HashMap::default();
    let (mut loads, mut stores, mut branches) = (0u64, 0u64, 0u64);
    let mut ideal_cycles = 0u64;

    for (i, inst) in insts.iter().enumerate() {
        match inst.kind() {
            OpKind::Load => loads += 1,
            OpKind::Store => stores += 1,
            OpKind::CondBranch => branches += 1,
            _ => {}
        }
        let rename_at = i as u64 / ibw;
        let mut ready = rename_at;
        // Sources first: an instruction reading and writing the same
        // virtual register reads the old def.
        for src in inst.renameable_srcs() {
            let ci = src.class().index();
            let d = cur[ci][src.index() as usize];
            ready = ready.max(defs[ci][d].finish_at);
        }
        if inst.kind() == OpKind::Load {
            if let Some(m) = inst.mem() {
                if let Some(&f) = store_finish.get(&m.addr()) {
                    ready = ready.max(f);
                }
            }
        }
        let finish = ready + u64::from(inst.kind().latency());
        for src in inst.renameable_srcs() {
            let ci = src.class().index();
            let d = cur[ci][src.index() as usize];
            let def = &mut defs[ci][d];
            def.last_use = i as i64;
            def.uses += 1;
            def.reader_finish = def.reader_finish.max(finish);
        }
        if let Some(dest) = inst.dest() {
            let ci = dest.class().index();
            let v = dest.index() as usize;
            let old = cur[ci][v];
            let new_id = defs[ci].len();
            defs[ci][old].next_def = i as i64;
            defs[ci][old].next_def_id = Some(new_id);
            defs[ci].push(Def {
                pos: i as i64,
                last_use: -1,
                next_def: -1,
                next_def_id: None,
                uses: 0,
                rename_at,
                issue_at: ready,
                finish_at: finish,
                reader_finish: 0,
            });
            cur[ci][v] = new_id;
        }
        if inst.kind() == OpKind::Store {
            if let Some(m) = inst.mem() {
                store_finish.insert(m.addr(), finish);
            }
        }
        ideal_cycles = ideal_cycles.max(finish);
    }
    Schedule { defs, loads, stores, branches, ideal_cycles }
}

fn summarize(defs: &[Def], n: usize, ideal_cycles: u64) -> ClassOracle {
    let trace_defs = (defs.len() - 31) as u64;
    let mut uses = 0u64;
    let mut dead = 0u64;
    let mut span_sum = 0u64;
    let mut span_count = 0u64;

    // Sound floor: sweep interval overlap over trace positions.
    let mut delta = vec![0i64; n + 1];
    // Per-category durations of the ideal schedule's lifetimes.
    let mut cat_sums = [0u64; 3];

    for d in defs {
        uses += u64::from(d.uses);
        if d.next_def >= 0 && d.uses == 0 && d.pos >= 0 {
            dead += 1;
        }
        if d.uses > 0 && d.pos >= 0 {
            span_sum += (d.last_use - d.pos) as u64;
            span_count += 1;
        }
        // Floor interval in trace-position space.
        let start = d.pos.max(0);
        let end = if d.next_def < 0 {
            n as i64 - 1
        } else if d.last_use == d.next_def {
            // The redefining instruction reads the old value: the old
            // def is still allocated when it inserts.
            d.next_def
        } else {
            d.next_def - 1
        };
        if end >= start && n > 0 {
            delta[start as usize] += 1;
            delta[end as usize + 1] -= 1;
        }
        let free_at = free_at(defs, d, ideal_cycles);
        cat_sums[0] += d.issue_at - d.rename_at;
        cat_sums[1] += d.finish_at - d.issue_at;
        cat_sums[2] += free_at - d.finish_at;
    }

    let mut floor = 0i64;
    let mut acc = 0i64;
    for d in &delta {
        acc += d;
        floor = floor.max(acc);
    }
    let floor = (floor.max(0) as usize).max(31);

    let cycles = ideal_cycles.max(1) as f64;
    ClassOracle {
        defs: trace_defs,
        uses,
        dead_defs: dead,
        floor,
        ideal_demand: ideal_demand(defs, ideal_cycles),
        ideal_cat_means: cat_sums.map(|s| s as f64 / cycles),
        mean_def_use_span: if span_count > 0 {
            span_sum as f64 / span_count as f64
        } else {
            0.0
        },
    }
}

/// The cycle the ideal schedule frees `d`: the later of the killing
/// writer's completion, the last reader's completion, and the def's own
/// completion (the imprecise freeing conditions). A def never killed
/// lives to the end of the schedule. At most `ideal_cycles`.
fn free_at(defs: &[Def], d: &Def, ideal_cycles: u64) -> u64 {
    let kill = d.next_def_id.map_or(ideal_cycles, |id| defs[id].finish_at);
    kill.max(d.reader_finish).max(d.finish_at)
}

/// Peak register demand of the ideal schedule: the max overlap of the
/// defs' `[rename_at, free_at]` lifetimes. Every lifetime starts by
/// `ideal_cycles` and ends by `ideal_cycles + 1`, so a counting sweep
/// over those cycles finds the peak without sorting any events.
fn ideal_demand(defs: &[Def], ideal_cycles: u64) -> usize {
    let mut delta = vec![0i32; ideal_cycles as usize + 2];
    for d in defs {
        delta[d.rename_at as usize] += 1;
        delta[free_at(defs, d, ideal_cycles) as usize + 1] -= 1;
    }
    let mut peak = 0i32;
    let mut acc = 0i32;
    for d in delta {
        acc += d;
        peak = peak.max(acc);
    }
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rf_isa::ArchReg;

    /// The sort-based event sweep that [`ideal_demand`] replaced, kept
    /// as its reference: a rename and a free event per def, sorted so
    /// frees run before renames in the same cycle.
    fn ideal_demand_by_sort(defs: &[Def], ideal_cycles: u64) -> usize {
        let mut events: Vec<(u64, i64)> = Vec::with_capacity(defs.len() * 2);
        for d in defs {
            events.push((d.rename_at, 1));
            events.push((free_at(defs, d, ideal_cycles) + 1, -1));
        }
        events.sort_unstable();
        let mut demand = 0i64;
        let mut acc = 0i64;
        for (_, d) in events {
            acc += d;
            demand = demand.max(acc);
        }
        demand.max(0) as usize
    }

    /// One instruction of a random trace: every op kind, any register
    /// (the zero register included; `a` and `b` below 32 pick an int
    /// register, from 32 an fp one), and a few shared addresses so
    /// loads wait on earlier stores.
    fn random_inst((op, dest, a, b, addr): (u8, u8, u8, u8, u64)) -> Instruction {
        let reg = |r: u8| {
            let class = if r < 32 { RegClass::Int } else { RegClass::Fp };
            ArchReg::new(class, r % 32)
        };
        let (int, fp) = (ArchReg::int(dest), ArchReg::fp(dest));
        let base = ArchReg::int(a % 32);
        match op {
            0 => Instruction::int_alu(int, [Some(base), Some(ArchReg::int(b % 32))]),
            1 => Instruction::int_mul(int, [Some(base), Some(ArchReg::int(b % 32))]),
            2 => Instruction::fp_op(fp, [Some(reg(a)), Some(reg(b))]),
            3 => Instruction::fp_div(fp, [Some(reg(a)), None], b < 32),
            4 => Instruction::load(if b < 32 { int } else { fp }, base, addr * 8),
            5 => Instruction::store(reg(b), base, addr * 8),
            6 => Instruction::cond_branch(addr * 4, b < 32, Some(reg(a))),
            _ => Instruction::jump(Some(int), Some(reg(a))),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The counting sweep finds the same peak demand as the sorted
        /// event sweep, for both classes of any trace and bandwidth.
        fn counting_sweep_matches_the_sorted_sweep(
            insts in prop::collection::vec(
                (0u8..8, 0u8..32, 0u8..64, 0u8..64, 0u64..6).prop_map(random_inst),
                0..400,
            ),
            insert_bw in 1usize..13,
        ) {
            let s = schedule(&insts, insert_bw);
            for defs in &s.defs {
                prop_assert_eq!(
                    ideal_demand(defs, s.ideal_cycles),
                    ideal_demand_by_sort(defs, s.ideal_cycles)
                );
            }
        }
    }

    fn alu(dest: u8, srcs: [Option<ArchReg>; 2]) -> Instruction {
        Instruction::int_alu(ArchReg::int(dest), srcs)
    }

    #[test]
    fn empty_trace_floor_is_the_architectural_state() {
        let o = analyze(&[], 6);
        for c in &o.classes {
            assert_eq!(c.floor, 31);
            assert_eq!(c.defs, 0);
        }
    }

    #[test]
    fn read_own_dest_raises_floor_to_32() {
        // r1 = r1 + r2 repeatedly: at every redefine position the old
        // def is still read, so 31 chains + 1 overlap.
        let insts: Vec<_> = (0..50)
            .map(|_| alu(1, [Some(ArchReg::int(1)), Some(ArchReg::int(2))]))
            .collect();
        let o = analyze(&insts, 6);
        assert_eq!(o.classes[RegClass::Int.index()].floor, 32);
        assert_eq!(o.classes[RegClass::Int.index()].defs, 50);
    }

    #[test]
    fn overwrites_without_reads_keep_floor_at_31() {
        // r1 = r2 repeatedly: the displaced def is dead at the moment of
        // redefinition.
        let insts: Vec<_> = (0..50).map(|_| alu(1, [Some(ArchReg::int(2)), None])).collect();
        let o = analyze(&insts, 6);
        let c = &o.classes[RegClass::Int.index()];
        assert_eq!(c.floor, 31);
        assert_eq!(c.dead_defs, 49, "all but the final def are overwritten unread");
    }

    #[test]
    fn def_use_chains_count_uses() {
        let insts = vec![
            alu(1, [Some(ArchReg::int(2)), None]),
            alu(3, [Some(ArchReg::int(1)), Some(ArchReg::int(1))]),
        ];
        let o = analyze(&insts, 6);
        let c = &o.classes[RegClass::Int.index()];
        assert_eq!(c.defs, 2);
        // r2 once, r1 twice.
        assert_eq!(c.uses, 3);
        assert!((c.mean_def_use_span - 1.0).abs() < 1e-9, "def at 0, last use at 1");
    }

    #[test]
    fn ideal_demand_is_at_least_the_floor_shape() {
        // A serial dependency chain holds many registers live under the
        // ideal schedule: demand far exceeds the floor.
        let insts: Vec<_> = (0..100)
            .map(|i| alu((i % 31) as u8, [Some(ArchReg::int(((i + 30) % 31) as u8)), None]))
            .collect();
        let o = analyze(&insts, 6);
        let c = &o.classes[RegClass::Int.index()];
        assert!(c.ideal_demand >= c.floor - 31, "{} vs {}", c.ideal_demand, c.floor);
        assert!(o.ideal_cycles >= 100, "serial chain of unit latencies");
    }

    #[test]
    fn instruction_kind_counts() {
        let insts = vec![
            Instruction::load(ArchReg::int(1), ArchReg::int(2), 0x100),
            Instruction::store(ArchReg::int(1), ArchReg::int(2), 0x100),
            Instruction::cond_branch(0x40, true, Some(ArchReg::int(1))),
        ];
        let o = analyze(&insts, 6);
        assert_eq!((o.loads, o.stores, o.branches), (1, 1, 1));
        assert_eq!(o.instructions, 3);
    }
}
