//! Cortex-A9 performance monitoring unit (CP15 c9 register group).
//!
//! The A9 PMU is a cycle counter plus six configurable event counters,
//! programmed through PMCR / PMCNTENSET / PMCNTENCLR / PMSELR /
//! PMXEVTYPER / PMXEVCNTR and gated towards user mode by PMUSERENR. This
//! model keeps the architectural register interface intact while sourcing
//! the counted events from the machine's *real* timing models: the cache
//! hierarchy's hit/miss statistics, the main-TLB refill count, the table
//! walker, the exception machinery and the retired-instruction count.
//!
//! Counting is **delta-sampled** rather than probed per event: the
//! simulator's underlying statistics are already cumulative, so the PMU
//! only has to diff them against a baseline ([`Pmu::sync`]) whenever its
//! registers are observed or the kernel switches worlds. The hot paths
//! carry no PMU code at all, not even the one-branch probe the trace and
//! fault planes pay when disabled, because real guests may program the
//! PMU at any time.
//!
//! Virtualization: the whole architectural state ([`PmuState`]) is small
//! and `Copy`, so the kernel saves/restores it per vCPU across world
//! switches and each VM observes only its own events ([`Pmu::save_state`]
//! / [`Pmu::load_state`] rebase the sampling baseline so foreign epochs
//! are never attributed).

/// Number of configurable event counters (Cortex-A9: six, plus PMCCNTR).
pub const NUM_COUNTERS: usize = 6;

/// ARMv7 common-event numbers implemented by this model (the subset the
/// simulator generates real data for).
pub mod event {
    /// Software increment (write-to-count, always available).
    pub const SW_INCR: u32 = 0x00;
    /// L1 instruction-cache refill.
    pub const L1I_CACHE_REFILL: u32 = 0x01;
    /// L1 data-cache refill.
    pub const L1D_CACHE_REFILL: u32 = 0x03;
    /// L1 data-cache access.
    pub const L1D_CACHE_ACCESS: u32 = 0x04;
    /// Main-TLB refill (the A9's unified main TLB; architecturally the
    /// data-TLB refill event).
    pub const TLB_REFILL: u32 = 0x05;
    /// Architecturally executed instruction.
    pub const INST_RETIRED: u32 = 0x08;
    /// Exception taken.
    pub const EXC_TAKEN: u32 = 0x09;
    /// Cycle count (event-counter alias of PMCCNTR).
    pub const CPU_CYCLES: u32 = 0x11;
    /// L1 instruction-cache access.
    pub const L1I_CACHE_ACCESS: u32 = 0x14;
    /// Hardware page-table walk (A9 implementation-defined event).
    pub const PT_WALK: u32 = 0x52;
}

/// PMCR control bits.
pub mod pmcr {
    /// Enable all counters.
    pub const E: u32 = 1 << 0;
    /// Event-counter reset (write-only pulse).
    pub const P: u32 = 1 << 1;
    /// Cycle-counter reset (write-only pulse).
    pub const C: u32 = 1 << 2;
    /// Reads report the number of event counters in \[15:11\].
    pub const N_SHIFT: u32 = 11;
}

/// PMCNTENSET/CLR and PMOVSR bit for the cycle counter.
pub const CCNT_BIT: u32 = 1 << 31;

/// The registers addressable through the c9 group (MRC/MCR operands).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PmuReg {
    /// Control register.
    Pmcr,
    /// Counter-enable set (reads return the enable mask).
    Pmcntenset,
    /// Counter-enable clear (reads return the enable mask).
    Pmcntenclr,
    /// Event-counter selector.
    Pmselr,
    /// Event type of the selected counter.
    Pmxevtyper,
    /// Value of the selected counter.
    Pmxevcntr,
    /// Cycle counter.
    Pmccntr,
    /// Overflow flag status (write-one-to-clear).
    Pmovsr,
    /// User-enable: bit 0 opens PL0 access to the other registers.
    Pmuserenr,
}

/// Cumulative raw event totals sampled from the machine. The PMU (and the
/// kernel's per-VM accounting) work exclusively in deltas of this struct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PmuInputs {
    /// Simulated CPU cycles.
    pub cycles: u64,
    /// Retired MIR instructions.
    pub instr_retired: u64,
    /// L1I accesses.
    pub l1i_access: u64,
    /// L1I refills (misses).
    pub l1i_refill: u64,
    /// L1D accesses.
    pub l1d_access: u64,
    /// L1D refills (misses).
    pub l1d_refill: u64,
    /// Main-TLB refills (misses).
    pub tlb_refill: u64,
    /// Hardware page-table walks.
    pub pt_walks: u64,
    /// Exceptions taken.
    pub exc_taken: u64,
}

impl PmuInputs {
    /// Pointwise saturating difference `self - earlier`.
    pub fn delta(&self, earlier: &PmuInputs) -> PmuInputs {
        PmuInputs {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            instr_retired: self.instr_retired.saturating_sub(earlier.instr_retired),
            l1i_access: self.l1i_access.saturating_sub(earlier.l1i_access),
            l1i_refill: self.l1i_refill.saturating_sub(earlier.l1i_refill),
            l1d_access: self.l1d_access.saturating_sub(earlier.l1d_access),
            l1d_refill: self.l1d_refill.saturating_sub(earlier.l1d_refill),
            tlb_refill: self.tlb_refill.saturating_sub(earlier.tlb_refill),
            pt_walks: self.pt_walks.saturating_sub(earlier.pt_walks),
            exc_taken: self.exc_taken.saturating_sub(earlier.exc_taken),
        }
    }

    /// Pointwise accumulate.
    pub fn accumulate(&mut self, d: &PmuInputs) {
        self.cycles += d.cycles;
        self.instr_retired += d.instr_retired;
        self.l1i_access += d.l1i_access;
        self.l1i_refill += d.l1i_refill;
        self.l1d_access += d.l1d_access;
        self.l1d_refill += d.l1d_refill;
        self.tlb_refill += d.tlb_refill;
        self.pt_walks += d.pt_walks;
        self.exc_taken += d.exc_taken;
    }

    /// The delta of one architectural event number (`None` for events this
    /// model does not generate).
    pub fn of_event(&self, ev: u32) -> Option<u64> {
        Some(match ev {
            event::L1I_CACHE_REFILL => self.l1i_refill,
            event::L1D_CACHE_REFILL => self.l1d_refill,
            event::L1D_CACHE_ACCESS => self.l1d_access,
            event::TLB_REFILL => self.tlb_refill,
            event::INST_RETIRED => self.instr_retired,
            event::EXC_TAKEN => self.exc_taken,
            event::CPU_CYCLES => self.cycles,
            event::L1I_CACHE_ACCESS => self.l1i_access,
            event::PT_WALK => self.pt_walks,
            _ => return None,
        })
    }
}

/// The architectural (per-VM, save/restorable) register state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PmuState {
    /// PMCR (only bit E is sticky; P/C are pulses).
    pub pmcr: u32,
    /// Counter-enable mask (bit 31 = cycle counter, bits 0..6 = events).
    pub pmcnten: u32,
    /// Selected event counter (0..6).
    pub pmselr: u32,
    /// Overflow flags (same bit layout as the enable mask).
    pub pmovsr: u32,
    /// User-enable register (bit 0).
    pub pmuserenr: u32,
    /// Cycle counter (32-bit on the A9).
    pub pmccntr: u32,
    /// Programmed event numbers.
    pub evtyper: [u32; NUM_COUNTERS],
    /// Event-counter values.
    pub evcntr: [u32; NUM_COUNTERS],
}

/// The live PMU: architectural state plus the sampling baseline.
#[derive(Clone, Debug, Default)]
pub struct Pmu {
    /// Architectural registers.
    pub state: PmuState,
    /// Raw totals at the last sync; only deltas beyond this point count.
    base: PmuInputs,
}

impl Pmu {
    /// Fold the events since the last sync into the enabled counters.
    /// Must be called with fresh machine totals before any counter value
    /// is observed and at world-switch boundaries.
    pub fn sync(&mut self, now: PmuInputs) {
        let d = now.delta(&self.base);
        self.base = now;
        let s = &mut self.state;
        if s.pmcr & pmcr::E == 0 {
            return;
        }
        if s.pmcnten & CCNT_BIT != 0 {
            let (v, wrapped) = s.pmccntr.overflowing_add(d.cycles as u32);
            s.pmccntr = v;
            if wrapped || d.cycles > u32::MAX as u64 {
                s.pmovsr |= CCNT_BIT;
            }
        }
        for i in 0..NUM_COUNTERS {
            if s.pmcnten & (1 << i) == 0 {
                continue;
            }
            let Some(count) = d.of_event(s.evtyper[i]) else {
                continue;
            };
            let (v, wrapped) = s.evcntr[i].overflowing_add(count as u32);
            s.evcntr[i] = v;
            if wrapped || count > u32::MAX as u64 {
                s.pmovsr |= 1 << i;
            }
        }
    }

    /// Move the sampling baseline to `now` without counting the gap — used
    /// when restoring a VM's PMU so epochs run by other worlds are never
    /// attributed to it.
    pub fn rebase(&mut self, now: PmuInputs) {
        self.base = now;
    }

    /// Sync, then hand out the architectural state for a world switch.
    pub fn save_state(&mut self, now: PmuInputs) -> PmuState {
        self.sync(now);
        self.state
    }

    /// Install a saved architectural state and rebase at `now`.
    pub fn load_state(&mut self, state: PmuState, now: PmuInputs) {
        self.state = state;
        self.rebase(now);
    }

    /// True when PL0 may access the counter registers (`PMUSERENR.EN`).
    pub fn pl0_allowed(&self, reg: PmuReg) -> bool {
        // PMUSERENR itself is always readable from PL0 (writes stay PL1).
        reg == PmuReg::Pmuserenr || self.state.pmuserenr & 1 != 0
    }

    /// Architectural read. `now` carries fresh machine totals so counter
    /// values are exact at the read point.
    pub fn read(&mut self, reg: PmuReg, now: PmuInputs) -> u32 {
        self.sync(now);
        let s = &self.state;
        match reg {
            PmuReg::Pmcr => (s.pmcr & pmcr::E) | ((NUM_COUNTERS as u32) << pmcr::N_SHIFT),
            PmuReg::Pmcntenset | PmuReg::Pmcntenclr => s.pmcnten,
            PmuReg::Pmselr => s.pmselr,
            PmuReg::Pmxevtyper => s.evtyper[s.pmselr as usize % NUM_COUNTERS],
            PmuReg::Pmxevcntr => s.evcntr[s.pmselr as usize % NUM_COUNTERS],
            PmuReg::Pmccntr => s.pmccntr,
            PmuReg::Pmovsr => s.pmovsr,
            PmuReg::Pmuserenr => s.pmuserenr,
        }
    }

    /// Architectural write.
    pub fn write(&mut self, reg: PmuReg, val: u32, now: PmuInputs) {
        // Bring counters up to date under the *old* configuration first.
        self.sync(now);
        let s = &mut self.state;
        match reg {
            PmuReg::Pmcr => {
                s.pmcr = val & pmcr::E;
                if val & pmcr::P != 0 {
                    s.evcntr = [0; NUM_COUNTERS];
                }
                if val & pmcr::C != 0 {
                    s.pmccntr = 0;
                }
            }
            PmuReg::Pmcntenset => s.pmcnten |= val & (CCNT_BIT | 0x3F),
            PmuReg::Pmcntenclr => s.pmcnten &= !val,
            PmuReg::Pmselr => s.pmselr = val & 0x1F,
            PmuReg::Pmxevtyper => s.evtyper[s.pmselr as usize % NUM_COUNTERS] = val & 0xFF,
            PmuReg::Pmxevcntr => s.evcntr[s.pmselr as usize % NUM_COUNTERS] = val,
            PmuReg::Pmccntr => s.pmccntr = val,
            PmuReg::Pmovsr => s.pmovsr &= !val, // write-one-to-clear
            PmuReg::Pmuserenr => s.pmuserenr = val & 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(cycles: u64, d_refill: u64) -> PmuInputs {
        PmuInputs {
            cycles,
            l1d_refill: d_refill,
            ..Default::default()
        }
    }

    fn armed_pmu() -> Pmu {
        let mut p = Pmu::default();
        let t0 = PmuInputs::default();
        p.write(PmuReg::Pmselr, 0, t0);
        p.write(PmuReg::Pmxevtyper, event::L1D_CACHE_REFILL, t0);
        p.write(PmuReg::Pmcntenset, CCNT_BIT | 1, t0);
        p.write(PmuReg::Pmcr, pmcr::E, t0);
        p
    }

    #[test]
    fn counts_only_while_enabled() {
        let mut p = armed_pmu();
        p.sync(inputs(100, 3));
        assert_eq!(p.read(PmuReg::Pmccntr, inputs(100, 3)), 100);
        assert_eq!(p.read(PmuReg::Pmxevcntr, inputs(100, 3)), 3);
        // Disable: further deltas are dropped, not deferred.
        p.write(PmuReg::Pmcr, 0, inputs(100, 3));
        assert_eq!(p.read(PmuReg::Pmccntr, inputs(900, 9)), 100);
        // Re-enable: counting resumes from the new baseline.
        p.write(PmuReg::Pmcr, pmcr::E, inputs(900, 9));
        assert_eq!(p.read(PmuReg::Pmccntr, inputs(950, 9)), 150);
    }

    #[test]
    fn counter_reset_pulses() {
        let mut p = armed_pmu();
        p.sync(inputs(500, 7));
        p.write(PmuReg::Pmcr, pmcr::E | pmcr::C, inputs(500, 7));
        assert_eq!(p.read(PmuReg::Pmccntr, inputs(500, 7)), 0);
        assert_eq!(p.read(PmuReg::Pmxevcntr, inputs(500, 7)), 7);
        p.write(PmuReg::Pmcr, pmcr::E | pmcr::P, inputs(500, 7));
        assert_eq!(p.read(PmuReg::Pmxevcntr, inputs(500, 7)), 0);
    }

    #[test]
    fn overflow_sets_flag_and_wraps() {
        let mut p = armed_pmu();
        p.write(PmuReg::Pmccntr, u32::MAX - 10, PmuInputs::default());
        p.sync(inputs(100, 0));
        assert_eq!(p.state.pmccntr, 89);
        assert_ne!(p.state.pmovsr & CCNT_BIT, 0, "cycle overflow flag");
        // Write-one-to-clear.
        p.write(PmuReg::Pmovsr, CCNT_BIT, inputs(100, 0));
        assert_eq!(p.state.pmovsr & CCNT_BIT, 0);
    }

    #[test]
    fn save_load_round_trip_rebases() {
        let mut p = armed_pmu();
        let saved = p.save_state(inputs(100, 2));
        assert_eq!(saved.pmccntr, 100);
        // Another world runs for 900 cycles...
        p.load_state(PmuState::default(), inputs(100, 2));
        p.sync(inputs(1000, 50));
        // ...then the first world comes back: its counters must not see it.
        p.load_state(saved, inputs(1000, 50));
        assert_eq!(p.read(PmuReg::Pmccntr, inputs(1040, 51)), 140);
        assert_eq!(p.read(PmuReg::Pmxevcntr, inputs(1040, 51)), 3);
    }

    #[test]
    fn pl0_gating_follows_pmuserenr() {
        let mut p = Pmu::default();
        assert!(!p.pl0_allowed(PmuReg::Pmccntr));
        assert!(p.pl0_allowed(PmuReg::Pmuserenr), "PMUSERENR reads at PL0");
        p.write(PmuReg::Pmuserenr, 1, PmuInputs::default());
        assert!(p.pl0_allowed(PmuReg::Pmccntr));
        assert!(p.pl0_allowed(PmuReg::Pmxevcntr));
    }

    #[test]
    fn pmcr_reads_report_six_counters() {
        let mut p = Pmu::default();
        let n = (p.read(PmuReg::Pmcr, PmuInputs::default()) >> pmcr::N_SHIFT) & 0x1F;
        assert_eq!(n, 6);
    }

    #[test]
    fn unknown_event_counts_nothing() {
        let mut p = Pmu::default();
        let t0 = PmuInputs::default();
        p.write(PmuReg::Pmxevtyper, 0x7F, t0);
        p.write(PmuReg::Pmcntenset, 1, t0);
        p.write(PmuReg::Pmcr, pmcr::E, t0);
        p.sync(inputs(100, 5));
        assert_eq!(p.state.evcntr[0], 0);
    }

    #[test]
    fn event_selection_covers_the_implemented_map() {
        let d = PmuInputs {
            cycles: 1,
            instr_retired: 2,
            l1i_access: 3,
            l1i_refill: 4,
            l1d_access: 5,
            l1d_refill: 6,
            tlb_refill: 7,
            pt_walks: 8,
            exc_taken: 9,
        };
        assert_eq!(d.of_event(event::CPU_CYCLES), Some(1));
        assert_eq!(d.of_event(event::INST_RETIRED), Some(2));
        assert_eq!(d.of_event(event::L1I_CACHE_ACCESS), Some(3));
        assert_eq!(d.of_event(event::L1I_CACHE_REFILL), Some(4));
        assert_eq!(d.of_event(event::L1D_CACHE_ACCESS), Some(5));
        assert_eq!(d.of_event(event::L1D_CACHE_REFILL), Some(6));
        assert_eq!(d.of_event(event::TLB_REFILL), Some(7));
        assert_eq!(d.of_event(event::PT_WALK), Some(8));
        assert_eq!(d.of_event(event::EXC_TAKEN), Some(9));
        assert_eq!(d.of_event(0x42), None);
    }

    #[test]
    fn delta_and_accumulate_are_inverse() {
        let a = PmuInputs {
            cycles: 10,
            tlb_refill: 3,
            ..Default::default()
        };
        let mut b = a;
        let d = PmuInputs {
            cycles: 5,
            tlb_refill: 2,
            ..Default::default()
        };
        b.accumulate(&d);
        assert_eq!(b.delta(&a), d);
    }
}
