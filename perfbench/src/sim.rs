//! Simulated-side totals of one horizon, read from the public counters of
//! the kernel, the machine and the PL, and the digest that proves two runs
//! simulated exactly the same thing.

use mini_nova::native::NativeHarness;
use mini_nova::stats::{HwMgrStats, KernelStats};
use mini_nova::Kernel;
use mnv_arm::machine::Machine;
use mnv_arm::PmuInputs;
use mnv_hal::abi::HYPERCALL_COUNT;

/// FNV-1a over 64-bit words.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01B3);
        }
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Counters summed over every machine a horizon ran.
#[derive(Clone, Debug, Default)]
pub struct SimTotals {
    pub pmu: PmuInputs,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub bc_hits: u64,
    pub bc_misses: u64,
    pub bc_chain_follows: u64,
    pub bc_replayed: u64,
    pub bc_batched: u64,
    pub bc_superblocks: u64,
    pub bc_fused_segs: u64,
    pub bc_evictions: u64,
    pub bc_invalidations: u64,
    pub vm_switches: u64,
    pub virqs_injected: u64,
    pub hypercalls: [u64; HYPERCALL_COUNT],
    pub hypercalls_total: u64,
    pub hypercalls_denied: u64,
    pub hypercalls_invalid: u64,
    pub vms_killed: u64,
    pub pcap_transfers: u64,
    /// Hardware Task Manager statistics of the measured windows.
    pub hwmgr: HwMgrStats,
}

impl SimTotals {
    fn add_machine(&mut self, m: &Machine) {
        self.pmu.accumulate(&m.pmu_inputs());
        let l2 = m.caches.l2.stats();
        self.l2_hits += l2.hits;
        self.l2_misses += l2.misses;
        let b = &m.bcache.stats;
        self.bc_hits += b.hits;
        self.bc_misses += b.misses;
        self.bc_chain_follows += b.chain_follows;
        self.bc_replayed += b.replayed_instrs;
        self.bc_batched += b.batched_instrs;
        self.bc_superblocks += b.superblocks;
        self.bc_fused_segs += b.fused_segs;
        self.bc_evictions += b.evictions;
        self.bc_invalidations += b.store_invalidations + b.maint_invalidations;
    }

    fn add_stats(&mut self, s: &KernelStats) {
        self.vm_switches += s.vm_switches;
        self.virqs_injected += s.virqs_injected;
        for (a, b) in self.hypercalls.iter_mut().zip(s.hypercalls.iter()) {
            *a += b;
        }
        self.hypercalls_total += s.hypercalls_total;
        self.hypercalls_denied += s.hypercalls_denied;
        self.hypercalls_invalid += s.hypercalls_invalid;
        self.vms_killed += s.vms_killed;
        self.hwmgr.merge(&s.hwmgr);
    }

    pub fn add_kernel(&mut self, k: &Kernel) {
        self.add_machine(&k.machine);
        self.add_stats(&k.state.stats);
        self.pcap_transfers += k.pl().pcap_transfers();
    }

    pub fn add_native(&mut self, h: &NativeHarness) {
        self.add_machine(&h.machine);
        self.add_stats(&h.stats);
        self.pcap_transfers += h
            .machine
            .peripheral::<mnv_fpga::pl::Pl>()
            .expect("PL attached")
            .pcap_transfers();
    }

    /// Fold every counter into `d`.
    pub fn fold(&self, d: &mut Digest) {
        let p = &self.pmu;
        for v in [
            p.cycles,
            p.instr_retired,
            p.l1i_access,
            p.l1i_refill,
            p.l1d_access,
            p.l1d_refill,
            p.tlb_refill,
            p.pt_walks,
            p.exc_taken,
            self.l2_hits,
            self.l2_misses,
            self.bc_hits,
            self.bc_misses,
            self.bc_chain_follows,
            self.bc_replayed,
            self.bc_batched,
            self.bc_superblocks,
            self.bc_fused_segs,
            self.bc_evictions,
            self.bc_invalidations,
            self.vm_switches,
            self.virqs_injected,
            self.hypercalls_total,
            self.hypercalls_denied,
            self.hypercalls_invalid,
            self.vms_killed,
            self.pcap_transfers,
        ] {
            d.u64(v);
        }
        for v in self.hypercalls {
            d.u64(v);
        }
        let h = &self.hwmgr;
        for a in [&h.entry, &h.exit, &h.exec, &h.irq_entry, &h.total] {
            d.u64(a.total).u64(a.samples).u64(a.max).u64(a.min);
        }
        for v in [
            h.invocations,
            h.busy,
            h.reconfigs,
            h.reclaims,
            h.ring_kicks,
            h.ring_descs,
            h.ring_virqs,
        ] {
            d.u64(v);
        }
    }

    /// Simulated cycles per retired instruction.
    pub fn cpi(&self) -> f64 {
        self.pmu.cycles as f64 / self.pmu.instr_retired.max(1) as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
