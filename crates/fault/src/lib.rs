//! # mnv-fault — deterministic fault injection for the simulated substrate
//!
//! The reproduction's hardware models are exact: every PCAP transfer
//! succeeds, every bitstream is well-formed, no bus access ever errors.
//! Real Zynq silicon is not so kind, and the paper's safety story (the
//! hypervisor privilege boundary containing reconfiguration failures and
//! errant guests) is only testable if failures can actually happen. This
//! crate is the failure generator: a seeded, fully deterministic fault
//! plane the simulated hardware consults at well-defined injection sites.
//!
//! ## Determinism
//!
//! Every [`FaultSite`] draws from its **own** SplitMix64 stream, derived
//! from the plan seed mixed with the site index. Sites therefore do not
//! perturb each other: enabling AXI read errors does not change *when* the
//! PCAP stalls, and a run with the same seed and the same guest workload
//! replays the identical fault sequence. Each decision is recorded as a
//! [`FaultRecord`], so tests can assert replay identity directly.
//!
//! ## Cheap when disabled
//!
//! Mirrors `mnv-trace`: injection is switched at run time, and a disabled
//! plane is a single `None` check per probe.

#![warn(missing_docs)]

use mnv_hal::Cycles;
use std::cell::RefCell;
use std::rc::Rc;

/// Where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum FaultSite {
    /// A PCAP DMA transfer delivers a corrupted payload (one byte damaged
    /// in flight); caught by the bitstream payload CRC.
    PcapCorrupt = 0,
    /// The PCAP engine wedges mid-transfer and never completes; cleared
    /// only by a controller abort.
    PcapStall = 1,
    /// A PRR accepts a start command and then hangs forever (the
    /// reconfigurable region latched garbage state).
    PrrHang = 2,
    /// An AXI read of a PL register gets a bus error response (the
    /// interconnect's `0xFFFF_FFFF` DECERR pattern).
    AxiReadError = 3,
    /// An AXI write to a PL register is dropped on the interconnect.
    AxiWriteError = 4,
    /// A spurious PL interrupt fires with no completion behind it.
    IrqSpurious = 5,
    /// A burst of spurious PL interrupts (an interrupt storm).
    IrqStorm = 6,
    /// A single-bit flip in a configured physical-memory window.
    MemFlip = 7,
}

/// Number of distinct sites.
pub const SITE_COUNT: usize = 8;

impl FaultSite {
    /// All sites in index order.
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::PcapCorrupt,
        FaultSite::PcapStall,
        FaultSite::PrrHang,
        FaultSite::AxiReadError,
        FaultSite::AxiWriteError,
        FaultSite::IrqSpurious,
        FaultSite::IrqStorm,
        FaultSite::MemFlip,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::PcapCorrupt => "pcap-corrupt",
            FaultSite::PcapStall => "pcap-stall",
            FaultSite::PrrHang => "prr-hang",
            FaultSite::AxiReadError => "axi-read-err",
            FaultSite::AxiWriteError => "axi-write-err",
            FaultSite::IrqSpurious => "irq-spurious",
            FaultSite::IrqStorm => "irq-storm",
            FaultSite::MemFlip => "mem-flip",
        }
    }
}

/// Configuration of one event-probability site: each time the hardware
/// reaches the site it trips with probability `rate_ppm` / 1e6, at most
/// `max` times over the run (0 = site disabled).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteCfg {
    /// Trip probability in parts per million per opportunity.
    pub rate_ppm: u32,
    /// Cap on trips for the whole run (0 disables the site).
    pub max: u32,
}

impl SiteCfg {
    /// Disabled site.
    pub const OFF: SiteCfg = SiteCfg {
        rate_ppm: 0,
        max: 0,
    };

    /// Convenience constructor.
    pub const fn new(rate_ppm: u32, max: u32) -> Self {
        SiteCfg { rate_ppm, max }
    }
}

/// Configuration of one time-driven site: trips when simulated time crosses
/// a scheduled deadline, re-armed a pseudo-random 0.5–1.5× `period` cycles
/// later, at most `max` times (0 period or 0 max = disabled). Deadline
/// scheduling makes these sites robust to how often the hardware happens to
/// poll them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeriodCfg {
    /// Mean cycles between trips (0 disables the site).
    pub period: u64,
    /// Cap on trips for the whole run (0 disables the site).
    pub max: u32,
}

impl PeriodCfg {
    /// Disabled site.
    pub const OFF: PeriodCfg = PeriodCfg { period: 0, max: 0 };

    /// Convenience constructor.
    pub const fn new(period: u64, max: u32) -> Self {
        PeriodCfg { period, max }
    }
}

/// A complete, seeded fault schedule. The plan is plain data: building one
/// does not arm anything until it is handed to [`FaultPlane::armed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Master seed; every site stream derives from it.
    pub seed: u64,
    /// PCAP payload corruption (per transfer).
    pub pcap_corrupt: SiteCfg,
    /// PCAP engine stall (per transfer).
    pub pcap_stall: SiteCfg,
    /// PRR hang (per accelerator start).
    pub prr_hang: SiteCfg,
    /// AXI read bus error (per PL register read).
    pub axi_read: SiteCfg,
    /// AXI write dropped (per PL register write).
    pub axi_write: SiteCfg,
    /// Spurious PL interrupt (time-driven).
    pub irq_spurious: PeriodCfg,
    /// PL interrupt storm (time-driven; each trip is a burst).
    pub irq_storm: PeriodCfg,
    /// Single-bit memory flip (time-driven).
    pub mem_flip: PeriodCfg,
    /// Physical window `(base, len)` the memory flips land in. The default
    /// plans point it at the kernel's bitstream store, where flips are
    /// caught by the payload CRC.
    pub mem_flip_window: (u64, u64),
}

impl FaultPlan {
    /// Everything off (the seed still names the plan for reports).
    pub const fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            pcap_corrupt: SiteCfg::OFF,
            pcap_stall: SiteCfg::OFF,
            prr_hang: SiteCfg::OFF,
            axi_read: SiteCfg::OFF,
            axi_write: SiteCfg::OFF,
            irq_spurious: PeriodCfg::OFF,
            irq_storm: PeriodCfg::OFF,
            mem_flip: PeriodCfg::OFF,
            mem_flip_window: (0, 0),
        }
    }

    /// The chaos-soak preset: every fault class enabled at rates that make
    /// several classes fire inside a ~100 ms two-VM scenario while leaving
    /// the system able to make forward progress. `mem_flip_window` must be
    /// pointed at a real region by the embedder (the kernel uses its
    /// bitstream store).
    pub const fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            pcap_corrupt: SiteCfg::new(250_000, 2), // 25% of transfers, ≤2
            pcap_stall: SiteCfg::new(150_000, 1),   // 15% of transfers, ≤1
            prr_hang: SiteCfg::new(60_000, 1),      // 6% of starts, ≤1
            axi_read: SiteCfg::new(2_000, 3),       // rare register glitches
            axi_write: SiteCfg::new(2_000, 3),
            irq_spurious: PeriodCfg::new(8_000_000, 4), // ~12 ms apart
            irq_storm: PeriodCfg::new(30_000_000, 1),
            mem_flip: PeriodCfg::new(10_000_000, 3),
            mem_flip_window: (0, 0),
        }
    }
}

/// One injected fault, as recorded for replay verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Simulated time of the decision.
    pub at: Cycles,
    /// The site that tripped.
    pub site: FaultSite,
    /// Site-specific argument (corrupted byte offset, flipped address…).
    pub arg: u64,
}

struct SiteState {
    rng: u64,
    trips: u32,
    /// Next deadline for time-driven sites (`u64::MAX` = unarmed).
    due_at: u64,
}

struct PlaneState {
    plan: FaultPlan,
    sites: [SiteState; SITE_COUNT],
    records: Vec<FaultRecord>,
    /// Set by [`FaultPlane::disarm`]: every probe answers "no fault" from
    /// then on, but the plan, per-site streams and the record of what was
    /// already injected are preserved for replay assertions.
    disarmed: bool,
}

/// SplitMix64 step — the standard finalizer-based generator; small, fast,
/// and good enough for Bernoulli schedules.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl PlaneState {
    fn new(plan: FaultPlan) -> Self {
        let mk = |i: usize| {
            // Mix the site index through the generator once so streams with
            // nearby seeds do not correlate.
            let mut s = plan.seed ^ ((i as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
            let _ = splitmix64(&mut s);
            SiteState {
                rng: s,
                trips: 0,
                due_at: u64::MAX,
            }
        };
        PlaneState {
            plan,
            sites: [mk(0), mk(1), mk(2), mk(3), mk(4), mk(5), mk(6), mk(7)],
            records: Vec::new(),
            disarmed: false,
        }
    }

    fn site_cfg(&self, site: FaultSite) -> SiteCfg {
        match site {
            FaultSite::PcapCorrupt => self.plan.pcap_corrupt,
            FaultSite::PcapStall => self.plan.pcap_stall,
            FaultSite::PrrHang => self.plan.prr_hang,
            FaultSite::AxiReadError => self.plan.axi_read,
            FaultSite::AxiWriteError => self.plan.axi_write,
            _ => SiteCfg::OFF,
        }
    }

    fn period_cfg(&self, site: FaultSite) -> PeriodCfg {
        match site {
            FaultSite::IrqSpurious => self.plan.irq_spurious,
            FaultSite::IrqStorm => self.plan.irq_storm,
            FaultSite::MemFlip => self.plan.mem_flip,
            _ => PeriodCfg::OFF,
        }
    }

    fn trip(&mut self, site: FaultSite, now: Cycles, arg: u64) -> bool {
        if self.disarmed {
            return false;
        }
        let cfg = self.site_cfg(site);
        if cfg.rate_ppm == 0 || cfg.max == 0 {
            return false;
        }
        let st = &mut self.sites[site as usize];
        if st.trips >= cfg.max {
            return false;
        }
        let roll = splitmix64(&mut st.rng) % 1_000_000;
        if roll >= cfg.rate_ppm as u64 {
            return false;
        }
        st.trips += 1;
        self.records.push(FaultRecord { at: now, site, arg });
        true
    }

    fn due(&mut self, site: FaultSite, now: Cycles) -> bool {
        if self.disarmed {
            return false;
        }
        let cfg = self.period_cfg(site);
        if cfg.period == 0 || cfg.max == 0 {
            return false;
        }
        let st = &mut self.sites[site as usize];
        if st.trips >= cfg.max {
            return false;
        }
        if st.due_at == u64::MAX {
            // First arm: schedule the initial deadline.
            let jitter = splitmix64(&mut st.rng) % cfg.period.max(1);
            st.due_at = now.raw() + cfg.period / 2 + jitter;
            return false;
        }
        if now.raw() < st.due_at {
            return false;
        }
        st.trips += 1;
        let jitter = splitmix64(&mut st.rng) % cfg.period.max(1);
        st.due_at = now.raw() + cfg.period / 2 + jitter;
        self.records.push(FaultRecord {
            at: now,
            site,
            arg: 0,
        });
        true
    }

    fn pick(&mut self, site: FaultSite, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        splitmix64(&mut self.sites[site as usize].rng) % bound
    }
}

/// A handle to a (possibly shared, possibly absent) fault plane.
///
/// Cloning shares the underlying state — the machine, the PL model and the
/// kernel all consult one plane, which is what keeps the global fault
/// sequence consistent. The disabled handle is free to copy around and
/// free to probe.
#[derive(Clone, Default)]
pub struct FaultPlane {
    inner: Option<Rc<RefCell<PlaneState>>>,
}

impl FaultPlane {
    /// A plane that injects nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Arm a plane with `plan`.
    pub fn armed(plan: FaultPlan) -> Self {
        FaultPlane {
            inner: Some(Rc::new(RefCell::new(PlaneState::new(plan)))),
        }
    }

    /// True when faults can be injected.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Probe an event site: true when the fault fires for this opportunity.
    /// `arg` is recorded for replay comparison (byte offset, address…).
    #[inline]
    pub fn trip(&self, site: FaultSite, now: Cycles, arg: u64) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.borrow_mut().trip(site, now, arg))
    }

    /// Probe a time-driven site: true when its deadline has passed.
    #[inline]
    pub fn due(&self, site: FaultSite, now: Cycles) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.borrow_mut().due(site, now))
    }

    /// Draw a site-stream value in `0..bound` (0 when disabled or
    /// `bound == 0`). Used to pick *which* byte/bit/line a tripped fault
    /// damages, from the same stream, so replays damage the same thing.
    #[inline]
    pub fn pick(&self, site: FaultSite, bound: u64) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.borrow_mut().pick(site, bound))
    }

    /// Stop injecting from now on. The plan and the record of faults
    /// already injected are preserved (replay assertions still hold for
    /// the armed prefix of the run); only future probes change, answering
    /// "no fault" unconditionally. This is the chaos-recovery half-run
    /// switch: arm, let the system degrade, disarm, and assert that it
    /// converges back to healthy hardware service. No-op when disabled.
    pub fn disarm(&self) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().disarmed = true;
        }
    }

    /// True when [`FaultPlane::disarm`] has been called on an armed plane.
    pub fn is_disarmed(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.borrow().disarmed)
    }

    /// The armed plan, if any.
    pub fn plan(&self) -> Option<FaultPlan> {
        self.inner.as_ref().map(|i| i.borrow().plan)
    }

    /// All faults injected so far, in order (empty when disabled).
    pub fn records(&self) -> Vec<FaultRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.borrow().records.clone())
    }

    /// Number of trips at one site.
    pub fn count(&self, site: FaultSite) -> u32 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.borrow().sites[site as usize].trips)
    }

    /// Total faults injected across all sites.
    pub fn total(&self) -> u32 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.borrow().records.len() as u32)
    }
}

impl core::fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FaultPlane")
            .field("armed", &self.is_armed())
            .field("injected", &self.total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_never_trips() {
        let p = FaultPlane::disabled();
        for i in 0..1000u64 {
            assert!(!p.trip(FaultSite::PcapCorrupt, Cycles::new(i), 0));
            assert!(!p.due(FaultSite::MemFlip, Cycles::new(i)));
        }
        assert_eq!(p.total(), 0);
        assert!(p.records().is_empty());
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let p = FaultPlane::armed(FaultPlan {
                pcap_corrupt: SiteCfg::new(100_000, 10),
                mem_flip: PeriodCfg::new(1_000, 10),
                ..FaultPlan::none(seed)
            });
            let mut hits = Vec::new();
            for i in 0..200u64 {
                let now = Cycles::new(i * 100);
                if p.trip(FaultSite::PcapCorrupt, now, i) {
                    hits.push((0u8, i));
                }
                if p.due(FaultSite::MemFlip, now) {
                    hits.push((1u8, i));
                }
            }
            (hits, p.records())
        };
        let (h1, r1) = run(42);
        let (h2, r2) = run(42);
        assert_eq!(h1, h2);
        assert_eq!(r1, r2);
        assert!(!h1.is_empty(), "rates chosen so something fires");
        let (h3, _) = run(43);
        assert_ne!(h1, h3, "different seed, different schedule");
    }

    #[test]
    fn sites_draw_independent_streams() {
        // Probing site B between probes of site A must not change A's
        // decisions — the property that keeps fault classes composable.
        let plan = FaultPlan {
            pcap_corrupt: SiteCfg::new(200_000, 100),
            axi_read: SiteCfg::new(200_000, 100),
            ..FaultPlan::none(7)
        };
        let solo = FaultPlane::armed(plan);
        let mut a_solo = Vec::new();
        for i in 0..100u64 {
            a_solo.push(solo.trip(FaultSite::PcapCorrupt, Cycles::new(i), 0));
        }
        let mixed = FaultPlane::armed(plan);
        let mut a_mixed = Vec::new();
        for i in 0..100u64 {
            // Interleave foreign probes.
            let _ = mixed.trip(FaultSite::AxiReadError, Cycles::new(i), 0);
            a_mixed.push(mixed.trip(FaultSite::PcapCorrupt, Cycles::new(i), 0));
        }
        assert_eq!(a_solo, a_mixed);
    }

    #[test]
    fn max_caps_trips() {
        let p = FaultPlane::armed(FaultPlan {
            pcap_stall: SiteCfg::new(1_000_000, 3), // always fires…
            ..FaultPlan::none(1)
        });
        let mut n = 0;
        for i in 0..50u64 {
            if p.trip(FaultSite::PcapStall, Cycles::new(i), 0) {
                n += 1;
            }
        }
        assert_eq!(n, 3, "…but at most `max` times");
        assert_eq!(p.count(FaultSite::PcapStall), 3);
    }

    #[test]
    fn due_site_respects_deadlines() {
        let p = FaultPlane::armed(FaultPlan {
            irq_spurious: PeriodCfg::new(10_000, 100),
            ..FaultPlan::none(5)
        });
        // Polling at fine granularity: trips must be spaced at least
        // period/2 apart, regardless of poll frequency.
        let mut last = None;
        let mut fired = 0;
        for i in 0..100_000u64 {
            if p.due(FaultSite::IrqSpurious, Cycles::new(i)) {
                if let Some(prev) = last {
                    assert!(i - prev >= 5_000, "trips too close: {prev}..{i}");
                }
                last = Some(i);
                fired += 1;
            }
        }
        assert!(fired >= 4, "the site must keep firing: {fired}");
    }

    #[test]
    fn disarm_silences_future_probes_and_keeps_records() {
        let p = FaultPlane::armed(FaultPlan {
            pcap_stall: SiteCfg::new(1_000_000, 100), // every opportunity…
            irq_spurious: PeriodCfg::new(1_000, 100),
            ..FaultPlan::none(11)
        });
        let mut before = 0;
        for i in 0..20u64 {
            if p.trip(FaultSite::PcapStall, Cycles::new(i), 0) {
                before += 1;
            }
            let _ = p.due(FaultSite::IrqSpurious, Cycles::new(i * 1_000));
        }
        assert!(before > 0);
        let records_at_disarm = p.records();
        assert!(!p.is_disarmed());
        p.disarm();
        assert!(p.is_disarmed());
        for i in 0..1_000u64 {
            assert!(!p.trip(FaultSite::PcapStall, Cycles::new(100 + i), 0));
            assert!(!p.due(FaultSite::IrqSpurious, Cycles::new(1_000_000 + i * 10_000)));
        }
        assert_eq!(
            p.records(),
            records_at_disarm,
            "the armed prefix stays intact for replay comparison"
        );
        assert!(p.is_armed(), "the plan itself stays attached");
    }

    #[test]
    fn disarm_is_a_noop_on_the_disabled_plane() {
        let p = FaultPlane::disabled();
        p.disarm();
        assert!(!p.is_disarmed());
    }

    #[test]
    fn chaos_preset_is_fully_populated() {
        let c = FaultPlan::chaos(9);
        assert!(c.pcap_corrupt.max > 0);
        assert!(c.pcap_stall.max > 0);
        assert!(c.prr_hang.max > 0);
        assert!(c.axi_read.max > 0);
        assert!(c.axi_write.max > 0);
        assert!(c.irq_spurious.max > 0);
        assert!(c.irq_storm.max > 0);
        assert!(c.mem_flip.max > 0);
    }
}
