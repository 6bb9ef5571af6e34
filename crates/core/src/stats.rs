//! Kernel instrumentation — the measurement points behind Table III.
//!
//! Four characteristic overheads are accumulated exactly as the paper
//! defines them (§V-B):
//!
//! * **HW Manager entry**: from the guest's hardware-task hypercall trap to
//!   the manager service starting execution (includes the memory-space
//!   switch into the manager's domain);
//! * **HW Manager execution**: the manager's own request handling;
//! * **HW Manager exit**: from manager completion back into the guest;
//! * **PL IRQ entry**: "from the exception vector table … until the vGIC
//!   injects the virtual interrupt to the VM".
//!
//! Each [`Acc`] carries a log-bucketed [`mnv_trace::Hist`] alongside the running
//! mean/min/max, so every Table III row can report p50/p90/p99 as well as
//! the paper's mean.
//!
//! ## One probe
//!
//! Every counted kernel occurrence enters through [`Sinks::emit`] (a
//! [`TraceEvent`], which also reaches the trace ring and the flight
//! recorder) or [`Sinks::count`] (a [`Count`]: counted, never traced).
//! Both feed `fold`, the only code that increments a [`KernelStats`] /
//! [`HwMgrStats`] counter or writes a kernel counter series to the metrics
//! registry, so the counters, the registry and the event stream cannot
//! drift apart. Latency accumulators ([`Acc`] pushes) and histograms are
//! measurements, recorded where they are measured.

use mnv_hal::abi::HYPERCALL_COUNT;
use mnv_hal::Cycles;
use mnv_metrics::{Label, Registry};
use mnv_profile::Profiler;
use mnv_trace::event::iface_name;
use mnv_trace::{MgrPhase, TraceEvent, Tracer};

/// The shared latency accumulator, re-exported from `mnv-trace` so the
/// mean/min/max/percentile arithmetic exists in exactly one place (the
/// trace summariser accumulates into the same type).
pub use mnv_trace::Acc;

/// Hardware Task Manager measurements (the rows of Table III).
#[derive(Clone, Copy, Debug, Default)]
pub struct HwMgrStats {
    /// HW Manager entry overhead.
    pub entry: Acc,
    /// HW Manager exit overhead.
    pub exit: Acc,
    /// HW Manager execution time.
    pub exec: Acc,
    /// PL IRQ entry (vGIC injection) overhead.
    pub irq_entry: Acc,
    /// End-to-end manager response delay (entry + execution + exit measured
    /// per invocation, so its percentiles are real, not sums of means).
    pub total: Acc,
    /// Manager invocations.
    pub invocations: u64,
    /// Requests answered Busy.
    pub busy: u64,
    /// PCAP reconfigurations launched.
    pub reconfigs: u64,
    /// Hardware tasks reclaimed from a previous client.
    pub reclaims: u64,
    /// Failed PCAP transfers relaunched by the retry path.
    pub pcap_retries: u64,
    /// PRRs quarantined by the reconfiguration watchdog.
    pub quarantines: u64,
    /// Hardware-task runs served by the software fallback.
    pub sw_fallbacks: u64,
    /// Background scrubs of quarantined PRRs that passed readback.
    pub scrubs: u64,
    /// Background scrubs that failed readback.
    pub scrub_fails: u64,
    /// Quarantined PRRs reinstated into the allocator pool.
    pub reinstates: u64,
    /// PRRs retired permanently after repeated scrub failures.
    pub prrs_retired: u64,
    /// Degraded shadow clients promoted back onto fabric hardware.
    pub repromotions: u64,
    /// Escalation-ladder rung 1: hung task restarted on the same PRR.
    pub ladder_retries: u64,
    /// Escalation-ladder rung 2: hung task relocated to a compatible PRR.
    pub ladder_relocations: u64,
    /// Escalation-ladder rung 3: hung task degraded to software fallback.
    pub ladder_fallbacks: u64,
    /// Escalation-ladder rung 4: hung task failed with an error to the guest.
    pub ladder_errors: u64,
    /// `RingKick` drains performed (one manager invocation per kick).
    pub ring_kicks: u64,
    /// Ring descriptors accepted across all kicks.
    pub ring_descs: u64,
    /// Coalesced ring-completion vIRQs delivered (one per drained batch,
    /// not one per descriptor).
    pub ring_virqs: u64,
}

impl HwMgrStats {
    /// Total mean response delay (entry + execution + exit), Table III's
    /// "Total overhead" row.
    pub fn total_mean_us(&self) -> f64 {
        self.entry.mean_us() + self.exec.mean_us() + self.exit.mean_us()
    }

    /// Fold another run's measurements into this one.
    pub fn merge(&mut self, other: &HwMgrStats) {
        self.entry.merge(&other.entry);
        self.exit.merge(&other.exit);
        self.exec.merge(&other.exec);
        self.irq_entry.merge(&other.irq_entry);
        self.total.merge(&other.total);
        self.invocations += other.invocations;
        self.busy += other.busy;
        self.reconfigs += other.reconfigs;
        self.reclaims += other.reclaims;
        self.pcap_retries += other.pcap_retries;
        self.quarantines += other.quarantines;
        self.sw_fallbacks += other.sw_fallbacks;
        self.scrubs += other.scrubs;
        self.scrub_fails += other.scrub_fails;
        self.reinstates += other.reinstates;
        self.prrs_retired += other.prrs_retired;
        self.repromotions += other.repromotions;
        self.ladder_retries += other.ladder_retries;
        self.ladder_relocations += other.ladder_relocations;
        self.ladder_fallbacks += other.ladder_fallbacks;
        self.ladder_errors += other.ladder_errors;
        self.ring_kicks += other.ring_kicks;
        self.ring_descs += other.ring_descs;
        self.ring_virqs += other.ring_virqs;
    }
}

/// Aggregate kernel statistics.
#[derive(Clone, Debug, Default)]
pub struct KernelStats {
    /// World switches performed.
    pub vm_switches: u64,
    /// Per-hypercall invocation counts.
    pub hypercalls: [u64; HYPERCALL_COUNT],
    /// Total hypercalls.
    pub hypercalls_total: u64,
    /// Denied hypercalls (portal capability misses).
    pub hypercalls_denied: u64,
    /// Hypercalls whose number decodes to no known call. Counted in a
    /// dedicated slot — an out-of-range number must never index the
    /// per-call `hypercalls` array.
    pub hypercalls_invalid: u64,
    /// Hardware Task Manager measurements.
    pub hwmgr: HwMgrStats,
    /// Virtual IRQs injected (all classes).
    pub virqs_injected: u64,
    /// Lazy VFP switches performed.
    pub vfp_lazy_switches: u64,
    /// Guest faults forwarded to guests.
    pub faults_forwarded: u64,
    /// VMs killed on unrecoverable faults.
    pub vms_killed: u64,
    /// VMs relaunched by the supervisor after a kill.
    pub vm_restarts: u64,
    /// VMs killed by the liveness watchdog (no retired-instruction progress).
    pub liveness_kills: u64,
    /// VMs killed permanently after exhausting the crash-loop budget.
    pub crash_loop_kills: u64,
    /// Hardware-task requests minted (every `HwTaskRequest` hypercall gets
    /// a fresh `ReqId`, whether or not it is eventually satisfied).
    pub reqs_minted: u64,
    /// Completed requests whose end-to-end latency exceeded the interface's
    /// latency objective.
    pub slo_violations: u64,
    /// SLO burn events: windows in which the violation count crossed the
    /// burn limit.
    pub slo_burns: u64,
}

impl KernelStats {
    /// Reset only the Table III accumulators (benchmarks call this between
    /// warm-up and measurement phases).
    pub fn reset_hwmgr(&mut self) {
        self.hwmgr = HwMgrStats::default();
    }
}

/// Kernel occurrences that are counted but not traced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Count {
    /// A portal capability miss refused `vm`'s hypercall.
    HypercallDenied { vm: u16 },
    /// A trapped SVC carried a number that decodes to no hypercall.
    HypercallInvalid,
    /// A lazy VFP bank switch (Table I).
    VfpLazySwitch,
    /// Stage 2 found no idle region: the request was answered Busy.
    Busy,
    /// A region was reclaimed from its previous client (Fig. 5).
    Reclaim,
    /// `vm`'s `RingKick` accepted `descs` new descriptors.
    RingKick { vm: u16, descs: u16 },
    /// A drained ring batch was delivered to `vm` as one coalesced vIRQ.
    RingVirq { vm: u16 },
    /// The liveness watchdog declared a VM hung (the kill follows).
    LivenessKill,
    /// A killed VM exhausted its crash-loop budget.
    CrashLoopKill,
    /// A completed request missed interface family `iface`'s objective.
    SloViolation { iface: u8 },
}

/// What [`fold`] consumes: an emitted event or an untraced count.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Probe {
    /// An event emitted through [`Sinks::emit`].
    Event(TraceEvent),
    /// An occurrence counted through [`Sinks::count`].
    Count(Count),
}

/// Fold one probe into the kernel counters and their registry series:
/// each counted occurrence bumps one counter and, when it is exported,
/// one series. Events and counts that carry no counter fall through.
pub(crate) fn fold(stats: &mut KernelStats, metrics: &Registry, probe: Probe) {
    use TraceEvent as E;
    const M: Label = Label::Machine;
    let vm = |v: u16| Label::Vm(v as u8);
    let s = stats;
    let (counter, series): (&mut u64, Option<(&'static str, Label)>) = match probe {
        Probe::Event(ev) => match ev {
            // An out-of-range number never indexes the per-call array.
            E::Hypercall { nr, vm: v } => {
                s.hypercalls_total += 1;
                let slot = match s.hypercalls.get_mut(nr as usize) {
                    Some(slot) => slot,
                    None => &mut s.hypercalls_invalid,
                };
                (slot, Some(("hypercalls", vm(v))))
            }
            // A switch into a VM; the switch back out is not counted again.
            E::VmSwitch { from: 0, to } => (&mut s.vm_switches, Some(("world_switches", vm(to)))),
            // The manager invocation protocol's two world switches.
            E::HwMgrPhase {
                phase: MgrPhase::Entry,
                end: true,
                vm: v,
            } => (&mut s.vm_switches, Some(("hwmgr_invocations", vm(v)))),
            E::HwMgrPhase {
                phase: MgrPhase::Exit,
                end: true,
                ..
            } => (&mut s.vm_switches, None),
            E::VirqInject { vm: v, .. } => (&mut s.virqs_injected, Some(("virqs_injected", vm(v)))),
            E::FaultForwarded { .. } => (&mut s.faults_forwarded, None),
            E::VmKilled { .. } => (&mut s.vms_killed, Some(("vms_killed", M))),
            E::VmRestart { vm: v, .. } => (&mut s.vm_restarts, Some(("vm_restarts", vm(v)))),
            E::ReqSpan { end: false, .. } => (&mut s.reqs_minted, None),
            E::SloBurn { iface, .. } => (&mut s.slo_burns, Some(("slo_burns", iface_label(iface)))),
            // Stage 1 opens every allocation routine; stage 5 is entered
            // only when the region needs a PCAP download.
            E::DprStage { stage: 1 } => (&mut s.hwmgr.invocations, None),
            E::DprStage { stage: 5 } => (&mut s.hwmgr.reconfigs, Some(("hwmgr_reconfigs", M))),
            E::PcapRetry { .. } => (&mut s.hwmgr.pcap_retries, Some(("pcap_retries", M))),
            E::PrrQuarantine { .. } => (&mut s.hwmgr.quarantines, Some(("quarantines", M))),
            E::SwFallback { .. } => (&mut s.hwmgr.sw_fallbacks, Some(("sw_fallbacks", M))),
            E::PrrScrub { pass: true, .. } => (&mut s.hwmgr.scrubs, Some(("prr_scrubs", M))),
            E::PrrScrub { pass: false, .. } => {
                (&mut s.hwmgr.scrub_fails, Some(("prr_scrub_fails", M)))
            }
            E::PrrReinstate { .. } => (&mut s.hwmgr.reinstates, Some(("prr_reinstates", M))),
            E::PrrRetire { .. } => (&mut s.hwmgr.prrs_retired, Some(("prrs_retired", M))),
            E::Repromote { vm: v, .. } => {
                metrics.inc("vm_repromotions", vm(v));
                (&mut s.hwmgr.repromotions, Some(("repromotions", M)))
            }
            E::HwTaskEscalate { rung, .. } => match rung {
                1 => (&mut s.hwmgr.ladder_retries, Some(("ladder_retries", M))),
                2 => (
                    &mut s.hwmgr.ladder_relocations,
                    Some(("ladder_relocations", M)),
                ),
                3 => (&mut s.hwmgr.ladder_fallbacks, Some(("ladder_fallbacks", M))),
                _ => (&mut s.hwmgr.ladder_errors, Some(("ladder_errors", M))),
            },
            _ => return,
        },
        Probe::Count(c) => match c {
            Count::HypercallDenied { vm: v } => {
                (&mut s.hypercalls_denied, Some(("hypercalls_denied", vm(v))))
            }
            Count::HypercallInvalid => {
                s.hypercalls_total += 1;
                (&mut s.hypercalls_invalid, None)
            }
            Count::VfpLazySwitch => (&mut s.vfp_lazy_switches, None),
            Count::Busy => (&mut s.hwmgr.busy, Some(("hwmgr_busy", M))),
            Count::Reclaim => (&mut s.hwmgr.reclaims, Some(("hwmgr_reclaims", M))),
            Count::RingKick { vm: v, descs } => {
                s.hwmgr.ring_descs += descs as u64;
                (&mut s.hwmgr.ring_kicks, Some(("ring_kicks", vm(v))))
            }
            Count::RingVirq { vm: v } => (&mut s.hwmgr.ring_virqs, Some(("ring_virqs", vm(v)))),
            Count::LivenessKill => (&mut s.liveness_kills, Some(("liveness_kills", M))),
            Count::CrashLoopKill => (&mut s.crash_loop_kills, Some(("crash_loop_kills", M))),
            Count::SloViolation { iface } => (
                &mut s.slo_violations,
                Some(("slo_violations", iface_label(iface))),
            ),
        },
    };
    *counter += 1;
    if let Some((name, label)) = series {
        metrics.inc(name, label);
    }
}

fn iface_label(iface: u8) -> Label {
    Label::Iface(iface_name(iface))
}

/// The kernel's instrumentation sinks, borrowed together: the one view
/// hypercall handlers, the Hardware Task Manager and the supervisor record
/// through (built beside the manager tables by `KernelState::split`).
pub struct Sinks<'a> {
    /// Kernel counters and Table III accumulators.
    pub stats: &'a mut KernelStats,
    /// Trace ring + flight recorder.
    pub tracer: &'a Tracer,
    /// Metrics registry (histograms and latency sums are observed directly).
    pub metrics: &'a Registry,
    /// Sampling profiler (context annotations, post-mortem dumps).
    pub profiler: &'a Profiler,
}

impl Sinks<'_> {
    /// The one probe: record `ev` into the rings it routes to and fold it
    /// into the counters.
    #[inline]
    pub fn emit(&mut self, now: Cycles, ev: TraceEvent) {
        self.tracer.emit(now, ev);
        fold(self.stats, self.metrics, Probe::Event(ev));
    }

    /// Count an untraced occurrence.
    #[inline]
    pub fn count(&mut self, c: Count) {
        fold(self.stats, self.metrics, Probe::Count(c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_sum_of_phases() {
        let mut h = HwMgrStats::default();
        h.entry.push(Cycles::new(660));
        h.exec.push(Cycles::new(6600));
        h.exit.push(Cycles::new(660));
        assert!((h.total_mean_us() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn hwmgr_merge_combines_counters() {
        let mut a = HwMgrStats::default();
        let mut b = HwMgrStats::default();
        a.invocations = 2;
        a.entry.push(Cycles::new(660));
        b.invocations = 3;
        b.reconfigs = 1;
        b.entry.push(Cycles::new(1320));
        a.merge(&b);
        assert_eq!(a.invocations, 5);
        assert_eq!(a.reconfigs, 1);
        assert_eq!(a.entry.samples, 2);
    }

    #[test]
    fn reset_hwmgr_preserves_rest() {
        let mut s = KernelStats {
            vm_switches: 7,
            ..Default::default()
        };
        s.hwmgr.invocations = 3;
        s.reset_hwmgr();
        assert_eq!(s.vm_switches, 7);
        assert_eq!(s.hwmgr.invocations, 0);
    }
}
