//! Shared-ring accelerator queues, end to end: batched submission through
//! `RingKick`, coalesced completion vIRQs, u16 index wrap, hostile-header
//! hardening, and ring-vs-per-call lockstep bit-identity.

mod common;

use std::collections::BTreeMap;

use mini_nova::hypercall;
use mini_nova::mem::layout::vm_region;
use mini_nova::{GuestKind, Kernel, VmSpec};
use mnv_hal::abi::ring::{self as ringabi, desc_status};
use mnv_hal::abi::{HcError, Hypercall, HypercallArgs};
use mnv_hal::{Cycles, HwTaskId, Priority, VmId};
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::layout;
use mnv_ucos::tasks::{BatchMode, HwBatchTask, BATCH_CHECK_VA};

/// Descriptors per batch round in these tests.
const BATCH: u16 = 6;

fn batch_guest(seed: u64, set: Vec<HwTaskId>, family: u8, mode: BatchMode) -> GuestKind {
    let mut os = Ucos::new(UcosConfig::default());
    os.task_create(
        8,
        Box::new(HwBatchTask::new(set, family, mode, BATCH, seed)),
    );
    GuestKind::Ucos(Box::new(os))
}

/// Read the guest-published lockstep checkpoint: (completions, checksum).
fn checkpoint(k: &mut Kernel, vm: VmId) -> (u32, u32) {
    let base = vm_region(vm) + BATCH_CHECK_VA.raw();
    (
        k.machine.mem.read_u32(base + 4).unwrap(),
        k.machine.mem.read_u32(base).unwrap(),
    )
}

fn kick(k: &mut Kernel, vm: VmId, ring_va: u64) -> Result<u32, HcError> {
    hypercall::hypercall(
        &mut k.machine,
        &mut k.state,
        vm,
        HypercallArgs::new(Hypercall::RingKick).a0(ring_va as u32),
    )
}

/// Write a valid ring header at `va` in `vm`'s memory, directly in physical
/// space (the kernel-facing half of the ABI, bypassing the guest driver).
#[allow(clippy::too_many_arguments)]
fn write_header(k: &mut Kernel, vm: VmId, va: u64, size: u32, family: u32, avail: u32, used: u32) {
    let pa = vm_region(vm) + va;
    let mut w = |off, val| k.machine.mem.write_u32(pa + off, val).unwrap();
    w(ringabi::HDR_MAGIC, ringabi::MAGIC);
    w(ringabi::HDR_SIZE, size);
    w(ringabi::HDR_AVAIL, avail);
    w(ringabi::HDR_USED, used);
    w(ringabi::HDR_DATA_VA, layout::HWDATA_BASE.raw() as u32);
    w(ringabi::HDR_IFACE_VA, layout::hwiface_slot(0).raw() as u32);
    w(ringabi::HDR_FAMILY, family);
}

/// Write one descriptor at free-running index `idx`.
fn write_desc(k: &mut Kernel, vm: VmId, va: u64, size: u16, idx: u16, task: HwTaskId, slot: u32) {
    let pa = vm_region(vm) + va + ringabi::desc_off(size, idx);
    let mut w = |off, val| k.machine.mem.write_u32(pa + off, val).unwrap();
    w(ringabi::DESC_TASK, task.0 as u32);
    w(ringabi::DESC_SRC_OFF, 0x100);
    w(ringabi::DESC_SRC_LEN, 256);
    w(ringabi::DESC_DST_OFF, 0x1_0000 + slot * 0x2000);
    w(ringabi::DESC_DST_CAP, 0x2000);
    w(ringabi::DESC_STATUS, desc_status::PENDING);
}

fn desc_status_of(k: &mut Kernel, vm: VmId, va: u64, size: u16, idx: u16) -> u32 {
    let pa = vm_region(vm) + va + ringabi::desc_off(size, idx);
    k.machine.mem.read_u32(pa + ringabi::DESC_STATUS).unwrap()
}

#[test]
fn ring_guest_completes_batches_with_coalesced_virqs() {
    let (mut k, ids) = common::kernel();
    let qam: Vec<HwTaskId> = ids[6..].to_vec();
    let vm = k.create_vm(VmSpec {
        name: "ring",
        priority: Priority::GUEST,
        guest: batch_guest(3, qam, 1, BatchMode::Ring),
    });
    k.run(Cycles::from_millis(80.0));

    let s = &k.state.stats;
    assert!(s.hwmgr.ring_kicks > 0, "kicks must flow: {:?}", s.hwmgr);
    // Every kick carries a whole batch.
    assert!(
        s.hwmgr.ring_descs >= 5 * s.hwmgr.ring_kicks,
        "batching factor collapsed: {} descs / {} kicks",
        s.hwmgr.ring_descs,
        s.hwmgr.ring_kicks
    );
    // Coalescing: strictly fewer completion vIRQs than completions.
    assert!(s.hwmgr.ring_virqs >= 1);
    assert!(
        s.hwmgr.ring_virqs < s.hwmgr.ring_descs,
        "vIRQs not coalesced: {} virqs for {} descs",
        s.hwmgr.ring_virqs,
        s.hwmgr.ring_descs
    );
    // The ring guest needed none of the per-call hardware hypercalls.
    assert_eq!(s.hypercalls[Hypercall::HwTaskRequest.nr() as usize], 0);
    assert_eq!(s.hypercalls[Hypercall::PcapPoll.nr() as usize], 0);
    // Every descriptor still got its own causal request.
    assert!(s.reqs_minted >= s.hwmgr.ring_descs);

    // The guest actually harvested results.
    let (count, sum) = checkpoint(&mut k, vm);
    assert!(count >= BATCH as u32, "guest completions: {count}");
    assert_ne!(sum, 0, "checksum folded real results");
}

#[test]
fn ring_and_per_call_are_bit_identical_and_cheaper() {
    // Same seed, same deterministic op stream, two kernels: one per-call,
    // one ring. Checkpoints at equal completion counts must be
    // bit-identical, and the ring must cost >= 5x fewer hardware-task
    // hypercalls per round.
    fn run_mode(mode: BatchMode) -> (BTreeMap<u32, u32>, u64, u32) {
        let (mut k, ids) = common::kernel();
        let qam: Vec<HwTaskId> = ids[6..].to_vec();
        let vm = k.create_vm(VmSpec {
            name: "batch",
            priority: Priority::GUEST,
            guest: batch_guest(21, qam, 1, mode),
        });
        let mut samples = BTreeMap::new();
        for _ in 0..300 {
            k.run(Cycles::from_millis(0.5));
            let (count, sum) = checkpoint(&mut k, vm);
            if count > 0 {
                samples.entry(count).or_insert(sum);
            }
        }
        let s = &k.state.stats;
        let hw_calls = s.hypercalls[Hypercall::HwTaskRequest.nr() as usize]
            + s.hypercalls[Hypercall::PcapPoll.nr() as usize]
            + s.hypercalls[Hypercall::RingKick.nr() as usize];
        let (count, _) = checkpoint(&mut k, vm);
        (samples, hw_calls, count)
    }

    let (ring, ring_calls, ring_count) = run_mode(BatchMode::Ring);
    let (percall, pc_calls, pc_count) = run_mode(BatchMode::PerCall);

    // Lockstep: every completion count both runs published must carry the
    // same fingerprint.
    let mut compared = 0;
    for (count, sum) in &ring {
        if let Some(other) = percall.get(count) {
            assert_eq!(
                sum, other,
                "checkpoint diverged at {count} completions: ring {sum:#010x} vs per-call {other:#010x}"
            );
            compared += 1;
        }
    }
    assert!(
        compared >= 2,
        "runs must share checkpoints to compare (ring {:?}, per-call {:?})",
        ring.keys().collect::<Vec<_>>(),
        percall.keys().collect::<Vec<_>>()
    );

    // Efficiency: hardware-task hypercalls per completed round.
    let ring_rate = ring_calls as f64 / (ring_count as f64 / BATCH as f64);
    let pc_rate = pc_calls as f64 / (pc_count as f64 / BATCH as f64);
    assert!(
        pc_rate >= 5.0 * ring_rate,
        "expected >=5x hypercall reduction: per-call {pc_rate:.1}/round vs ring {ring_rate:.1}/round"
    );
}

#[test]
fn ring_indices_wrap_across_the_u16_boundary() {
    // A ring whose history starts at 65530: eight descriptors posted
    // across the 65535 -> 0 wrap must all complete, and the used index
    // must follow the avail index through the wrap.
    let (mut k, ids) = common::kernel();
    let vm = k.create_vm(VmSpec {
        name: "wrap",
        priority: Priority::GUEST,
        guest: common::healthy_guest(5),
    });
    let va = layout::ring_page(1).raw();
    let start: u16 = 0xFFFA; // 65530
    let size: u16 = 8;
    write_header(
        &mut k,
        vm,
        va,
        size as u32,
        1,
        start.wrapping_add(8) as u32, // avail = 2 after wrapping
        start as u32,
    );
    for i in 0..8u16 {
        write_desc(
            &mut k,
            vm,
            va,
            size,
            start.wrapping_add(i),
            ids[6],
            i as u32,
        );
    }
    assert_eq!(kick(&mut k, vm, va), Ok(8));
    k.run(Cycles::from_millis(60.0));

    let used = k
        .machine
        .mem
        .read_u32(vm_region(vm) + va + ringabi::HDR_USED)
        .unwrap() as u16;
    assert_eq!(used, start.wrapping_add(8), "used index wrapped with avail");
    for i in 0..8u16 {
        let st = desc_status_of(&mut k, vm, va, size, start.wrapping_add(i)) & 0xFF;
        assert!(
            st == desc_status::OK || st == desc_status::OK_DEGRADED,
            "descriptor {i} not completed: status {st}"
        );
    }
    assert_eq!(k.state.stats.hwmgr.ring_descs, 8);
}

#[test]
fn kick_while_owner_descheduled_drains_and_buffers_one_virq() {
    // The kick arrives while the owner is not running (direct hypercall,
    // scheduler idle). The watchdog and the owner's next slices drain the
    // batch; the completion arrives as a buffered coalesced vIRQ.
    let (mut k, ids) = common::kernel();
    let vm = k.create_vm(VmSpec {
        name: "owner",
        priority: Priority::GUEST,
        guest: common::healthy_guest(7),
    });
    k.create_vm(VmSpec {
        name: "noise",
        priority: Priority::GUEST,
        guest: common::healthy_guest(8),
    });
    let va = layout::ring_page(1).raw();
    write_header(&mut k, vm, va, 8, 1, 4, 0);
    for i in 0..4u16 {
        write_desc(&mut k, vm, va, 8, i, ids[6], i as u32);
    }
    assert_eq!(kick(&mut k, vm, va), Ok(4));
    k.run(Cycles::from_millis(60.0));

    let s = &k.state.stats;
    assert_eq!(s.hwmgr.ring_descs, 4);
    assert!(s.hwmgr.ring_virqs >= 1, "coalesced vIRQ delivered");
    let used = k
        .machine
        .mem
        .read_u32(vm_region(vm) + va + ringabi::HDR_USED)
        .unwrap() as u16;
    assert_eq!(used, 4, "batch drained while owner was descheduled");
}

#[test]
fn hostile_ring_headers_are_rejected_without_damage() {
    let (mut k, ids) = common::kernel();
    let vm = k.create_vm(VmSpec {
        name: "hostile",
        priority: Priority::GUEST,
        guest: common::healthy_guest(9),
    });
    let va = layout::ring_page(0).raw();

    // Unaligned and out-of-window ring pointers.
    assert_eq!(kick(&mut k, vm, va + 4), Err(HcError::BadArg));
    assert_eq!(kick(&mut k, vm, 0xFFFF_F000), Err(HcError::BadArg));
    // Bad magic (page is still zeroed).
    assert_eq!(kick(&mut k, vm, va), Err(HcError::BadArg));
    // Bad sizes: zero, non-power-of-two, oversized.
    for bad in [0u32, 3, 128] {
        write_header(&mut k, vm, va, bad, 0, 0, 0);
        assert_eq!(kick(&mut k, vm, va), Err(HcError::BadArg), "size {bad}");
    }
    // Bad family.
    write_header(&mut k, vm, va, 8, 9, 0, 0);
    assert_eq!(kick(&mut k, vm, va), Err(HcError::BadArg));
    // Data section overhanging the region end.
    write_header(&mut k, vm, va, 8, 0, 0, 0);
    k.machine
        .mem
        .write_u32(vm_region(vm) + va + ringabi::HDR_DATA_VA, 0x00FF_0000)
        .unwrap();
    assert_eq!(kick(&mut k, vm, va), Err(HcError::BadArg));
    // Unaligned interface VA.
    write_header(&mut k, vm, va, 8, 0, 0, 0);
    k.machine
        .mem
        .write_u32(vm_region(vm) + va + ringabi::HDR_IFACE_VA, 0x00F0_0004)
        .unwrap();
    assert_eq!(kick(&mut k, vm, va), Err(HcError::BadArg));
    // Avail jump past the ring size.
    write_header(&mut k, vm, va, 8, 0, 9, 0);
    assert_eq!(kick(&mut k, vm, va), Err(HcError::BadArg));

    // Nothing stuck: no ring kept any of the rejected state, the fabric
    // is clean, and a well-formed kick still works.
    assert_eq!(k.state.hwmgr.irqs.in_use(), 0);
    write_header(&mut k, vm, va, 8, 0, 1, 0);
    write_desc(&mut k, vm, va, 8, 0, ids[0], 0);
    assert_eq!(kick(&mut k, vm, va), Ok(1));
    // Re-kicking the same family from a *different* page must be refused
    // (two pages must never alias one cursor).
    let other = layout::ring_page(2).raw();
    write_header(&mut k, vm, other, 8, 0, 0, 0);
    assert_eq!(kick(&mut k, vm, other), Err(HcError::BadArg));
    k.run(Cycles::from_millis(20.0));
    assert!(k.pd(vm).stats.cpu_cycles > 0, "guest still schedulable");
}

#[test]
fn chaos_with_rings_stays_green_and_leaks_nothing() {
    // The standard two-VM chaos soak, but with ring-mode batch clients in
    // both guests: faults may degrade or fail descriptors, never wedge the
    // kernel or leak fabric state.
    let (mut k, ids) = common::kernel();
    // Only the small FFT points counts: larger ones emit more than a
    // batch slot's BATCH_DST_CAP and would be (correctly) rejected.
    let fft: Vec<HwTaskId> = ids[..3].to_vec();
    let qam: Vec<HwTaskId> = ids[6..].to_vec();
    let v1 = k.create_vm(VmSpec {
        name: "c1",
        priority: Priority::GUEST,
        guest: batch_guest(11, qam, 1, BatchMode::Ring),
    });
    let v2 = k.create_vm(VmSpec {
        name: "c2",
        priority: Priority::GUEST,
        guest: batch_guest(12, fft, 0, BatchMode::Ring),
    });
    k.enable_faults(mnv_fault::FaultPlan::chaos(0xA5A5));
    k.run(Cycles::from_millis(60.0));

    assert!(k.state.stats.hwmgr.ring_kicks > 0, "rings ran under chaos");
    k.destroy_vm(v1);
    k.destroy_vm(v2);
    assert_eq!(k.state.hwmgr.irqs.in_use(), 0, "IRQ lines leaked");
    assert!(k.state.hwmgr.rings.is_empty(), "ring contexts leaked");
    for p in 0..k.state.hwmgr.prrs.len() as u8 {
        assert!(
            k.state.hwmgr.prrs.entry(p).client.is_none(),
            "PRR {p} still owned after teardown"
        );
    }
}
