//! The three workloads. Each runs a fixed simulated horizon built only
//! from seed-derived inputs, and every guest is a closed loop: it issues
//! its next request only after the previous one completed.
//!
//! * `table3` — the paper's §V-B experiment: native plus 1–4
//!   paravirtualized uC/OS-II guests (T_hw + GSM + ADPCM), 4 ms quantum,
//!   warm-up excluded, fault-free. It is the headline result; its host time
//!   goes to the hypercall/manager path (T_hw's `PcapPoll` spins), the
//!   `GuestEnv::compute` cache/TLB model and the GSM encoder. The block
//!   executor does no work here, so executor changes must not move it.
//! * `mir-trap` — four deprivileged MIR guests, 1 ms quantum, block cache
//!   on, running seed-generated programs (see [`mir_program`]). The only
//!   workload where the executor does most of the work and the manager
//!   none.
//! * `ring-batch` — `HwBatchTask` guests submitting same-family descriptor
//!   batches through the shared ring: dense, batched manager traffic that
//!   hits resident cores, coalesced completion vIRQs, rare PCAP — the
//!   manager used the other way round from `table3`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use mini_nova::mirguest::MirGuest;
use mini_nova::native::NativeHarness;
use mini_nova::stats::HwMgrStats;
use mini_nova::{GuestKind, Kernel, KernelConfig, VmSpec};
use mnv_arm::cpu::{CpuEvent, ExceptionKind};
use mnv_arm::machine::bare_machine;
use mnv_arm::mir::{AluOp, Cond, Instr, MirCp15, Program, ProgramBuilder, INSTR_SIZE};
use mnv_arm::psr::Psr;
use mnv_hal::abi::Hypercall;
use mnv_hal::{Cycles, HwTaskId, PhysAddr, Priority};
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::layout;
use mnv_ucos::tasks::{
    AdpcmTask, BatchMode, GsmTask, HwBatchStats, HwBatchTask, THwStats, THwTask,
};
use mnv_ucos::GuestTask;

use crate::ledger::{self, Nothing, Observe, Probe, Recorder};
use crate::sim::{Digest, SimTotals};
use crate::stats::Table;

/// Workload names, as given to `--workload`.
pub const NAMES: [&str; 3] = ["table3", "mir-trap", "ring-batch"];

/// How a horizon is observed.
#[derive(Clone)]
pub enum Pass {
    /// Nothing but the public counters read at the end.
    Plain,
    /// Every guest task step and environment call recorded as a span.
    Traced(Rc<RefCell<Recorder>>),
    /// The kernel's own event tracing on (`Kernel::enable_tracing`).
    Obs,
}

impl Pass {
    fn rec(&self) -> Option<Rc<RefCell<Recorder>>> {
        match self {
            Pass::Traced(r) => Some(r.clone()),
            _ => None,
        }
    }
}

/// Kernel trace ring capacity in the `Obs` pass.
const OBS_RING: usize = 1 << 16;

/// `table3`-specific results.
#[derive(Clone, Debug, Default)]
pub struct Table3Out {
    /// Mean cells (µs), `[row][column]`.
    pub means: Table,
    /// Manager statistics of the 4-guest column.
    pub col4: HwMgrStats,
    /// Request → result times of the 4-guest column's measured windows (µs).
    pub turnaround_us: Vec<f64>,
}

/// `ring-batch`-specific results.
#[derive(Clone, Debug, Default)]
pub struct RingOut {
    /// Post → last-harvest times of every batch round (µs).
    pub round_us: Vec<f64>,
    /// Per guest: every published (completions, checksum) checkpoint.
    pub checkpoints: Vec<Vec<(u64, u32)>>,
    pub batch: HwBatchStats,
}

/// One horizon's results.
#[derive(Clone, Debug, Default)]
pub struct Horizon {
    /// Host seconds spent inside `Kernel::run` / `NativeHarness::run`.
    pub run_s: f64,
    pub sim: SimTotals,
    pub attempted: u64,
    pub failed: u64,
    /// T_hw statistics summed over every guest (`table3`).
    pub thw: THwStats,
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub table3: Option<Table3Out>,
    pub ring: Option<RingOut>,
    /// Correctness failures found while running.
    pub problems: Vec<String>,
    pub digest: u64,
}

/// A guest seed in `[1, 2^31)` derived from the benchmark seed: small
/// enough that the task constructors' seed offsets never overflow.
pub fn derive(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % ((1 << 31) - 1)) + 1
}

fn timed(run_s: &mut f64, f: impl FnOnce()) {
    let t = Instant::now();
    f();
    *run_s += t.elapsed().as_secs_f64();
}

fn us(cycles: u64) -> f64 {
    Cycles::new(cycles).as_micros()
}

fn finish_obs(h: &mut Horizon, tracer: &mnv_trace::Tracer) {
    h.trace_events += tracer.total();
    h.trace_dropped += tracer.dropped();
}

// -- table3 -----------------------------------------------------------------

/// Guest-seed sets per `table3` horizon. Two seeds give the 4-guest column
/// over 200 manager samples, enough for a p95 with ten samples beyond it.
pub const TABLE3_SEEDS: u64 = 2;
/// Per-guest warm-up and measured windows, the `table3` binary's defaults.
const T3_WARMUP_MS: f64 = 40.0;
const T3_MEASURE_MS: f64 = 400.0;
const T3_QUANTUM_MS: f64 = 4.0;

/// Request → result times seen by one T_hw task.
#[derive(Default)]
pub struct ThwObs {
    pub last: THwStats,
    open_at: Option<u64>,
    /// (request start, cycles to result) per completed request.
    pub done: Vec<(u64, u64)>,
}

impl Observe<THwTask> for ThwObs {
    fn after_step(&mut self, task: &THwTask, t0: u64, t1: u64) -> bool {
        let (s, p) = (task.stats, self.last);
        self.last = s;
        if s.requests > p.requests {
            // A Pick step: the request hypercall is the step's first call.
            let refused = s.busy > p.busy || s.errors > p.errors;
            self.open_at = (!refused).then_some(t0);
            return true;
        }
        if s.completions > p.completions {
            if let Some(t) = self.open_at.take() {
                self.done.push((t, t1 - t));
            }
        } else if s.errors > p.errors || s.reclaims_seen > p.reclaims_seen {
            self.open_at = None;
        }
        false
    }

    fn open(&self) -> bool {
        self.open_at.is_some()
    }
}

fn probe<T: GuestTask + 'static, O: Observe<T> + 'static>(
    task: T,
    obs: Rc<RefCell<O>>,
    layer: u16,
    pass: &Pass,
) -> Box<dyn GuestTask> {
    Box::new(Probe::new(task, obs, layer, pass.rec()))
}

/// The paper's per-guest task set (T_hw + GSM + ADPCM), as the `table3`
/// binary builds it, each task behind a probe.
fn paper_tasks(os: &mut Ucos, seed: u64, ids: Vec<HwTaskId>, pass: &Pass) -> Rc<RefCell<ThwObs>> {
    let obs = Rc::new(RefCell::new(ThwObs::default()));
    let none = Rc::new(RefCell::new(Nothing));
    os.task_create(
        8,
        probe(THwTask::new(ids, seed), obs.clone(), ledger::TASK_THW, pass),
    );
    os.task_create(
        12,
        probe(GsmTask::new(seed, 1), none.clone(), ledger::TASK_GSM, pass),
    );
    os.task_create(
        20,
        probe(AdpcmTask::new(seed + 99), none, ledger::TASK_ADPCM, pass),
    );
    obs
}

/// Boot a kernel with `n` paper guests: the work `setup_s` times.
pub fn table3_kernel(n: usize, seed: u64, pass: &Pass) -> (Kernel, Vec<Rc<RefCell<ThwObs>>>) {
    let mut k = Kernel::new(KernelConfig {
        quantum: Cycles::from_millis(T3_QUANTUM_MS),
        ..Default::default()
    });
    let ids = k.register_paper_task_set();
    let mut obs = Vec::new();
    for i in 0..n {
        let mut os = Ucos::new(UcosConfig::default());
        obs.push(paper_tasks(
            &mut os,
            seed + i as u64 * 7919,
            ids.clone(),
            pass,
        ));
        k.create_vm(VmSpec {
            name: "guest",
            priority: Priority::GUEST,
            guest: GuestKind::Ucos(Box::new(os)),
        });
    }
    (k, obs)
}

fn fold_thw(h: &mut Horizon, obs: &[Rc<RefCell<ThwObs>>]) {
    for o in obs {
        let o = o.borrow();
        let s = o.last;
        let t = &mut h.thw;
        t.requests += s.requests;
        t.busy += s.busy;
        t.reconfigs += s.reconfigs;
        t.completions += s.completions;
        t.reclaims_seen += s.reclaims_seen;
        t.errors += s.errors;
        t.degraded_runs += s.degraded_runs;
        // The probe's request → result times must add up to the task's own
        // latency sum whenever no request was abandoned half-way.
        if s.errors == 0 && s.reclaims_seen == 0 {
            let mut sum = o.done.iter().fold(0u64, |a, &(_, d)| a.wrapping_add(d));
            // A request still in flight has only its start subtracted.
            if let Some(t) = o.open_at {
                sum = sum.wrapping_sub(t);
            }
            if sum != s.total_latency {
                h.problems.push(format!(
                    "t-hw turnaround samples sum to {sum} cycles, task reports {}",
                    s.total_latency
                ));
            }
        }
    }
}

/// Run the `table3` horizon: for every base seed, native then 1..=4 guests.
pub fn table3(seeds: &[u64], pass: &Pass) -> Horizon {
    let mut h = Horizon::default();
    let mut cols = [HwMgrStats::default(); 5];
    let mut turnaround = Vec::new();
    let warm = |n: usize| Cycles::from_millis(T3_WARMUP_MS * n.max(1) as f64);
    let meas = |n: usize| Cycles::from_millis(T3_MEASURE_MS * n.max(1) as f64);
    for &seed in seeds {
        // Native: the manager as a uC/OS-II function on the bare machine.
        let mut nat = NativeHarness::new(Ucos::new(UcosConfig::default()));
        let ids = nat.register_paper_task_set();
        let obs = vec![paper_tasks(&mut nat.os, seed, ids, pass)];
        timed(&mut h.run_s, || nat.run(warm(0)));
        nat.stats.reset_hwmgr();
        timed(&mut h.run_s, || nat.run(meas(0)));
        cols[0].merge(&nat.stats.hwmgr);
        h.sim.add_native(&nat);
        fold_thw(&mut h, &obs);

        for (n, col) in cols.iter_mut().enumerate().skip(1) {
            let (mut k, obs) = table3_kernel(n, seed, pass);
            let tracer = matches!(pass, Pass::Obs).then(|| k.enable_tracing(OBS_RING));
            timed(&mut h.run_s, || k.run(warm(n)));
            k.state.stats.reset_hwmgr();
            let start = k.machine.now().raw();
            timed(&mut h.run_s, || k.run(meas(n)));
            col.merge(&k.state.stats.hwmgr);
            h.sim.add_kernel(&k);
            if let Some(t) = &tracer {
                finish_obs(&mut h, t);
            }
            fold_thw(&mut h, &obs);
            if n == 4 {
                for o in &obs {
                    turnaround.extend(
                        o.borrow()
                            .done
                            .iter()
                            .filter(|&&(t, _)| t >= start)
                            .map(|&(_, d)| us(d)),
                    );
                }
            }
        }
    }
    let mut means = [[0.0; 5]; 5];
    for (c, s) in cols.iter().enumerate() {
        means[0][c] = s.entry.mean_us();
        means[1][c] = s.exit.mean_us();
        means[2][c] = s.irq_entry.mean_us();
        means[3][c] = s.exec.mean_us();
        // Natively the whole delay is execution (no trap, no vGIC).
        means[4][c] = if c == 0 {
            s.exec.mean_us()
        } else {
            s.total.mean_us()
        };
    }
    h.attempted = h.thw.requests;
    // A request fails when it errors, is refused Busy or finds its task
    // reclaimed by another guest before use (the Fig. 5 consistency check):
    // T_hw then abandons it. Reclaims are part of the paper's experiment.
    h.failed = h.thw.errors + h.thw.busy + h.thw.reclaims_seen;
    let mut d = Digest::default();
    h.sim.fold(&mut d);
    for v in means.iter().flatten().chain(turnaround.iter()) {
        d.f64(*v);
    }
    h.digest = d.finish();
    h.table3 = Some(Table3Out {
        means,
        col4: cols[4],
        turnaround_us: turnaround,
    });
    h
}

// -- mir-trap ---------------------------------------------------------------

/// Simulated horizon of one `mir-trap` run.
const MIR_SIM_MS: f64 = 100.0;
const MIR_GUESTS: u32 = 4;
const MIR_SEGMENTS: u32 = 6;
/// Bytes between consecutive data accesses (a multiple of the 8-byte
/// access pair, over two 32-byte lines).
const MIR_STRIDE: u32 = 72;
/// Per-guest data working set: twice the 32 KiB L1D, so the loads and
/// stores miss in L1 and walk 16 distinct 4 KiB pages.
const MIR_WS_BYTES: u32 = 64 * 1024;

/// A seed-generated MIR guest program. The shape is fixed so every seed
/// does the same amount of work per pass; the seed picks the ALU
/// operations, their registers, the initial values and the leaf routines
/// called. The mix:
///
/// * six loop segments joined by *unconditional* branches (the seams the
///   block cache fuses into superblocks — the `throughput` loop has none),
///   each a 16-iteration counted loop closed by a conditional branch;
/// * four ALU ops, then a load and a store per iteration striding through
///   a private working set twice the L1D size, with a leaf call/return in
///   every other segment;
/// * after every pass over the segments, one SVC hypercall (`VmInfo`) and
///   one privileged CP15 read (`CONTEXTIDR`) that traps and is emulated —
///   the architectural trap paths, once per ~1–2 thousand instructions.
pub fn mir_program(seed: u64) -> Program {
    let mut rng = mnv_workloads::signal::Lcg::new(seed);
    let mut r = |lo: u64, hi: u64| lo + rng.next_bounded(hi - lo);
    let mut b = ProgramBuilder::new();
    for reg in [0u8, 1, 2, 3, 10, 11] {
        b.mov(reg, r(1, 0xFFFF) as u32);
    }
    b.mov(4, layout::WORK_BASE.raw() as u32);
    b.mov(5, 0); // working-set cursor
    b.mov(9, MIR_STRIDE); // a new cache line every step
    b.mov(8, 0x3FFF_FFFF); // outer countdown: outlives any horizon
    let main = b.label();
    b.branch(Cond::Al, main);
    let leaves: Vec<_> = (0..2)
        .map(|i| {
            let l = b.label();
            b.bind(l);
            b.alu_imm(AluOp::Add, 0, 0, 3 + i);
            b.alu(AluOp::Eor, 1, 1, 0);
            b.ret();
            l
        })
        .collect();
    b.bind(main);
    let ops = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Eor,
        AluOp::Orr,
        AluOp::And,
        AluOp::Lsr,
    ];
    for seg in 0..MIR_SEGMENTS {
        b.mov(7, 16);
        let top = b.label();
        b.bind(top);
        for _ in 0..4 {
            let op = ops[r(0, ops.len() as u64) as usize];
            let (rd, rn) = (
                [0u8, 1, 2, 3][r(0, 4) as usize],
                [0u8, 1, 10, 11][r(0, 4) as usize],
            );
            if op == AluOp::Lsr {
                b.alu_imm(op, rd, rn, r(1, 5) as u32);
            } else {
                b.alu(op, rd, rd, rn);
            }
        }
        b.alu(AluOp::Add, 12, 4, 5);
        b.ldr(10, 12, 0);
        b.alu(AluOp::Add, 11, 11, 10);
        b.str(11, 12, 4);
        b.alu(AluOp::Add, 5, 5, 9);
        b.alu_imm(AluOp::And, 5, 5, MIR_WS_BYTES - 8);
        if seg % 2 == 1 {
            b.call(leaves[r(0, 2) as usize]);
        }
        b.alu_imm(AluOp::Sub, 7, 7, 1);
        b.alu_imm(AluOp::Cmp, 7, 7, 0);
        b.branch(Cond::Ne, top);
        let next = b.label();
        b.branch(Cond::Al, next);
        b.bind(next);
    }
    b.mov(1, r(0, 3) as u32);
    b.svc(Hypercall::VmInfo.nr());
    b.push(Instr::Mrc {
        rd: 2,
        reg: MirCp15::Contextidr,
    });
    b.alu_imm(AluOp::Sub, 8, 8, 1);
    b.alu_imm(AluOp::Cmp, 8, 8, 0);
    b.branch(Cond::Ne, main);
    b.halt();
    b.assemble(layout::CODE_BASE.raw())
}

/// Boot a kernel with the four `mir-trap` guests.
pub fn mir_kernel(seed: u64) -> Kernel {
    let mut k = Kernel::new(KernelConfig {
        quantum: Cycles::from_millis(1.0),
        ..Default::default()
    });
    k.machine.bcache.enabled = true;
    // Unused by MIR guests, but part of booting the platform: `setup_s`
    // covers the same boot work on every workload.
    k.register_paper_task_set();
    for i in 0..MIR_GUESTS {
        k.create_vm(VmSpec {
            name: "mir",
            priority: Priority::GUEST,
            guest: GuestKind::Mir(Box::new(MirGuest::new(mir_program(derive(seed, i as u64))))),
        });
    }
    k
}

/// Run the `mir-trap` horizon.
pub fn mir_trap(seed: u64, pass: &Pass) -> Horizon {
    let mut h = Horizon::default();
    let mut k = mir_kernel(seed);
    let tracer = matches!(pass, Pass::Obs).then(|| k.enable_tracing(OBS_RING));
    let d = Cycles::from_millis(MIR_SIM_MS);
    timed(&mut h.run_s, || k.run(d));
    if let Some(t) = &tracer {
        finish_obs(&mut h, t);
    }
    h.sim.add_kernel(&k);
    let s = &k.state.stats;
    h.attempted = s.hypercalls_total;
    h.failed = s.hypercalls_denied + s.hypercalls_invalid;
    if s.vms_killed > 0 {
        h.problems
            .push(format!("{} MIR guest(s) killed", s.vms_killed));
    }
    if h.sim.bc_hits == 0 {
        h.problems.push("block cache never hit".into());
    }
    let mut dg = Digest::default();
    h.sim.fold(&mut dg);
    h.digest = dg.finish();
    h
}

/// The `mir-trap` programs on bare machines (`Machine::run_slice`, no
/// kernel): each program gets a quarter of the horizon. Returns
/// (instructions retired, host seconds).
pub fn mir_bare(seed: u64) -> (u64, f64) {
    let budget = Cycles::from_millis(MIR_SIM_MS / MIR_GUESTS as f64);
    let mut instrs = 0;
    let mut secs = 0.0;
    for i in 0..MIR_GUESTS {
        let prog = mir_program(derive(seed, i as u64));
        let mut m = bare_machine();
        m.load_program(&prog, PhysAddr::new(layout::CODE_BASE.raw()))
            .expect("code fits in RAM");
        m.cpu.pc = layout::CODE_BASE.raw() as u32;
        m.cpu.cpsr = Psr::user();
        m.bcache.enabled = true;
        let t = Instant::now();
        while m.now() < budget {
            match m.run_slice(budget) {
                CpuEvent::Retired => {}
                CpuEvent::Exception(ExceptionKind::Svc) => {
                    m.last_svc = None;
                    let ret = m.cpu.reg(14);
                    m.exception_return(ret);
                }
                CpuEvent::Exception(ExceptionKind::Undefined) => {
                    let pc = m.last_und.take().expect("UND has a cause").pc.raw() as u32;
                    m.exception_return(pc.wrapping_add(INSTR_SIZE as u32));
                }
                ev => panic!("bare MIR program stopped on {ev:?}"),
            }
        }
        secs += t.elapsed().as_secs_f64();
        instrs += m.instructions_retired;
    }
    (instrs, secs)
}

// -- ring-batch -------------------------------------------------------------

/// Simulated horizon of one `ring-batch` run.
const RING_SIM_MS: f64 = 1000.0;
/// Descriptors per batch round.
const RING_BATCH: u16 = 6;

/// Batch rounds seen by one `HwBatchTask`.
#[derive(Default)]
pub struct BatchObs {
    pub last: HwBatchStats,
    open_at: Option<u64>,
    pub round_cycles: Vec<u64>,
    pub checkpoints: Vec<(u64, u32)>,
}

impl Observe<HwBatchTask> for BatchObs {
    fn after_step(&mut self, task: &HwBatchTask, t0: u64, t1: u64) -> bool {
        let (s, p) = (task.stats, self.last);
        self.last = s;
        let opened = s.kicks > p.kicks;
        if opened {
            // Posting and the kick happen in the round's first step.
            self.open_at = Some(t0);
        }
        if s.rounds > p.rounds {
            if let Some(t) = self.open_at.take() {
                self.round_cycles.push(t1 - t);
            }
            self.checkpoints.push((s.completions, s.checksum));
        }
        opened
    }

    fn open(&self) -> bool {
        self.open_at.is_some()
    }
}

/// Boot a kernel with the `ring-batch` guests: each submits batches over
/// the three QAM cores, which fit the fabric together, so after the first
/// reconfigurations nearly every descriptor hits a resident core.
pub fn ring_kernel(
    seed: u64,
    mode: BatchMode,
    pass: &Pass,
) -> (Kernel, Vec<Rc<RefCell<BatchObs>>>) {
    let mut k = Kernel::new(KernelConfig {
        quantum: Cycles::from_millis(2.0),
        ..Default::default()
    });
    let ids = k.register_paper_task_set();
    // Guest 0 rotates over the three QAM cores (family 1), guest 1 uses
    // FFT-256 (family 0): four cores for four PRRs.
    let sets: [(Vec<HwTaskId>, u8); 2] = [(ids[6..].to_vec(), 1), (ids[..1].to_vec(), 0)];
    let mut obs = Vec::new();
    for (g, (set, family)) in sets.into_iter().enumerate() {
        let o = Rc::new(RefCell::new(BatchObs::default()));
        let mut os = Ucos::new(UcosConfig::default());
        let task = HwBatchTask::new(set, family, mode, RING_BATCH, derive(seed, g as u64));
        os.task_create(8, probe(task, o.clone(), ledger::TASK_BATCH, pass));
        k.create_vm(VmSpec {
            name: "batch",
            priority: Priority::GUEST,
            guest: GuestKind::Ucos(Box::new(os)),
        });
        obs.push(o);
    }
    (k, obs)
}

fn ring_run(seed: u64, mode: BatchMode, pass: &Pass) -> Horizon {
    let mut h = Horizon::default();
    let (mut k, obs) = ring_kernel(seed, mode, pass);
    let tracer = matches!(pass, Pass::Obs).then(|| k.enable_tracing(OBS_RING));
    let d = Cycles::from_millis(RING_SIM_MS);
    timed(&mut h.run_s, || k.run(d));
    if let Some(t) = &tracer {
        finish_obs(&mut h, t);
    }
    h.sim.add_kernel(&k);
    let mut out = RingOut::default();
    for o in &obs {
        let o = o.borrow();
        let s = &o.last;
        out.round_us.extend(o.round_cycles.iter().map(|&c| us(c)));
        out.checkpoints.push(o.checkpoints.clone());
        let b = &mut out.batch;
        b.rounds += s.rounds;
        b.submitted += s.submitted;
        b.completions += s.completions;
        b.degraded += s.degraded;
        b.errors += s.errors;
        b.kicks += s.kicks;
        b.fallbacks += s.fallbacks;
    }
    h.attempted = out.batch.submitted;
    h.failed = out.batch.errors + out.batch.fallbacks;
    let mut dg = Digest::default();
    h.sim.fold(&mut dg);
    for c in out.checkpoints.iter().flatten() {
        dg.u64(c.0).u64(c.1 as u64);
    }
    for v in &out.round_us {
        dg.f64(*v);
    }
    h.digest = dg.finish();
    h.ring = Some(out);
    h
}

/// Run the `ring-batch` horizon (ring submission).
pub fn ring_batch(seed: u64, pass: &Pass) -> Horizon {
    ring_run(seed, BatchMode::Ring, pass)
}

/// The lockstep reference: the same guests submitting per call. Every
/// checkpoint both runs published must carry the same checksum.
pub fn ring_lockstep(seed: u64, ring: &RingOut) -> Result<usize, String> {
    let per_call = ring_run(seed, BatchMode::PerCall, &Pass::Plain);
    let pc = &per_call.ring.as_ref().expect("ring results").checkpoints;
    let mut shared = 0;
    for (g, (a, b)) in ring.checkpoints.iter().zip(pc).enumerate() {
        for &(count, sum) in b {
            if let Some(&(_, other)) = a.iter().find(|c| c.0 == count) {
                if other != sum {
                    return Err(format!(
                        "guest {g}: checkpoint at {count} completions differs \
                         (ring {other:#010x}, per-call {sum:#010x})"
                    ));
                }
                shared += 1;
            }
        }
    }
    if shared == 0 {
        return Err("ring and per-call runs share no checkpoint".into());
    }
    Ok(shared)
}

/// Boot the kernel one horizon of `workload` starts from (timed as
/// `setup_s`).
pub fn setup(workload: &str, seed: u64) {
    match workload {
        "table3" => drop(table3_kernel(4, derive(seed, 0), &Pass::Plain)),
        "mir-trap" => drop(mir_kernel(seed)),
        _ => drop(ring_kernel(seed, BatchMode::Ring, &Pass::Plain)),
    }
}

/// One horizon of `workload`.
pub fn horizon(workload: &str, seed: u64, pass: &Pass) -> Horizon {
    match workload {
        "table3" => {
            let seeds: Vec<u64> = (0..TABLE3_SEEDS).map(|k| derive(seed, k)).collect();
            table3(&seeds, pass)
        }
        "mir-trap" => mir_trap(seed, pass),
        _ => ring_batch(seed, pass),
    }
}
