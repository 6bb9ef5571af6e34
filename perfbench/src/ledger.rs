//! The host-time ledger: spans recorded around calls into the workspace
//! crates, folded into per-layer call counts, total and self time.
//!
//! Everything here lives on the benchmark side. A guest task is wrapped in
//! a [`Probe`]; in the traced pass the probe hands the task a [`TracedEnv`]
//! that forwards every [`GuestEnv`] method to the kernel's environment and
//! records a span around each one. The simulated machine sees exactly the
//! same calls in the same order, so a traced run is bit-identical to an
//! untraced one (the benchmark checks this on every traced run).

use mnv_hal::abi::{HcError, Hypercall, HypercallArgs, HYPERCALL_COUNT};
use mnv_hal::{Cycles, VirtAddr, VmId};
use mnv_ucos::{GuestEnv, GuestFault, GuestTask, TaskAction, TaskCtx};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Layer ids. Hypercalls occupy `HC_BASE + nr`.
pub const COMPUTE: u16 = 0;
pub const GUEST_MEM: u16 = 1;
pub const VIRQ_POLL: u16 = 2;
pub const TASK_THW: u16 = 3;
pub const TASK_GSM: u16 = 4;
pub const TASK_ADPCM: u16 = 5;
pub const TASK_BATCH: u16 = 6;
pub const HC_BASE: u16 = 7;
/// Number of layer ids.
pub const LAYERS: usize = HC_BASE as usize + HYPERCALL_COUNT;

/// The ledger name of a layer id, prefixed by the crate that owns it.
pub fn layer_name(id: u16) -> String {
    match id {
        COMPUTE => "arm.compute_model".into(),
        GUEST_MEM => "arm.guest_mem".into(),
        VIRQ_POLL => "core.virq_poll".into(),
        TASK_THW => "ucos.task.t-hw".into(),
        TASK_GSM => "ucos.task.gsm".into(),
        TASK_ADPCM => "ucos.task.adpcm".into(),
        TASK_BATCH => "ucos.task.batch".into(),
        _ => {
            let h = Hypercall::from_nr((id - HC_BASE) as u8).expect("layer id in range");
            format!("core.hypercall.{h:?}")
        }
    }
}

/// One recorded span. Times are host nanoseconds since the recorder was
/// created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub layer: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `NO_PARENT` for a root.
    pub parent: u32,
    /// Hardware-task request or batch round the span belongs to (0: none).
    pub req: u64,
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Per-layer fold of its spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

struct Open {
    layer: u16,
    start_ns: u64,
    child_ns: u64,
    span: u32,
}

/// Span recorder. Totals are folded online, so they cover every span;
/// raw spans are kept up to a capacity for the exit dump (later spans are
/// counted in `dropped`).
pub struct Recorder {
    epoch: Instant,
    stack: Vec<Open>,
    pub totals: Vec<LayerTotals>,
    pub spans: Vec<Span>,
    cap: usize,
    pub dropped: u64,
    /// Request id stamped on spans as they open.
    pub req: u64,
    next_req: u64,
}

impl Recorder {
    pub fn new(cap: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            stack: Vec::new(),
            totals: vec![LayerTotals::default(); LAYERS],
            spans: Vec::new(),
            cap,
            dropped: 0,
            req: 0,
            next_req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, layer: u16) {
        let t = self.now_ns();
        self.enter_at(layer, t);
    }

    pub fn exit(&mut self) {
        let t = self.now_ns();
        self.exit_at(t);
    }

    /// Open a span at an explicit timestamp.
    pub fn enter_at(&mut self, layer: u16, t: u64) {
        let span = if self.spans.len() < self.cap {
            self.spans.push(Span {
                layer,
                start_ns: t,
                end_ns: t,
                parent: self.stack.last().map_or(NO_PARENT, |o| o.span),
                req: self.req,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        };
        self.stack.push(Open {
            layer,
            start_ns: t,
            child_ns: 0,
            span,
        });
    }

    /// Close the innermost span at an explicit timestamp.
    pub fn exit_at(&mut self, t: u64) {
        let o = self.stack.pop().expect("exit without a matching enter");
        let dur = t.saturating_sub(o.start_ns);
        let tot = &mut self.totals[o.layer as usize];
        tot.calls += 1;
        tot.total_ns += dur;
        tot.self_ns += dur.saturating_sub(o.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(s) = self.spans.get_mut(o.span as usize) {
            s.end_ns = t;
        }
    }

    /// A fresh request id.
    pub fn new_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Stamp every stored span from index `from` on with request `req`.
    pub fn relabel(&mut self, from: usize, req: u64) {
        for s in self.spans.iter_mut().skip(from) {
            s.req = req;
        }
    }

    /// Sum of the root spans' durations (time spent inside probed calls).
    pub fn root_ns(&self, roots: &[u16]) -> u64 {
        roots
            .iter()
            .map(|&l| self.totals[l as usize].total_ns)
            .sum()
    }
}

/// Self time of every span in a finished list: its duration minus the
/// union of its direct children's intervals (children may touch but not
/// overlap in a single-threaded trace; the union makes that irrelevant).
/// The reference the online fold in [`Recorder::exit_at`] is tested against.
#[cfg(test)]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent as usize) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// A [`GuestEnv`] proxy: forwards every method — the default ones
/// included — and records a span around each call into the kernel.
pub struct TracedEnv<'a> {
    pub inner: &'a mut dyn GuestEnv,
    pub rec: &'a mut Recorder,
}

impl TracedEnv<'_> {
    fn span<R>(&mut self, layer: u16, f: impl FnOnce(&mut dyn GuestEnv) -> R) -> R {
        self.rec.enter(layer);
        let r = f(&mut *self.inner);
        self.rec.exit();
        r
    }
}

impl GuestEnv for TracedEnv<'_> {
    fn vm_id(&self) -> VmId {
        self.inner.vm_id()
    }

    fn now(&self) -> Cycles {
        self.inner.now()
    }

    fn compute(&mut self, cycles: u64) {
        self.span(COMPUTE, |e| e.compute(cycles))
    }

    fn read_u32(&mut self, va: VirtAddr) -> Result<u32, GuestFault> {
        self.span(GUEST_MEM, |e| e.read_u32(va))
    }

    fn write_u32(&mut self, va: VirtAddr, val: u32) -> Result<(), GuestFault> {
        self.span(GUEST_MEM, |e| e.write_u32(va, val))
    }

    fn read_block(&mut self, va: VirtAddr, out: &mut [u8]) -> Result<(), GuestFault> {
        self.span(GUEST_MEM, |e| e.read_block(va, out))
    }

    fn write_block(&mut self, va: VirtAddr, data: &[u8]) -> Result<(), GuestFault> {
        self.span(GUEST_MEM, |e| e.write_block(va, data))
    }

    fn hypercall(&mut self, args: HypercallArgs) -> Result<u32, HcError> {
        self.span(HC_BASE + args.nr.nr() as u16, |e| e.hypercall(args))
    }

    fn budget_left(&self) -> i64 {
        self.inner.budget_left()
    }

    fn poll_virq(&mut self) -> Option<u16> {
        self.span(VIRQ_POLL, |e| e.poll_virq())
    }

    fn is_native(&self) -> bool {
        self.inner.is_native()
    }
}

/// What a workload learns from a task after each of its steps.
pub trait Observe<T> {
    /// Called after every step with the simulated clock before and after
    /// it. Returns true when the step opened a new request or round.
    fn after_step(&mut self, task: &T, t0: u64, t1: u64) -> bool;
    /// True while a request or round is in flight.
    fn open(&self) -> bool;
}

/// Tasks nothing is learnt from.
pub struct Nothing;

impl<T> Observe<T> for Nothing {
    fn after_step(&mut self, _: &T, _: u64, _: u64) -> bool {
        false
    }
    fn open(&self) -> bool {
        false
    }
}

/// A guest task wrapper: steps the inner task, lets the observer read its
/// public statistics and, when a recorder is attached, traces the step.
pub struct Probe<T, O> {
    task: T,
    obs: Rc<RefCell<O>>,
    layer: u16,
    rec: Option<Rc<RefCell<Recorder>>>,
    req: u64,
}

impl<T: GuestTask, O: Observe<T>> Probe<T, O> {
    pub fn new(
        task: T,
        obs: Rc<RefCell<O>>,
        layer: u16,
        rec: Option<Rc<RefCell<Recorder>>>,
    ) -> Self {
        Probe {
            task,
            obs,
            layer,
            rec,
            req: 0,
        }
    }
}

impl<T: GuestTask, O: Observe<T>> GuestTask for Probe<T, O> {
    fn name(&self) -> &'static str {
        self.task.name()
    }

    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
        let t0 = ctx.env.now().raw();
        let Some(rec) = self.rec.clone() else {
            let action = self.task.step(ctx);
            self.obs
                .borrow_mut()
                .after_step(&self.task, t0, ctx.env.now().raw());
            return action;
        };
        let mut rec = rec.borrow_mut();
        rec.req = if self.obs.borrow().open() {
            self.req
        } else {
            0
        };
        let mark = rec.spans.len();
        rec.enter(self.layer);
        let action = {
            let mut env = TracedEnv {
                inner: &mut *ctx.env,
                rec: &mut rec,
            };
            let mut inner = TaskCtx {
                env: &mut env,
                svc: &mut *ctx.svc,
            };
            self.task.step(&mut inner)
        };
        rec.exit();
        if self
            .obs
            .borrow_mut()
            .after_step(&self.task, t0, ctx.env.now().raw())
        {
            self.req = rec.new_req();
            rec.relabel(mark, self.req);
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: u16, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_over_nested_spans() {
        // step [0,100) ⊃ hypercall [10,40) ⊃ compute [20,25);
        //              ⊃ memory [50,60), memory [60,90).
        let spans = [
            span(TASK_THW, 0, 100, NO_PARENT),
            span(HC_BASE, 10, 40, 0),
            span(COMPUTE, 20, 25, 1),
            span(GUEST_MEM, 50, 60, 0),
            span(GUEST_MEM, 60, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 25, 5, 10, 30]);
        // Overlapping or out-of-parent children are covered once, clipped.
        let odd = [
            span(TASK_THW, 0, 10, NO_PARENT),
            span(COMPUTE, 2, 6, 0),
            span(COMPUTE, 4, 8, 0),
            span(COMPUTE, 9, 15, 0),
        ];
        assert_eq!(self_times(&odd)[0], 3);
    }

    #[test]
    fn online_totals_match_offline_self_times() {
        let mut r = Recorder::new(16);
        r.enter_at(TASK_THW, 0);
        r.enter_at(HC_BASE, 10);
        r.enter_at(COMPUTE, 20);
        r.exit_at(25);
        r.exit_at(40);
        r.enter_at(GUEST_MEM, 50);
        r.exit_at(60);
        r.enter_at(GUEST_MEM, 60);
        r.exit_at(90);
        r.exit_at(100);
        let offline = self_times(&r.spans);
        for layer in [TASK_THW, HC_BASE, COMPUTE, GUEST_MEM] {
            let want: u64 = r
                .spans
                .iter()
                .zip(&offline)
                .filter(|(s, _)| s.layer == layer)
                .map(|(_, &t)| t)
                .sum();
            assert_eq!(r.totals[layer as usize].self_ns, want, "layer {layer}");
        }
        assert_eq!(r.totals[GUEST_MEM as usize].calls, 2);
        assert_eq!(r.totals[TASK_THW as usize].total_ns, 100);
        assert_eq!(r.root_ns(&[TASK_THW]), 100);
    }

    #[test]
    fn capacity_drops_spans_but_not_totals() {
        let mut r = Recorder::new(1);
        r.enter_at(TASK_GSM, 0);
        r.enter_at(COMPUTE, 1);
        r.exit_at(3);
        r.exit_at(10);
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.spans[0].end_ns, 10);
        assert_eq!(r.totals[TASK_GSM as usize].self_ns, 8);
        assert_eq!(r.totals[COMPUTE as usize].calls, 1);
    }

    #[test]
    fn layer_names_follow_crates() {
        assert_eq!(layer_name(COMPUTE), "arm.compute_model");
        assert_eq!(
            layer_name(HC_BASE + Hypercall::PcapPoll.nr() as u16),
            "core.hypercall.PcapPoll"
        );
        assert_eq!(layer_name(TASK_THW), "ucos.task.t-hw");
    }
}
