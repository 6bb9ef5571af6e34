//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table3|mir-trap|ring-batch> --seed <n> --seconds <s> --trace <0|1>
//!     [--out <results file>] [--compare <earlier results file>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every probe off;
//! `--trace 1` runs the same horizon untraced, traced and with the kernel's
//! event tracing on, checks the three simulated identically, and prints the
//! per-layer ledger. The last line of standard output is the JSON result.

mod ledger;
mod results;
mod sim;
mod stats;
mod workloads;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use mnv_hal::abi::Hypercall;

use crate::ledger::Recorder;
use crate::results::Record;
use crate::sim::ratio;
use crate::workloads::{Horizon, Pass};

/// The seed the benchmark was developed on, and one held back from that
/// work so later claims can be re-checked on data not used to make them.
const DEV_SEED: u64 = 11;
const HELD_OUT_SEED: u64 = 90_210;

/// Horizons repeated in an end-to-end run, at least.
const MIN_REPS: usize = 3;
/// Set-ups timed before each horizon, and at least per run (`setup_s` is
/// their median).
const SETUPS_PER_HORIZON: usize = 3;
const MIN_SETUPS: usize = 51;
/// Raw spans kept for the exit dump of a traced run.
const SPAN_CAP: usize = 50_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    compare: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = std::env::args().skip(1);
    let mut kv = BTreeMap::new();
    while let Some(k) = a.next() {
        let v = a.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).cloned();
    let need = |k: &str| get(k).ok_or_else(|| format!("missing {k}"));
    let workload = need("--workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {:?})",
            workloads::NAMES
        ));
    }
    let num =
        |k: &str| -> Result<u64, String> { need(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--out",
        "--compare",
    ];
    if let Some(k) = kv.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown argument {k}"));
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
        out: get("--out"),
        compare: get("--compare"),
    })
}

/// Where results and span dumps go: under the build directory, inside the
/// checkout.
fn out_dir() -> std::path::PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    std::path::Path::new(&target).join("perfbench")
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Everything a run reports.
struct Run {
    correct: bool,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

impl Run {
    fn new() -> Self {
        Run {
            correct: true,
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.problems.push(why.into());
    }

    fn check_horizon(&mut self, h: &Horizon) {
        for p in &h.problems {
            self.fail(p.clone());
        }
    }

    /// `ring-batch`: the ring run against a per-call run with the same seed.
    fn check_lockstep(&mut self, seed: u64, h: &Horizon) {
        if let Some(ring) = &h.ring {
            match workloads::ring_lockstep(seed, ring) {
                Ok(n) => println!("ring lockstep: {n} checkpoints identical to the per-call run"),
                Err(e) => self.fail(format!("ring lockstep: {e}")),
            }
        }
    }

    /// Put a percentile, or fail the run if it breaks the samples rule.
    fn put_pct(&mut self, name: &str, samples: &[f64], p: f64) {
        if samples.is_empty() {
            self.put(name, 0.0, "us");
            return;
        }
        match stats::percentile(name, samples, p) {
            Ok(v) => self.put(name, v, "us"),
            Err(e) => {
                self.fail(e);
                self.put(name, 0.0, "us");
            }
        }
    }
}

fn end_to_end(a: &Args, run: &mut Run) {
    let t_start = Instant::now();
    let mut setups = Vec::new();
    let time_setups = |n: usize, setups: &mut Vec<f64>| {
        for _ in 0..n {
            let t = Instant::now();
            workloads::setup(&a.workload, a.seed);
            setups.push(t.elapsed().as_secs_f64());
        }
    };
    let mut secs = Vec::new();
    let mut first: Option<Horizon> = None;
    loop {
        // Set-ups are spread over the run so they see the same host phases
        // as the horizons.
        let t = Instant::now();
        time_setups(SETUPS_PER_HORIZON, &mut setups);
        let h = workloads::horizon(&a.workload, a.seed, &Pass::Plain);
        secs.push(h.run_s);
        match &first {
            None => first = Some(h),
            Some(f) if f.digest != h.digest => run.fail(format!(
                "repeat {} simulated differently (digest {:#x} vs {:#x})",
                secs.len(),
                h.digest,
                f.digest
            )),
            Some(_) => {}
        }
        let next_ends = t_start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64();
        if secs.len() >= MIN_REPS && next_ends > a.seconds {
            break;
        }
    }
    time_setups(MIN_SETUPS.saturating_sub(setups.len()), &mut setups);
    let h = first.expect("at least one horizon");
    run.check_horizon(&h);
    run.check_lockstep(a.seed, &h);
    let host_s = stats::median(&secs);
    println!(
        "{} horizons, host seconds: {}",
        secs.len(),
        secs.iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    run.attempted = h.attempted;
    run.failed = h.failed;
    run.put("host_s", host_s, "s");
    run.put("setup_s", stats::median(&setups), "s");
    match peak_rss_mb() {
        Ok(mb) => run.put("peak_rss_mb", mb, "MB"),
        Err(e) => run.fail(format!("peak RSS: {e}")),
    }
    run.put(
        "mips",
        h.sim.pmu.instr_retired as f64 / host_s / 1e6,
        "MIPS",
    );
    run.put("guest_cpi", h.sim.cpi(), "cycles/instr");
}

/// One untraced, one traced and one kernel-traced horizon.
struct Triple {
    plain: Horizon,
    traced: Horizon,
    obs: Horizon,
}

fn per_layer(a: &Args, run: &mut Run) {
    let t_start = Instant::now();
    let rec = Rc::new(RefCell::new(Recorder::new(SPAN_CAP)));
    let mut triples: Vec<Triple> = Vec::new();
    loop {
        let t = Instant::now();
        let triple = Triple {
            plain: workloads::horizon(&a.workload, a.seed, &Pass::Plain),
            traced: workloads::horizon(&a.workload, a.seed, &Pass::Traced(rec.clone())),
            obs: workloads::horizon(&a.workload, a.seed, &Pass::Obs),
        };
        let took = t.elapsed().as_secs_f64();
        triples.push(triple);
        if t_start.elapsed().as_secs_f64() + took > a.seconds {
            break;
        }
    }
    let base = &triples[0].plain;
    run.check_horizon(base);
    for (i, t) in triples.iter().enumerate() {
        for (pass, h) in [
            ("untraced", &t.plain),
            ("traced", &t.traced),
            ("obs", &t.obs),
        ] {
            if h.digest != base.digest {
                run.fail(format!(
                    "{pass} pass {i} simulated differently (digest {:#x} vs {:#x}): \
                     the probes are not neutral",
                    h.digest, base.digest
                ));
            }
        }
    }
    let n = triples.len() as f64;
    let med =
        |f: &dyn Fn(&Triple) -> f64| stats::median(&triples.iter().map(f).collect::<Vec<_>>());
    let plain_s = med(&|t| t.plain.run_s);
    let traced_s = med(&|t| t.traced.run_s);
    let obs_s = med(&|t| t.obs.run_s);
    run.attempted = base.attempted;
    run.failed = base.failed;

    let r = rec.borrow();
    let s = &base.sim;
    let layer = |id: u16| r.totals[id as usize];
    // Per-layer host seconds are self time per horizon.
    let self_s = |id: u16| layer(id).self_ns as f64 / 1e9 / n;
    let calls = |id: u16| layer(id).calls as f64 / n;

    run.put("arm.compute_model.host_s", self_s(ledger::COMPUTE), "s");
    run.put("arm.compute_model.calls", calls(ledger::COMPUTE), "count");
    run.put("arm.guest_mem.host_s", self_s(ledger::GUEST_MEM), "s");
    run.put("arm.guest_mem.calls", calls(ledger::GUEST_MEM), "count");
    let bare_mips = if a.workload == "mir-trap" {
        let (instrs, secs) = workloads::mir_bare(a.seed);
        instrs as f64 / secs / 1e6
    } else {
        0.0
    };
    run.put("arm.exec_bare.mips", bare_mips, "MIPS");
    let transitions = s.bc_hits + s.bc_misses + s.bc_chain_follows;
    run.put(
        "arm.bcache.hit_ratio",
        ratio(s.bc_hits + s.bc_chain_follows, transitions),
        "ratio",
    );
    run.put(
        "arm.bcache.chain_follow_ratio",
        ratio(s.bc_chain_follows, transitions),
        "ratio",
    );
    run.put(
        "arm.bcache.batched_frac",
        ratio(s.bc_batched, s.pmu.instr_retired),
        "ratio",
    );
    run.put("arm.bcache.superblocks", s.bc_superblocks as f64, "count");
    run.put("arm.bcache.fused_segs", s.bc_fused_segs as f64, "count");
    run.put("arm.bcache.evictions", s.bc_evictions as f64, "count");
    run.put(
        "arm.bcache.invalidations",
        s.bc_invalidations as f64,
        "count",
    );
    run.put(
        "arm.l1i_refill_ratio",
        ratio(s.pmu.l1i_refill, s.pmu.l1i_access),
        "ratio",
    );
    run.put(
        "arm.l1d_refill_ratio",
        ratio(s.pmu.l1d_refill, s.pmu.l1d_access),
        "ratio",
    );
    run.put(
        "arm.l2_miss_ratio",
        ratio(s.l2_misses, s.l2_hits + s.l2_misses),
        "ratio",
    );
    run.put("arm.tlb_refills", s.pmu.tlb_refill as f64, "count");
    run.put("arm.pt_walks", s.pmu.pt_walks as f64, "count");

    let tasks = [
        (ledger::TASK_THW, "t-hw"),
        (ledger::TASK_GSM, "gsm"),
        (ledger::TASK_ADPCM, "adpcm"),
        (ledger::TASK_BATCH, "batch"),
    ];
    let step_ns: u64 = r.root_ns(&tasks.map(|t| t.0));
    let traced_run_s = triples.iter().map(|t| t.traced.run_s).sum::<f64>();
    run.put(
        "core.kernel.host_s",
        (traced_run_s - step_ns as f64 / 1e9) / n,
        "s",
    );
    let named = [
        Hypercall::PcapPoll,
        Hypercall::HwTaskRequest,
        Hypercall::RingKick,
        Hypercall::VmInfo,
    ];
    let mut other = (0.0, 0u64);
    for h in Hypercall::ALL {
        let id = ledger::HC_BASE + h.nr() as u16;
        let count = s.hypercalls[h.nr() as usize];
        if named.contains(&h) {
            run.put(
                &format!("core.hypercall.{h:?}.calls"),
                count as f64,
                "count",
            );
            run.put(&format!("core.hypercall.{h:?}.host_s"), self_s(id), "s");
        } else {
            other.0 += self_s(id);
            other.1 += count;
        }
    }
    run.put("core.hypercall.other.calls", other.1 as f64, "count");
    run.put("core.hypercall.other.host_s", other.0, "s");
    run.put("core.vm_switches", s.vm_switches as f64, "count");
    run.put("core.virqs_injected", s.virqs_injected as f64, "count");

    // The manager rows of the workload's headline configuration: the
    // 4-guest column for table3, the whole run otherwise.
    let mgr = base.table3.as_ref().map_or(s.hwmgr, |t| t.col4);
    run.put("core.hwmgr.entry_us.mean", mgr.entry.mean_us(), "us");
    run.put("core.hwmgr.exit_us.mean", mgr.exit.mean_us(), "us");
    run.put(
        "core.hwmgr.irq_entry_us.mean",
        mgr.irq_entry.mean_us(),
        "us",
    );
    run.put("core.hwmgr.exec_us.mean", mgr.exec.mean_us(), "us");
    run.put("core.hwmgr.total_us.mean", mgr.total.mean_us(), "us");
    let total_p95 = if mgr.total.samples == 0 {
        0.0
    } else {
        if let Err(e) =
            stats::check_beyond("core.hwmgr.total_us.p95", mgr.total.samples as usize, 0.95)
        {
            run.fail(e);
        }
        mgr.total.hist.quantile(0.95) / mnv_hal::cycles::CPU_HZ as f64 * 1e6
    };
    run.put("core.hwmgr.total_us.p95", total_p95, "us");
    run.put("core.hwmgr.invocations", mgr.invocations as f64, "count");
    run.put(
        "core.hwmgr.busy_frac",
        ratio(mgr.busy, mgr.invocations),
        "ratio",
    );
    run.put("core.hwmgr.reconfigs", mgr.reconfigs as f64, "count");
    run.put("core.hwmgr.reclaims", mgr.reclaims as f64, "count");
    run.put("core.ring.kicks", s.hwmgr.ring_kicks as f64, "count");
    run.put("core.ring.descs", s.hwmgr.ring_descs as f64, "count");
    run.put("core.ring.virqs", s.hwmgr.ring_virqs as f64, "count");
    let hw_calls = [
        Hypercall::HwTaskRequest,
        Hypercall::PcapPoll,
        Hypercall::RingKick,
    ]
    .map(|h| s.hypercalls[h.nr() as usize])
    .iter()
    .sum();
    run.put(
        "core.ring.hypercalls_per_desc",
        ratio(hw_calls, s.hwmgr.ring_descs),
        "ratio",
    );
    run.put("fpga.pcap_transfers", s.pcap_transfers as f64, "count");
    run.put(
        "fpga.pcap_polls_per_transfer",
        ratio(
            s.hypercalls[Hypercall::PcapPoll.nr() as usize],
            s.pcap_transfers,
        ),
        "ratio",
    );
    for (id, name) in tasks {
        run.put(&format!("ucos.task.{name}.host_s"), self_s(id), "s");
        run.put(&format!("ucos.task.{name}.steps"), calls(id), "count");
    }
    let thw = base.thw;
    run.put("ucos.thw.requests", thw.requests as f64, "count");
    run.put("ucos.thw.completions", thw.completions as f64, "count");
    run.put("ucos.thw.busy", thw.busy as f64, "count");
    run.put("ucos.thw.errors", thw.errors as f64, "count");
    run.put(
        "obs.trace_overhead_frac",
        (obs_s - plain_s) / plain_s,
        "ratio",
    );
    run.put(
        "obs.trace_events",
        triples[0].obs.trace_events as f64,
        "count",
    );
    run.put(
        "obs.trace_dropped",
        triples[0].obs.trace_dropped as f64,
        "count",
    );
    run.put(
        "ledger.probe_overhead_frac",
        (traced_s - plain_s) / plain_s,
        "ratio",
    );
    run.put("ledger.untraced_host_s", plain_s, "s");
    run.put("fail_frac", ratio(base.failed, base.attempted), "ratio");

    // Simulated end-to-end figures of the workload's own operation.
    let (err, cells) = match &base.table3 {
        Some(t) => stats::paper_err_pct(&t.means, &stats::PAPER_TABLE3),
        None => (0.0, Vec::new()),
    };
    run.put("paper_err_pct", err, "%");
    let empty = Vec::new();
    let turn = base.table3.as_ref().map_or(&empty, |t| &t.turnaround_us);
    run.put_pct("hwtask_turnaround_us.p50", turn, 0.50);
    run.put_pct("hwtask_turnaround_us.p95", turn, 0.95);
    let rounds = base.ring.as_ref().map_or(&empty, |r| &r.round_us);
    run.put_pct("ring_round_us.p50", rounds, 0.50);
    run.put_pct("ring_round_us.p95", rounds, 0.95);

    print_ledger(&r, traced_s, plain_s, triples.len());
    match &base.table3 {
        Some(t) => print_fidelity(&t.means, err, &cells, t.col4.total.samples, turn.len()),
        None => println!(
            "fidelity: unvalidated — {} has no reference results to compare with",
            a.workload
        ),
    }
    run.check_lockstep(a.seed, base);
    if a.workload == "table3" {
        check_table3_defaults(run);
    }
    dump_spans(&r, a);
}

/// At the `table3` binary's default seeds the workload must reproduce the
/// mean cells that binary prints (it measures through `mnv-bench`).
fn check_table3_defaults(run: &mut Run) {
    let cfg = mnv_bench::Table3Config::default();
    let ours = workloads::table3(&cfg.seeds, &Pass::Plain);
    let means = ours.table3.expect("table3 results").means;
    let rows = std::iter::once(mnv_bench::measure_native(&cfg))
        .chain((1..=4).map(|n| mnv_bench::measure_virtualized(n, &cfg)));
    let mut theirs = [[0.0; 5]; 5];
    for (c, row) in rows.enumerate() {
        for (r, m) in [row.entry, row.exit, row.irq_entry, row.exec, row.total]
            .iter()
            .enumerate()
        {
            theirs[r][c] = m.mean_us;
        }
    }
    if means == theirs {
        println!(
            "table3 at the binary's default seeds {:?}: all 25 mean cells identical",
            cfg.seeds
        );
    } else {
        run.fail(format!(
            "table3 at default seeds differs from the table3 binary: {means:?} vs {theirs:?}"
        ));
    }
}

fn print_ledger(r: &Recorder, traced_s: f64, plain_s: f64, passes: usize) {
    println!("\nper-layer host-time ledger (traced pass, per horizon, {passes} pass(es))");
    println!(
        "{:<36}{:>12}{:>12}{:>12}{:>8}",
        "layer", "calls", "total s", "self s", "self%"
    );
    let n = passes as f64;
    let mut rows: Vec<(String, ledger::LayerTotals)> = (0..ledger::LAYERS as u16)
        .map(|id| (ledger::layer_name(id), r.totals[id as usize]))
        .filter(|(_, t)| t.calls > 0)
        .collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    let probed: u64 = rows.iter().map(|(_, t)| t.self_ns).sum();
    let kernel_s = traced_s - probed as f64 / 1e9 / n;
    for (name, t) in &rows {
        let self_s = t.self_ns as f64 / 1e9 / n;
        println!(
            "{name:<36}{:>12.0}{:>12.4}{:>12.4}{:>7.1}%",
            t.calls as f64 / n,
            t.total_ns as f64 / 1e9 / n,
            self_s,
            self_s / traced_s * 100.0
        );
    }
    println!(
        "{:<36}{:>12}{:>12}{:>12.4}{:>7.1}%",
        "core.kernel (rest of Kernel::run)",
        "",
        "",
        kernel_s,
        kernel_s / traced_s * 100.0
    );
    println!(
        "traced horizon {traced_s:.4} s vs untraced {plain_s:.4} s: probe overhead {:+.1}%",
        (traced_s - plain_s) / plain_s * 100.0
    );
    if r.dropped > 0 {
        println!(
            "({} spans beyond the dump capacity were folded but not kept)",
            r.dropped
        );
    }
}

fn print_fidelity(
    means: &stats::Table,
    err: f64,
    cells: &[stats::Cell],
    col4_samples: u64,
    turns: usize,
) {
    println!("\nTable III fidelity (simulated means vs the paper, us)");
    println!(
        "{:<12}{:>8}{:>10}{:>10}{:>9}",
        "row", "column", "sim", "paper", "err%"
    );
    for c in cells {
        println!(
            "{:<12}{:>8}{:>10.2}{:>10.2}{:>+9.1}",
            c.row, c.col, c.sim, c.paper, c.err_pct
        );
    }
    println!(
        "paper_err_pct = {err:.2}% over {} nonzero paper cells",
        cells.len()
    );
    println!("simulated table (rows entry/exit/irq_entry/exec/total; columns native,1..4):");
    for (name, row) in stats::ROWS.iter().zip(means) {
        println!(
            "  {name:<10}{}",
            row.iter().map(|v| format!("{v:>9.2}")).collect::<String>()
        );
    }
    println!("4-guest column: {col4_samples} manager samples, {turns} T_hw turnarounds");
}

fn dump_spans(r: &Recorder, a: &Args) {
    let path = out_dir().join(format!("spans-{}-seed{}.json", a.workload, a.seed));
    let mut out = String::from("{\"layers\":[");
    for id in 0..ledger::LAYERS as u16 {
        if id > 0 {
            out.push(',');
        }
        out.push_str(&mnv_trace::json::Json::str(ledger::layer_name(id)).to_string());
    }
    out.push_str("],\"spans\":[");
    for (i, s) in r.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == ledger::NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        out.push_str(&format!(
            "[{},{},{},{},{}]",
            s.layer, s.start_ns, s.end_ns, parent, s.req
        ));
    }
    out.push_str(&format!("],\"dropped\":{}}}\n", r.dropped));
    match std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, out)) {
        Ok(()) => println!(
            "spans: {} kept, written to {}",
            r.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} ({}), {} s, trace {}",
        a.workload,
        a.seed,
        match a.seed {
            DEV_SEED => "development seed",
            HELD_OUT_SEED => "held-out seed",
            _ => "other seed",
        },
        a.seconds,
        a.trace as u8
    );
    let mut run = Run::new();
    if a.trace {
        per_layer(&a, &mut run);
    } else {
        end_to_end(&a, &mut run);
    }
    for p in &run.problems {
        println!("CHECK FAILED: {p}");
    }
    let rec = Record {
        workload: a.workload.clone(),
        seed: a.seed,
        trace: a.trace,
        correct: run.correct,
        attempted: run.attempted,
        failed: run.failed,
        metrics: run.metrics,
    };
    println!();
    for (name, (v, unit)) in &rec.metrics {
        println!("{name:<40}{v:>18.6} {unit}");
    }
    let path = a.out.clone().map(Into::into).unwrap_or_else(|| {
        out_dir().join(format!(
            "{}-seed{}-trace{}.json",
            a.workload, a.seed, a.trace as u8
        ))
    });
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, rec.to_file()));
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    if let Some(before) = &a.compare {
        compare_with(before, &rec);
    }
    println!("{}", rec.line());
}

/// Print how this run differs from an earlier results file.
fn compare_with(path: &str, now: &Record) {
    let loaded = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|t| Record::parse(&t));
    let specs = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| results::specs(&t));
    match (loaded, specs) {
        (Ok(before), Ok((e2e, layers))) => {
            if before.workload != now.workload {
                println!(
                    "compare: {path} is a {} run, this is {}",
                    before.workload, now.workload
                );
            }
            let all: Vec<_> = e2e.into_iter().chain(layers).collect();
            println!(
                "\nchange against {path} (seed {} → {}):",
                before.seed, now.seed
            );
            print!("{}", results::render(&results::compare(&before, now, &all)));
        }
        (Err(e), _) | (_, Err(e)) => eprintln!("compare: {e}"),
    }
}
