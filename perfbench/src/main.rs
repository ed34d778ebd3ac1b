//! End-to-end benchmark of the Tiger simulator.
//!
//! ```text
//! perfbench --workload <steady-224|vcr-56|failover-56> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process, so the peak RSS
//! it reports belongs to that workload alone. Requests are generated from
//! `--seed` before the system runs and scheduled open-loop in simulated
//! time: every request fires at its due instant whatever the service
//! does. See `README.md` beside this file for the metric definitions.
//!
//! * `--trace 0` runs a fixed number of input sets drawn from the seed,
//!   then repeats them while `--seconds` of wall time last (at least one
//!   repeat), and prints the end-to-end metrics: host timings as medians
//!   over the runs, in CPU time scaled to the reference speed (see
//!   [`perfbench::host`]), simulated figures over the sets.
//! * `--trace 1` makes one untraced run and two traced runs of the first
//!   input set, prints the per-layer metrics, and times the viewer-state
//!   receive path on the untraced run's final state.
//!
//! Any failed check (a figure that differs between two runs of one seed
//! or between the traced and untraced run, a trace ring overflow) exits
//! with status 1 and prints no result line. Protocol violations and the
//! other defects listed in `README.md` are counted in `failed`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use perfbench::host::speed_factor;
use perfbench::{
    median, percentile, percentile_reportable, ppm, ratio, result_json, self_status_mb,
    stream_seconds, CpuTimer, HostReference, Metric,
};
use tiger_core::{Message, TigerConfig, TigerSystem};
use tiger_faults::FaultPlan;
use tiger_layout::{CubId, FileId, StripeConfig};
use tiger_sched::ViewerState;
use tiger_sim::{RngTree, SimDuration, SimTime};
use tiger_trace::{TraceEvent, Tracer};
use tiger_workgen::{SessionSpec, WorkloadPlan};
use tiger_workload::{drive_plan, populate_catalog, CatalogSpec};

/// Simulated length of one `run_until` call. Slice host times give the
/// `run.slice_ms.*` percentiles, so every window spans at least 200
/// slices (10 beyond p95).
const SLICE: SimDuration = SimDuration::from_millis(100);

/// Trace-ring capacity of a traced run. The ring is drained after every
/// slice; a slice that records more than this fails the run.
const TRACE_CAP: usize = 1 << 18;

/// Repetitions of each viewer-state replay probe (the median is kept),
/// each on its own receiving cub.
const PROBE_REPS: usize = 5;

/// The canonical `vcr-heavy` plan (`crates/bench/src/workloads.rs`, full
/// scale) offers this many viewers per second, at most
/// [`VCR_HEAVY_VIEWERS`] of them, to the small test ring of
/// [`VCR_HEAVY_CAPACITY`] streams (4 cubs, 1 disk each, decluster 2).
const VCR_HEAVY_RATE: f64 = 0.5;
const VCR_HEAVY_VIEWERS: f64 = 150.0;
const VCR_HEAVY_CAPACITY: f64 = 36.0;

/// The Zipf exponent of every canonical skewed plan (`zipf-hotspot`,
/// `flash-crowd`).
const ZIPF_HOTSPOT_S: f64 = 1.1;

/// A play request still unserved this long after it was due has failed;
/// younger ones at the end of a run are still waiting, not failed.
const START_LIMIT: SimDuration = SimDuration::from_secs(20);

/// Percentile reported as the tail of every latency distribution.
const TAIL: f64 = 0.99;

#[derive(Clone, Copy, Debug)]
enum Kind {
    Steady,
    Vcr,
    Failover,
}

/// One benchmark workload: ring size, load shape, and the simulated
/// instants that bound warm-up, the measured window and the drain.
struct Spec {
    kind: Kind,
    cubs: u32,
    /// Input sets per `--trace 0` run, each a seed drawn from `--seed`: as
    /// many as run once in 30–35 s, so the pooled start-latency tail
    /// varies little from seed to seed.
    input_sets: usize,
    /// Steady-load starts are spread over `[0.1 s, ramp_end)`.
    ramp_end: SimTime,
    /// The measured window is `[window_from, window_to)`.
    window_from: SimTime,
    window_to: SimTime,
    /// Where the run stops (after a drain that lets late starts land).
    run_to: SimTime,
}

impl Spec {
    fn named(name: &str) -> Option<Spec> {
        let s = SimTime::from_secs;
        Some(match name {
            // The ROADMAP's scale target: viewer-state forwarding and the
            // read/send pipeline at 224 cubs; admission idle once warm.
            "steady-224" => Spec {
                kind: Kind::Steady,
                cubs: 224,
                input_sets: 5,
                ramp_end: s(10),
                window_from: s(20),
                window_to: s(40),
                run_to: s(40),
            },
            // Interactive churn near capacity: inserts and deschedules
            // beside the reads, the schedule's write workload.
            "vcr-56" => Spec {
                kind: Kind::Vcr,
                cubs: 56,
                input_sets: 18,
                ramp_end: SimTime::ZERO,
                window_from: s(40),
                window_to: s(60),
                // Arrivals stop at 60 s; the drain lets the start queue on
                // the Zipf head empty (one input set's starts waited 30 s).
                run_to: s(90),
            },
            // The only workload with failures: deadman detection, mirror
            // takeover, rejoin and retired-log replay, and block loss.
            "failover-56" => Spec {
                kind: Kind::Failover,
                cubs: 56,
                input_sets: 9,
                ramp_end: s(20),
                window_from: s(30),
                window_to: s(110),
                run_to: s(110),
            },
            _ => return None,
        })
    }

    /// Indices of the slices inside the measured window.
    fn window_slices(&self) -> std::ops::Range<usize> {
        let slice_of =
            |t: SimTime| (t.saturating_since(SimTime::ZERO).as_nanos() / SLICE.as_nanos()) as usize;
        slice_of(self.window_from)..slice_of(self.window_to)
    }

    /// Host seconds of the warm-up, the measured window and the whole run,
    /// from the host time of each slice.
    fn phases(&self, slices_s: &[f64]) -> Phases {
        let w = self.window_slices();
        Phases {
            warmup_s: slices_s[..w.start].iter().sum(),
            window_s: slices_s[w].iter().sum(),
            run_s: slices_s.iter().sum(),
        }
    }

    fn config(&self, seed: u64) -> TigerConfig {
        let mut cfg = TigerConfig::sosp97();
        cfg.stripe = StripeConfig::new(self.cubs, 4, 4);
        cfg.seed = seed;
        cfg
    }
}

/// Steady load: 80% of schedule capacity, one start per equal share of
/// the ramp at a seeded instant inside it, each for a uniform title at a
/// uniform block. Starting mid-file spreads the first reads over every
/// disk; with all starts at block 0 the 64 titles' first-block disks
/// queue the ramp for tens of seconds and the window never reaches a
/// steady state.
fn schedule_steady_load(sys: &mut TigerSystem, files: &[FileId], seed: u64, spec: &Spec) {
    let mut rng = RngTree::new(seed).fork("perfbench-starts", 0);
    let want = (f64::from(sys.shared().params.capacity()) * 0.8).round() as u64;
    let from = SimTime::from_millis(100);
    let step = spec.ramp_end.saturating_since(from).as_nanos() / want;
    // Leave every stream enough blocks to play to the end of the run.
    let tail = spec
        .run_to
        .saturating_since(SimTime::ZERO)
        .as_secs_f64()
        .ceil() as u32;
    for i in 0..want {
        let jitter = (rng.gen_f64() * step as f64) as u64;
        let at = from + SimDuration::from_nanos(i * step + jitter);
        let file = files[rng.gen_range(0..files.len())];
        let blocks = sys
            .shared()
            .catalog
            .get(file)
            .expect("populated")
            .num_blocks;
        let from_block = rng.gen_range(0..blocks - tail);
        let client = sys.add_client();
        sys.request_start_at(at, client, file, from_block);
    }
}

/// The interactive plan of `vcr-56`: the canonical `vcr-heavy` sessions
/// (full scale) over Zipf titles with the `zipf-hotspot` exponent, and
/// Poisson arrivals at the `vcr-heavy` rate scaled by capacity from its
/// small test ring to `capacity` streams.
fn vcr_plan(capacity: u32, horizon: SimTime) -> WorkloadPlan {
    let scale = f64::from(capacity) / VCR_HEAVY_CAPACITY;
    WorkloadPlan::new()
        .zipf(ZIPF_HOTSPOT_S, CatalogSpec::sosp97().files)
        .arrival_rate(VCR_HEAVY_RATE * scale)
        .session(SessionSpec {
            interactive: 0.6,
            pause_rate: 3.0 / 60.0,
            dwell_mean: SimDuration::from_secs(15),
            seek_rate: 2.0 / 60.0,
            abandon_rate: 0.5 / 60.0,
        })
        .viewers((VCR_HEAVY_VIEWERS * scale).round() as u32)
        .horizon(horizon.saturating_since(SimTime::ZERO))
}

/// Two crashes of non-adjacent cubs, each restarted: the first victim is
/// drawn from the seed, the second sits roughly opposite it on the ring.
fn failover_plan(cubs: u32, seed: u64) -> FaultPlan {
    let mut rng = RngTree::new(seed).fork("perfbench-victims", 0);
    let a = rng.gen_range(0..cubs);
    let b = (a + cubs / 2 - 4 + rng.gen_range(0..9u32)) % cubs;
    let s = SimTime::from_secs;
    FaultPlan::new()
        .crash(a, s(40))
        .restart(a, s(55))
        .crash(b, s(70))
        .restart(b, s(85))
}

/// Host seconds of the three set-up steps.
#[derive(Clone, Copy, Debug, Default)]
struct SetupSpans {
    system_new: f64,
    catalog: f64,
    workload: f64,
}

impl SetupSpans {
    fn total(&self) -> f64 {
        self.system_new + self.catalog + self.workload
    }
}

/// Builds the system, loads the catalog and schedules every request.
fn set_up(spec: &Spec, seed: u64) -> (TigerSystem, SetupSpans) {
    let t = CpuTimer::start();
    let mut sys = TigerSystem::new(spec.config(seed));
    let system_new = t.elapsed_s();

    let t = CpuTimer::start();
    let files = populate_catalog(&mut sys, &CatalogSpec::sosp97());
    let catalog = t.elapsed_s();

    let t = CpuTimer::start();
    match spec.kind {
        Kind::Steady => schedule_steady_load(&mut sys, &files, seed, spec),
        Kind::Vcr => {
            let plan = vcr_plan(sys.shared().params.capacity(), spec.window_to);
            drive_plan(&mut sys, &plan, &files);
        }
        Kind::Failover => {
            schedule_steady_load(&mut sys, &files, seed, spec);
            sys.apply_fault_plan(&failover_plan(spec.cubs, seed));
        }
    }
    let workload = t.elapsed_s();
    (
        sys,
        SetupSpans {
            system_new,
            catalog,
            workload,
        },
    )
}

/// Lifetime counters read from public accessors at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counters {
    blocks_received: u64,
    ctrl_bytes: u64,
    ctrl_msgs: u64,
    disk_reads: u64,
    disk_mirror_reads: u64,
    disk_bytes: u64,
    disk_blips: u64,
    nic_overcommits: u64,
}

impl Counters {
    fn read(sys: &TigerSystem) -> Counters {
        let sh = sys.shared();
        let mut c = Counters {
            blocks_received: sys.all_clients_report().blocks_received,
            ..Counters::default()
        };
        for cub in sys.cubs() {
            let node = sh.cub_node(cub.id);
            c.ctrl_bytes += sh.net.total_control_bytes(node);
            c.ctrl_msgs += sh.net.total_control_msgs(node);
            c.nic_overcommits += sh.net.nic(node).total_overcommits();
            for d in cub.disks() {
                c.disk_reads += d.total_reads();
                c.disk_mirror_reads += d.total_mirror_reads();
                c.disk_bytes += d.total_bytes();
                c.disk_blips += d.total_blips();
            }
        }
        c
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters {
            blocks_received: self.blocks_received - before.blocks_received,
            ctrl_bytes: self.ctrl_bytes - before.ctrl_bytes,
            ctrl_msgs: self.ctrl_msgs - before.ctrl_msgs,
            disk_reads: self.disk_reads - before.disk_reads,
            disk_mirror_reads: self.disk_mirror_reads - before.disk_mirror_reads,
            disk_bytes: self.disk_bytes - before.disk_bytes,
            disk_blips: self.disk_blips - before.disk_blips,
            nic_overcommits: self.nic_overcommits - before.nic_overcommits,
        }
    }
}

/// Trace records counted as the run goes: the ring is drained after every
/// slice, so every record ever recorded is counted exactly once.
#[derive(Clone, Debug, Default, PartialEq)]
struct TraceTally {
    /// Sequence number of the next record to count.
    next_seq: u64,
    /// Records stamped inside the measured window, by event name.
    window: BTreeMap<&'static str, u64>,
    /// Records in the window of any kind.
    window_records: u64,
    /// Viewer states carried by `vs-forward` batches in the window.
    forwarded_records: u64,
    /// `send-due` records in the window that found the block ready.
    send_due_ok: u64,
    /// Records replayed from retired logs in the window.
    replayed: u64,
    /// `(cub, at)` of every power cut, deadman declaration (by failed
    /// cub), restart and rejoin completion in the run.
    power_cuts: Vec<(u32, SimTime)>,
    declares: Vec<(u32, SimTime)>,
    restarts: Vec<(u32, SimTime)>,
    rejoins: Vec<(u32, SimTime)>,
}

impl TraceTally {
    fn drain(&mut self, tracer: &Tracer, spec: &Spec) -> Result<(), String> {
        let recorded = tracer.recorded();
        if recorded == self.next_seq {
            return Ok(());
        }
        let records = tracer.records();
        let first = records.iter().position(|r| r.seq >= self.next_seq);
        let fresh = &records[first.unwrap_or(records.len())..];
        if fresh.first().map(|r| r.seq) != Some(self.next_seq) {
            return Err(format!(
                "trace ring of {TRACE_CAP} overflowed: next record {} is gone",
                self.next_seq
            ));
        }
        for rec in fresh {
            match rec.ev {
                TraceEvent::PowerCut { cub } => self.power_cuts.push((cub, rec.at)),
                TraceEvent::DeadmanDeclare { failed, .. } => self.declares.push((failed, rec.at)),
                TraceEvent::CubRestart { cub } => self.restarts.push((cub, rec.at)),
                TraceEvent::RejoinDone { cub } => self.rejoins.push((cub, rec.at)),
                _ => {}
            }
            if rec.at < spec.window_from || rec.at >= spec.window_to {
                continue;
            }
            self.window_records += 1;
            *self.window.entry(rec.ev.name()).or_default() += 1;
            match rec.ev {
                TraceEvent::VsForward { count, .. } => {
                    self.forwarded_records += u64::from(count);
                }
                TraceEvent::SendDue { ok: true, .. } => self.send_due_ok += 1,
                TraceEvent::RetiredReplay { count, .. } => self.replayed += u64::from(count),
                _ => {}
            }
        }
        self.next_seq = recorded;
        Ok(())
    }

    fn count(&self, name: &str) -> u64 {
        self.window.get(name).copied().unwrap_or(0)
    }

    /// Mean simulated seconds from each `(cub, at)` in `causes` to the
    /// first later `(cub, at)` in `effects` for the same cub (0 when no
    /// cause has an effect).
    fn mean_delay(causes: &[(u32, SimTime)], effects: &[(u32, SimTime)]) -> f64 {
        let delays: Vec<f64> = causes
            .iter()
            .filter_map(|&(cub, at)| {
                effects
                    .iter()
                    .find(|&&(c, t)| c == cub && t >= at)
                    .map(|&(_, t)| t.saturating_since(at).as_secs_f64())
            })
            .collect();
        ratio(delays.iter().sum(), delays.len() as f64)
    }
}

/// Host timings of one run, on the thread's CPU clock. They differ from
/// run to run.
#[derive(Clone, Debug, Default)]
struct Timings {
    setup: SetupSpans,
    /// Host seconds of each `run_until` call, one per slice, in order.
    slices_s: Vec<f64>,
    mem_setup_mb: f64,
}

/// Host seconds of a run's phases (see [`Spec::phases`]).
struct Phases {
    warmup_s: f64,
    window_s: f64,
    run_s: f64,
}

/// Everything a run measured that is a function of the seed alone: the
/// simulated end-to-end figures and the per-layer counts. Two runs of one
/// seed must agree on all of it, traced or not.
#[derive(Clone, Debug, PartialEq)]
struct SimFigures {
    window: Counters,
    /// Stream-seconds delivered in the window.
    stream_s: f64,
    /// Start latencies (simulated s) of every play request served,
    /// ascending.
    latencies: Vec<f64>,
    starts: u64,
    /// Play requests due at least [`START_LIMIT`] before the end of the
    /// run that never received a block (and were not stopped).
    starts_unserved: u64,
    blocks_missing: u64,
    dup_blocks: u64,
    view_lead_violations: u64,
    protocol_violations: u64,
    blocks_owed: u64,
    sim_queue_len_peak: u64,
    queued_starts_peak: u64,
    /// Streams playing at the window's start and end, and the schedule's
    /// capacity in streams.
    streams_at_window_start: u64,
    streams_at_window_end: u64,
    capacity: u64,
}

struct RunOut {
    timings: Timings,
    sim: SimFigures,
    trace: Option<TraceTally>,
}

/// Runs `spec` from set-up to the end of its drain, timing every
/// `run_until` call and draining the trace ring after each when traced.
/// Returns the system too, still holding the run's final state.
fn run_once(spec: &Spec, seed: u64, traced: bool) -> Result<(RunOut, TigerSystem), String> {
    let (mut sys, setup) = set_up(spec, seed);
    let mem_setup_mb = self_status_mb("VmRSS")?;
    let mut tally = traced.then(|| {
        sys.enable_trace(TRACE_CAP);
        TraceTally::default()
    });

    let mut timings = Timings {
        setup,
        mem_setup_mb,
        ..Timings::default()
    };
    let mut before = None;
    let mut after = None;
    let mut queue_peak = 0usize;
    let mut queued_starts_peak = 0usize;
    let mut t = SimTime::ZERO;
    while t < spec.run_to {
        let next = (t + SLICE).min(spec.run_to);
        let start = CpuTimer::start();
        sys.run_until(next);
        timings.slices_s.push(start.elapsed_s());
        if next > spec.window_from && next <= spec.window_to {
            queue_peak = queue_peak.max(sys.shared().queue.len());
            let queued: usize = sys.cubs().iter().map(|c| c.queued_starts()).sum();
            queued_starts_peak = queued_starts_peak.max(queued);
        }
        if let Some(tally) = &mut tally {
            tally.drain(sys.tracer(), spec)?;
        }
        if next == spec.window_from {
            before = Some((Counters::read(&sys), sys.controller().active_streams()));
        }
        if next == spec.window_to {
            after = Some((Counters::read(&sys), sys.controller().active_streams()));
        }
        t = next;
    }
    let (before, streams_at_window_start) =
        before.ok_or("the window start is not a slice boundary")?;
    let (after, streams_at_window_end) = after.ok_or("the window end is not a slice boundary")?;
    if let Some(tally) = &tally {
        if tally.next_seq != sys.tracer().recorded() {
            return Err("trace records were left uncounted".into());
        }
    }

    // Three checks the program fails on some seeds, counted in `failed`
    // instead of fatal until it is fixed (see README, "Known defects"):
    // protocol violations, blocks delivered twice, and view entries
    // leading by more than the viewer-state lead bound.
    let violations = sys.take_violations();
    if let Some(first) = violations.first() {
        eprintln!(
            "perfbench: seed {seed}: {} protocol violations, first: {first}",
            violations.len()
        );
    }
    let view_lead_violations = sys.check_view_lead().len() as u64;
    let report = sys.all_clients_report();

    let mut latencies = Vec::new();
    let mut starts_unserved = 0u64;
    for client in sys.clients() {
        for (_, v) in client.viewers() {
            match v.start_latency_secs() {
                Some(l) => latencies.push(l),
                None if !v.stopped && v.requested_at + START_LIMIT <= spec.run_to => {
                    starts_unserved += 1;
                }
                None => {}
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    let starts = sys
        .clients()
        .iter()
        .map(|c| c.viewers().count() as u64)
        .sum();
    if !percentile_reportable(latencies.len(), TAIL) {
        return Err(format!(
            "{} served starts are too few for a p{} start latency",
            latencies.len(),
            TAIL * 100.0
        ));
    }
    let window = after.since(&before);
    let bpt = sys.shared().cfg.block_play_time.as_secs_f64();
    let sim = SimFigures {
        window,
        stream_s: stream_seconds(window.blocks_received, bpt),
        starts,
        latencies,
        starts_unserved,
        blocks_missing: report.blocks_missing,
        dup_blocks: report.dup_blocks,
        view_lead_violations,
        protocol_violations: violations.len() as u64,
        blocks_owed: report.blocks_received + report.blocks_missing,
        sim_queue_len_peak: queue_peak as u64,
        queued_starts_peak: queued_starts_peak as u64,
        streams_at_window_start: u64::from(streams_at_window_start),
        streams_at_window_end: u64::from(streams_at_window_end),
        capacity: u64::from(sys.shared().params.capacity()),
    };
    if sim.stream_s == 0.0 {
        return Err("no stream-second was delivered in the measured window".into());
    }
    let out = RunOut {
        timings,
        sim,
        trace: tally,
    };
    Ok((out, sys))
}

/// Median host nanoseconds per record of the viewer-state receive path,
/// timed three ways on the same records: the cub's message handler, the
/// view merge alone on a copy of the receiver's view, and a wire encode
/// plus decode. Each repetition feeds a different receiving cub the batch
/// built from its ring predecessor's view, so every cub handles its batch
/// once, from the same state the view copy starts from.
struct ReplayProbes {
    /// Records over all probed batches.
    records: usize,
    cub_ns: f64,
    view_ns: f64,
    wire_ns: f64,
}

fn replay_probes(sys: &mut TigerSystem) -> Result<ReplayProbes, String> {
    let n = sys.cubs().len();
    let living = |i: usize| !sys.cubs()[i].failed;
    let receivers: Vec<usize> = (0..n)
        .filter(|&r| {
            let p = (r + n - 1) % n;
            living(r) && living(p) && !sys.cubs()[p].view().is_empty()
        })
        .collect();
    if receivers.len() < PROBE_REPS {
        return Err(format!(
            "{} living cubs with a living, non-empty ring predecessor; the probes need {PROBE_REPS}",
            receivers.len()
        ));
    }
    // Every batch and view copy is taken before any cub handles a batch.
    let cases: Vec<_> = (0..PROBE_REPS)
        .map(|k| {
            let receiver = receivers[k * receivers.len() / PROBE_REPS];
            let pred = (receiver + n - 1) % n;
            let batch: Arc<[ViewerState]> =
                sys.cubs()[pred].view().iter().map(|(_, vs)| *vs).collect();
            (receiver, batch, sys.cubs()[receiver].view().clone())
        })
        .collect();
    let now = sys.now();

    let mut records = 0;
    let mut view_ns = Vec::new();
    let mut wire_ns = Vec::new();
    let mut cub_ns = Vec::new();
    for (receiver, batch, mut view) in cases {
        records += batch.len();
        let per_record = |t: CpuTimer| t.elapsed_s() * 1e9 / batch.len() as f64;
        let msg = Message::ViewerStates(batch.clone());

        let t = CpuTimer::start();
        for vs in batch.iter() {
            black_box(view.apply_viewer_state(*vs, now));
        }
        view_ns.push(per_record(t));

        let t = CpuTimer::start();
        let line = tiger_proto::wire::encode(black_box(&msg));
        let back = tiger_proto::wire::decode(black_box(&line));
        wire_ns.push(per_record(t));
        if back.as_ref() != Some(&msg) {
            return Err("viewer-state batch did not survive a wire round trip".into());
        }

        let t = CpuTimer::start();
        sys.with_cub_mut(CubId(receiver as u32), |cub, sh| {
            cub.on_message(sh, now, black_box(msg))
        });
        cub_ns.push(per_record(t));
    }
    Ok(ReplayProbes {
        records,
        cub_ns: median(&cub_ns).expect("PROBE_REPS > 0"),
        view_ns: median(&view_ns).expect("PROBE_REPS > 0"),
        wire_ns: median(&wire_ns).expect("PROBE_REPS > 0"),
    })
}

fn check_same_sim(what: &str, a: &SimFigures, b: &SimFigures) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "simulated figures differ between {what}:\n  {a:?}\n  {b:?}"
        ))
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn median_over<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>()).expect("at least one item")
}

/// The seed of input set `set` of run seed `seed`.
fn sub_seed(seed: u64, set: usize) -> u64 {
    RngTree::new(seed)
        .fork("perfbench-input-set", set as u64)
        .next_u64()
}

/// Request accounting over a run's distinct input sets.
struct Ledger {
    runs: usize,
    input_sets: usize,
    /// Play requests issued (starts, resumes and seeks).
    attempted: u64,
    /// Requests never served, protocol violations, blocks delivered twice
    /// and view entries beyond the lead bound.
    failed: u64,
    protocol_violations: u64,
    view_lead_violations: u64,
    served: u64,
    stream_s: f64,
}

impl Ledger {
    fn of(sims: &[SimFigures], runs: usize) -> Ledger {
        Ledger {
            runs,
            input_sets: sims.len(),
            attempted: sims.iter().map(|s| s.starts).sum(),
            failed: sims
                .iter()
                .map(|s| {
                    s.starts_unserved
                        + s.protocol_violations
                        + s.dup_blocks
                        + s.view_lead_violations
                })
                .sum(),
            served: sims.iter().map(|s| s.latencies.len() as u64).sum(),
            stream_s: sims.iter().map(|s| s.stream_s).sum(),
            protocol_violations: sims.iter().map(|s| s.protocol_violations).sum(),
            view_lead_violations: sims.iter().map(|s| s.view_lead_violations).sum(),
        }
    }
}

/// `--trace 0`: untraced repetitions for `seconds`, end-to-end metrics.
///
/// Every input set runs once, then the sets run again in order while the
/// next run still fits in `seconds`, at least one repeat, so each run
/// checks that a seed repeats exactly. The simulated figures come from the
/// fixed sets alone: start latencies pool their samples and the other
/// figures are medians over them. Host timings are medians over all runs,
/// scaled to the reference speed by the reference kernel timed before
/// every run; `setup_s` is the median over every set-up.
fn end_to_end(spec: &Spec, seed: u64, seconds: f64) -> Result<(Vec<Metric>, Ledger), String> {
    let reference = HostReference::new()?;
    let start = Instant::now();
    let mut passes: Vec<f64> = Vec::new();
    let mut runs: Vec<(Timings, Phases, f64)> = Vec::new();
    let mut sims: Vec<SimFigures> = Vec::new();
    for i in 0.. {
        let run_start = Instant::now();
        let set = i % spec.input_sets;
        passes.push(reference.time_pass());
        let (run, sys) = run_once(spec, sub_seed(seed, set), false)?;
        // Tear down before the next set-up.
        drop(sys);
        match sims.get(set) {
            Some(first) => check_same_sim("two runs of one seed", first, &run.sim)?,
            None => sims.push(run.sim.clone()),
        }
        let phases = spec.phases(&run.timings.slices_s);
        eprintln!(
            "perfbench: run {i} input set {set}: setup {:.3} s, run {:.3} s, window {:.3} s (CPU)",
            run.timings.setup.total(),
            phases.run_s,
            phases.window_s,
        );
        runs.push((run.timings, phases, run.sim.stream_s));
        let spent = start.elapsed().as_secs_f64();
        if i >= spec.input_sets && spent + run_start.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    let speed = speed_factor(&passes).expect("one pass per run");
    let setup_s = median_over(&runs, |(t, _, _)| t.setup.total());
    let run_s = median_over(&runs, |(_, p, _)| p.run_s);
    let host_us = median_over(&runs, |(_, p, stream_s)| ratio(p.window_s * 1e6, *stream_s));
    eprintln!(
        "perfbench: speed factor {speed:.4}; unscaled CPU timings: setup {setup_s:.4} s, \
         run {run_s:.4} s, {host_us:.4} us per stream-s"
    );
    let mut pooled: Vec<f64> = sims
        .iter()
        .flat_map(|s| s.latencies.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let metrics = vec![
        metric("setup_s", setup_s * speed, "s"),
        metric("run_s", run_s * speed, "s"),
        metric("host_us_per_stream_s", host_us * speed, "us"),
        metric(
            "peak_rss_mb",
            self_status_mb("VmHWM")? - reference.resident_mb,
            "MB",
        ),
        metric(
            "start_latency_p50_s",
            percentile(&pooled, 0.5).expect("checked per set"),
            "s",
        ),
        metric(
            "start_latency_p99_s",
            percentile(&pooled, TAIL).expect("checked per set"),
            "s",
        ),
        metric(
            "ctrl_bytes_per_stream_s",
            median_over(&sims, |s| ratio(s.window.ctrl_bytes as f64, s.stream_s)),
            "B",
        ),
    ];
    Ok((metrics, Ledger::of(&sims, runs.len())))
}

/// `--trace 1`: one untraced and two traced runs, per-layer metrics.
fn per_layer(spec: &Spec, seed: u64) -> Result<(Vec<Metric>, Ledger), String> {
    let seed = sub_seed(seed, 0);
    let reference = HostReference::new()?;
    let mut passes = vec![reference.time_pass()];
    let (plain, mut sys) = run_once(spec, seed, false)?;
    passes.push(reference.time_pass());
    // The untraced run's peak, before any trace ring is allocated.
    let plain_peak_mb = self_status_mb("VmHWM")?;
    // The probes time the untraced receive path on the run's final state.
    let probes = replay_probes(&mut sys)?;
    drop(sys);
    let (first, sys) = run_once(spec, seed, true)?;
    drop(sys);
    passes.push(reference.time_pass());
    check_same_sim("the traced and untraced runs", &plain.sim, &first.sim)?;
    let (second, sys) = run_once(spec, seed, true)?;
    drop(sys);
    check_same_sim("two traced runs of one seed", &plain.sim, &second.sim)?;
    let tally = second.trace.expect("traced run");
    if Some(&tally) != first.trace.as_ref() {
        return Err("trace counts differ between two traced runs of one seed".into());
    }

    let t = &plain.timings;
    let phases = spec.phases(&t.slices_s);
    let s = &plain.sim;
    let w = &s.window;
    let ss = s.stream_s;
    let mut slices: Vec<f64> = t.slices_s[spec.window_slices()]
        .iter()
        .map(|s| s * 1e3)
        .collect();
    slices.sort_by(f64::total_cmp);
    if !percentile_reportable(slices.len(), 0.95) {
        return Err(format!("{} slices are too few for a p95", slices.len()));
    }
    let vs_outcomes: u64 = [
        "vs-accept",
        "vs-duplicate",
        "vs-blocked",
        "vs-shadow",
        "vs-conflict",
        "vs-late",
    ]
    .iter()
    .map(|n| tally.count(n))
    .sum();
    let commits = tally.count("insert-commit");
    let m = vec![
        metric(
            "host.speed_factor",
            speed_factor(&passes).expect("three passes"),
            "1",
        ),
        metric("setup.system_new_s", t.setup.system_new, "s"),
        metric("setup.catalog_s", t.setup.catalog, "s"),
        metric("setup.workload_s", t.setup.workload, "s"),
        metric("mem.setup_mb", t.mem_setup_mb - reference.resident_mb, "MB"),
        metric("run.warmup_s", phases.warmup_s, "s"),
        metric("run.window_s", phases.window_s, "s"),
        metric(
            "run.slice_ms.p50",
            percentile(&slices, 0.5).expect("non-empty"),
            "ms",
        ),
        metric(
            "run.slice_ms.p95",
            percentile(&slices, 0.95).expect("non-empty"),
            "ms",
        ),
        metric("sim.queue_len_peak", s.sim_queue_len_peak as f64, "count"),
        metric(
            "mem.kb_per_stream",
            ratio(
                (plain_peak_mb - t.mem_setup_mb) * 1e3,
                s.streams_at_window_end as f64,
            ),
            "kB",
        ),
        metric(
            "load.window_start_frac",
            ratio(s.streams_at_window_start as f64, s.capacity as f64),
            "1",
        ),
        metric(
            "load.window_end_frac",
            ratio(s.streams_at_window_end as f64, s.capacity as f64),
            "1",
        ),
        metric("e2e.stream_s", ss, "s"),
        metric(
            "check.protocol_violations",
            s.protocol_violations as f64,
            "count",
        ),
        metric("e2e.dup_blocks", s.dup_blocks as f64, "count"),
        metric(
            "check.view_lead_violations",
            s.view_lead_violations as f64,
            "count",
        ),
        metric("e2e.start_samples", s.latencies.len() as f64, "count"),
        metric(
            "e2e.blocks_missing_ppm",
            ppm(s.blocks_missing, s.blocks_owed),
            "ppm",
        ),
        metric(
            "e2e.starts_unserved_frac",
            ratio(s.starts_unserved as f64, s.starts as f64),
            "1",
        ),
        metric(
            "vs.records_per_stream_s",
            ratio(vs_outcomes as f64, ss),
            "1/s",
        ),
        metric(
            "vs.accept_ratio",
            ratio(tally.count("vs-accept") as f64, vs_outcomes as f64),
            "1",
        ),
        metric(
            "vs.records_per_batch",
            ratio(
                tally.forwarded_records as f64,
                tally.count("vs-forward") as f64,
            ),
            "count",
        ),
        metric("vs.late", tally.count("vs-late") as f64, "count"),
        metric("vs.conflict", tally.count("vs-conflict") as f64, "count"),
        metric(
            "svc.send_due_per_stream_s",
            ratio(tally.count("send-due") as f64, ss),
            "1/s",
        ),
        metric(
            "svc.send_ok_ratio",
            ratio(tally.send_due_ok as f64, tally.count("send-due") as f64),
            "1",
        ),
        metric(
            "disk.reads_per_stream_s",
            ratio(w.disk_reads as f64, ss),
            "1/s",
        ),
        metric(
            "disk.mirror_read_share",
            ratio(w.disk_mirror_reads as f64, w.disk_reads as f64),
            "1",
        ),
        metric(
            "disk.bytes_per_read",
            ratio(w.disk_bytes as f64, w.disk_reads as f64),
            "B",
        ),
        metric("disk.blips", w.disk_blips as f64, "count"),
        metric(
            "net.ctrl_msgs_per_stream_s",
            ratio(w.ctrl_msgs as f64, ss),
            "1/s",
        ),
        metric(
            "net.ctrl_bytes_per_msg",
            ratio(w.ctrl_bytes as f64, w.ctrl_msgs as f64),
            "B",
        ),
        metric("net.nic_overcommits", w.nic_overcommits as f64, "count"),
        metric("insert.commits", commits as f64, "count"),
        metric(
            "insert.commit_ratio",
            ratio(
                commits as f64,
                (commits + tally.count("insert-miss")) as f64,
            ),
            "1",
        ),
        metric(
            "insert.queued_starts_peak",
            s.queued_starts_peak as f64,
            "count",
        ),
        metric(
            "desched.apply_per_route",
            ratio(
                tally.count("desched-apply") as f64,
                tally.count("ctrl-route-desched") as f64,
            ),
            "1",
        ),
        metric(
            "ctrl.route_starts",
            tally.count("ctrl-route-start") as f64,
            "count",
        ),
        metric(
            "recovery.detect_s",
            TraceTally::mean_delay(&tally.power_cuts, &tally.declares),
            "s",
        ),
        metric(
            "recovery.rejoin_s",
            TraceTally::mean_delay(&tally.restarts, &tally.rejoins),
            "s",
        ),
        metric(
            "recovery.mirror_creates",
            tally.count("mirror-create") as f64,
            "count",
        ),
        metric("recovery.replay_records", tally.replayed as f64, "count"),
        metric(
            "trace.records_per_stream_s",
            ratio(tally.window_records as f64, ss),
            "1/s",
        ),
        metric(
            "trace.overhead_frac",
            ratio(
                spec.phases(&first.timings.slices_s).window_s - phases.window_s,
                phases.window_s,
            ),
            "1",
        ),
        metric("probe.records", probes.records as f64, "count"),
        metric("cub.vs_batch_ns_per_record", probes.cub_ns, "ns"),
        metric("view.apply_ns_per_record", probes.view_ns, "ns"),
        metric("wire.roundtrip_ns_per_record", probes.wire_ns, "ns"),
    ];
    Ok((m, Ledger::of(std::slice::from_ref(&plain.sim), 3)))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let spec =
        Spec::named(&args.workload).ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let (metrics, ledger) = if args.trace {
        per_layer(&spec, args.seed)?
    } else {
        end_to_end(&spec, args.seed, args.seconds)?
    };
    println!(
        "workload {} seed {} trace {}: {} runs over {} input sets, {} requests, {} served, \
         {} failed, {} stream-s in the windows, {} protocol violations, \
         {} view entries beyond the lead bound",
        args.workload,
        args.seed,
        u8::from(args.trace),
        ledger.runs,
        ledger.input_sets,
        ledger.attempted,
        ledger.served,
        ledger.failed,
        ledger.stream_s,
        ledger.protocol_violations,
        ledger.view_lead_violations
    );
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(true, ledger.attempted, ledger.failed, &metrics)?
    );
    Ok(())
}
