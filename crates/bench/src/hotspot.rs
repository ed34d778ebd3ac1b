//! §2.2's striping motivation: demand imbalance cannot hotspot a disk.
//!
//! "Tiger uses this striping layout in order to handle imbalances in
//! demand for particular files. Because each file has blocks on every disk
//! and every server, over the course of playing a file the load is
//! distributed among all of the system components. Thus, the system will
//! not overload even if all of the viewers request the same file, assuming
//! that they are equitemporally spaced."
//!
//! [`hotspot_report`] plays the *same* file to hundreds of viewers and
//! compares per-disk load spread (and losses) against the same population
//! spread over a 64-file catalog; the slot mechanism provides the
//! equitemporal spacing automatically. [`hotspot_plan_report`] takes the
//! same measurement with demand declared by the checked-in
//! `tiger-workgen` plan `examples/workloads/zipf-hotspot.plan`.

use std::fmt::Write as _;

use tiger_core::{TigerConfig, TigerSystem};
use tiger_layout::CubId;
use tiger_sim::{RngTree, SimDuration, SimTime};
use tiger_workgen::WorkloadPlan;
use tiger_workload::{drive_plan, populate_catalog, CatalogSpec};

use crate::fleet::{run_indexed, ExpReport, Scale};

/// The plan [`hotspot_plan_report`] runs, compiled in so the job does not
/// depend on the working directory.
const PLAN_PATH: &str = "examples/workloads/zipf-hotspot.plan";
const PLAN: &str = include_str!("../../../examples/workloads/zipf-hotspot.plan");

const TABLE_HEADER: &str =
    "workload        streams  disk_load min/mean/max   missed  client_missing";

struct Outcome {
    streams: u32,
    min_disk: f64,
    max_disk: f64,
    mean_disk: f64,
    server_missed: u64,
    client_missing: u64,
}

/// Measures per-disk load over the window `settle..settle + window`.
fn measure(mut sys: TigerSystem, settle: SimTime, window: SimDuration) -> Outcome {
    sys.run_until(settle);
    sys.sample_window(settle, CubId(0), None);
    let end = settle + window;
    sys.run_until(end);

    let mut loads: Vec<f64> = Vec::new();
    for cub in sys.cubs() {
        for d in cub.disks() {
            loads.push(d.load_window(end));
        }
    }
    let report = sys.all_clients_report();
    Outcome {
        streams: sys.controller().active_streams(),
        min_disk: loads.iter().copied().fold(f64::INFINITY, f64::min),
        max_disk: loads.iter().copied().fold(0.0, f64::max),
        mean_disk: loads.iter().sum::<f64>() / loads.len() as f64,
        server_missed: sys.metrics().loss.server_missed,
        client_missing: report.blocks_missing,
    }
}

fn run(single_file: bool, target: u32) -> Outcome {
    let mut sys = TigerSystem::new(TigerConfig::sosp97());
    let files = populate_catalog(
        &mut sys,
        &CatalogSpec::sized_for(SimDuration::from_secs(400), 64),
    );
    let mut chooser = RngTree::new(5).fork("hotspot", 0);
    let mut t = SimTime::from_millis(100);
    for _ in 0..target {
        let client = sys.add_client();
        let file = if single_file {
            files[0]
        } else {
            files[chooser.gen_range(0..files.len())]
        };
        sys.request_start(t, client, file);
        // Arrivals ~1.2 s apart; Tiger's slots enforce the equitemporal
        // spacing regardless.
        t += SimDuration::from_millis(1_200);
    }
    // Settle, then measure one 60 s window.
    measure(
        sys,
        t + SimDuration::from_secs(30),
        SimDuration::from_secs(60),
    )
}

fn write_row(out: &mut String, label: &str, o: &Outcome) {
    let _ = writeln!(
        out,
        "{label:<15} {:>7}   {:>5.1}% /{:>5.1}% /{:>5.1}%  {:>6}  {:>14}",
        o.streams,
        o.min_disk * 100.0,
        o.mean_disk * 100.0,
        o.max_disk * 100.0,
        o.server_missed,
        o.client_missing,
    );
}

/// One hot file vs a 64-file spread, 300 viewers each at paper scale.
/// The two runs take about a second together, so it ignores [`Scale`].
pub fn hotspot_report(_scale: Scale, threads: usize) -> ExpReport {
    let workloads = [("64-file spread", false), ("single hot file", true)];
    let outcomes = run_indexed(workloads.len(), threads, |i| run(workloads[i].1, 300));
    let mut out = String::new();
    let _ = writeln!(out, "{TABLE_HEADER}");
    for ((label, _), o) in workloads.iter().zip(&outcomes) {
        write_row(&mut out, label, o);
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "shape: the single-hot-file column shows the same per-disk load band \
         and zero overload losses — every disk holds a slice of the hot file, \
         and the slot schedule spaces its viewers equitemporally."
    );
    ExpReport::new(out)
}

/// The same per-disk-spread measurement with demand from the checked-in
/// Zipf hotspot plan, over a window after the plan's arrival horizon.
pub fn hotspot_plan_report(scale: Scale, _threads: usize) -> ExpReport {
    let plan = WorkloadPlan::parse(PLAN).expect("checked-in plan parses");
    let tiger = match scale {
        Scale::Full => TigerConfig::sosp97(),
        Scale::Quick => {
            let mut t = TigerConfig::small_test();
            t.disk = t.disk.without_blips();
            t
        }
    };
    let mut sys = TigerSystem::new(tiger);
    let files = populate_catalog(
        &mut sys,
        &CatalogSpec::sized_for(plan.horizon + SimDuration::from_secs(60), plan.titles()),
    );
    drive_plan(&mut sys, &plan, &files);
    let outcome = measure(
        sys,
        SimTime::ZERO + plan.horizon + SimDuration::from_secs(10),
        SimDuration::from_secs(30),
    );
    let mut out = String::new();
    let _ = writeln!(out, "{TABLE_HEADER}");
    write_row(&mut out, "plan-driven", &outcome);
    out.push('\n');
    let _ = writeln!(out, "plan: {PLAN_PATH}");
    ExpReport::new(out)
}
