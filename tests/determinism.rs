//! The golden determinism test: a run is a pure function of
//! `(TigerConfig, workload, seed)`.
//!
//! This is the repo's foundational contract (see `crates/core/src/lib.rs`
//! and DESIGN.md), now enforced end-to-end: the event queue breaks ties by
//! sequence number, maps iterate deterministically, and — as of the
//! dependency-free substrate — the PRNG (`tiger_sim::SimRng`) is in-tree,
//! so no registry crate can change a stream between builds.

use tiger::core::{TigerConfig, TigerSystem};
use tiger::sim::{SimDuration, SimTime};
use tiger::workload::{populate_catalog, CatalogSpec};
use tiger_sim::RngTree;

/// Drives a moderately busy system — blips on, failures, churn — and
/// returns everything observable about the run.
fn run_once(seed: u64) -> (tiger::core::Metrics, tiger::core::LossReport, u64, u64) {
    let mut cfg = TigerConfig::small_test();
    cfg.seed = seed;
    cfg.deadman_timeout = SimDuration::from_millis(1_500);
    let mut sys = TigerSystem::new(cfg);
    sys.enable_omniscient();
    let files = populate_catalog(
        &mut sys,
        &CatalogSpec::sized_for(SimDuration::from_secs(120), 6),
    );
    let mut rng = RngTree::new(seed).fork("workload", 0);
    let mut live = Vec::new();
    let mut t = SimTime::from_millis(100);
    // Random starts and stops, plus one cub failure mid-run: every
    // stochastic subsystem (disk blips, net jitter, arrivals) is exercised.
    sys.fail_cub_at(SimTime::from_secs(35), tiger::layout::CubId(1));
    for _ in 0..60 {
        t = t + SimDuration::from_millis(rng.gen_range(100u64..700));
        if live.len() < 10 && rng.gen_bool(0.7) {
            let client = sys.add_client();
            let file = files[rng.gen_range(0..files.len())];
            live.push(sys.request_start(t, client, file));
        } else if !live.is_empty() {
            let idx = rng.gen_range(0..live.len());
            sys.request_stop(t, live.swap_remove(idx));
        }
    }
    sys.run_until(t + SimDuration::from_secs(90));
    sys.sample_window(sys.now(), tiger::layout::CubId(0), None);

    let mut received = 0u64;
    let mut missing = 0u64;
    for c in sys.clients() {
        for (_, v) in c.viewers() {
            received += u64::from(v.blocks_received());
            missing += u64::from(v.blocks_missing());
        }
    }
    let loss = sys.metrics().loss.clone();
    (sys.metrics().clone(), loss, received, missing)
}

#[test]
fn identical_seeds_give_identical_runs() {
    let a = run_once(42);
    let b = run_once(42);
    assert_eq!(a.0, b.0, "Metrics diverged between identical runs");
    assert_eq!(a.1, b.1, "LossReport diverged between identical runs");
    assert_eq!(a.2, b.2, "client block receipt diverged");
    assert_eq!(a.3, b.3, "client block loss diverged");
    // The run must have actually done something for the equality above to
    // mean anything.
    assert!(a.2 > 0, "golden run delivered no blocks");
    assert!(!a.0.windows.is_empty(), "golden run sampled no windows");
}

/// The fleet extends the contract to parallel execution: sharding
/// independent experiments across worker threads must not change one bit
/// of the merged output, because results merge in shard order, not
/// completion order.
#[test]
fn fleet_output_is_identical_at_any_thread_count() {
    use tiger::bench::fleet::{metrics_digest, run_fleet, select, Scale};

    // A cross-section of the catalogue: two full-system ramps (Figure 8
    // and the multi-seed capacity sweep, which carry merged Metrics), one
    // data-structure churn sweep, one analytic sweep, and the chaos sweep,
    // whose campaigns shard across the same threads inside the job. Quick
    // scale keeps the three runs to seconds.
    let jobs = select("fig8_unfailed,capacity,ablation_fragmentation,ablation_decluster,chaos")
        .expect("every picked job is in the catalogue");
    let runs: Vec<_> = [1usize, 2, 3]
        .into_iter()
        .map(|threads| run_fleet(&jobs, Scale::Quick, threads))
        .collect();

    let [one, two, three] = runs.try_into().ok().expect("three runs");
    assert_eq!(
        one.merged, two.merged,
        "merged Metrics diverged at 2 threads"
    );
    assert_eq!(
        one.merged, three.merged,
        "merged Metrics diverged at 3 threads"
    );
    for (other, threads) in [(&two, 2), (&three, 3)] {
        for ((job, a), b) in jobs.iter().zip(&one.reports).zip(&other.reports) {
            assert_eq!(
                a.output, b.output,
                "report '{}' diverged at {threads} threads",
                job.name
            );
            assert_eq!(a.passed, b.passed);
        }
    }
    // The runs must have measured something for equality to mean anything.
    assert!(one.reports.iter().all(|r| r.passed), "a picked job failed");
    assert!(!one.merged.windows.is_empty(), "fleet sampled no windows");
    assert!(one.merged.loss.blocks_sent > 0, "fleet sent no blocks");
    assert_eq!(metrics_digest(&one.merged), metrics_digest(&three.merged));
}

/// One registry: job names are unique, can be listed in `--filter`, and
/// every experiment golden in `results/` belongs to a job —
/// `<job>.txt` is its full-scale output, `<job>_quick.txt` its quick one.
#[test]
fn every_golden_belongs_to_a_registry_job() {
    use tiger::bench::fleet::JOBS;
    // Rendered by the `trace_timeline` tool, not by a fleet job.
    const TIMELINES: [&str; 3] = [
        "trace_timeline_demo",
        "trace_rejoin_timeline",
        "trace_shrink_timeline",
    ];

    for (i, job) in JOBS.iter().enumerate() {
        assert!(
            !job.name.contains(','),
            "job name '{}' has a comma",
            job.name
        );
        assert!(
            JOBS[..i].iter().all(|j| j.name != job.name),
            "job name '{}' is registered twice",
            job.name
        );
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut goldens = 0;
    for entry in std::fs::read_dir(&dir).expect("results/ exists") {
        let name = entry.expect("readable entry").file_name();
        let name = name.to_str().expect("utf-8 file name");
        let Some(stem) = name.strip_suffix(".txt") else {
            continue;
        };
        if TIMELINES.contains(&stem) {
            continue;
        }
        let job = stem.strip_suffix("_quick").unwrap_or(stem);
        assert!(
            JOBS.iter().any(|j| j.name == job),
            "results/{name} has no registry job named '{job}'"
        );
        goldens += 1;
    }
    assert!(goldens > 0, "no goldens found in {}", dir.display());
}

#[test]
fn different_seeds_give_different_runs() {
    // The converse sanity check: the seed actually reaches the streams.
    let a = run_once(42);
    let b = run_once(1997);
    assert!(
        a.0 != b.0 || a.2 != b.2,
        "changing the seed changed nothing — the RNG tree is disconnected"
    );
}
