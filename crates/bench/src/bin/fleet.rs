//! The experiment fleet: every paper artifact, one registry, one binary.
//!
//! Runs the catalogue of independent experiments (`tiger_bench::fleet`)
//! across worker threads. Stdout is the plain concatenation of the
//! selected reports, headers included, and is **bit-identical at any
//! thread count** (reports print in catalogue order, metrics merge in
//! shard order). So `fleet --filter X --scale full` is byte for byte
//! `results/X.txt`. Job separators, the merged-metrics digest and all
//! timing go to stderr.
//!
//! ```text
//! fleet [--threads N] [--scale quick|full] [--filter JOB[,JOB...]] [--list]
//! ```
//!
//! * `--threads N` — worker threads for the jobs and for each job's inner
//!   sweep (default 1; sequential).
//! * `--scale quick|full` — job size (default quick: seconds-long smoke
//!   runs on the small-test configuration; full is paper §5 scale).
//! * `--filter JOB,...` — run only the named jobs (exact names).
//! * `--list` — print the selected job names and exit.
//!
//! Exits 1 if any selected job fails its own checks (a chaos or workload
//! invariant violation, a failed ablation check).

use std::process::exit;

use tiger_bench::fleet::{metrics_digest, run_fleet, select, Scale, JOBS};

fn main() {
    let mut threads = 1usize;
    let mut scale = Scale::Quick;
    let mut jobs = JOBS.to_vec();
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--threads needs a positive integer"));
            }
            "--scale" => {
                scale = args
                    .next()
                    .as_deref()
                    .and_then(Scale::parse)
                    .unwrap_or_else(|| usage("--scale needs 'quick' or 'full'"));
            }
            "--filter" => {
                let names = args
                    .next()
                    .unwrap_or_else(|| usage("--filter needs a list of job names"));
                jobs = select(&names).unwrap_or_else(|e| usage(&e));
            }
            "--list" => list = true,
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if list {
        for j in &jobs {
            println!("{}", j.name);
        }
        return;
    }

    eprintln!(
        "fleet: every experiment is a pure function of (config, workload, seed); \
         shards merge in order, so stdout is identical at any --threads"
    );
    let result = run_fleet(&jobs, scale, threads);
    for (job, report) in jobs.iter().zip(&result.reports) {
        eprintln!("---- {} ----", job.name);
        print!("{}", report.output);
    }
    eprintln!("fleet: merged metrics: {}", metrics_digest(&result.merged));

    let serial: f64 = result.job_secs.iter().sum();
    for (job, secs) in jobs.iter().zip(&result.job_secs) {
        eprintln!("fleet: {:<28} {secs:>8.2}s", job.name);
    }
    eprintln!(
        "fleet: {} jobs in {:.2}s wall ({:.2}s serial, {:.2}x speedup at {} threads)",
        jobs.len(),
        result.wall_secs,
        serial,
        serial / result.wall_secs.max(1e-9),
        threads,
    );

    let failed: Vec<&str> = jobs
        .iter()
        .zip(&result.reports)
        .filter(|(_, r)| !r.passed)
        .map(|(j, _)| j.name)
        .collect();
    if !failed.is_empty() {
        eprintln!("fleet: checks failed in: {}", failed.join(", "));
        exit(1);
    }
}

fn usage(err: &str) -> ! {
    eprintln!("fleet: {err}");
    eprintln!("usage: fleet [--threads N] [--scale quick|full] [--filter JOB[,JOB...]] [--list]");
    exit(2);
}
