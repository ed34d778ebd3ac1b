//! The metric reductions: percentile and sample-count rule, ppm,
//! stream-second normalisation, `/proc` parsing and the result line.

use perfbench::host::{speed_factor, REFERENCE_NOMINAL_S};
use perfbench::{
    median, parse_status_kb, percentile, percentile_reportable, ppm, ratio, result_json,
    samples_beyond, stream_seconds, Metric, MIN_TAIL_SAMPLES,
};

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_is_nearest_rank() {
    let v = ascending(100);
    assert_eq!(percentile(&v, 0.5), Some(50.0));
    assert_eq!(percentile(&v, 0.99), Some(99.0));
    assert_eq!(percentile(&v, 1.0), Some(100.0));
    assert_eq!(percentile(&v, 0.001), Some(1.0));
    // Between ranks, the next sample up is taken.
    assert_eq!(percentile(&ascending(10), 0.55), Some(6.0));
    assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
}

#[test]
fn percentile_rejects_empty_input_and_bad_ranks() {
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&ascending(3), 0.0), None);
    assert_eq!(percentile(&ascending(3), 1.5), None);
    assert_eq!(percentile(&ascending(3), f64::NAN), None);
}

#[test]
fn a_tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(MIN_TAIL_SAMPLES, 10);
    // p99 of 1000 samples is the 990th; 10 lie beyond it.
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert!(percentile_reportable(1000, 0.99));
    assert!(!percentile_reportable(999, 0.99));
    // p95 of 200 slices leaves exactly 10 beyond.
    assert_eq!(samples_beyond(200, 0.95), 10);
    assert!(percentile_reportable(200, 0.95));
    assert!(!percentile_reportable(199, 0.95));
    assert!(!percentile_reportable(0, 0.5));
    assert_eq!(samples_beyond(5, 1.0), 0);
}

#[test]
fn median_takes_the_middle_or_the_mean_of_the_middle_pair() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn the_speed_factor_scales_to_the_reference_kernel_median() {
    let n = REFERENCE_NOMINAL_S;
    // A host at the reference speed leaves timings as measured.
    assert_eq!(speed_factor(&[n, n, n]), Some(1.0));
    // One slow pass among three does not move the median.
    assert_eq!(speed_factor(&[n, 5.0 * n, n]), Some(1.0));
    // A host running the kernel 25% slower scales timings down by as much.
    let f = speed_factor(&[1.25 * n, 1.25 * n]).unwrap();
    assert!((f - 0.8).abs() < 1e-12);
    assert_eq!(speed_factor(&[]), None);
}

#[test]
fn ppm_and_ratios_have_a_zero_base_guard() {
    assert_eq!(ppm(591, 1_000_000), 591.0);
    assert_eq!(ppm(1, 4), 250_000.0);
    assert_eq!(ppm(0, 0), 0.0);
    assert_eq!(ratio(3.0, 0.0), 0.0);
    assert_eq!(ratio(3.0, 4.0), 0.75);
}

#[test]
fn stream_seconds_count_block_play_times_delivered() {
    // 7,700 streams for 25 s of one-second blocks.
    let ss = stream_seconds(7_700 * 25, 1.0);
    assert_eq!(ss, 192_500.0);
    // 3.3 host seconds over that window is ~17 µs per stream-second.
    let us = ratio(3.3e6, ss);
    assert!((us - 17.142857).abs() < 1e-6, "{us}");
    assert_eq!(stream_seconds(10, 0.5), 5.0);
    assert_eq!(ratio(1.0, 0.0), 0.0);
}

#[test]
fn status_fields_parse_in_kb() {
    let status = "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t  197632 kB\n\
                  VmRSS:\t  150000 kB\nThreads:\t1\n";
    assert_eq!(parse_status_kb(status, "VmHWM"), Some(197_632));
    assert_eq!(parse_status_kb(status, "VmRSS"), Some(150_000));
    // A prefix of another key does not match it.
    assert_eq!(parse_status_kb(status, "Vm"), None);
    assert_eq!(parse_status_kb(status, "VmSwap"), None);
    assert_eq!(parse_status_kb("VmHWM:\t12 MB\n", "VmHWM"), None);
    assert_eq!(parse_status_kb("VmHWM:\tlots kB\n", "VmHWM"), None);
}

#[test]
fn the_result_line_has_exactly_the_four_keys() {
    let m = [
        Metric {
            name: "setup_s".into(),
            value: 0.8127,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb".into(),
            value: 193.0,
            unit: "MB",
        },
    ];
    assert_eq!(
        result_json(true, 1000, 0, &m).expect("finite"),
        "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
         \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
         \"peak_rss_mb\": {\"value\": 193.0, \"unit\": \"MB\"}}}"
    );
    let nan = [Metric {
        name: "x".into(),
        value: f64::NAN,
        unit: "s",
    }];
    assert!(result_json(true, 1, 0, &nan).is_err());
}
