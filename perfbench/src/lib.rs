//! Metric reductions of the end-to-end simulator benchmark.
//!
//! Everything here apart from [`host`] is a pure function of
//! already-measured numbers, so the rules that turn samples into reported
//! figures (percentile and sample count, ppm, stream-second
//! normalisation, `/proc` parsing, the result line) are unit-tested apart
//! from the simulator runs in `main.rs`.

use std::fmt::Write as _;

pub mod host;

pub use host::{CpuTimer, HostReference};

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` of all samples at or below it. `None` when
/// there are no samples or `p` is outside `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples lying strictly above the nearest-rank `p` percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// The sample-count rule: a percentile may be reported only when at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile_reportable(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_TAIL_SAMPLES
}

/// Median of unsorted samples (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `part` per million of `whole` (0 when `whole` is 0).
pub fn ppm(part: u64, whole: u64) -> f64 {
    ratio(part as f64 * 1e6, whole as f64)
}

/// `num / den`, or 0 when `den` is 0 (a counter with no base reads 0, not
/// NaN, so every figure stays valid JSON).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Stream-seconds delivered: each whole block a client received is one
/// block play time of one stream.
pub fn stream_seconds(blocks_received: u64, block_play_secs: f64) -> f64 {
    blocks_received as f64 * block_play_secs
}

/// The value in kB of field `key` (such as `VmHWM` or `VmRSS`) in the
/// text of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut toks = rest.split_whitespace();
        let kb = toks.next()?.parse().ok()?;
        (toks.next() == Some("kB") && toks.next().is_none()).then_some(kb)
    })
}

/// This process's `/proc/self/status` field `key`, in MB (10^6 bytes).
pub fn self_status_mb(key: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = parse_status_kb(&text, key).ok_or_else(|| format!("no {key} in /proc/self/status"))?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Its value, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Renders the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. Non-finite values are
/// refused, since JSON cannot carry them.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest string that reads back as the same
        // f64, so every digit measured survives.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}
