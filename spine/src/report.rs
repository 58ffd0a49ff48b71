//! Metric values, the statistics over samples, and the output lines.

use std::fmt::Write as _;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The metrics of one run of one workload, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        debug_assert!(
            !self.0.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            // A ratio over an empty denominator is reported as 0.
            value: if value.is_finite() { value } else { 0.0 },
        });
    }
}

/// Median; sorts `values` in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `p`-th percentile (nearest rank) of sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, …}` with every digit of `v`.
fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the driver reads: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(metrics)
    )
}

/// What identifies a result row, so numbers from different machines,
/// commits or sizes are never compared by accident.
pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
    pub traced: bool,
    pub nproc: usize,
    pub commit: &'a str,
    /// Latency samples behind the percentiles.
    pub samples: u64,
}

/// One self-describing row for `--out`.
pub fn out_row(info: &RunInfo, correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"scale\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"commit\": {}, \"samples\": {}, \"correct\": {correct}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_string(info.workload),
        info.seed,
        info.scale,
        info.seconds,
        u8::from(info.traced),
        info.nproc,
        json_string(info.commit),
        info.samples,
        metrics_json(m)
    )
}

/// The table for people, on standard error: the metrics, then the
/// `notes` that are shown here and nowhere else.
pub fn print_table(info: &RunInfo, metrics: &Metrics, notes: &Metrics) {
    eprintln!(
        "== {} seed={} scale={} seconds={} trace={} nproc={} commit={} samples={}",
        info.workload,
        info.seed,
        info.scale,
        info.seconds,
        u8::from(info.traced),
        info.nproc,
        info.commit,
        info.samples
    );
    for m in metrics.0.iter().chain(&notes.0) {
        eprintln!("  {:<38} {:>16.4} {}", m.name, m.value, m.unit);
    }
}
