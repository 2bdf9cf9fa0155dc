//! Per-retrieval samples, the end-to-end summary, and the printed result.

use crate::host::{escape, Fingerprint};
use crate::layers::Request;
use crate::stats::{self, Timing};

/// How one attempted retrieval ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// Reconstructed, and byte-identical to what was served.
    Complete,
    /// Reconstructed bytes differ from every version served for the file.
    Mismatch,
    /// Cancelled by a mode swap (`ModeChanged`).
    Cancelled,
    /// Any error.
    Failed(String),
}

/// One attempted retrieval.
#[derive(Debug, Clone)]
pub struct Sample {
    pub request: Request,
    pub status: Status,
    pub ttf_ms: f64,
    /// `None` unless the retrieval completed.
    pub ttf_slots: Option<u64>,
    pub missed_deadline: bool,
    /// Reconstructed file bytes (0 unless complete).
    pub bytes: usize,
    /// When it resolved, in seconds since its phase began.
    pub done_s: f64,
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Counts over the attempted retrievals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub attempted: u64,
    pub completed: u64,
    pub mismatched: u64,
    pub cancelled: u64,
    pub errored: u64,
    pub missed: u64,
}

impl Counts {
    pub fn of(samples: &[Sample]) -> Counts {
        let mut c = Counts {
            attempted: samples.len() as u64,
            ..Counts::default()
        };
        for s in samples {
            match s.status {
                Status::Complete => c.completed += 1,
                Status::Mismatch => c.mismatched += 1,
                Status::Cancelled => c.cancelled += 1,
                Status::Failed(_) => c.errored += 1,
            }
            if s.missed_deadline {
                c.missed += 1;
            }
        }
        c
    }

    /// Errors, cancellations and byte mismatches.
    pub fn failed(&self) -> u64 {
        self.mismatched + self.cancelled + self.errored
    }
}

/// Windows a measured phase is split into for its medians.
const WINDOWS: usize = 15;

/// The retrieval-derived end-to-end metrics of one measured phase: the
/// p50 and p90 times, the rates, as medians over [`WINDOWS`] equal
/// windows; the p99s and the ratios over the whole phase.
pub fn retrieval_metrics(
    samples: &[Sample],
    window_s: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let counts = Counts::of(samples);
    let ok: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.status == Status::Complete)
        .collect();
    let ms: Vec<f64> = ok.iter().map(|s| s.ttf_ms).collect();
    let slots: Vec<f64> = ok
        .iter()
        .filter_map(|s| s.ttf_slots.map(|v| v as f64))
        .collect();
    let ms_t = Timing::of(&ms);
    let slots_t = Timing::of(&slots);
    for (what, t) in [("ttf_ms", ms_t), ("ttf_slots", slots_t)] {
        let tail = match t.tail_level {
            Some(q) => format!("p{} = {:.4}", q * 100.0, t.tail),
            None => "none (fewer than 100 samples)".into(),
        };
        notes.push(format!(
            "{what}: {} samples; highest percentile with >= {} beyond it: {tail}{}",
            t.count,
            stats::MIN_BEYOND,
            if t.p99_supported() {
                ""
            } else {
                "; the reported p99 has fewer than 10 samples beyond it"
            }
        ));
    }
    let attempted = counts.attempted.max(1) as f64;
    // Median over equal windows of the phase, so a burst of host noise
    // (another guest taking the CPUs) moves a window, not the figure.
    let span = window_s / WINDOWS as f64;
    let windowed = |f: &dyn Fn(&[&Sample]) -> f64| -> f64 {
        let values: Vec<f64> = (0..WINDOWS)
            .map(|w| {
                let in_window: Vec<&Sample> = ok
                    .iter()
                    .copied()
                    .filter(|s| ((s.done_s / span) as usize).min(WINDOWS - 1) == w)
                    .collect();
                f(&in_window)
            })
            .filter(|v| v.is_finite())
            .collect();
        stats::median_or_zero(&values)
    };
    let sorted = |pick: &dyn Fn(&Sample) -> Option<f64>, window: &[&Sample]| {
        let mut v: Vec<f64> = window.iter().filter_map(|s| pick(s)).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let ms_of = |s: &Sample| Some(s.ttf_ms);
    let slots_of = |s: &Sample| s.ttf_slots.map(|v| v as f64);
    vec![
        Metric::new(
            "ttf_p50_ms",
            "ms",
            windowed(&|w| stats::percentile(&sorted(&ms_of, w), 0.5)),
        ),
        Metric::new(
            "ttf_p90_ms",
            "ms",
            windowed(&|w| stats::percentile(&sorted(&ms_of, w), 0.9)),
        ),
        Metric::new("ttf_p99_ms", "ms", ms_t.p99),
        Metric::new(
            "ttf_p50_slots",
            "slots",
            windowed(&|w| stats::grouped_percentile(&sorted(&slots_of, w), 0.5)),
        ),
        Metric::new(
            "ttf_p90_slots",
            "slots",
            windowed(&|w| stats::grouped_percentile(&sorted(&slots_of, w), 0.9)),
        ),
        Metric::new("ttf_p99_slots", "slots", slots_t.p99),
        Metric::new(
            "deadline_miss_ratio",
            "ratio",
            counts.missed as f64 / attempted,
        ),
        Metric::new("failed_ratio", "ratio", counts.failed() as f64 / attempted),
        Metric::new(
            "retrievals_per_s",
            "1/s",
            windowed(&|w| w.len() as f64 / span),
        ),
        Metric::new(
            "goodput_mb_s",
            "MB/s",
            windowed(&|w| w.iter().map(|s| s.bytes).sum::<usize>() as f64 / span / 1e6),
        ),
    ]
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub counts: Counts,
    /// Reasons the run is not valid (byte mismatches, an over-capacity
    /// paced phase, a budget that does not reconcile).
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.counts.mismatched == 0
    }

    fn find(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The human-readable report: every metric by name and unit.
    pub fn print_report(&self) {
        println!(
            "# {} seed={} seconds={} trace={}",
            self.workload, self.seed, self.seconds, self.trace as u8
        );
        let c = &self.counts;
        println!(
            "# attempted={} completed={} mismatched={} cancelled={} errored={} deadline_missed={}",
            c.attempted, c.completed, c.mismatched, c.cancelled, c.errored, c.missed
        );
        for (title, metrics) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            println!("# {title}:");
            for m in metrics.iter() {
                println!("#   {:<40} {:>16.6} {}", m.name, m.value, m.unit);
            }
        }
        for n in &self.notes {
            println!("# note: {n}");
        }
        for p in &self.problems {
            println!("# INVALID: {p}");
        }
    }

    /// The full record, with the host fingerprint, as one JSON object.
    pub fn to_json(&self, fingerprint: &Fingerprint) -> String {
        let metric = |m: &Metric| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        };
        let list = |ms: &[Metric]| ms.iter().map(metric).collect::<Vec<_>>().join(",");
        let strings = |v: &[String]| {
            v.iter()
                .map(|s| format!("\"{}\"", escape(s)))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"fingerprint\":{},\
             \"correct\":{},\"attempted\":{},\"failed\":{},\"end_to_end\":{{{}}},\
             \"per_layer\":{{{}}},\"notes\":[{}],\"problems\":[{}]}}",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            fingerprint.to_json(),
            self.correct(),
            self.counts.attempted,
            self.counts.failed(),
            list(&self.end_to_end),
            list(&self.per_layer),
            strings(&self.notes),
            strings(&self.problems)
        )
    }

    /// The last line of standard output: the metrics `BENCHMARK.json`
    /// declares for this mode (`names`), nothing else.
    pub fn result_line(&self, names: &[&str]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|&name| {
                let m = self.find(name).unwrap_or_else(|| {
                    panic!("metric `{name}` declared in BENCHMARK.json was not measured")
                });
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.counts.attempted.max(1),
            self.counts.failed(),
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity: an unmeasurable value prints as 0 and the
/// run's notes say why.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
