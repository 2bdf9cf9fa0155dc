//! The repository's end-to-end benchmark: time to a byte-checked file
//! against its designed deadline, with a per-layer budget.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload wire_small --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- compare A.json B.json
//! ```
//!
//! A run prints a report of every metric by name and unit (lines starting
//! with `#`), writes the full record with the host fingerprint to
//! `e2ebench/out/`, and ends with one JSON line holding the metrics
//! `BENCHMARK.json` declares: the end-to-end ones with `--trace 0`, the
//! per-layer ones with `--trace 1`.  The traced run also writes its spans
//! to `e2ebench/out/`.

mod host;
mod inputs;
mod layers;
mod report;
mod stats;
mod swap;
mod trace;
mod wire;

use host::Fingerprint;
use report::{Counts, Metric, RunResult, Sample};
use std::path::PathBuf;
use trace::{Stage, Tracer};

/// The end-to-end metrics `BENCHMARK.json` gates, in its order.  The
/// tails (p90, p99), the deadline-miss and failure ratios and the swap
/// latencies are printed too, but not gated: the tails move with the
/// host's CPU steal far more than any bound allows, the ratios are 0 on
/// healthy runs (a relative bound on 0 rejects everything), and swaps
/// exist on one workload only.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "ttf_p50_ms",
    "ttf_p50_slots",
    "retrievals_per_s",
    "goodput_mb_s",
    "max_slots_per_s",
];

/// End-to-end metrics whose tracing overhead the traced run reports.
const TRACED_END_TO_END: [&str; 10] = [
    "ttf_p50_ms",
    "ttf_p90_ms",
    "ttf_p99_ms",
    "ttf_p50_slots",
    "ttf_p90_slots",
    "ttf_p99_slots",
    "deadline_miss_ratio",
    "failed_ratio",
    "retrievals_per_s",
    "goodput_mb_s",
];

/// The per-layer metrics `BENCHMARK.json` lists, in its order.
const PER_LAYER: [&str; 41] = [
    "bcore.design_ms",
    "ida.disperse_us",
    "ida.reconstruct_us",
    "ida.coded_share",
    "bauth.commit_us",
    "bauth.verify_ns_per_block",
    "bdisk.transmit_ns_per_slot",
    "bdisk.ingest_ns_per_obs",
    "bnet.encode_ns_per_frame",
    "bnet.decode_ns_per_datagram",
    "bnet.datagrams_per_slot",
    "bnet.bytes_per_datagram",
    "bnet.send_us_per_datagram",
    "bnet.recv_wait_ms",
    "bnet.feed_ns_per_datagram",
    "bnet.erasures_per_retrieval",
    "bnet.gap_erasures_per_retrieval",
    "bnet.delivered_ratio",
    "bnet.control_subscribe_ms",
    "bnet.join_to_first_datagram_ms",
    "brt.backlog_slots_p99",
    "brt.lagged_slots",
    "brt.lag_erasures",
    "brt.subscribe_us",
    "bmode.prepare_ms",
    "bmode.swap_apply_ms",
    "bmode.flipped_channels",
    "budget.covered_share",
    "budget.uncovered_ms",
    "budget.control_share_of_ttf_p50",
    "overhead.ttf_p50_ms",
    "overhead.ttf_p90_ms",
    "overhead.ttf_p99_ms",
    "overhead.ttf_p50_slots",
    "overhead.ttf_p90_slots",
    "overhead.ttf_p99_slots",
    "overhead.deadline_miss_ratio",
    "overhead.failed_ratio",
    "overhead.retrievals_per_s",
    "overhead.goodput_mb_s",
    "budget.uncovered_share_p99",
];

/// The share of a retrieval's time to file its client spans may leave
/// uncovered (checked at the p99 over retrievals).
const RECONCILE_SHARE: f64 = 0.05;

/// Traces written span by span; every trace's budget is written too.
const FULL_TRACES: u32 = 20;

/// One run in progress.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub notes: Vec<String>,
    pub problems: Vec<String>,
    pub samples: Vec<Sample>,
}

impl Run {
    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.per_layer.push(Metric::new(name, unit, value));
    }

    /// The layers timed from outside: set-up stages and the replay of the
    /// run's slots (its wire stages read 0 when the workload has no wire).
    pub fn replayed(&mut self, setup: &layers::SetupLayers, replay: &layers::ReplayLayers) {
        if replay.verify_failures > 0 {
            self.problems.push(format!(
                "{} replayed blocks failed their inclusion proof",
                replay.verify_failures
            ));
        }
        for (name, unit, value) in [
            ("bcore.design_ms", "ms", setup.design_ms),
            ("ida.disperse_us", "us", setup.disperse_us),
            ("ida.reconstruct_us", "us", replay.reconstruct_us),
            ("ida.coded_share", "ratio", replay.coded_share),
            ("bauth.commit_us", "us", setup.commit_us),
            (
                "bauth.verify_ns_per_block",
                "ns",
                replay.verify_ns_per_block,
            ),
            (
                "bdisk.transmit_ns_per_slot",
                "ns",
                replay.transmit_ns_per_slot,
            ),
            ("bdisk.ingest_ns_per_obs", "ns", replay.ingest_ns_per_obs),
            ("bnet.encode_ns_per_frame", "ns", replay.encode_ns_per_frame),
            (
                "bnet.decode_ns_per_datagram",
                "ns",
                replay.decode_ns_per_datagram,
            ),
            (
                "bnet.datagrams_per_slot",
                "count",
                replay.datagrams_per_slot,
            ),
            ("bnet.bytes_per_datagram", "B", replay.bytes_per_datagram),
            (
                "bnet.send_us_per_datagram",
                "us",
                replay.send_us_per_datagram,
            ),
        ] {
            self.layer(name, unit, value);
        }
    }

    /// Tracing overhead: the traced phase's value minus the untraced one.
    pub fn overhead(&mut self, traced: &[Metric]) {
        for name in TRACED_END_TO_END {
            let get = |ms: &[Metric]| {
                ms.iter()
                    .find(|m| m.name == name)
                    .map(|m| (m.value, m.unit))
            };
            if let (Some((t, unit)), Some((u, _))) = (get(traced), get(&self.end_to_end)) {
                self.layer(&format!("overhead.{name}"), unit, t - u);
            }
        }
    }

    /// Reconciles each retrieval's client spans with its time to file.
    pub fn budget(&mut self, tracer: &Tracer, traced: &[Metric]) {
        let budgets = tracer.budgets();
        let share: Vec<f64> = budgets
            .iter()
            .map(|b| b.covered_ns as f64 / b.total_ns.max(1) as f64)
            .collect();
        let uncovered_share: Vec<f64> = share.iter().map(|s| 1.0 - s).collect();
        let uncovered_ms: Vec<f64> = budgets
            .iter()
            .map(|b| b.uncovered_ns() as f64 / 1e6)
            .collect();
        let p99 = stats::p99_or_zero(&uncovered_share);
        self.layer(
            "budget.covered_share",
            "ratio",
            stats::median_or_zero(&share),
        );
        self.layer(
            "budget.uncovered_ms",
            "ms",
            stats::median_or_zero(&uncovered_ms),
        );
        self.layer("budget.uncovered_share_p99", "ratio", p99);
        if p99 > RECONCILE_SHARE {
            self.problems.push(format!(
                "client spans leave {:.1}% of ttf uncovered at the p99 (allowed {:.0}%)",
                p99 * 100.0,
                RECONCILE_SHARE * 100.0
            ));
        }
        let ttf_p50 = traced
            .iter()
            .find(|m| m.name == "ttf_p50_ms")
            .map_or(0.0, |m| m.value);
        let stages: Vec<String> = Stage::ALL
            .iter()
            .filter(|&&s| s != Stage::Retrieval)
            .filter(|&&s| budgets.iter().any(|b| b.stage_count(s) > 0))
            .map(|&s| {
                let per: Vec<f64> = budgets.iter().map(|b| b.stage_ns(s) as f64 / 1e6).collect();
                format!("{} {:.4} ms", s.name(), stats::median_or_zero(&per))
            })
            .collect();
        self.notes.push(format!(
            "budget (median per retrieval, traced ttf_p50 {ttf_p50:.4} ms): {}; uncovered {:.4} ms",
            stages.join(", "),
            stats::median_or_zero(&uncovered_ms)
        ));
    }

    pub fn write_spans(&mut self, tracer: &Tracer) {
        let path = out_dir().join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed));
        match tracer.write(&path, FULL_TRACES) {
            Ok(()) => self
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => self.notes.push(format!("spans not written: {e}")),
        }
    }
}

/// Fresh builds timed for `setup_s`; the median is reported.
const SETUP_BUILDS: usize = 15;

/// Builds and starts serving [`SETUP_BUILDS`] times, stopping each but the
/// last; returns the last (it serves the run) and the median set-up time.
pub fn timed_setup<T>(start: impl Fn() -> T, stop: impl Fn(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_BUILDS);
    let mut last: Option<T> = None;
    for _ in 0..SETUP_BUILDS {
        if let Some(previous) = last.take() {
            stop(previous);
        }
        let t = std::time::Instant::now();
        last = Some(start());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one build"), stats::median(&times))
}

/// Flags a paced phase whose backlog grew: the server could not keep the
/// schedule, so its latencies are not those of the stated rate.
///
/// Samples are in time order.  The backlog of a healthy paced phase
/// fluctuates around a constant; over capacity it grows without bound.
pub fn paced_validity(backlog: &[f64], slots_per_s: f64, run: &mut Run) {
    if backlog.len() < 8 {
        run.problems
            .push("too few backlog samples to judge the paced phase".into());
        return;
    }
    let q = backlog.len() / 4;
    let first = stats::median(&backlog[..q]);
    let last = stats::median(&backlog[backlog.len() - q..]);
    let first_p99 = stats::p99_or_zero(&backlog[..q]);
    let allowed = (slots_per_s * 0.010).max(4.0 * first_p99);
    run.notes.push(format!(
        "paced backlog: first-quarter median {first:.1} slots (p99 {first_p99:.1}), \
         last-quarter median {last:.1}; growth allowed {allowed:.1}"
    ));
    if last - first > allowed {
        run.problems.push(format!(
            "the paced phase's backlog grew from {first:.1} to {last:.1} slots: \
             the server is over capacity at {slots_per_s} slots/s"
        ));
    }
}

/// Distinct failure reasons with their counts, so no failure goes unread.
fn failure_reasons(samples: &[Sample]) -> Vec<(String, usize)> {
    let mut reasons: std::collections::BTreeMap<String, usize> = Default::default();
    for s in samples {
        let reason = match &s.status {
            report::Status::Complete => continue,
            report::Status::Mismatch => "bytes differ from every version served".to_string(),
            report::Status::Cancelled => "cancelled by a mode swap".to_string(),
            report::Status::Failed(e) => e.clone(),
        };
        *reasons.entry(reason).or_default() += 1;
    }
    reasons.into_iter().collect()
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload <wire_small|wire_large|runtime_swap> --seed <n> \
         --seconds <s> --trace <0|1>\n       e2ebench compare <result.json> <result.json>"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else { usage() };
        std::process::exit(compare(a, b));
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 20u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let mut run = Run {
        workload: workload.clone(),
        seed,
        seconds: seconds.max(1),
        trace,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        notes: Vec::new(),
        problems: Vec::new(),
        samples: Vec::new(),
    };
    let ticks_before = host::cpu_ticks();
    match workload.as_str() {
        "wire_small" => wire::run(wire::WIRE_SMALL, &mut run),
        "wire_large" => wire::run(wire::WIRE_LARGE, &mut run),
        "runtime_swap" => swap::run(&mut run),
        _ => usage(),
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, host::cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        run.notes.push(format!(
            "host CPU steal during the run: {:.1}%",
            share * 100.0
        ));
    }
    let counts = Counts::of(&run.samples);
    for (reason, n) in failure_reasons(&run.samples) {
        run.notes.push(format!("{n} retrievals failed: {reason}"));
    }
    if counts.attempted == 0 {
        run.problems.push("no retrieval was attempted".into());
    }
    if counts.mismatched > 0 {
        run.problems.push(format!(
            "{} retrieved files differ from the bytes served",
            counts.mismatched
        ));
    }
    let result = RunResult {
        workload: run.workload,
        seed: run.seed,
        seconds: run.seconds,
        trace: run.trace,
        counts,
        problems: run.problems,
        end_to_end: run.end_to_end,
        per_layer: run.per_layer,
        notes: run.notes,
    };
    result.print_report();
    let fingerprint = Fingerprint::of_this_host();
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        result.workload, result.seed, result.trace as u8
    ));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, result.to_json(&fingerprint)));
    match written {
        Ok(()) => println!("# result written to {}", path.display()),
        Err(e) => println!("# result not written: {e}"),
    }
    let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result.result_line(names));
    if !result.correct() {
        std::process::exit(1);
    }
}

/// Compares two result files metric by metric, refusing (exit code 3) when
/// they come from different host fingerprints.
fn compare(a: &str, b: &str) -> i32 {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{p}: {e}"));
    let (ta, tb) = (read(a), read(b));
    let (Some(fa), Some(fb)) = (Fingerprint::from_result(&ta), Fingerprint::from_result(&tb))
    else {
        eprintln!("refused: a result has no host fingerprint");
        return 3;
    };
    let differences = fa.differences(&fb);
    if !differences.is_empty() {
        eprintln!("refused: the results come from different hosts");
        for d in differences {
            eprintln!("  {d}");
        }
        return 3;
    }
    for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let (Some(x), Some(y)) = (metric_value(&ta, name), metric_value(&tb, name)) {
            let change = if x != 0.0 { (y - x) / x.abs() } else { 0.0 };
            println!("{name:<40} {x:>16.6} {y:>16.6} {:>+9.2}%", change * 100.0);
        }
    }
    0
}

/// The value of metric `name` in a result file written by this program.
fn metric_value(text: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\":{{\"value\":");
    let at = text.find(&tag)? + tag.len();
    let end = text[at..].find(',')?;
    text[at..at + end].parse().ok()
}
