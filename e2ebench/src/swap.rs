//! The `runtime_swap` workload: an authenticated station served in
//! process (`serve_concurrent`, no sockets) to a constant fleet of
//! closed-loop subscriptions, each with its own seeded loss, while a
//! writer replaces one file's bytes every 250 ms through
//! `prepare_mode_with_contents` → `swap_at(.., Drain)`.
//!
//! It bypasses `bnet` entirely: a network-plane change must read "no
//! change" here.

use crate::inputs::{Inputs, Rng, Shape};
use crate::layers::{self, ms, us, Request};
use crate::report::{retrieval_metrics, Metric, Sample, Status};
use crate::stats::{self, mean_or_zero, median_or_zero};
use crate::trace::{Stage, Tracer};
use crate::{paced_validity, timed_setup, Run};
use rtbdisk::{
    BernoulliErrors, ClientHandle, FileId, ManualClock, ModeSpec, RetrievalResolution,
    RuntimeHandle, Station, SwapPolicy, WallClock,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const SHAPE: Shape = Shape {
    files: 16,
    channels: 4,
    block_bytes: 512,
    max_m: 4,
    max_faults: 2,
};

/// The paced phase's slot rate.  At 100k slots/s and above a retrieval
/// lasts a few hundred microseconds and its wall time is the scheduling of
/// the fleet's tasks on the host's cores (on a 2-vCPU virtual machine its
/// median moved by half between runs); at 10k slots/s the broadcast itself
/// sets it.  The saturated phase still drives the ring as fast as it goes.
const SLOTS_PER_S: f64 = 10_000.0;

/// In-process subscribers, each retrieving closed-loop.
const FLEET: usize = 32;

/// Each subscriber's pause between one retrieval resolving and its next
/// request.  Without it the fleet keeps both cores busy and every wall
/// time measures how much CPU the host lent the run; with it the cores
/// have headroom and the times are the program's.
const THINK: Duration = Duration::from_millis(20);

/// Each subscription's reception-loss probability.
const LOSS: f64 = 0.05;

/// One content write per this interval.
const WRITE_EVERY: Duration = Duration::from_millis(250);

/// The load generator's poll interval while nothing resolved.
const POLL: Duration = Duration::from_micros(50);

/// Equal spans of the saturated phase; the best span rate is reported.
const SATURATED_SPANS: usize = 10;

/// Slots released at once for the saturated phase (far more than the
/// runtime serves in a run).
const SATURATED_RELEASE: usize = 1 << 32;

/// How long in-flight retrievals may take to resolve after the window.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// Every version of every file's bytes, with the slot it went on the air.
struct Versions(BTreeMap<FileId, Vec<(u64, Vec<u8>)>>);

impl Versions {
    fn new(inputs: &Inputs) -> Versions {
        Versions(
            inputs
                .contents
                .iter()
                .map(|(id, bytes)| (*id, vec![(0, bytes.clone())]))
                .collect(),
        )
    }

    /// The slot of the latest content flip (0 before any write).
    fn last_flip(&self) -> u64 {
        self.0
            .values()
            .filter_map(|v| v.last().map(|(on, _)| *on))
            .max()
            .unwrap_or(0)
    }

    /// Whether `data` is exactly one version that was on the air at some
    /// slot in `from..=to`.
    fn served(&self, file: FileId, from: u64, to: u64, data: &[u8]) -> bool {
        let versions = &self.0[&file];
        versions.iter().enumerate().any(|(i, (on, bytes))| {
            let off = versions.get(i + 1).map_or(u64::MAX, |next| next.0);
            *on <= to && off > from && bytes == data
        })
    }
}

struct OnAir {
    handle: RuntimeHandle,
    /// The `WallClock`'s origin and period; `None` when saturated.
    pace: Option<(Instant, Duration)>,
}

impl OnAir {
    fn paced(station: Station, period: Duration) -> OnAir {
        let clock = WallClock::new(period);
        let origin = Instant::now();
        OnAir {
            handle: station.serve_concurrent(clock),
            pace: Some((origin, period)),
        }
    }

    /// Serving as fast as the runtime can: a `ManualClock` released far
    /// ahead.  A 1 µs `WallClock` would cap the in-process rate at the
    /// floor's 1M slots/s, which the runtime can exceed.
    fn saturated(station: Station) -> OnAir {
        let clock = ManualClock::new();
        let handle = station.serve_concurrent(clock.clone());
        clock.advance(SATURATED_RELEASE);
        OnAir { handle, pace: None }
    }

    fn backlog(&self) -> Option<f64> {
        let (origin, period) = self.pace?;
        let due = (origin.elapsed().as_nanos() / period.as_nanos()) as f64 + 1.0;
        Some(due - self.handle.slots_served() as f64)
    }

    fn stop(self) -> Station {
        self.handle.shutdown().expect("runtime shuts down cleanly")
    }
}

struct InFlight {
    request: Request,
    handle: ClientHandle,
    t0: Instant,
    subscribed: Instant,
}

/// What one closed-loop phase measured.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    window_s: f64,
    swap_ms: Vec<f64>,
    prepare_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    flipped: Vec<f64>,
    subscribe_us: Vec<f64>,
}

/// The load generator's state across phases.
struct Loop<'a> {
    inputs: &'a Inputs,
    versions: Versions,
    rng: Rng,
    next: usize,
    writes: usize,
    backlog: Vec<f64>,
    problems: Vec<String>,
}

impl Loop<'_> {
    fn subscribe(&mut self, on_air: &OnAir, phase: &mut Phase) -> InFlight {
        let file = self.inputs.requests[self.next % self.inputs.requests.len()];
        self.next += 1;
        let errors = BernoulliErrors::new(LOSS, self.rng.next_u64());
        let slot = on_air.handle.slots_served();
        let t0 = Instant::now();
        let handle = on_air
            .handle
            .subscribe_with(file, slot as usize, errors)
            .expect("the runtime admits the fleet");
        let subscribed = Instant::now();
        phase.subscribe_us.push(us(subscribed - t0));
        InFlight {
            request: Request { slot, file },
            handle,
            t0,
            subscribed,
        }
    }

    fn resolve(&self, f: InFlight, tracer: Option<&mut Tracer>) -> Sample {
        let observed = Instant::now();
        let result = f.handle.join();
        let end = Instant::now();
        if let Some(tracer) = tracer {
            let trace = tracer.begin();
            tracer.span(trace, Stage::Subscribe, f.t0, f.subscribed);
            tracer.span(trace, Stage::Serve, f.subscribed, observed);
            tracer.span(trace, Stage::Resolve, observed, end);
            tracer.span(trace, Stage::Retrieval, f.t0, end);
        }
        let ttf_ms = ms(end - f.t0);
        let latencies = &self.inputs.spec(f.request.file).latencies;
        match result {
            Ok(RetrievalResolution::Complete(outcome)) => {
                let ttf = stats::ttf_slots(outcome.completion_slot, f.request.slot);
                let ok = self.versions.served(
                    f.request.file,
                    f.request.slot,
                    outcome.completion_slot as u64,
                    &outcome.data,
                );
                Sample {
                    request: f.request,
                    status: if ok {
                        Status::Complete
                    } else {
                        Status::Mismatch
                    },
                    ttf_ms,
                    ttf_slots: ttf.filter(|_| ok),
                    missed_deadline: !ok
                        || stats::misses_deadline(ttf, outcome.errors_observed, latencies),
                    bytes: if ok { outcome.data.len() } else { 0 },
                    done_s: 0.0,
                }
            }
            Ok(RetrievalResolution::ModeChanged { .. }) => {
                failed(f.request, Status::Cancelled, ttf_ms)
            }
            Err(e) => failed(f.request, Status::Failed(e.to_string()), ttf_ms),
        }
    }

    /// Replaces one file's bytes: snapshot → prepare → `swap_at(Drain)`.
    /// Returns when the swap was installed, with the slot it flips at.
    fn write(&mut self, on_air: &OnAir, phase: &mut Phase) -> Option<u64> {
        let file = FileId(self.rng.range(1, self.inputs.shape.files));
        let spec = self.inputs.spec(file);
        let bytes = self
            .rng
            .bytes((spec.size_blocks * spec.block_bytes) as usize);
        self.writes += 1;
        let snapshot = match on_air.handle.snapshot() {
            Ok(s) => s,
            Err(e) => {
                self.problems.push(format!("snapshot failed: {e}"));
                return None;
            }
        };
        let mode = ModeSpec::new(format!("write-{}", self.writes)).files(snapshot.specs().to_vec());
        let t = Instant::now();
        let prepared =
            snapshot.prepare_mode_with_contents(&mode, BTreeMap::from([(file, bytes.clone())]));
        phase.prepare_ms.push(ms(t.elapsed()));
        let prepared = match prepared {
            Ok(p) => p,
            Err(e) => {
                self.problems.push(format!("prepare failed: {e}"));
                return None;
            }
        };
        let at = on_air.handle.slots_served() as usize;
        let t = Instant::now();
        let report = match on_air.handle.swap_at(prepared, at, SwapPolicy::Drain) {
            Ok(r) => r,
            Err(e) => {
                self.problems.push(format!("swap failed: {e}"));
                return None;
            }
        };
        phase.apply_ms.push(ms(t.elapsed()));
        phase.flipped.push(report.flipped_channels.len() as f64);
        let flip = report.flip_slot as u64;
        self.versions
            .0
            .get_mut(&file)
            .expect("written files exist")
            .push((flip, bytes));
        Some(flip)
    }

    /// Runs the fleet closed-loop for `window`, writing every
    /// [`WRITE_EVERY`] when `writes` is set, then lets in-flight
    /// retrievals resolve (they are attempts, never dropped).
    fn phase(
        &mut self,
        on_air: &OnAir,
        window: Duration,
        writes: bool,
        mut tracer: Option<&mut Tracer>,
    ) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        let mut fleet: Vec<InFlight> = Vec::with_capacity(FLEET);
        // When each thinking client requests next; staggered at first so
        // the fleet does not start in lockstep.
        let mut thinking: Vec<Instant> = (0..FLEET)
            .map(|i| start + THINK.mul_f64(i as f64 / FLEET as f64))
            .collect();
        let mut next_write = start + WRITE_EVERY;
        let mut pending: Option<(Instant, u64)> = None;
        let mut next_sample = start;
        loop {
            let open = start.elapsed() < window;
            let mut progressed = false;
            let mut i = 0;
            while i < fleet.len() {
                if fleet[i].handle.is_finished() {
                    progressed = true;
                    let done = fleet.swap_remove(i);
                    let mut sample = self.resolve(done, tracer.as_deref_mut());
                    sample.done_s = start.elapsed().as_secs_f64();
                    phase.samples.push(sample);
                    thinking.push(Instant::now() + THINK);
                } else {
                    i += 1;
                }
            }
            let mut i = 0;
            while open && i < thinking.len() {
                if thinking[i] <= Instant::now() {
                    progressed = true;
                    thinking.swap_remove(i);
                    fleet.push(self.subscribe(on_air, &mut phase));
                } else {
                    i += 1;
                }
            }
            let now = Instant::now();
            // The last write starts a full interval before the window
            // closes, so its flip lands, and is replayable, inside it.
            if writes
                && pending.is_none()
                && now >= next_write
                && next_write + WRITE_EVERY <= start + window
            {
                next_write += WRITE_EVERY;
                pending = self.write(on_air, &mut phase).map(|flip| (now, flip));
            }
            if let Some((t0, flip)) = pending {
                if on_air.handle.slots_served() > flip {
                    phase.swap_ms.push(ms(t0.elapsed()));
                    pending = None;
                }
            }
            if open && now >= next_sample {
                self.backlog.extend(on_air.backlog());
                next_sample = now + Duration::from_millis(1);
            }
            if !open && fleet.is_empty() && pending.is_none() {
                break;
            }
            if !open && start.elapsed() > window + DRAIN_LIMIT {
                for f in fleet.drain(..) {
                    on_air.handle.unsubscribe(&f.handle);
                    let mut sample = self.resolve(f, tracer.as_deref_mut());
                    sample.done_s = start.elapsed().as_secs_f64();
                    phase.samples.push(sample);
                }
                if pending.take().is_some() {
                    self.problems.push("a swap never flipped".into());
                }
                break;
            }
            if !progressed {
                // Sleep rather than spin: the fleet's tasks and the
                // serving thread need the cores more than the poller.
                std::thread::sleep(POLL);
            }
        }
        phase.window_s = window.as_secs_f64();
        phase
    }
}

/// Subscribes one listener that loses every reception (so it never
/// completes), then samples the slot counter every millisecond for
/// `window`: `(seconds, slots served)` marks.
fn saturated_marks(on_air: &OnAir, window: Duration) -> Vec<(f64, u64)> {
    let slot = on_air.handle.slots_served() as usize;
    let listener = on_air
        .handle
        .subscribe_with(FileId(1), slot, BernoulliErrors::new(1.0, 0))
        .expect("the runtime admits the listener");
    let origin = Instant::now();
    let mut marks = Vec::new();
    while origin.elapsed() < window {
        marks.push((origin.elapsed().as_secs_f64(), on_air.handle.slots_served()));
        std::thread::sleep(Duration::from_millis(1));
    }
    marks.push((origin.elapsed().as_secs_f64(), on_air.handle.slots_served()));
    on_air.handle.unsubscribe(&listener);
    // It can only end unfinished; joining waits for its task to exit.
    let _ = listener.join();
    marks
}

fn failed(request: Request, status: Status, ttf_ms: f64) -> Sample {
    Sample {
        request,
        status,
        ttf_ms,
        ttf_slots: None,
        missed_deadline: true,
        bytes: 0,
        done_s: 0.0,
    }
}

/// Runs `runtime_swap`.
pub fn run(run: &mut Run) {
    let inputs = Inputs::generate(SHAPE, run.seed);
    let period = Duration::from_secs_f64(1.0 / SLOTS_PER_S);

    let (on_air, setup_s) = timed_setup(
        || OnAir::paced(inputs.build(), period),
        |o| {
            o.stop();
        },
    );
    run.end_to_end.push(Metric::new("setup_s", "s", setup_s));

    let mut lg = Loop {
        inputs: &inputs,
        versions: Versions::new(&inputs),
        rng: inputs.rng.clone(),
        next: 0,
        writes: 0,
        backlog: Vec::new(),
        problems: Vec::new(),
    };
    let total = Duration::from_secs(run.seconds);
    let paced = total.mul_f64(0.75);
    let untraced_window = if run.trace { paced / 2 } else { paced };
    let before = on_air.handle.stats().expect("runtime is up");
    let untraced = lg.phase(&on_air, untraced_window, true, None);
    let mut notes = Vec::new();
    let mut e2e = retrieval_metrics(&untraced.samples, untraced.window_s, &mut notes);
    run.notes.append(&mut notes);
    let swaps = |phase: &Phase, notes: &mut Vec<String>| {
        let t = stats::Timing::of(&phase.swap_ms);
        notes.push(format!(
            "swap latency: {} swaps; p90 has {} beyond it",
            t.count,
            stats::beyond(t.count, 0.9)
        ));
        let mut v = phase.swap_ms.clone();
        v.sort_by(f64::total_cmp);
        vec![
            Metric::new("swap_p50_ms", "ms", stats::percentile(&v, 0.5)),
            Metric::new("swap_p90_ms", "ms", stats::percentile(&v, 0.9)),
        ]
    };
    e2e.extend(swaps(&untraced, &mut run.notes));
    run.samples.extend(untraced.samples.iter().cloned());

    let traced = run.trace.then(|| {
        let mut tracer = Tracer::new();
        let phase = lg.phase(&on_air, paced - untraced_window, true, Some(&mut tracer));
        (phase, tracer)
    });
    let after = on_air.handle.stats().expect("runtime is up");
    let backlog = std::mem::take(&mut lg.backlog);
    paced_validity(&backlog, SLOTS_PER_S, run);

    // Saturated phase: the same station served as fast as it goes to one
    // subscription that never completes.  The runtime skips slots no
    // subscriber can observe, so a fleet that is sometimes empty would
    // make the figure the share of time someone listened; a steady
    // listener makes it the runtime's own serving capacity.
    let station = on_air.stop();
    let replay_station = station.clone();
    let sat = OnAir::saturated(station);
    let rate_marks = saturated_marks(&sat, total - paced);
    sat.stop();
    e2e.push(Metric::new(
        "max_slots_per_s",
        "1/s",
        stats::best_rate(&rate_marks, SATURATED_SPANS),
    ));
    run.end_to_end.append(&mut e2e);
    run.problems.append(&mut lg.problems);

    let Some((phase, tracer)) = traced else {
        return;
    };
    let mut traced_notes = Vec::new();
    let mut traced_e2e = retrieval_metrics(&phase.samples, phase.window_s, &mut traced_notes);
    traced_e2e.extend(swaps(&phase, &mut traced_notes));
    run.notes.extend(
        traced_notes
            .into_iter()
            .map(|n| format!("traced phase: {n}")),
    );
    run.overhead(&traced_e2e);
    run.samples.extend(phase.samples.iter().cloned());

    let setup_layers = layers::setup_layers(&inputs, &replay_station);
    // Blocks verify against the roots the replay station serves now, so
    // only requests made after the last content flip are replayed.
    let last_flip = lg.versions.last_flip();
    let requests: Vec<Request> = phase
        .samples
        .iter()
        .map(|s| s.request)
        .filter(|r| r.slot >= last_flip)
        .collect();
    let mut rng = inputs.rng.clone();
    let replay = layers::replay_layers(&replay_station, &requests, LOSS, None, &mut rng);
    let attempted = (untraced.samples.len() + phase.samples.len()).max(1) as f64;
    run.replayed(&setup_layers, &replay);
    // `bnet` is bypassed: no sockets, client sessions or control plane.
    for (name, unit) in [
        ("bnet.recv_wait_ms", "ms"),
        ("bnet.feed_ns_per_datagram", "ns"),
        ("bnet.erasures_per_retrieval", "count"),
        ("bnet.gap_erasures_per_retrieval", "count"),
        ("bnet.delivered_ratio", "ratio"),
        ("bnet.control_subscribe_ms", "ms"),
        ("bnet.join_to_first_datagram_ms", "ms"),
        ("budget.control_share_of_ttf_p50", "ratio"),
    ] {
        run.layer(name, unit, 0.0);
    }
    run.layer(
        "brt.backlog_slots_p99",
        "slots",
        stats::p99_or_zero(&backlog),
    );
    run.layer(
        "brt.lagged_slots",
        "count",
        (after.lagged_slots - before.lagged_slots) as f64 / attempted,
    );
    run.layer(
        "brt.lag_erasures",
        "count",
        (after.lag_erasures - before.lag_erasures) as f64 / attempted,
    );
    run.layer(
        "brt.subscribe_us",
        "us",
        median_or_zero(&phase.subscribe_us),
    );
    run.layer("bmode.prepare_ms", "ms", median_or_zero(&phase.prepare_ms));
    run.layer("bmode.swap_apply_ms", "ms", median_or_zero(&phase.apply_ms));
    run.layer(
        "bmode.flipped_channels",
        "count",
        mean_or_zero(&phase.flipped),
    );
    run.budget(&tracer, &traced_e2e);
    run.write_spans(&tracer);
}
