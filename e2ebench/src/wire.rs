//! The wire workloads: an authenticated station serving over loopback UDP
//! with the TCP control plane, retrieved by one closed-loop client.
//!
//! Server: open loop — slots go out on a `WallClock` schedule whether or
//! not anyone listens.  Client: closed loop — `NetClient::join_with` →
//! `retrieve_with_stats`, the next request only after the previous one
//! resolved, over the seeded request sequence.  After the paced phase the
//! same station is served again at the 1 µs period floor, with one joined
//! peer, to measure the saturated slot rate.

use crate::inputs::{Inputs, Shape};
use crate::layers::{self, ms, Request};
use crate::report::{retrieval_metrics, Metric, Sample, Status};
use crate::stats::{self, median_or_zero};
use crate::trace::{Stage, Tracer};
use crate::{paced_validity, timed_setup, Run};
use rtbdisk::bnet::wire::{encode, ControlFrame, Frame};
use rtbdisk::bnet::ClientState;
use rtbdisk::{
    ControlClient, ControlTimeouts, NetClient, NetConfig, NetError, NetServing, RecoveryConfig,
    RetrievalOutcome, RuntimeConfig, Station, WallClock,
};
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// One wire workload.
#[derive(Debug, Clone, Copy)]
pub struct WireWorkload {
    pub shape: Shape,
    /// The paced phase's slot rate: low enough that the datagrams queued
    /// while the client waits on the control plane (5 ms) fit the default
    /// 208 KiB socket buffer; above it the client loses blocks in bursts
    /// whose size follows the host's CPU steal, and every figure with it.
    pub slots_per_s: f64,
}

/// Bound on one retrieval, as `NetClient::retrieve` takes it.
const RETRIEVE_TIMEOUT: Duration = Duration::from_secs(2);

/// Equal spans of the saturated phase; the best span rate is reported.
const SATURATED_SPANS: usize = 10;

fn net_config() -> NetConfig {
    NetConfig::default().with_control_plane()
}

/// A station on the wire under a `WallClock` whose origin is known.
struct OnAir {
    serving: NetServing,
    origin: Instant,
    period: Duration,
    data: SocketAddr,
    control: SocketAddr,
}

impl OnAir {
    fn start(station: Station, period: Duration) -> OnAir {
        let clock = WallClock::new(period);
        let origin = Instant::now();
        let serving = station
            .serve_network_with(clock, RuntimeConfig::default(), net_config())
            .expect("loopback serving binds");
        let data = serving.data_addr();
        let control = serving.control_addr().expect("the control plane is on");
        OnAir {
            serving,
            origin,
            period,
            data,
            control,
        }
    }

    fn slots_served(&self) -> u64 {
        self.serving.runtime().slots_served()
    }

    /// The slot counter now, and how many slots the schedule has made due
    /// that are not served yet.
    fn progress(&self) -> (u64, f64) {
        let slots = self.slots_served();
        let due = (self.origin.elapsed().as_nanos() / self.period.as_nanos()) as f64 + 1.0;
        (slots, due - slots as f64)
    }

    fn stop(self) -> Station {
        self.serving.shutdown().expect("serving shuts down cleanly")
    }
}

/// Runs one wire workload.
pub fn run(workload: WireWorkload, run: &mut Run) {
    let inputs = Inputs::generate(workload.shape, run.seed);
    let period = Duration::from_secs_f64(1.0 / workload.slots_per_s);

    // Set-up: fresh builds, each put on the wire; the last one serves.
    let (on_air, setup_s) = timed_setup(
        || OnAir::start(inputs.build(), period),
        |o| {
            o.stop();
        },
    );
    run.end_to_end.push(Metric::new("setup_s", "s", setup_s));

    let total = Duration::from_secs(run.seconds);
    let paced = total.mul_f64(0.75);
    let mut next = 0usize;
    let mut backlog = Vec::new();
    let untraced_window = if run.trace { paced / 2 } else { paced };
    let untraced = closed_loop(
        &on_air,
        &inputs,
        untraced_window,
        &mut next,
        &mut backlog,
        None,
    );
    let mut notes = Vec::new();
    let mut e2e = retrieval_metrics(&untraced.samples, untraced.window_s, &mut notes);

    let traced = run.trace.then(|| {
        let mut tracer = Tracer::new();
        let phase = closed_loop(
            &on_air,
            &inputs,
            paced - untraced_window,
            &mut next,
            &mut backlog,
            Some(&mut tracer),
        );
        (phase, tracer)
    });
    run.notes.append(&mut notes);
    paced_validity(&backlog, workload.slots_per_s, run);
    let brt_stats = on_air.serving.runtime().stats().expect("runtime is up");

    // Saturated phase: the same station at the 1 µs period floor with one
    // joined peer that does not read.  The fan-out sends nothing while no
    // peer is joined, so a closed-loop client (joined only while it
    // retrieves) would make the figure the share of time someone listened;
    // a steady peer makes it the station's own serving capacity.
    let station = on_air.stop();
    let replay_station = station.clone();
    let sat = OnAir::start(station, Duration::from_micros(1));
    let rate_marks = saturated_marks(&sat, total - paced);
    sat.stop();
    e2e.push(Metric::new(
        "max_slots_per_s",
        "1/s",
        stats::best_rate(&rate_marks, SATURATED_SPANS),
    ));
    run.end_to_end.append(&mut e2e);
    run.samples.extend(untraced.samples.iter().cloned());

    let Some((phase, tracer)) = traced else {
        return;
    };
    // Traced run: the traced half's own end-to-end numbers, and the
    // tracing overhead as traced minus untraced.
    let mut traced_notes = Vec::new();
    let traced_e2e = retrieval_metrics(&phase.samples, phase.window_s, &mut traced_notes);
    run.notes.extend(
        traced_notes
            .into_iter()
            .map(|n| format!("traced phase: {n}")),
    );
    run.overhead(&traced_e2e);
    run.samples.extend(phase.samples.iter().cloned());

    let setup_layers = layers::setup_layers(&inputs, &replay_station);
    let requests: Vec<Request> = phase.samples.iter().map(|s| s.request).collect();
    let acc = &phase.client;
    let fed = acc.datagrams_fed.max(1) as f64;
    let loss = acc.gap_erasures as f64 / (fed + acc.gap_erasures as f64);
    let mut rng = inputs.rng.clone();
    let replay = layers::replay_layers(
        &replay_station,
        &requests,
        loss,
        Some(NetConfig::default().mtu),
        &mut rng,
    );
    let n = phase.samples.len().max(1) as f64;
    let budgets = tracer.budgets();
    let per_retrieval = |stage: Stage| -> Vec<f64> {
        budgets
            .iter()
            .map(|b| b.stage_ns(stage) as f64 / 1e6)
            .collect()
    };
    let feed_count: u64 = budgets.iter().map(|b| b.stage_count(Stage::Feed)).sum();
    let feed_ns: u64 = budgets.iter().map(|b| b.stage_ns(Stage::Feed)).sum();
    let control_ms = median_or_zero(&per_retrieval(Stage::ControlSubscribe));
    run.replayed(&setup_layers, &replay);
    run.layer(
        "bnet.recv_wait_ms",
        "ms",
        median_or_zero(&per_retrieval(Stage::RecvWait)),
    );
    run.layer(
        "bnet.feed_ns_per_datagram",
        "ns",
        feed_ns as f64 / feed_count.max(1) as f64,
    );
    run.layer(
        "bnet.erasures_per_retrieval",
        "count",
        acc.erasures as f64 / n,
    );
    run.layer(
        "bnet.gap_erasures_per_retrieval",
        "count",
        acc.gap_erasures as f64 / n,
    );
    run.layer(
        "bnet.delivered_ratio",
        "ratio",
        acc.datagrams_delivered as f64 / acc.datagrams_sent.max(1) as f64,
    );
    run.layer("bnet.control_subscribe_ms", "ms", control_ms);
    run.layer(
        "bnet.join_to_first_datagram_ms",
        "ms",
        median_or_zero(&acc.first_datagram_ms),
    );
    run.layer(
        "brt.backlog_slots_p99",
        "slots",
        stats::p99_or_zero(&backlog),
    );
    run.layer(
        "brt.lagged_slots",
        "count",
        brt_stats.lagged_slots as f64 / n,
    );
    run.layer(
        "brt.lag_erasures",
        "count",
        brt_stats.lag_erasures as f64 / n,
    );
    // Layers this workload does not exercise: no in-process subscriptions,
    // no mode swaps.
    run.layer("brt.subscribe_us", "us", 0.0);
    run.layer("bmode.prepare_ms", "ms", 0.0);
    run.layer("bmode.swap_apply_ms", "ms", 0.0);
    run.layer("bmode.flipped_channels", "count", 0.0);
    run.budget(&tracer, &traced_e2e);

    // Does the control plane account for most of the time to file?
    let ttf_p50 = traced_e2e
        .iter()
        .find(|m| m.name == "ttf_p50_ms")
        .map_or(0.0, |m| m.value);
    let share = control_ms / ttf_p50.max(1e-9);
    run.layer("budget.control_share_of_ttf_p50", "ratio", share);
    run.notes.push(if share > 0.5 {
        format!(
            "bnet.control_subscribe_ms ({control_ms:.3} ms) accounts for {:.0}% of ttf_p50_ms ({ttf_p50:.3} ms)",
            share * 100.0
        )
    } else {
        format!(
            "bnet.control_subscribe_ms ({control_ms:.3} ms) does NOT account for most of ttf_p50_ms \
             ({ttf_p50:.3} ms): {:.3} ms of the median retrieval is elsewhere",
            ttf_p50 - control_ms
        )
    });
    run.write_spans(&tracer);
}

/// What the traced client saw, summed over its retrievals.
#[derive(Debug, Default)]
struct ClientTotals {
    datagrams_fed: u64,
    datagrams_delivered: u64,
    datagrams_sent: u64,
    erasures: u64,
    gap_erasures: u64,
    first_datagram_ms: Vec<f64>,
}

/// One measured closed-loop phase.
#[derive(Debug, Default)]
struct ClosedLoop {
    samples: Vec<Sample>,
    window_s: f64,
    client: ClientTotals,
}

fn closed_loop(
    on_air: &OnAir,
    inputs: &Inputs,
    window: Duration,
    next: &mut usize,
    backlog: &mut Vec<f64>,
    mut tracer: Option<&mut Tracer>,
) -> ClosedLoop {
    let mut phase = ClosedLoop::default();
    let start = Instant::now();
    // The last request started inside the window runs to its end: an
    // attempted retrieval is never dropped.
    while start.elapsed() < window {
        let file = inputs.requests[*next % inputs.requests.len()];
        *next += 1;
        let (slot, behind) = on_air.progress();
        backlog.push(behind);
        let request = Request { slot, file };
        let (result, ttf_ms) = match tracer.as_deref_mut() {
            None => {
                let t0 = Instant::now();
                let result = NetClient::join_with(
                    on_air.data,
                    file,
                    RecoveryConfig::default().with_control(on_air.control),
                )
                .and_then(|client| client.retrieve_with_stats(RETRIEVE_TIMEOUT).0);
                (result, ms(t0.elapsed()))
            }
            // Traced, the time to file is the retrieval's root span.
            Some(tracer) => {
                let result = traced_retrieval(on_air, file, tracer, &mut phase.client);
                let total = tracer.budgets().last().map_or(0, |b| b.total_ns);
                (result, total as f64 / 1e6)
            }
        };
        let mut sample = judge(inputs, request, result, ttf_ms);
        sample.done_s = start.elapsed().as_secs_f64();
        phase.samples.push(sample);
    }
    phase.window_s = start.elapsed().as_secs_f64();
    phase
}

/// Byte-checks one outcome and books its time to file and deadline.
fn judge(
    inputs: &Inputs,
    request: Request,
    result: Result<RetrievalOutcome, NetError>,
    ttf_ms: f64,
) -> Sample {
    let latencies = &inputs.spec(request.file).latencies;
    match result {
        Ok(outcome) => {
            let ttf_slots = stats::ttf_slots(outcome.completion_slot, request.slot);
            let status = if outcome.data == inputs.contents[&request.file] {
                Status::Complete
            } else {
                Status::Mismatch
            };
            let ok = status == Status::Complete;
            Sample {
                request,
                ttf_ms,
                ttf_slots: ttf_slots.filter(|_| ok),
                missed_deadline: !ok
                    || stats::misses_deadline(ttf_slots, outcome.errors_observed, latencies),
                bytes: if ok { outcome.data.len() } else { 0 },
                status,
                done_s: 0.0,
            }
        }
        Err(e) => Sample {
            request,
            status: match e {
                NetError::Cancelled { .. } => Status::Cancelled,
                other => Status::Failed(other.to_string()),
            },
            ttf_ms,
            ttf_slots: None,
            missed_deadline: true,
            bytes: 0,
            done_s: 0.0,
        },
    }
}

/// The client half of `NetClient::join_with` + `retrieve`, driven through
/// the same public calls (`Join`, `ControlClient` subscribe, `recv_from`,
/// `ClientState::feed_datagram`, `finish`, `Leave`) with a span around
/// each.  Faults are not injected, so the recovery rounds `NetClient`
/// would run are not needed; a retrieval that stalls fails instead.
fn traced_retrieval(
    on_air: &OnAir,
    file: rtbdisk::FileId,
    tracer: &mut Tracer,
    totals: &mut ClientTotals,
) -> Result<RetrievalOutcome, NetError> {
    let trace = tracer.begin();
    let sent_before = on_air.serving.net_stats().datagrams_sent;
    let t0 = Instant::now();
    let socket = UdpSocket::bind("0.0.0.0:0")?;
    socket.set_read_timeout(Some(Duration::from_millis(25)))?;
    socket.send_to(&encode(&Frame::Control(ControlFrame::Join)), on_air.data)?;
    let t1 = Instant::now();
    tracer.span(trace, Stage::Join, t0, t1);

    let mut state = ClientState::new(file);
    if let Ok(info) = ControlClient::connect_with(on_air.control, ControlTimeouts::default())
        .and_then(|mut cc| cc.subscribe(file))
    {
        state.feed_frame(Frame::Control(ControlFrame::SubscribeAck { file, info }));
    }
    let t2 = Instant::now();
    tracer.span(trace, Stage::ControlSubscribe, t1, t2);

    let mut buf = vec![0u8; 65_536];
    let mut last = t2;
    let mut first_datagram = None;
    while !state.is_complete() && state.cancelled_by().is_none() && last - t0 < RETRIEVE_TIMEOUT {
        match socket.recv_from(&mut buf) {
            Ok((len, _)) => {
                let t3 = Instant::now();
                tracer.span(trace, Stage::RecvWait, last, t3);
                let control_before = state.stats().control_frames;
                state.feed_datagram(&buf[..len]);
                let t4 = Instant::now();
                tracer.span(trace, Stage::Feed, t3, t4);
                if first_datagram.is_none() && state.stats().control_frames == control_before {
                    first_datagram = Some(t3);
                }
                last = t4;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let t3 = Instant::now();
                tracer.span(trace, Stage::RecvWait, last, t3);
                last = t3;
            }
            Err(e) => return Err(e.into()),
        }
    }
    let result = state.finish();
    let t5 = Instant::now();
    tracer.span(trace, Stage::Finish, last, t5);
    let _ = socket.send_to(&encode(&Frame::Control(ControlFrame::Leave)), on_air.data);
    let t6 = Instant::now();
    tracer.span(trace, Stage::Leave, t5, t6);
    tracer.span(trace, Stage::Retrieval, t0, t6);

    // Outside the measured retrieval: datagrams that reached the socket
    // but were not read before completion count as delivered.
    socket.set_nonblocking(true)?;
    let mut unread = 0u64;
    while socket.recv_from(&mut buf).is_ok() {
        unread += 1;
    }
    let stats = state.stats();
    totals.datagrams_fed += stats.datagrams;
    totals.datagrams_delivered += stats.datagrams + unread;
    totals.datagrams_sent += on_air.serving.net_stats().datagrams_sent - sent_before;
    totals.erasures += stats.erasures;
    totals.gap_erasures += stats.gap_erasures;
    if let Some(first) = first_datagram {
        totals.first_datagram_ms.push(ms(first - t0));
    }
    result
}

/// Joins one socket that never reads, then samples the slot counter every
/// millisecond for `window`: `(seconds, slots served)` marks.
fn saturated_marks(on_air: &OnAir, window: Duration) -> Vec<(f64, u64)> {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("loopback bind");
    let join = encode(&Frame::Control(ControlFrame::Join));
    let started = Instant::now();
    while on_air.serving.net_stats().peers == 0 {
        socket.send_to(&join, on_air.data).expect("join sends");
        std::thread::sleep(Duration::from_millis(1));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the join never landed"
        );
    }
    let origin = Instant::now();
    let mut marks = Vec::new();
    while origin.elapsed() < window {
        marks.push((origin.elapsed().as_secs_f64(), on_air.slots_served()));
        std::thread::sleep(Duration::from_millis(1));
    }
    marks.push((origin.elapsed().as_secs_f64(), on_air.slots_served()));
    let _ = socket.send_to(&encode(&Frame::Control(ControlFrame::Leave)), on_air.data);
    marks
}

pub const WIRE_SMALL: WireWorkload = WireWorkload {
    shape: Shape {
        files: 8,
        channels: 2,
        block_bytes: 512,
        max_m: 4,
        max_faults: 2,
    },
    slots_per_s: 10_000.0,
};

pub const WIRE_LARGE: WireWorkload = WireWorkload {
    shape: Shape {
        files: 8,
        channels: 2,
        block_bytes: 8192,
        max_m: 8,
        max_faults: 2,
    },
    slots_per_s: 1_000.0,
};
