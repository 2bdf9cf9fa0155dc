//! Per-layer costs timed from outside, by calling each layer's public
//! functions on the run's own inputs.
//!
//! The serving loop has no public seam between its stages (transmit,
//! encode + CRC, send) and the in-process client tasks none between
//! ingest and reconstruct, so those stages are timed by replaying the
//! run's own slots — the slots its retrievals listened to — through the
//! same public functions the loop calls.  Set-up stages (design,
//! dispersal, Merkle commit) are timed on the workload's specifications
//! and contents.

use crate::inputs::{Inputs, Rng};
use crate::stats::{mean_or_zero, median_or_zero};
use rtbdisk::bcore::{BdiskDesigner, MultiChannelDesigner, ShardPlanner};
use rtbdisk::bdisk::{ClientSession, Observation};
use rtbdisk::bnet::wire::{datagrams, decode, Frame, SlotFrame};
use rtbdisk::ida::Dispersal;
use rtbdisk::{FileId, SchedulerChoice, Station, TransmissionRef};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Repeats of each set-up stage; the median is reported.
const SETUP_REPEATS: usize = 5;

/// Slots replayed through transmit, encode, decode and send.
const REPLAY_SLOTS: usize = 1024;

/// Retrievals replayed through ingest and reconstruct.
const REPLAY_RETRIEVALS: usize = 200;

/// Most slots one replayed retrieval may listen to.
const REPLAY_LISTEN_CAP: usize = 100_000;

/// A run's request: the slot the station was about to serve, and the file.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub slot: u64,
    pub file: FileId,
}

/// Set-up costs, timed on the workload's specifications and contents.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    pub design_ms: f64,
    pub disperse_us: f64,
    pub commit_us: f64,
}

/// Set-up stages: `MultiChannelDesigner::design`, plain
/// `Dispersal::disperse` per file, and the authenticated minus the plain
/// dispersal of the same bytes (the Merkle commit).
pub fn setup_layers(inputs: &Inputs, station: &Station) -> SetupLayers {
    let designer = MultiChannelDesigner::new(
        ShardPlanner::fixed(inputs.shape.channels),
        BdiskDesigner::with_scheduler(SchedulerChoice::default()),
    );
    let design: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            black_box(designer.design(black_box(&inputs.specs)).expect("feasible"));
            ms(t.elapsed())
        })
        .collect();
    let mut plain_us = Vec::new();
    let mut commit_us = Vec::new();
    for spec in &inputs.specs {
        let f = station.files().get(spec.id).expect("served file");
        let (m, n) = (f.size_blocks as usize, f.dispersed_blocks as usize);
        let plain = Dispersal::new(m, n).expect("valid dispersal");
        let authenticated = Dispersal::authenticated(m, n).expect("valid dispersal");
        let bytes = &inputs.contents[&spec.id];
        let time = |d: &Dispersal| {
            let runs: Vec<f64> = (0..SETUP_REPEATS)
                .map(|_| {
                    let t = Instant::now();
                    black_box(d.disperse(spec.id, black_box(bytes)).expect("disperses"));
                    us(t.elapsed())
                })
                .collect();
            median_or_zero(&runs)
        };
        let p = time(&plain);
        plain_us.push(p);
        commit_us.push(time(&authenticated) - p);
    }
    SetupLayers {
        design_ms: median_or_zero(&design),
        disperse_us: mean_or_zero(&plain_us),
        commit_us: mean_or_zero(&commit_us),
    }
}

/// Serving-path and client-path costs from replaying the run's slots.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayLayers {
    pub transmit_ns_per_slot: f64,
    pub verify_ns_per_block: f64,
    pub ingest_ns_per_obs: f64,
    pub reconstruct_us: f64,
    pub coded_share: f64,
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_datagram: f64,
    pub datagrams_per_slot: f64,
    pub bytes_per_datagram: f64,
    pub send_us_per_datagram: f64,
    /// Blocks whose inclusion proof failed in the replay (must be 0).
    pub verify_failures: u64,
}

/// Replays the run's slots through `Station::transmit_all_into`,
/// `Dispersal::verify_block`, `ClientSession::ingest` / `finish` and, when
/// `wire_mtu` is set, `wire::datagrams`, `wire::decode` and `send_to`.
///
/// `requests` are the run's own requests (the replayed retrievals start
/// where they did); `loss` is the workload's per-reception loss rate.
pub fn replay_layers(
    station: &Station,
    requests: &[Request],
    loss: f64,
    wire_mtu: Option<usize>,
    rng: &mut Rng,
) -> ReplayLayers {
    let mut out = ReplayLayers::default();
    let start = requests.first().map_or(0, |r| r.slot as usize);
    let mut lanes: Vec<Option<TransmissionRef<'_>>> = Vec::new();

    // Transmit.
    let t = Instant::now();
    for slot in start..start + REPLAY_SLOTS {
        station.transmit_all_into(slot, &mut lanes);
        black_box(&lanes);
    }
    out.transmit_ns_per_slot = ns(t.elapsed()) / REPLAY_SLOTS as f64;

    // Verify every block served in those slots against its file's root.
    let (mut verify_ns, mut verified) = (0.0, 0u64);
    let mut dispersals: BTreeMap<(u32, u32), Dispersal> = BTreeMap::new();
    for slot in start..start + REPLAY_SLOTS {
        station.transmit_all_into(slot, &mut lanes);
        for tx in lanes.iter().flatten() {
            let h = tx.block.header();
            let Some(root) = station.commitment_root_of(h.file) else {
                continue;
            };
            let dispersal = dispersals.entry((h.m, h.n)).or_insert_with(|| {
                Dispersal::authenticated(h.m as usize, h.n as usize).expect("served (m, n)")
            });
            let t = Instant::now();
            let ok = dispersal.verify_block(&root, black_box(tx.block));
            verify_ns += ns(t.elapsed());
            verified += 1;
            if !ok {
                out.verify_failures += 1;
            }
        }
    }
    out.verify_ns_per_block = verify_ns / verified.max(1) as f64;

    // Ingest and reconstruct, for retrievals starting where the run's did.
    let (mut ingest_ns, mut observations) = (0.0, 0u64);
    let (mut reconstruct_us, mut coded) = (Vec::new(), 0usize);
    for request in requests.iter().take(REPLAY_RETRIEVALS) {
        let Some(channel) = station.channel_of(request.file) else {
            continue;
        };
        let f = station.files().get(request.file).expect("served file");
        let (m, n) = (f.size_blocks as usize, f.dispersed_blocks as usize);
        let mut session = ClientSession::new(request.file, m, request.slot as usize);
        if let Some(root) = station.commitment_root_of(request.file) {
            session.require_root(root);
        }
        let mut first_m = Vec::with_capacity(m);
        let first = request.slot as usize;
        for slot in first..first + REPLAY_LISTEN_CAP {
            station.transmit_all_into(slot, &mut lanes);
            let transmission = lanes.get(channel).copied().flatten();
            let received_ok = !rng.chance(loss);
            if let Some(tx) = transmission {
                let i = tx.block.index() as usize;
                if received_ok && tx.block.file() == request.file && !first_m.contains(&i) {
                    first_m.push(i);
                }
            }
            let t = Instant::now();
            session.ingest(Observation::Slot {
                transmission,
                received_ok,
            });
            ingest_ns += ns(t.elapsed());
            observations += 1;
            if session.is_complete() {
                break;
            }
        }
        if !session.is_complete() {
            continue;
        }
        let dispersal = Dispersal::new(m, n).expect("served (m, n)");
        let t = Instant::now();
        black_box(
            session
                .finish(&dispersal)
                .expect("complete sessions reconstruct"),
        );
        reconstruct_us.push(us(t.elapsed()));
        if first_m.iter().take(m).any(|&i| i >= m) {
            coded += 1;
        }
    }
    out.ingest_ns_per_obs = ingest_ns / observations.max(1) as f64;
    out.reconstruct_us = median_or_zero(&reconstruct_us);
    out.coded_share = coded as f64 / reconstruct_us.len().max(1) as f64;

    if let Some(mtu) = wire_mtu {
        replay_wire(station, start, mtu, &mut lanes, &mut out);
    }
    out
}

/// Encode + CRC, decode and `send_to` for the replayed slots, as the
/// station's UDP fan-out would publish them.
fn replay_wire<'a>(
    station: &'a Station,
    start: usize,
    mtu: usize,
    lanes: &mut Vec<Option<TransmissionRef<'a>>>,
    out: &mut ReplayLayers,
) {
    let (mut encode_ns, mut frames) = (0.0, 0u64);
    let mut packets: Vec<Vec<u8>> = Vec::new();
    for (seq, slot) in (start..start + REPLAY_SLOTS).enumerate() {
        station.transmit_all_into(slot, lanes);
        for (channel, tx) in lanes.iter().enumerate() {
            let Some(tx) = tx else { continue };
            let epoch = station.bank().current_epoch_of(channel).unwrap_or(0);
            let t = Instant::now();
            let frame = Frame::Slot(SlotFrame::from_transmission(channel as u16, epoch, *tx));
            let encoded = datagrams(&frame, mtu, seq as u64);
            encode_ns += ns(t.elapsed());
            frames += 1;
            packets.extend(encoded);
        }
    }
    out.encode_ns_per_frame = encode_ns / frames.max(1) as f64;
    out.datagrams_per_slot = packets.len() as f64 / REPLAY_SLOTS as f64;
    let bytes: usize = packets.iter().map(Vec::len).sum();
    out.bytes_per_datagram = bytes as f64 / packets.len().max(1) as f64;

    let t = Instant::now();
    for p in &packets {
        black_box(decode(black_box(p)).expect("replayed datagrams decode"));
    }
    out.decode_ns_per_datagram = ns(t.elapsed()) / packets.len().max(1) as f64;

    // Sends to a loopback socket drained between sends, so the socket
    // buffer never fills and every send_to is the uncontended path.
    let sender = UdpSocket::bind("127.0.0.1:0").expect("loopback bind");
    let receiver = UdpSocket::bind("127.0.0.1:0").expect("loopback bind");
    receiver.set_nonblocking(true).expect("non-blocking");
    let to = receiver.local_addr().expect("bound");
    let mut buf = vec![0u8; 65_536];
    let mut send_us = 0.0;
    for p in &packets {
        let t = Instant::now();
        let _ = sender.send_to(p, to);
        send_us += us(t.elapsed());
        while receiver.recv_from(&mut buf).is_ok() {}
    }
    out.send_us_per_datagram = send_us / packets.len().max(1) as f64;
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}
