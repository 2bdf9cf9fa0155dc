//! The station's network side: UDP slot fan-out plus an optional TCP
//! control plane.
//!
//! The serving thread publishes every slot once per live lane through a
//! [`UdpFanout`] (a [`SlotSink`]), which encodes each lane as one datagram —
//! fragmenting oversized blocks — and sends it to every joined peer.  Sends
//! never block and never retry: on a broadcast medium loss is normal and
//! dispersal absorbs it, so a full socket buffer or an unreachable peer is
//! an erasure at the receiver, not an error at the sender.
//!
//! Membership is datagram-based ([`ControlFrame::Join`] /
//! [`ControlFrame::Leave`] sent to the data address) so a pure-UDP client
//! needs nothing else: dispersal parameters travel in every block header.
//! The optional TCP control plane answers [`ControlFrame::Subscribe`] from
//! a static [`Directory`] and serves slot-counter resyncs — a reliable
//! convenience, not a requirement.
//!
//! The service threads block in the kernel — the membership socket in
//! `recv_from`, the control listener in `accept` — and never poll.  Every
//! accepted control connection is served on its own thread: the thread
//! that accepts it serves it, another thread (reused, or started when
//! none waits) takes over accepting, so an idle or slow peer holds up
//! nobody else.  At most [`NetConfig::max_peers`] connections are served
//! at once and silent ones are closed after an idle bound.  Shutdown wakes
//! each blocked thread with one self-addressed datagram or connection and
//! shuts every live control stream down.

use crate::error::NetError;
use crate::wire::{
    datagrams, decode, encode, ControlFrame, Frame, MetricsFormat, Packet, SlotFrame,
    SubscriptionInfo,
};
use bobs::{Counter, Event, Gauge, Registry, Telemetry};
use brt::{LaneView, SlotSink};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, UdpSocket,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How a [`NetServer`] binds and behaves.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address of the UDP data/membership socket (`127.0.0.1:0` by
    /// default — an ephemeral loopback port).
    pub data_bind: SocketAddr,
    /// Address of the TCP control listener; `None` (the default) disables
    /// the control plane.
    pub control_bind: Option<SocketAddr>,
    /// Largest datagram the fan-out will send; larger frames fragment.
    pub mtu: usize,
    /// Most peers the fan-out set will hold, and most control connections
    /// served at once; further joins are ignored and further connections
    /// closed on accept.
    pub max_peers: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            data_bind: "127.0.0.1:0".parse().expect("valid literal"),
            control_bind: None,
            mtu: 1400,
            max_peers: 64,
        }
    }
}

impl NetConfig {
    /// Enables the TCP control plane on an ephemeral loopback port.
    pub fn with_control_plane(mut self) -> Self {
        self.control_bind = Some("127.0.0.1:0".parse().expect("valid literal"));
        self
    }
}

/// The control plane's view of the station: file id → where it is served.
/// Built by the caller from the engine at bind time and refreshed after
/// mode swaps with [`NetHandle::update_directory`], so a recovering client
/// that missed a swap resubscribes against the live program, not the one
/// it tuned to originally.
pub type Directory = BTreeMap<u32, SubscriptionInfo>;

/// A snapshot of the network side's counters — a view over the station's
/// [`bobs`] registry, kept shape-compatible with earlier releases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Slot frames published (one per live lane per served slot).
    pub frames_sent: u64,
    /// Frames that needed fragmentation.
    pub frames_fragmented: u64,
    /// Datagrams handed to the socket.
    pub datagrams_sent: u64,
    /// Payload bytes handed to the socket.
    pub bytes_sent: u64,
    /// Sends the socket refused (full buffer, unreachable peer) — loss,
    /// by design.
    pub send_errors: u64,
    /// Join datagrams honoured (monotonic).
    pub joins: u64,
    /// Leave datagrams honoured (monotonic).
    pub leaves: u64,
    /// Peers currently in the fan-out set.
    ///
    /// This is a *transient gauge*: a client that joined and immediately
    /// left can legitimately read as `0` at any later sample, and a sample
    /// taken between a join datagram arriving and the membership thread
    /// honouring it reads the old value.  Tests and monitors that need to
    /// observe that membership churn *happened* must wait on the monotonic
    /// `joins` / `leaves` counters, never on this gauge.
    pub peers: usize,
}

/// The fan-out's registry handles, under `bnet_*` metric names.
struct NetMetrics {
    frames_sent: Counter,
    frames_fragmented: Counter,
    datagrams_sent: Counter,
    bytes_sent: Counter,
    send_errors: Counter,
    joins: Counter,
    leaves: Counter,
    peers: Gauge,
}

impl NetMetrics {
    fn new(registry: &Registry) -> Self {
        NetMetrics {
            frames_sent: registry.counter("bnet_frames_sent"),
            frames_fragmented: registry.counter("bnet_frames_fragmented"),
            datagrams_sent: registry.counter("bnet_datagrams_sent"),
            bytes_sent: registry.counter("bnet_bytes_sent"),
            send_errors: registry.counter("bnet_send_errors"),
            joins: registry.counter("bnet_joins"),
            leaves: registry.counter("bnet_leaves"),
            peers: registry.gauge("bnet_peers"),
        }
    }
}

struct Shared {
    peers: Mutex<HashSet<SocketAddr>>,
    metrics: NetMetrics,
    telemetry: Telemetry,
    /// The next slot the serving loop will publish — what a `Resync`
    /// reports.
    next_slot: AtomicU64,
    /// The highest epoch the fan-out has published under — a `Resync`
    /// must report the *live* epoch even when the directory is stale.
    current_epoch: AtomicU64,
    /// Set once by [`NetHandle`] shutdown.  Control threads read it under
    /// the `control` lock it is written under, so a connection is either
    /// registered before shutdown (and shut down by it) or never served.
    stop: AtomicBool,
    control: Mutex<ControlThreads>,
    directory: Mutex<Directory>,
    max_peers: usize,
}

/// The control plane's threads and the connections they serve.
#[derive(Default)]
struct ControlThreads {
    /// A `try_clone` of every live control stream, keyed by accept order,
    /// so shutdown can unblock its reader without waiting out a timeout.
    connections: HashMap<u64, TcpStream>,
    next_id: u64,
    /// Threads blocked (or about to block) in `accept`.
    idle: usize,
    /// Every control thread spawned and not yet known to have finished.
    threads: Vec<JoinHandle<()>>,
}

impl Shared {
    fn resync_frame(&self) -> Frame {
        let directory_epoch = self
            .directory
            .lock()
            .expect("directory lock")
            .values()
            .next()
            .map_or(0, |info| info.epoch);
        Frame::Control(ControlFrame::Resync {
            epoch: directory_epoch.max(self.current_epoch.load(Ordering::Relaxed)),
            next_slot: self.next_slot.load(Ordering::Relaxed),
        })
    }
}

/// The [`SlotSink`] half of a bound network server: attach it to a `brt`
/// runtime (or drive [`UdpFanout::publish`] directly) and every served
/// slot goes out on the wire.
pub struct UdpFanout {
    socket: UdpSocket,
    shared: Arc<Shared>,
    mtu: usize,
    seq: u64,
}

impl SlotSink for UdpFanout {
    fn publish(&mut self, slot: usize, lanes: &[LaneView<'_>]) {
        self.shared
            .next_slot
            .store(slot as u64 + 1, Ordering::Relaxed);
        for lane in lanes {
            self.shared
                .current_epoch
                .fetch_max(lane.epoch, Ordering::Relaxed);
        }
        let peers: Vec<SocketAddr> = {
            let guard = self.shared.peers.lock().expect("peer set lock");
            guard.iter().copied().collect()
        };
        if peers.is_empty() {
            return;
        }
        let metrics = &self.shared.metrics;
        for lane in lanes {
            let frame = Frame::Slot(SlotFrame::from_transmission(
                lane.channel as u16,
                lane.epoch,
                lane.transmission,
            ));
            let packets = datagrams(&frame, self.mtu, self.seq);
            metrics.frames_sent.inc();
            if packets.len() > 1 {
                self.seq = self.seq.wrapping_add(1);
                metrics.frames_fragmented.inc();
            }
            let mut dropped = false;
            for packet in &packets {
                for peer in &peers {
                    match self.socket.send_to(packet, peer) {
                        Ok(sent) => {
                            metrics.datagrams_sent.inc();
                            metrics.bytes_sent.add(sent as u64);
                        }
                        Err(_) => {
                            metrics.send_errors.inc();
                            dropped = true;
                        }
                    }
                }
            }
            self.shared.telemetry.record_event(|| Event::FrameSent {
                slot: slot as u64,
                peers: peers.len() as u64,
            });
            if dropped {
                self.shared
                    .telemetry
                    .record_event(|| Event::FrameDropped { slot: slot as u64 });
            }
        }
    }
}

/// The bound network server: addresses, stats, and shutdown of the
/// membership/control threads.  Dropping the handle also shuts them down.
pub struct NetHandle {
    data_addr: SocketAddr,
    control_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl NetHandle {
    /// The UDP address clients send `Join` to and receive slots from.
    pub fn data_addr(&self) -> SocketAddr {
        self.data_addr
    }

    /// The TCP control-plane address, when one was configured.
    pub fn control_addr(&self) -> Option<SocketAddr> {
        self.control_addr
    }

    /// A snapshot of the network counters (a view over the registry — see
    /// the caveat on [`NetStats::peers`]).
    pub fn stats(&self) -> NetStats {
        let m = &self.shared.metrics;
        NetStats {
            frames_sent: m.frames_sent.get(),
            frames_fragmented: m.frames_fragmented.get(),
            datagrams_sent: m.datagrams_sent.get(),
            bytes_sent: m.bytes_sent.get(),
            send_errors: m.send_errors.get(),
            joins: m.joins.get(),
            leaves: m.leaves.get(),
            peers: self.shared.peers.lock().expect("peer set lock").len(),
        }
    }

    /// The telemetry the network side records into — the same handle the
    /// control plane's metrics opcode serves from.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Replaces the control plane's directory — call after a mode swap so
    /// recovering clients resubscribe against the live program.
    pub fn update_directory(&self, directory: Directory) {
        *self.shared.directory.lock().expect("directory lock") = directory;
    }

    /// Stops the membership and control threads (and every control
    /// connection) and waits for them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        let (idle, control_threads) = {
            let mut control = self.shared.control.lock().expect("control lock");
            self.shared.stop.store(true, Ordering::Relaxed);
            for stream in control.connections.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            (control.idle, std::mem::take(&mut control.threads))
        };
        // Any datagram or connection wakes a blocked service thread, which
        // then reads `stop`: one datagram for the membership thread, one
        // connection per thread in `accept`.  A lost wake-up cannot hang
        // the join: the datagram or connection that displaced it wakes a
        // thread too.
        let data = reachable(self.data_addr);
        let _ = UdpSocket::bind(SocketAddr::new(data.ip(), 0))
            .and_then(|waker| waker.send_to(&[], data));
        if let Some(control) = self.control_addr {
            for _ in 0..idle {
                let _ = TcpStream::connect_timeout(&reachable(control), Duration::from_secs(1));
            }
        }
        for thread in self.threads.drain(..).chain(control_threads) {
            let _ = thread.join();
        }
    }
}

impl Drop for NetHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds the station's network side.
pub struct NetServer;

impl NetServer {
    /// Binds the UDP data/membership socket (and the TCP control listener
    /// when configured), spawns their service threads, and returns the
    /// fan-out sink to attach to a runtime plus the handle to manage it.
    /// Records into a fresh private [`Telemetry`]; use
    /// [`NetServer::bind_with_telemetry`] to share one with a runtime.
    pub fn bind(
        config: NetConfig,
        directory: Directory,
    ) -> Result<(UdpFanout, NetHandle), NetError> {
        NetServer::bind_with_telemetry(config, directory, Telemetry::new())
    }

    /// [`NetServer::bind`] recording into a caller-supplied [`Telemetry`] —
    /// hand it the runtime's handle and the control plane's metrics opcode
    /// exposes runtime and network metrics from one registry.
    pub fn bind_with_telemetry(
        config: NetConfig,
        directory: Directory,
        telemetry: Telemetry,
    ) -> Result<(UdpFanout, NetHandle), NetError> {
        let membership = UdpSocket::bind(config.data_bind)?;
        let data_addr = membership.local_addr()?;
        // A separate non-blocking send socket: the serving thread must
        // never block on the medium, while the membership socket keeps its
        // blocking receive loop.
        let send_socket = UdpSocket::bind(SocketAddr::new(data_addr.ip(), 0))?;
        send_socket.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            peers: Mutex::new(HashSet::new()),
            metrics: NetMetrics::new(telemetry.registry()),
            telemetry,
            next_slot: AtomicU64::new(0),
            current_epoch: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            control: Mutex::new(ControlThreads::default()),
            directory: Mutex::new(directory),
            max_peers: config.max_peers.max(1),
        });

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                membership_loop(&membership, &shared);
            }));
        }

        let control_addr = match config.control_bind {
            Some(bind) => {
                let listener = Arc::new(TcpListener::bind(bind)?);
                let addr = listener.local_addr()?;
                let mut control = shared.control.lock().expect("control lock");
                spawn_control_thread(&listener, &shared, &mut control)?;
                Some(addr)
            }
            None => None,
        };

        let fanout = UdpFanout {
            socket: send_socket,
            shared: Arc::clone(&shared),
            mtu: config.mtu,
            seq: 0,
        };
        let handle = NetHandle {
            data_addr,
            control_addr,
            shared,
            threads,
        };
        Ok((fanout, handle))
    }
}

fn membership_loop(socket: &UdpSocket, shared: &Shared) {
    let mut buf = [0u8; 2048];
    while !shared.stop.load(Ordering::Relaxed) {
        let Ok((len, from)) = socket.recv_from(&mut buf) else {
            continue;
        };
        let Ok(Packet::Frame(Frame::Control(control))) = decode(&buf[..len]) else {
            continue; // not ours to worry about: the medium is lossy
        };
        match control {
            ControlFrame::Join => {
                let mut peers = shared.peers.lock().expect("peer set lock");
                if peers.len() < shared.max_peers || peers.contains(&from) {
                    peers.insert(from);
                    shared.metrics.peers.set(peers.len() as i64);
                    shared.metrics.joins.inc();
                    drop(peers);
                    // Ack with a resync so the client can baseline its
                    // gap detector; losing this reply is harmless.
                    let _ = socket.send_to(&encode(&shared.resync_frame()), from);
                }
            }
            ControlFrame::Leave => {
                let mut peers = shared.peers.lock().expect("peer set lock");
                if peers.remove(&from) {
                    shared.metrics.peers.set(peers.len() as i64);
                    shared.metrics.leaves.inc();
                }
            }
            ControlFrame::ResyncRequest => {
                let _ = socket.send_to(&encode(&shared.resync_frame()), from);
            }
            _ => {}
        }
    }
}

/// Largest control frame the TCP plane will read.
const MAX_CONTROL_FRAME: usize = 64 * 1024;

/// How long a control connection may stay silent before the server closes
/// it: well past a client's default 2 s request timeouts, yet bounded so
/// silent peers cannot pin the `max_peers` connection cap.
const CONTROL_IDLE: Duration = Duration::from_secs(5);

/// Where this host reaches a socket bound at `addr`: an unspecified bind
/// address answers on loopback.
fn reachable(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Most control threads kept waiting in `accept` between connections:
/// one to take the next connection while another is being served, so a
/// client never waits for a thread to start, and no more, so a finished
/// burst of connections gives its threads back.
const IDLE_CONTROL_THREADS: usize = 2;

/// Starts one more control thread, counted as waiting in `accept`.
fn spawn_control_thread(
    listener: &Arc<TcpListener>,
    shared: &Arc<Shared>,
    control: &mut ControlThreads,
) -> std::io::Result<()> {
    let (listener, thread_shared) = (Arc::clone(listener), Arc::clone(shared));
    let thread = std::thread::Builder::new()
        .name("bnet-control".to_string())
        .spawn(move || control_thread(&listener, &thread_shared))?;
    control.threads.retain(|thread| !thread.is_finished());
    control.threads.push(thread);
    control.idle += 1;
    Ok(())
}

/// One control thread: accepts a connection and serves it itself, after
/// making sure another thread is left accepting.  Threads are reused
/// across connections, so a connection costs no thread start.
fn control_thread(listener: &Arc<TcpListener>, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        let mut control = shared.control.lock().expect("control lock");
        control.idle -= 1;
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        // Aborted handshakes and descriptor exhaustion are transient, and
        // over the cap dropping the stream closes it at once: either way
        // this thread goes back to accepting.
        let stream = match accepted {
            Ok((stream, _)) if control.connections.len() < shared.max_peers => stream,
            _ => {
                control.idle += 1;
                continue;
            }
        };
        let Ok(registered) = stream.try_clone() else {
            control.idle += 1;
            continue;
        };
        let id = control.next_id;
        control.next_id += 1;
        control.connections.insert(id, registered);
        if control.idle == 0 {
            // Should the spawn fail, this connection is served first and
            // the next one waits in the listener's backlog until then.
            let _ = spawn_control_thread(listener, shared, &mut control);
        }
        drop(control);
        let _ = serve_control_connection(stream, shared, CONTROL_IDLE);
        let mut control = shared.control.lock().expect("control lock");
        control.connections.remove(&id);
        if shared.stop.load(Ordering::Relaxed) || control.idle >= IDLE_CONTROL_THREADS {
            return;
        }
        control.idle += 1;
    }
}

/// Answers one connection's requests until it closes, sends garbage, stays
/// silent past `idle`, or the server shuts it down — every read error ends
/// the connection.
fn serve_control_connection(
    mut stream: TcpStream,
    shared: &Shared,
    idle: Duration,
) -> Result<(), NetError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(idle))?;
    stream.set_write_timeout(Some(Duration::from_millis(200)))?;
    while let Some(frame) = read_control_frame(&mut stream)? {
        let reply = match frame {
            ControlFrame::Subscribe { file } => {
                let info = shared
                    .directory
                    .lock()
                    .expect("directory lock")
                    .get(&file.0)
                    .copied();
                Some(match info {
                    Some(info) => ControlFrame::SubscribeAck { file, info },
                    None => ControlFrame::SubscribeNak {
                        file,
                        reason: "file is not on this station".to_string(),
                    },
                })
            }
            ControlFrame::ResyncRequest => match shared.resync_frame() {
                Frame::Control(resync) => Some(resync),
                Frame::Slot(_) => None,
            },
            // The live metrics plane: render the shared registry in the
            // requested format.  A station's registry is a couple dozen
            // fixed-name metrics, far under the control-frame cap.
            ControlFrame::MetricsRequest { format } => Some(ControlFrame::Metrics {
                format,
                body: match format {
                    MetricsFormat::Text => shared.telemetry.export_text(),
                    MetricsFormat::Json => shared.telemetry.export_json(),
                },
            }),
            ControlFrame::Leave => return Ok(()),
            _ => None,
        };
        if let Some(reply) = reply {
            write_control_frame(&mut stream, &reply)?;
        }
    }
    Ok(())
}

/// Reads one length-prefixed control frame from a stream.  `Ok(None)` is a
/// clean end of stream.
pub(crate) fn read_control_frame(stream: &mut impl Read) -> Result<Option<ControlFrame>, NetError> {
    let mut len_bytes = [0u8; 4];
    match stream.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_CONTROL_FRAME {
        return Err(NetError::Protocol("oversized control frame"));
    }
    let mut packet = vec![0u8; len];
    stream.read_exact(&mut packet)?;
    match decode(&packet)? {
        Packet::Frame(Frame::Control(control)) => Ok(Some(control)),
        _ => Err(NetError::Protocol("expected a control frame")),
    }
}

/// Writes one length-prefixed control frame to a stream in a single write:
/// a length prefix written on its own would make the packet wait out the
/// peer's delayed ACK under Nagle.
pub(crate) fn write_control_frame(
    stream: &mut impl Write,
    control: &ControlFrame,
) -> Result<(), NetError> {
    let packet = encode(&Frame::Control(control.clone()));
    let mut framed = Vec::with_capacity(4 + packet.len());
    framed.extend_from_slice(&(packet.len() as u32).to_le_bytes());
    framed.extend_from_slice(&packet);
    stream.write_all(&framed)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ControlClient, ControlTimeouts};
    use bdisk::TransmissionRef;
    use bytes::Bytes;
    use ida::{BlockHeader, DispersedBlock, FileId};
    use std::sync::Barrier;
    use std::time::Instant;

    fn one_file_directory() -> Directory {
        let mut directory = Directory::new();
        directory.insert(1, SubscriptionInfo::new(0, 3, 2, 4));
        directory
    }

    fn control_server(config: NetConfig) -> (UdpFanout, NetHandle, SocketAddr) {
        let (fanout, handle) =
            NetServer::bind(config.with_control_plane(), one_file_directory()).unwrap();
        let addr = handle.control_addr().expect("control plane configured");
        (fanout, handle, addr)
    }

    /// A stream the server has closed reads as end of stream or a reset,
    /// never as a reply.
    fn assert_closed_by_server(stream: &mut TcpStream) {
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        match read_control_frame(stream) {
            Ok(None) => {}
            Err(NetError::Io(e)) => assert_ne!(e.kind(), ErrorKind::WouldBlock, "{e}"),
            other => panic!("expected a closed connection, got {other:?}"),
        }
    }

    /// Waits (up to 2 s) until the control plane's state satisfies `done`.
    fn wait_for(handle: &NetHandle, done: impl Fn(&ControlThreads) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while !done(&handle.shared.control.lock().unwrap()) {
            assert!(Instant::now() < deadline, "control plane did not settle");
            std::thread::yield_now();
        }
    }

    fn test_block() -> DispersedBlock {
        DispersedBlock::new(
            BlockHeader {
                file: FileId(1),
                index: 0,
                m: 2,
                n: 4,
                original_len: 64,
            },
            Bytes::from(vec![5u8; 16]),
        )
    }

    #[test]
    fn joined_peer_receives_published_slots() {
        let (mut fanout, handle) = NetServer::bind(NetConfig::default(), Directory::new()).unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        client
            .send_to(
                &encode(&Frame::Control(ControlFrame::Join)),
                handle.data_addr(),
            )
            .unwrap();
        // The join ack doubles as the join barrier.
        let mut buf = [0u8; 2048];
        let (len, _) = client.recv_from(&mut buf).unwrap();
        assert!(matches!(
            decode(&buf[..len]).unwrap(),
            Packet::Frame(Frame::Control(ControlFrame::Resync { .. }))
        ));

        let block = test_block();
        let tx = TransmissionRef {
            slot: 3,
            block: &block,
        };
        fanout.publish(
            3,
            &[LaneView {
                channel: 0,
                epoch: 7,
                transmission: tx,
            }],
        );
        let (len, _) = client.recv_from(&mut buf).unwrap();
        let Packet::Frame(Frame::Slot(sf)) = decode(&buf[..len]).unwrap() else {
            panic!("expected a slot frame");
        };
        assert_eq!(sf.slot, 3);
        assert_eq!(sf.epoch, 7);
        assert_eq!(sf.block, block);

        let stats = handle.stats();
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.frames_sent, 1);
        assert!(stats.datagrams_sent >= 1);
        handle.shutdown();
    }

    #[test]
    fn leave_removes_the_peer_and_publishing_without_peers_is_cheap() {
        let (mut fanout, handle) = NetServer::bind(NetConfig::default(), Directory::new()).unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        client
            .send_to(
                &encode(&Frame::Control(ControlFrame::Join)),
                handle.data_addr(),
            )
            .unwrap();
        let mut buf = [0u8; 2048];
        client.recv_from(&mut buf).unwrap();
        for control in [ControlFrame::Leave, ControlFrame::ResyncRequest] {
            client
                .send_to(&encode(&Frame::Control(control)), handle.data_addr())
                .unwrap();
        }
        // One thread serves membership in arrival order: the resync reply
        // is the barrier that the leave was processed.
        client.recv_from(&mut buf).unwrap();
        assert_eq!(handle.stats().peers, 0);
        let block = test_block();
        fanout.publish(
            0,
            &[LaneView {
                channel: 0,
                epoch: 1,
                transmission: TransmissionRef {
                    slot: 0,
                    block: &block,
                },
            }],
        );
        assert_eq!(handle.stats().datagrams_sent, 0);
        handle.shutdown();
    }

    #[test]
    fn control_plane_answers_subscriptions_from_the_directory() {
        let mut directory = Directory::new();
        directory.insert(1, SubscriptionInfo::new(2, 5, 3, 6).with_root([7; 32]));
        let (_fanout, handle) =
            NetServer::bind(NetConfig::default().with_control_plane(), directory).unwrap();
        let addr = handle.control_addr().expect("control plane configured");
        let mut stream = TcpStream::connect(addr).unwrap();

        write_control_frame(&mut stream, &ControlFrame::Subscribe { file: FileId(1) }).unwrap();
        let reply = read_control_frame(&mut stream).unwrap().unwrap();
        assert_eq!(
            reply,
            ControlFrame::SubscribeAck {
                file: FileId(1),
                info: SubscriptionInfo::new(2, 5, 3, 6).with_root([7; 32]),
            }
        );

        write_control_frame(&mut stream, &ControlFrame::Subscribe { file: FileId(9) }).unwrap();
        let reply = read_control_frame(&mut stream).unwrap().unwrap();
        assert!(matches!(
            reply,
            ControlFrame::SubscribeNak {
                file: FileId(9),
                ..
            }
        ));

        write_control_frame(&mut stream, &ControlFrame::ResyncRequest).unwrap();
        let reply = read_control_frame(&mut stream).unwrap().unwrap();
        assert!(matches!(reply, ControlFrame::Resync { epoch: 5, .. }));
        handle.shutdown();
    }

    #[test]
    fn directory_updates_and_published_epochs_reach_the_control_plane() {
        let mut directory = Directory::new();
        directory.insert(1, SubscriptionInfo::new(0, 1, 2, 4));
        let (mut fanout, handle) =
            NetServer::bind(NetConfig::default().with_control_plane(), directory).unwrap();
        let addr = handle.control_addr().expect("control plane configured");
        // Publishing under epoch 9 makes the resync report the live epoch
        // even while the directory still says 1 (a swap the caller has
        // not refreshed yet).
        let block = test_block();
        fanout.publish(
            5,
            &[LaneView {
                channel: 0,
                epoch: 9,
                transmission: TransmissionRef {
                    slot: 5,
                    block: &block,
                },
            }],
        );
        let mut stream = TcpStream::connect(addr).unwrap();
        write_control_frame(&mut stream, &ControlFrame::ResyncRequest).unwrap();
        let reply = read_control_frame(&mut stream).unwrap().unwrap();
        assert_eq!(
            reply,
            ControlFrame::Resync {
                epoch: 9,
                next_slot: 6,
            }
        );
        // A directory refresh re-answers subscriptions from the live
        // program.
        let mut updated = Directory::new();
        updated.insert(1, SubscriptionInfo::new(1, 9, 3, 6));
        handle.update_directory(updated);
        write_control_frame(&mut stream, &ControlFrame::Subscribe { file: FileId(1) }).unwrap();
        let reply = read_control_frame(&mut stream).unwrap().unwrap();
        assert_eq!(
            reply,
            ControlFrame::SubscribeAck {
                file: FileId(1),
                info: SubscriptionInfo::new(1, 9, 3, 6),
            }
        );
        handle.shutdown();
    }

    #[test]
    fn control_plane_serves_metrics_in_both_formats() {
        let telemetry = Telemetry::new();
        let (mut fanout, handle) = NetServer::bind_with_telemetry(
            NetConfig::default().with_control_plane(),
            Directory::new(),
            telemetry.clone(),
        )
        .unwrap();
        // Publishing with no peers still registers the bnet_* names, so a
        // scrape sees them at zero; publish once to be sure.
        let block = test_block();
        fanout.publish(
            0,
            &[LaneView {
                channel: 0,
                epoch: 1,
                transmission: TransmissionRef {
                    slot: 0,
                    block: &block,
                },
            }],
        );
        let addr = handle.control_addr().expect("control plane configured");
        let mut stream = TcpStream::connect(addr).unwrap();

        write_control_frame(
            &mut stream,
            &ControlFrame::MetricsRequest {
                format: MetricsFormat::Text,
            },
        )
        .unwrap();
        let reply = read_control_frame(&mut stream).unwrap().unwrap();
        let ControlFrame::Metrics {
            format: MetricsFormat::Text,
            body,
        } = reply
        else {
            panic!("expected a text metrics reply");
        };
        assert!(body.contains("# TYPE bnet_frames_sent counter"));
        assert!(body.contains("bnet_peers"));

        write_control_frame(
            &mut stream,
            &ControlFrame::MetricsRequest {
                format: MetricsFormat::Json,
            },
        )
        .unwrap();
        let reply = read_control_frame(&mut stream).unwrap().unwrap();
        let ControlFrame::Metrics {
            format: MetricsFormat::Json,
            body,
        } = reply
        else {
            panic!("expected a JSON metrics reply");
        };
        assert!(body.starts_with('{'));
        assert!(body.contains("\"bnet_frames_sent\""));
        handle.shutdown();
    }

    #[test]
    fn a_control_frame_is_one_write() {
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut out = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        let frames = [
            ControlFrame::Subscribe { file: FileId(4) },
            ControlFrame::ResyncRequest,
            ControlFrame::Resync {
                epoch: 2,
                next_slot: 90,
            },
        ];
        for (sent, frame) in frames.iter().enumerate() {
            write_control_frame(&mut out, frame).unwrap();
            assert_eq!(out.writes, sent + 1);
        }
        let mut wire = out.bytes.as_slice();
        for frame in &frames {
            assert_eq!(read_control_frame(&mut wire).unwrap().as_ref(), Some(frame));
        }
        assert_eq!(read_control_frame(&mut wire).unwrap(), None);
    }

    #[test]
    fn an_idle_connection_does_not_hold_up_other_clients() {
        let (_fanout, handle, addr) = control_server(NetConfig::default());
        let mut idle = ControlClient::connect(addr).unwrap();
        idle.subscribe(FileId(1)).unwrap();
        // `idle` stays open and silent while another client is served.
        let mut other =
            ControlClient::connect_with(addr, ControlTimeouts::uniform(Duration::from_millis(200)))
                .unwrap();
        assert_eq!(
            other.subscribe(FileId(1)).unwrap(),
            SubscriptionInfo::new(0, 3, 2, 4)
        );
        assert_eq!(other.resync().unwrap(), (3, 0));
        drop(idle);
        handle.shutdown();
    }

    #[test]
    fn concurrent_subscribers_are_all_answered() {
        const CLIENTS: usize = 8;
        let (_fanout, handle, addr) = control_server(NetConfig::default());
        let barrier = Arc::new(Barrier::new(CLIENTS));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut client = ControlClient::connect_with(
                        addr,
                        ControlTimeouts::uniform(Duration::from_millis(500)),
                    )?;
                    barrier.wait();
                    client.subscribe(FileId(1))
                })
            })
            .collect();
        for client in clients {
            assert_eq!(
                client.join().unwrap().unwrap(),
                SubscriptionInfo::new(0, 3, 2, 4)
            );
        }
        // The burst over, the threads it started beyond the idle ones end.
        wait_for(&handle, |control| {
            control.threads.iter().filter(|t| !t.is_finished()).count() <= IDLE_CONTROL_THREADS
        });
        handle.shutdown();
    }

    #[test]
    fn sequential_connections_reuse_the_control_threads() {
        let (_fanout, handle, addr) = control_server(NetConfig::default());
        for _ in 0..20 {
            let mut client = ControlClient::connect(addr).unwrap();
            client.subscribe(FileId(1)).unwrap();
            drop(client);
            wait_for(&handle, |control| control.connections.is_empty());
        }
        // The first connection started the second thread; none since.
        assert_eq!(handle.shared.control.lock().unwrap().threads.len(), 2);
        handle.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_with_an_idle_connection_and_a_joined_peer() {
        let (_fanout, handle, addr) = control_server(NetConfig::default());
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        peer.send_to(
            &encode(&Frame::Control(ControlFrame::Join)),
            handle.data_addr(),
        )
        .unwrap();
        let mut buf = [0u8; 2048];
        peer.recv_from(&mut buf).unwrap(); // the join ack
        let mut idle = ControlClient::connect(addr).unwrap();
        idle.subscribe(FileId(1)).unwrap();

        let started = Instant::now();
        handle.shutdown();
        let took = started.elapsed();
        // Shutdown wakes the blocked threads rather than waiting out a
        // timeout; 100 ms is slack for a loaded 2-core host.
        assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
        assert!(matches!(
            idle.resync(),
            Err(NetError::Protocol("control connection closed") | NetError::Io(_))
        ));
    }

    #[test]
    fn connections_over_the_cap_are_closed_at_once() {
        let config = NetConfig {
            max_peers: 1,
            ..NetConfig::default()
        };
        let (_fanout, handle, addr) = control_server(config);
        let mut admitted = ControlClient::connect(addr).unwrap();
        admitted.subscribe(FileId(1)).unwrap();

        let mut over = TcpStream::connect(addr).unwrap();
        assert_closed_by_server(&mut over);
        // The admitted client is still served.
        assert_eq!(admitted.resync().unwrap(), (3, 0));

        // Once it leaves, its slot frees up for the next client.
        drop(admitted);
        wait_for(&handle, |control| control.connections.is_empty());
        let mut next = ControlClient::connect(addr).unwrap();
        assert_eq!(
            next.subscribe(FileId(1)).unwrap(),
            SubscriptionInfo::new(0, 3, 2, 4)
        );
        handle.shutdown();
    }

    #[test]
    fn a_garbage_frame_closes_only_its_own_connection() {
        let (_fanout, handle, addr) = control_server(NetConfig::default());
        let mut bystander = ControlClient::connect(addr).unwrap();
        bystander.subscribe(FileId(1)).unwrap();

        let mut garbage = TcpStream::connect(addr).unwrap();
        garbage.write_all(&8u32.to_le_bytes()).unwrap();
        garbage.write_all(b"garbage!").unwrap();
        assert_closed_by_server(&mut garbage);

        assert_eq!(bystander.resync().unwrap(), (3, 0));
        let mut fresh = ControlClient::connect(addr).unwrap();
        assert_eq!(fresh.resync().unwrap(), (3, 0));
        handle.shutdown();
    }

    #[test]
    fn silent_connections_are_closed_after_the_idle_bound() {
        assert!(CONTROL_IDLE >= ControlTimeouts::default().read);
        // The same serving path the control thread runs, with a short
        // bound so the test does not wait out the real one.
        let (_fanout, handle) =
            NetServer::bind(NetConfig::default(), one_file_directory()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let shared = Arc::clone(&handle.shared);
        let idle = Duration::from_millis(100);
        let started = Instant::now();
        let server = std::thread::spawn(move || serve_control_connection(accepted, &shared, idle));

        write_control_frame(&mut client, &ControlFrame::ResyncRequest).unwrap();
        assert!(matches!(
            read_control_frame(&mut client).unwrap(),
            Some(ControlFrame::Resync { epoch: 3, .. })
        ));
        assert_closed_by_server(&mut client);
        assert!(started.elapsed() >= idle);
        assert!(matches!(
            server.join().unwrap(),
            Err(NetError::Io(e)) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
        ));
        handle.shutdown();
    }
}
