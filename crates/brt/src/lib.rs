//! # brt — the slot-clocked concurrent broadcast runtime
//!
//! The paper's serving model is a broadcast server that emits one block per
//! channel per slot, forever, while any number of independent clients tune
//! in.  The lower crates provide everything *but* the clock and the
//! concurrency: verified programs (`bcore`/`pinwheel`), dispersed contents
//! and the epoch-swap primitive (`bdisk`), transition planning (`bmode`).
//! This crate provides the runtime that puts them on the air:
//!
//! * [`SlotClock`] — pacing: [`WallClock`] for real slot periods,
//!   [`ManualClock`] for deterministic tests and CI;
//! * [`Engine`] — the seam to the thing being served (the `rtbdisk`
//!   facade's `Station` implements it);
//! * [`Subscriber`] — the one client-side retrieval handle (the facade's
//!   `Retrieval`), and [`resolve_epoch`] — the one epoch-resolution step
//!   (wait for a flip, listen, or apply swap notes) both drivers take;
//! * [`drive`] — the synchronous slot driver (the facade's
//!   `run_until_complete` family is a thin adapter over it);
//! * [`Runtime`] — the threaded server loop: one serving thread publishes
//!   each slot **once** onto a shared [`BroadcastRing`]; N concurrent
//!   client tasks, each driving one [`Subscriber`] under its own
//!   reception-error model, read it through private cursors without
//!   cloning payloads (a true broadcast: server cost is independent of the
//!   fleet size).  Backpressure is by overwrite — a reader that falls more
//!   than the ring's capacity behind self-accounts the lost span as
//!   lag/erasures; the server never stalls on a slow client.  A reader that
//!   sees its channel's epoch move asks the server for the swap note and
//!   gets it on a reply channel, so epochs never desync, and
//!   [`Engine::admit`] gates subscriptions against per-channel fleet
//!   budgets;
//! * [`SwapScheduler`] — plays a [`bsim::ModeSchedule`] against a running
//!   runtime: `prepare` off-thread, `swap` at the planned slot boundary;
//! * [`SlotSink`] — the transport-facing fan-out hook: every served slot's
//!   live lanes are published once to each attached sink.  A network
//!   transport is a *sink*, not a subscriber — the medium fans out for
//!   free, exactly the paper's broadcast model (see the `bnet` crate).
//!
//! The crate is std-only (threads, channels, condvars — no external
//! dependencies) and deliberately generic: it never names a facade type,
//! so the machinery is unit-testable against a stub engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod drive;
mod engine;
mod ring;
mod runtime;
mod scheduler;
mod sink;

pub use bobs::{Event, Telemetry};
pub use clock::{ClockPoll, ManualClock, SlotClock, WakeSignal, WallClock};
pub use drive::{drive, DriveError};
pub use engine::{resolve_epoch, Engine, Subscriber, SwapNote, Tuning};
pub use ring::{BatchRead, BroadcastRing, LaneCell, SlotCell, WakeSet};
pub use runtime::{
    Runtime, RuntimeConfig, RuntimeController, RuntimeError, RuntimeStats, Subscription,
    SubscriptionStats,
};
pub use scheduler::{run_schedule, ScheduleOutcome, SwapScheduler};
pub use sink::{LaneView, SlotSink};

#[cfg(test)]
mod tests {
    use super::*;
    use bdisk::{
        BroadcastFile, BroadcastProgram, BroadcastServer, EpochBank, FileSet, FlatOrder,
        TransmissionRef,
    };
    use bmode::{ModeSpec, SwapPolicy};
    use bsim::{ChannelErrorModel, ModeSchedule, NoErrors};
    use ida::FileId;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// A minimal engine over an `EpochBank`: enough to exercise the runtime
    /// machinery without the facade.  `prepare` resolves mode names through
    /// a fixed catalog of server banks; swaps always cancel in-flight
    /// subscribers of flipped channels (no transparent re-subscription).
    #[derive(Clone)]
    struct BankEngine {
        bank: EpochBank,
        catalog: BTreeMap<String, Vec<Arc<BroadcastServer>>>,
        mode: String,
        /// Per-channel fleet budget for `admit` (`None` admits everything).
        budget: Option<usize>,
        /// Blocks of its file a ticket needs to complete.
        threshold: usize,
    }

    /// Counts received blocks of one file; completes at the threshold.
    #[derive(Debug)]
    struct BankTicket {
        file: FileId,
        channel: usize,
        epoch: u64,
        request_slot: usize,
        received: usize,
        threshold: usize,
        cancelled_by: Option<String>,
        lag_erasures: u64,
    }

    impl Subscriber for BankTicket {
        fn file(&self) -> FileId {
            self.file
        }
        fn channel(&self) -> usize {
            self.channel
        }
        fn epoch(&self) -> u64 {
            self.epoch
        }
        fn request_slot(&self) -> usize {
            self.request_slot
        }
        fn is_resolved(&self) -> bool {
            self.cancelled_by.is_some() || self.received >= self.threshold
        }
        fn observe(&mut self, tx: Option<TransmissionRef<'_>>, ok: bool) -> bool {
            if let Some(tx) = tx {
                if ok && tx.block.file() == self.file {
                    self.received += 1;
                    return self.received >= self.threshold;
                }
            }
            false
        }
        fn apply(&mut self, note: &SwapNote) {
            if let SwapNote::Cancel { mode } = note {
                self.cancelled_by = Some(mode.clone());
            }
        }
        fn lag(&mut self, file_blocks: u64) {
            self.lag_erasures += file_blocks;
        }
    }

    impl Engine for BankEngine {
        type Ticket = BankTicket;
        type Prepared = Vec<Arc<BroadcastServer>>;
        type Report = u64;
        type Error = String;

        fn lane_count(&self) -> usize {
            self.bank.lane_count()
        }
        fn transmit_on(&self, channel: usize, slot: usize) -> Option<TransmissionRef<'_>> {
            self.bank.transmit_ref(channel, slot)
        }
        fn epoch_at(&self, channel: usize, slot: usize) -> Option<u64> {
            self.bank.epoch_at(channel, slot)
        }
        fn subscribe(&self, file: FileId, at_slot: usize) -> Result<BankTicket, String> {
            let channel = self
                .bank
                .channel_of(file)
                .ok_or_else(|| format!("unknown file {file}"))?;
            Ok(BankTicket {
                file,
                channel,
                epoch: self.bank.current_epoch_of(channel).unwrap_or(0),
                request_slot: at_slot,
                received: 0,
                threshold: self.threshold,
                cancelled_by: None,
                lag_erasures: 0,
            })
        }
        fn note_for(&self, _file: FileId, _channel: usize, _epoch: u64) -> SwapNote {
            SwapNote::Cancel {
                mode: self.mode.clone(),
            }
        }
        fn admit(&self, _file: FileId, channel: usize, active: usize) -> Result<(), String> {
            match self.budget {
                Some(budget) if active >= budget => {
                    Err(format!("channel {channel} fleet budget {budget} exhausted"))
                }
                _ => Ok(()),
            }
        }
        fn snapshot(&self) -> Self {
            self.clone()
        }
        fn prepare(&self, mode: &ModeSpec) -> Result<Self::Prepared, String> {
            self.catalog
                .get(mode.name())
                .cloned()
                .ok_or_else(|| format!("unknown mode `{}`", mode.name()))
        }
        fn swap(
            &mut self,
            prepared: Self::Prepared,
            at_slot: usize,
            _policy: SwapPolicy,
        ) -> Result<u64, String> {
            self.mode = "swapped".to_string();
            self.bank
                .swap(at_slot, prepared)
                .map(|applied| applied.epoch)
                .map_err(|e| e.to_string())
        }
    }

    fn server_for(ids: &[u32]) -> Arc<BroadcastServer> {
        let files = FileSet::new(
            ids.iter()
                .map(|&i| BroadcastFile::new(FileId(i), format!("F{i}"), 2, 8).with_dispersal(4))
                .collect(),
        )
        .unwrap();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        Arc::new(BroadcastServer::with_synthetic_contents(&files, program).unwrap())
    }

    fn engine() -> BankEngine {
        let mut catalog = BTreeMap::new();
        catalog.insert("other".to_string(), vec![server_for(&[9])]);
        BankEngine {
            bank: EpochBank::new(vec![server_for(&[1, 2])]).unwrap(),
            catalog,
            mode: "initial".to_string(),
            budget: None,
            threshold: 2,
        }
    }

    #[test]
    fn manual_clock_runtime_delivers_and_completes() {
        let clock = ManualClock::new();
        let runtime = Runtime::spawn(engine(), clock.clone(), RuntimeConfig::default());
        let sub = runtime.subscribe_with(FileId(1), 0, NoErrors).unwrap();
        clock.advance(64);
        let ticket = sub.join();
        assert_eq!(ticket.received, 2);
        assert!(ticket.cancelled_by.is_none());
        let stats = runtime.stats().unwrap();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.active_subscribers, 0);
        assert!(stats.slots_served >= 2);
        runtime.shutdown().unwrap();
    }

    #[test]
    fn attached_sinks_see_every_served_slot_once() {
        use std::sync::Mutex;
        type PublishedSlot = (usize, Vec<(usize, u64, FileId)>);
        struct Recorder(Arc<Mutex<Vec<PublishedSlot>>>);
        impl SlotSink for Recorder {
            fn publish(&mut self, slot: usize, lanes: &[LaneView<'_>]) {
                self.0.lock().unwrap().push((
                    slot,
                    lanes
                        .iter()
                        .map(|l| (l.channel, l.epoch, l.transmission.block.file()))
                        .collect(),
                ));
            }
        }
        let record = Arc::new(Mutex::new(Vec::new()));
        let clock = ManualClock::new();
        let runtime = Runtime::spawn_with_telemetry(
            engine(),
            clock.clone(),
            RuntimeConfig::default(),
            vec![Box::new(Recorder(record.clone()))],
            Telemetry::new(),
        );
        clock.advance(16);
        loop {
            if runtime.stats().unwrap().slots_served >= 16 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let engine = runtime.shutdown().unwrap();
        let published = record.lock().unwrap();
        // One publication per served slot, in slot order, live lanes only.
        assert_eq!(published.len(), 16);
        for (i, (slot, lanes)) in published.iter().enumerate() {
            assert_eq!(*slot, i);
            for &(channel, epoch, file) in lanes {
                assert_eq!(epoch, engine.bank.epoch_at(channel, *slot).unwrap());
                let tx = engine.bank.transmit_ref(channel, *slot).unwrap();
                assert_eq!(tx.block.file(), file);
            }
        }
        // The single-channel test bank is never idle across a full cycle.
        assert!(published.iter().any(|(_, lanes)| !lanes.is_empty()));
    }

    #[test]
    fn unknown_files_are_rejected_at_subscribe() {
        let clock = ManualClock::new();
        let runtime = Runtime::spawn(engine(), clock.clone(), RuntimeConfig::default());
        let err = runtime.subscribe_with(FileId(42), 0, NoErrors).unwrap_err();
        assert!(matches!(err, RuntimeError::Engine(_)));
        runtime.shutdown().unwrap();
    }

    #[test]
    fn scheduled_swaps_apply_at_the_planned_slot_and_cancel_subscribers() {
        let clock = ManualClock::new();
        // A subscriber that can never finish before the swap (huge
        // threshold) and is tuned to the channel the swap flips.
        let mut engine = engine();
        engine.threshold = usize::MAX;
        let runtime = Runtime::spawn(engine, clock.clone(), RuntimeConfig::default());
        let doomed = runtime.subscribe_with(FileId(1), 0, NoErrors).unwrap();
        let schedule = ModeSchedule::new().at(
            10,
            ModeSpec::new("other")
                .file(bcore_spec_stub())
                .with_channels(1),
            SwapPolicy::Immediate,
        );
        let scheduler = run_schedule(runtime.controller(), schedule);
        // Hold the clock until the prepared swap is queued with the server,
        // so it demonstrably applies at its *planned* slot.
        loop {
            if runtime.stats().unwrap().pending_swaps == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        clock.advance(40);
        let outcomes = scheduler.join();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].applied(), "swap failed: {:?}", outcomes[0]);
        assert_eq!(doomed.join().cancelled_by.as_deref(), Some("swapped"));
        // The bank flipped exactly at the planned slot.
        let engine = runtime.shutdown().unwrap();
        assert_eq!(engine.bank.epoch_at(0, 9), Some(0));
        assert_eq!(engine.bank.epoch_at(0, 10), Some(1));
    }

    /// `ModeSpec` insists on at least the shape of a file spec; the stub
    /// engine ignores it (modes resolve through the catalog).
    fn bcore_spec_stub() -> bcore::GeneralizedFileSpec {
        bcore::GeneralizedFileSpec::new(FileId(9), 1, vec![8]).unwrap()
    }

    #[test]
    fn past_due_swaps_apply_while_the_clock_is_parked() {
        let clock = ManualClock::new();
        let runtime = Runtime::spawn(engine(), clock.clone(), RuntimeConfig::default());
        clock.advance(20);
        loop {
            if runtime.stats().unwrap().slots_served >= 20 {
                break; // drained: the server is parked waiting for slot 20
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Planned for slot 5, which is already behind the cursor: the swap
        // must apply at the current boundary without another clock tick —
        // this call hangs forever if past-due swaps wait for Ready.
        let prepared = runtime
            .snapshot()
            .unwrap()
            .prepare(&ModeSpec::new("other").file(bcore_spec_stub()))
            .unwrap();
        let epoch = runtime.swap_at(prepared, 5, SwapPolicy::Immediate).unwrap();
        assert_eq!(epoch, 1);
        let engine = runtime.shutdown().unwrap();
        // Applied at the serving cursor (slot 20), never rewriting history.
        assert_eq!(engine.bank.epoch_at(0, 19), Some(0));
        assert_eq!(engine.bank.epoch_at(0, 20), Some(1));
    }

    /// A lossless reception model that takes 2 ms per sample — a client
    /// far slower than a free-running server.
    struct SlowErrors;

    impl ChannelErrorModel for SlowErrors {
        fn is_lost_on(&mut self, _channel: usize, _tx: TransmissionRef<'_>) -> bool {
            std::thread::sleep(std::time::Duration::from_millis(2));
            false
        }
    }

    #[test]
    fn slow_subscribers_lag_instead_of_stalling_the_server() {
        let clock = ManualClock::new();
        let mut engine = engine();
        engine.threshold = usize::MAX;
        let runtime = Runtime::spawn(engine, clock.clone(), RuntimeConfig { queue_capacity: 1 });
        let sub = runtime.subscribe_with(FileId(1), 0, SlowErrors).unwrap();
        clock.advance(512);
        // Wait until the server worked through the released slots.
        loop {
            let stats = runtime.stats().unwrap();
            if stats.slots_served >= 512 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        runtime.unsubscribe(&sub);
        let lag_erasures = sub.join().lag_erasures;
        // The reader has booked every overwritten span it observed before
        // detaching; the fleet counters must agree with the ticket's view.
        let stats = runtime.stats().unwrap();
        assert!(
            stats.lagged_slots > 0,
            "a capacity-1 ring against 512 fast slots must lag"
        );
        assert_eq!(lag_erasures, stats.lag_erasures);
        runtime.shutdown().unwrap();
    }

    #[test]
    fn admission_control_refuses_subscriptions_over_the_channel_budget() {
        let clock = ManualClock::new();
        let mut capped = engine();
        capped.budget = Some(1);
        let runtime = Runtime::spawn(capped, clock.clone(), RuntimeConfig::default());
        let seated = runtime.subscribe_with(FileId(1), 0, NoErrors).unwrap();
        // Same channel (the bank has one), budget 1: the second seat is
        // refused by the engine's admission hook, not by subscribe itself.
        let refused = runtime.subscribe_with(FileId(2), 0, NoErrors).unwrap_err();
        assert!(matches!(refused, RuntimeError::Engine(_)));
        let stats = runtime.stats().unwrap();
        assert_eq!(stats.admission_denied, 1);
        assert_eq!(stats.total_subscriptions, 1);
        // The refused seat freed nothing; the seated one completes and its
        // departure reopens the channel for a new subscriber.
        clock.advance(64);
        assert_eq!(seated.join().received, 2);
        let reseated = runtime.subscribe_with(FileId(2), 64, NoErrors);
        assert!(reseated.is_ok());
        runtime.shutdown().unwrap();
    }
}
