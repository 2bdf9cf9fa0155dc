//! The engine seam: what the runtime needs from a broadcast station.
//!
//! `brt` is deliberately generic over the thing that actually owns programs,
//! contents and mode transitions — the `rtbdisk` facade's `Station`
//! implements [`Engine`] (and its `Retrieval` implements [`Subscriber`]),
//! but the runtime machinery itself only ever talks through these traits,
//! so it can be unit-tested against a stub and reused over any slot source
//! with an epoch timeline.

use bdisk::{LatencyVector, TransmissionRef};
use bmode::{ModeSpec, SwapPolicy};
use ida::{Dispersal, FileId};
use std::sync::Arc;

/// What happens to a subscriber whose channel's epoch moved past the one it
/// is tuned to: the engine either carries it over (same file, identical
/// dispersed representation, possibly a new channel) or cancels it.
///
/// The payload is expressed entirely in `bdisk`/`ida` types so the note can
/// cross the runtime's reply channels without referencing facade types.
#[derive(Debug, Clone)]
pub enum SwapNote {
    /// Transparent re-subscription: retune to `channel` under `epoch`; the
    /// blocks collected so far stay valid.
    Retune {
        /// The channel now carrying the file.
        channel: usize,
        /// The epoch the channel serves under after the swap.
        epoch: u64,
        /// The (unchanged-parameters) dispersal configuration to continue
        /// with — shared, so encode plans and inverse caches are reused.
        dispersal: Arc<Dispersal>,
        /// The file's declared latency vector in the new mode.
        latencies: LatencyVector,
    },
    /// The retrieval cannot be carried over (its file was dropped or
    /// re-dispersed); it resolves as cancelled by `mode`.
    Cancel {
        /// The mode whose swap cancelled the retrieval.
        mode: String,
    },
}

/// A client-side retrieval handle as the slot drivers see it: tuning state,
/// observation, and swap-note application.
pub trait Subscriber {
    /// The file being retrieved.
    fn file(&self) -> FileId;
    /// The channel the subscriber is currently tuned to.
    fn channel(&self) -> usize;
    /// The program epoch the subscriber is tuned to.
    fn epoch(&self) -> u64;
    /// The slot the subscription was issued at.
    fn request_slot(&self) -> usize;
    /// `true` once the subscriber needs no further slots (completed or
    /// cancelled).
    fn is_resolved(&self) -> bool;
    /// Feeds one slot; returns `true` if this slot completed the retrieval.
    fn observe(&mut self, transmission: Option<TransmissionRef<'_>>, received_ok: bool) -> bool;
    /// Applies a swap note (retune or cancel).
    fn apply(&mut self, note: &SwapNote);
    /// Records `file_blocks` erasures a lagging reader booked out of band:
    /// overwritten slots that carried blocks of the subscriber's file.
    fn lag(&mut self, file_blocks: u64);
}

/// Where a subscriber stands against its channel in one slot, after
/// [`resolve_epoch`] applied every swap note the slot's lane epoch calls for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tuning {
    /// Tuned: observe this channel's transmission this slot.
    Listen(usize),
    /// The lane is dark or still serves an older epoch: the subscriber
    /// listens but hears nothing until its epoch flips in.
    Wait,
    /// A swap note resolved the subscriber (it was cancelled).
    Resolved,
    /// The subscriber is tuned to a channel this engine never had.
    UnknownChannel,
    /// The note source had no note to give (the runtime shut down or the
    /// subscriber was retired).
    NoNote,
}

/// The epoch-resolution step both slot drivers share.  Given the slot's
/// `lanes` count and per-channel lane epochs (`lane_epoch`, `None` while
/// dark), the subscriber waits while its lane is dark or behind, listens at
/// an equal epoch, and applies swap notes — fetched through
/// `note_for(file, channel, epoch)` — while the lane runs ahead, until it is
/// tuned, resolved, or tuned to an unknown channel.  A subscriber several
/// epochs behind applies one note per epoch it missed, in order.
pub fn resolve_epoch<S: Subscriber>(
    subscriber: &mut S,
    lanes: usize,
    lane_epoch: impl Fn(usize) -> Option<u64>,
    mut note_for: impl FnMut(FileId, usize, u64) -> Option<SwapNote>,
) -> Tuning {
    loop {
        let channel = subscriber.channel();
        if channel >= lanes {
            return Tuning::UnknownChannel;
        }
        match lane_epoch(channel) {
            None => return Tuning::Wait,
            Some(e) if e < subscriber.epoch() => return Tuning::Wait,
            Some(e) if e == subscriber.epoch() => return Tuning::Listen(channel),
            Some(_) => {
                let Some(note) = note_for(subscriber.file(), channel, subscriber.epoch()) else {
                    return Tuning::NoNote;
                };
                subscriber.apply(&note);
                if subscriber.is_resolved() {
                    return Tuning::Resolved;
                }
            }
        }
    }
}

/// The serving side: per-slot transmissions, the epoch timeline, and the
/// mode-transition surface the runtime drives.
///
/// `lane_count` / `transmit_on` / `epoch_at` mirror the
/// `bdisk::EpochBank` read API; `subscribe` / `note_for` / `prepare` /
/// `swap` are the station-level operations the facade provides.
pub trait Engine: Send + 'static {
    /// The subscription handle this engine hands out (the facade's
    /// `Retrieval`).
    type Ticket: Subscriber + Send + 'static;
    /// A fully designed mode ready to swap in (the facade's `PreparedMode`).
    type Prepared: Send + 'static;
    /// What an executed swap reports (the facade's `SwapReport`).
    type Report: Send + 'static;
    /// The engine's error type.
    type Error: core::fmt::Display + Send + 'static;

    /// Number of lanes (channels ever used; lanes beyond the current mode's
    /// channel count are dark).
    fn lane_count(&self) -> usize;

    /// What one channel transmits in `slot` (`None` for idle slots and dark
    /// or unknown channels).
    fn transmit_on(&self, channel: usize, slot: usize) -> Option<TransmissionRef<'_>>;

    /// The epoch under which `channel` serves `slot` (`None` while dark).
    fn epoch_at(&self, channel: usize, slot: usize) -> Option<u64>;

    /// Subscribes to `file` starting at `at_slot`, tuned to the latest mode.
    fn subscribe(&self, file: FileId, at_slot: usize) -> Result<Self::Ticket, Self::Error>;

    /// Admission control, consulted by the runtime after [`Engine::subscribe`]
    /// issued a ticket and before the seat is granted: `active_on_channel`
    /// subscribers are already live on the ticket's channel; return an error
    /// to refuse the subscription (e.g. because one more would break the
    /// channel's declared Lemma 3 latency budget).  Admits everything by
    /// default.
    fn admit(
        &self,
        file: FileId,
        channel: usize,
        active_on_channel: usize,
    ) -> Result<(), Self::Error> {
        let _ = (file, channel, active_on_channel);
        Ok(())
    }

    /// The disposition of a subscriber of `file`, tuned to `channel` at
    /// `epoch`, after the channel's epoch moved past it: the first swap the
    /// subscriber has not seen decides between retune and cancel.
    fn note_for(&self, file: FileId, channel: usize, epoch: u64) -> SwapNote;

    /// A snapshot the preparation thread can design against while the
    /// serving thread keeps transmitting (stale preparations are rejected
    /// by [`Engine::swap`]).
    fn snapshot(&self) -> Self
    where
        Self: Sized;

    /// Designs and verifies `mode` — the expensive, off-the-hot-path half of
    /// a transition.
    fn prepare(&self, mode: &ModeSpec) -> Result<Self::Prepared, Self::Error>;

    /// Installs a prepared mode with a slot-aligned atomic swap requested at
    /// `at_slot`.
    fn swap(
        &mut self,
        prepared: Self::Prepared,
        at_slot: usize,
        policy: SwapPolicy,
    ) -> Result<Self::Report, Self::Error>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A subscriber stripped to its tuning state.
    #[derive(Debug, Clone, PartialEq)]
    struct Tuned {
        channel: usize,
        epoch: u64,
        cancelled: bool,
    }

    impl Subscriber for Tuned {
        fn file(&self) -> FileId {
            FileId(1)
        }
        fn channel(&self) -> usize {
            self.channel
        }
        fn epoch(&self) -> u64 {
            self.epoch
        }
        fn request_slot(&self) -> usize {
            0
        }
        fn is_resolved(&self) -> bool {
            self.cancelled
        }
        fn observe(&mut self, _: Option<TransmissionRef<'_>>, _: bool) -> bool {
            false
        }
        fn apply(&mut self, note: &SwapNote) {
            match note {
                SwapNote::Retune { channel, epoch, .. } => {
                    self.channel = *channel;
                    self.epoch = *epoch;
                }
                SwapNote::Cancel { .. } => self.cancelled = true,
            }
        }
        fn lag(&mut self, _: u64) {}
    }

    fn retune(channel: usize, epoch: u64) -> SwapNote {
        SwapNote::Retune {
            channel,
            epoch,
            dispersal: Arc::new(Dispersal::new(2, 4).unwrap()),
            latencies: LatencyVector::new(vec![8]).unwrap(),
        }
    }

    fn cancel() -> SwapNote {
        SwapNote::Cancel {
            mode: "next".to_string(),
        }
    }

    fn on(channel: usize, epoch: u64) -> Tuned {
        Tuned {
            channel,
            epoch,
            cancelled: false,
        }
    }

    /// One resolution step: the subscriber starts at `start` against
    /// `lanes` while the engine hands out `notes` in order.  Returns the
    /// outcome, the final tuning and the `(channel, epoch)` each note was
    /// asked for.
    fn step(
        start: Tuned,
        lanes: &[Option<u64>],
        notes: Vec<SwapNote>,
    ) -> (Tuning, Tuned, Vec<(usize, u64)>) {
        let mut subscriber = start;
        let mut asked = Vec::new();
        let mut notes = notes.into_iter();
        let outcome = resolve_epoch(
            &mut subscriber,
            lanes.len(),
            |channel| lanes[channel],
            |_, channel, epoch| {
                asked.push((channel, epoch));
                notes.next()
            },
        );
        (outcome, subscriber, asked)
    }

    #[test]
    fn epoch_resolution_waits_listens_and_applies_notes_in_order() {
        let cancelled = Tuned {
            cancelled: true,
            ..on(0, 0)
        };
        let table = [
            (
                "dark lane",
                step(on(0, 0), &[None], vec![]),
                (Tuning::Wait, on(0, 0), vec![]),
            ),
            (
                "older epoch",
                step(on(0, 2), &[Some(1)], vec![]),
                (Tuning::Wait, on(0, 2), vec![]),
            ),
            (
                "equal epoch",
                step(on(1, 3), &[Some(0), Some(3)], vec![]),
                (Tuning::Listen(1), on(1, 3), vec![]),
            ),
            (
                "retune",
                step(on(0, 0), &[Some(1), Some(1)], vec![retune(1, 1)]),
                (Tuning::Listen(1), on(1, 1), vec![(0, 0)]),
            ),
            (
                "cancel",
                step(on(0, 0), &[Some(1)], vec![cancel()]),
                (Tuning::Resolved, cancelled, vec![(0, 0)]),
            ),
            (
                "unknown channel",
                step(on(5, 0), &[Some(0)], vec![]),
                (Tuning::UnknownChannel, on(5, 0), vec![]),
            ),
            (
                // Two notes applied in one step, each asked for at the
                // tuning the subscriber held when it saw the lane ahead.
                "two epochs behind",
                step(on(0, 0), &[Some(2)], vec![retune(0, 1), retune(0, 2)]),
                (Tuning::Listen(0), on(0, 2), vec![(0, 0), (0, 1)]),
            ),
            (
                "no note to give",
                step(on(0, 0), &[Some(1)], vec![]),
                (Tuning::NoNote, on(0, 0), vec![(0, 0)]),
            ),
        ];
        for (case, got, want) in table {
            assert_eq!(got, want, "{case}");
        }
    }
}
