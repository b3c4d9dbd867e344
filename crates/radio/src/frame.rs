//! Frame delivery records.

use ia_des::SimTime;
use ia_geo::Point;

/// One successful delivery of a broadcast to one receiver.
///
/// The medium returns these for the world to schedule as receive events;
/// sender metadata travels with the delivery because Optimized
/// Gossiping-2 needs the broadcaster's position at transmission time to
/// compute the overlap fraction `p` and the approach angle `theta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Receiving node.
    pub to: u32,
    /// Arrival instant (transmission time plus jitter).
    pub arrival: SimTime,
    /// Sender's position when the frame was transmitted.
    pub sender_pos: Point,
    /// Sender id.
    pub from: u32,
    /// Distance between sender and receiver at transmission time, metres.
    pub distance: f64,
}

/// Why the channel withheld a frame copy from one receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The loss model (i.i.d., distance ramp, or burst channel) ate it.
    Loss,
    /// The receiver sat inside an active jamming zone.
    Jam,
    /// An overlapping transmission collided at the receiver.
    Collision,
}

/// One receiver-side frame loss, reported alongside the deliveries so the
/// simulation can surface every drop cause through its suppression hook.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameDrop {
    /// The receiver that missed the frame.
    pub to: u32,
    /// Why it missed it.
    pub reason: DropReason,
}

/// Per-cause drop counts of one broadcast.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// Copies lost to the loss model (incl. burst-channel loss).
    pub lost: u64,
    /// Copies lost inside active jamming zones.
    pub jammed: u64,
    /// Copies lost to channel contention.
    pub collided: u64,
}

/// Channel outcome of one broadcast: who hears the frame and who loses it
/// (both in deterministic node-id order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BroadcastOutcome {
    /// Successful receptions to schedule as receive events.
    pub deliveries: Vec<Delivery>,
    /// Receiver-side losses, tagged by cause.
    pub drops: Vec<FrameDrop>,
    /// `drops` tallied by cause, kept in step by [`Self::drop_frame`].
    drop_counts: DropCounts,
}

impl BroadcastOutcome {
    /// Empty both record lists, keeping their capacity — callers recycle
    /// one outcome across broadcasts via
    /// [`Medium::broadcast_into`](crate::Medium::broadcast_into), so the
    /// steady-state hot path never allocates.
    pub fn clear(&mut self) {
        self.deliveries.clear();
        self.drops.clear();
        self.drop_counts = DropCounts::default();
    }

    /// `drops` tallied by cause.
    pub fn drop_counts(&self) -> DropCounts {
        self.drop_counts
    }

    /// Record that `to` missed the frame for `reason`.
    pub fn drop_frame(&mut self, to: u32, reason: DropReason) {
        self.drops.push(FrameDrop { to, reason });
        let count = match reason {
            DropReason::Loss => &mut self.drop_counts.lost,
            DropReason::Jam => &mut self.drop_counts.jammed,
            DropReason::Collision => &mut self.drop_counts.collided,
        };
        *count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_is_plain_data() {
        let d = Delivery {
            to: 3,
            arrival: SimTime::from_secs(1.0),
            sender_pos: Point::new(1.0, 2.0),
            from: 9,
            distance: 42.0,
        };
        let e = d;
        assert_eq!(d, e);
        assert_eq!(e.to, 3);
        assert_eq!(e.from, 9);
    }
}
