//! Pluggable simulation observers.
//!
//! The event loop in [`crate::world`] is deliberately thin: it routes
//! scheduler events into protocol callbacks and applies the resulting
//! [`ia_core::Action`]s. The paper's metrics come from the world's own
//! [`crate::tracker::DeliveryTracker`] and the medium's traffic counters;
//! everything else *about* a run — fault ledgers, structured traces — is
//! opt-in instrumentation behind the [`SimObserver`] hook trait, so new
//! measurements never touch the loop itself. The world fans each hook
//! out to every attached observer in attachment order, and has none
//! unless a caller attaches one ([`crate::World::attach_observer`]) or
//! the scenario sets a trace path.
//!
//! Observers are strictly passive: they receive references, never touch
//! an RNG stream, and cannot reorder events — attaching or removing
//! observers therefore cannot change a run's outcome (a property pinned
//! by the determinism tests).

use ia_core::{AdId, AdMessage, RxMeta};
use ia_des::{SimDuration, SimTime};
use ia_radio::DropCounts;
use std::any::Any;
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

/// Channel outcome of one broadcast, handed to [`SimObserver::on_broadcast`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BroadcastInfo {
    /// Frame payload size, bytes.
    pub bytes: usize,
    /// Successful receptions scheduled for this frame.
    pub receivers: usize,
    /// Copies lost, by cause.
    pub drops: DropCounts,
}

/// Why a frame copy addressed to a receiver never reached its protocol.
///
/// Every drop cause in the system flows through
/// [`SimObserver::on_suppress`] tagged with one of these, so observers
/// can ledger injected-vs-survived faults by cause (the [`FaultLedger`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuppressReason {
    /// The receiver was off-line (churn, issuer departure, partition).
    Offline,
    /// The loss model or burst channel ate the copy.
    ChannelLoss,
    /// The receiver sat inside an active jamming zone.
    Jammed,
    /// An overlapping transmission collided at the receiver.
    Collision,
    /// The frame arrived bit-flipped and failed its checksum.
    Corrupted,
}

impl SuppressReason {
    /// Number of reasons.
    const COUNT: usize = 5;

    /// Fixed-vocabulary label (used by the JSONL trace).
    pub fn as_str(&self) -> &'static str {
        match self {
            SuppressReason::Offline => "offline",
            SuppressReason::ChannelLoss => "loss",
            SuppressReason::Jammed => "jam",
            SuppressReason::Collision => "collision",
            SuppressReason::Corrupted => "corrupt",
        }
    }
}

impl std::fmt::Display for SuppressReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-event hooks fired by the simulation world.
///
/// Every hook has an empty default body, so observers implement only what
/// they care about. The `Any` supertrait enables typed retrieval through
/// [`crate::World::observer`].
pub trait SimObserver: Any {
    /// A node transmitted a frame; `info` carries the channel outcome.
    fn on_broadcast(&mut self, now: SimTime, node: u32, msg: &AdMessage, info: &BroadcastInfo) {
        let _ = (now, node, msg, info);
    }
    /// A frame arrived at an on-line receiver (before the protocol sees it).
    fn on_deliver(&mut self, now: SimTime, to: u32, msg: &AdMessage, meta: &RxMeta) {
        let _ = (now, to, msg, meta);
    }
    /// A peer accepted an advertisement into its cache for the first time.
    fn on_accept(&mut self, now: SimTime, node: u32, ad: AdId) {
        let _ = (now, node, ad);
    }
    /// A frame copy addressed to `to` was dropped undelivered; `reason`
    /// carries the cause (off-line peer, channel loss, jam, collision,
    /// checksum failure).
    fn on_suppress(&mut self, now: SimTime, to: u32, msg: &AdMessage, reason: SuppressReason) {
        let _ = (now, to, msg, reason);
    }
    /// A previously stored advertisement was displaced from a peer's cache.
    fn on_cache_evict(&mut self, now: SimTime, node: u32, ad: AdId) {
        let _ = (now, node, ad);
    }
    /// One of a peer's timer ticks ran: a gossip entry's tick or a
    /// flooding issuer's wave, once per tick (ticks the look-ahead
    /// skips do not run).
    fn on_round(&mut self, now: SimTime, node: u32) {
        let _ = (now, node);
    }
    /// A peer went off-line (churn or issuer departure).
    fn on_depart(&mut self, now: SimTime, node: u32) {
        let _ = (now, node);
    }
    /// A churned peer came back on-line.
    fn on_rejoin(&mut self, now: SimTime, node: u32) {
        let _ = (now, node);
    }
}

/// Per-bucket delivered-vs-faulted tally kept by the [`FaultLedger`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerRound {
    /// Frames delivered to on-line receivers in this bucket.
    pub delivered: u64,
    /// Frame copies the channel or chaos plan destroyed.
    pub faulted: u64,
}

impl LedgerRound {
    /// Fraction of this bucket's frame copies that were destroyed.
    pub fn degradation(&self) -> f64 {
        let total = self.delivered + self.faulted;
        if total == 0 {
            0.0
        } else {
            self.faulted as f64 / total as f64
        }
    }
}

/// Ledger of injected vs survived faults.
///
/// Counts every delivery and every suppression by cause, plus the
/// depart/rejoin churn the partition waves inject, and keeps a per-round
/// degradation timeline. Strictly passive — attach it to any run (the
/// determinism suite pins that attaching it never changes outcomes).
#[derive(Debug, Clone)]
pub struct FaultLedger {
    bucket: SimDuration,
    delivered: u64,
    /// Suppressions, indexed by `SuppressReason as usize`.
    suppressed: [u64; SuppressReason::COUNT],
    departs: u64,
    rejoins: u64,
    rounds: Vec<LedgerRound>,
}

impl FaultLedger {
    /// Ledger with per-round degradation bucketed at `bucket` (commonly
    /// the protocol round time).
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "zero ledger bucket");
        FaultLedger {
            bucket,
            delivered: 0,
            suppressed: [0; SuppressReason::COUNT],
            departs: 0,
            rejoins: 0,
            rounds: Vec::new(),
        }
    }

    fn slot(&mut self, now: SimTime) -> &mut LedgerRound {
        let idx = (now.since(SimTime::ZERO).as_secs() / self.bucket.as_secs()).floor() as usize;
        if idx >= self.rounds.len() {
            self.rounds.resize(idx + 1, LedgerRound::default());
        }
        &mut self.rounds[idx]
    }

    /// Frames that reached an on-line receiver.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Suppressions recorded for `reason`.
    pub fn count(&self, reason: SuppressReason) -> u64 {
        self.suppressed[reason as usize]
    }

    /// Frame copies destroyed in flight (everything except off-line
    /// suppressions, which are a node state, not a channel fault).
    pub fn faulted(&self) -> u64 {
        self.suppressed.iter().sum::<u64>() - self.count(SuppressReason::Offline)
    }

    /// Depart events observed (churn + partition waves + issuer exits).
    pub fn departs(&self) -> u64 {
        self.departs
    }

    /// Rejoin events observed.
    pub fn rejoins(&self) -> u64 {
        self.rejoins
    }

    /// Fraction of frame copies that survived the channel:
    /// `delivered / (delivered + faulted)`. 1.0 on an idle run.
    pub fn survival_rate(&self) -> f64 {
        let total = self.delivered + self.faulted();
        if total == 0 {
            1.0
        } else {
            self.delivered as f64 / total as f64
        }
    }

    /// Per-round delivered/faulted timeline from t = 0.
    pub fn rounds(&self) -> &[LedgerRound] {
        &self.rounds
    }

    /// CSV dump of the per-round delivered/faulted/degradation timeline
    /// (one row per bucket from t = 0) so figure scripts can plot
    /// collapse-vs-heal curves instead of endpoint aggregates.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("round,t_start_s,delivered,faulted,degradation\n");
        for (i, r) in self.rounds.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                i,
                i as f64 * self.bucket.as_secs(),
                r.delivered,
                r.faulted,
                r.degradation(),
            ));
        }
        out
    }

    /// One-line human summary for experiment output.
    pub fn summary(&self) -> String {
        format!(
            "delivered={} faulted={} (loss={} jam={} collision={} corrupt={}) offline={} departs={} rejoins={} survival={:.1}%",
            self.delivered,
            self.faulted(),
            self.count(SuppressReason::ChannelLoss),
            self.count(SuppressReason::Jammed),
            self.count(SuppressReason::Collision),
            self.count(SuppressReason::Corrupted),
            self.count(SuppressReason::Offline),
            self.departs,
            self.rejoins,
            100.0 * self.survival_rate()
        )
    }
}

impl SimObserver for FaultLedger {
    fn on_deliver(&mut self, now: SimTime, _to: u32, _msg: &AdMessage, _meta: &RxMeta) {
        self.delivered += 1;
        self.slot(now).delivered += 1;
    }

    fn on_suppress(&mut self, now: SimTime, _to: u32, _msg: &AdMessage, reason: SuppressReason) {
        self.suppressed[reason as usize] += 1;
        if reason != SuppressReason::Offline {
            self.slot(now).faulted += 1;
        }
    }

    fn on_depart(&mut self, _now: SimTime, _node: u32) {
        self.departs += 1;
    }

    fn on_rejoin(&mut self, _now: SimTime, _node: u32) {
        self.rejoins += 1;
    }
}

/// Shared in-memory sink for [`JsonlTrace`], used by tests and tools that
/// want to inspect the trace after a run.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer(Rc<RefCell<Vec<u8>>>);

impl TraceBuffer {
    pub fn new() -> Self {
        Self::default()
    }

    /// The trace captured so far, as UTF-8 text.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.borrow()).into_owned()
    }
}

impl Write for TraceBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Structured trace writer: one JSON object per line (JSONL), one line
/// per hook. Opt-in by attaching it with
/// [`World::attach_observer`](crate::World::attach_observer) (for a file,
/// `JsonlTrace::new(BufWriter::new(File::create(path)?))`); tracing is
/// instrumentation only and never changes a run's outcome.
///
/// All values are numbers or fixed-vocabulary strings (`ad3.0`,
/// `broadcast`), so the writer needs no escaping machinery.
pub struct JsonlTrace {
    out: Box<dyn Write>,
}

impl JsonlTrace {
    /// Trace into any writer (file, buffer, pipe).
    pub fn new(out: impl Write + 'static) -> Self {
        JsonlTrace { out: Box::new(out) }
    }

    /// Trace into memory; returns the trace plus a handle for reading the
    /// captured text back.
    pub fn in_memory() -> (Self, TraceBuffer) {
        let buffer = TraceBuffer::new();
        (Self::new(buffer.clone()), buffer)
    }

    fn line(&mut self, args: std::fmt::Arguments<'_>) {
        // A full trace disk is not a simulation error: drop the line.
        let _ = self.out.write_fmt(args);
    }
}

impl std::fmt::Debug for JsonlTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JsonlTrace")
    }
}

impl SimObserver for JsonlTrace {
    fn on_broadcast(&mut self, now: SimTime, node: u32, msg: &AdMessage, info: &BroadcastInfo) {
        self.line(format_args!(
            "{{\"t\":{},\"ev\":\"broadcast\",\"node\":{},\"ad\":\"{}\",\"bytes\":{},\"receivers\":{},\"dropped\":{},\"jammed\":{},\"collisions\":{}}}\n",
            now.as_secs(), node, msg.ad.id, info.bytes, info.receivers, info.drops.lost, info.drops.jammed, info.drops.collided
        ));
    }

    fn on_deliver(&mut self, now: SimTime, to: u32, msg: &AdMessage, meta: &RxMeta) {
        self.line(format_args!(
            "{{\"t\":{},\"ev\":\"deliver\",\"node\":{},\"ad\":\"{}\",\"from\":{},\"distance\":{:.1}}}\n",
            now.as_secs(),
            to,
            msg.ad.id,
            meta.from,
            meta.distance
        ));
    }

    fn on_accept(&mut self, now: SimTime, node: u32, ad: AdId) {
        self.line(format_args!(
            "{{\"t\":{},\"ev\":\"accept\",\"node\":{},\"ad\":\"{}\"}}\n",
            now.as_secs(),
            node,
            ad
        ));
    }

    fn on_suppress(&mut self, now: SimTime, to: u32, msg: &AdMessage, reason: SuppressReason) {
        self.line(format_args!(
            "{{\"t\":{},\"ev\":\"suppress\",\"node\":{},\"ad\":\"{}\",\"reason\":\"{}\"}}\n",
            now.as_secs(),
            to,
            msg.ad.id,
            reason.as_str()
        ));
    }

    fn on_cache_evict(&mut self, now: SimTime, node: u32, ad: AdId) {
        self.line(format_args!(
            "{{\"t\":{},\"ev\":\"evict\",\"node\":{},\"ad\":\"{}\"}}\n",
            now.as_secs(),
            node,
            ad
        ));
    }

    fn on_depart(&mut self, now: SimTime, node: u32) {
        self.line(format_args!(
            "{{\"t\":{},\"ev\":\"depart\",\"node\":{}}}\n",
            now.as_secs(),
            node
        ));
    }

    fn on_rejoin(&mut self, now: SimTime, node: u32) {
        self.line(format_args!(
            "{{\"t\":{},\"ev\":\"rejoin\",\"node\":{}}}\n",
            now.as_secs(),
            node
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_core::{Advertisement, GossipParams, PeerId};
    use ia_geo::Point;

    fn msg() -> AdMessage {
        let ad = Advertisement::new(
            AdId::new(PeerId(9), 0),
            Point::new(0.0, 0.0),
            SimTime::ZERO,
            100.0,
            SimDuration::from_secs(100.0),
            vec![1],
            50,
            &GossipParams::paper(),
        );
        AdMessage::gossip(ad)
    }

    fn info(bytes: usize, receivers: usize) -> BroadcastInfo {
        BroadcastInfo {
            bytes,
            receivers,
            drops: DropCounts::default(),
        }
    }

    #[test]
    fn fault_ledger_tallies_by_reason_and_round() {
        let mut ledger = FaultLedger::new(SimDuration::from_secs(5.0));
        let m = msg();
        let meta = RxMeta {
            sender_pos: Point::new(0.0, 0.0),
            from: 1,
            distance: 10.0,
        };
        ledger.on_deliver(SimTime::from_secs(1.0), 2, &m, &meta);
        ledger.on_deliver(SimTime::from_secs(2.0), 3, &m, &meta);
        ledger.on_suppress(SimTime::from_secs(2.0), 4, &m, SuppressReason::Jammed);
        ledger.on_suppress(SimTime::from_secs(7.0), 5, &m, SuppressReason::Corrupted);
        ledger.on_suppress(SimTime::from_secs(7.0), 6, &m, SuppressReason::Offline);
        ledger.on_depart(SimTime::from_secs(7.0), 6);
        ledger.on_rejoin(SimTime::from_secs(9.0), 6);

        assert_eq!(ledger.delivered(), 2);
        assert_eq!(ledger.count(SuppressReason::Jammed), 1);
        assert_eq!(ledger.count(SuppressReason::Corrupted), 1);
        assert_eq!(ledger.count(SuppressReason::Offline), 1);
        // Off-line suppressions are node state, not channel faults.
        assert_eq!(ledger.faulted(), 2);
        assert_eq!(ledger.departs(), 1);
        assert_eq!(ledger.rejoins(), 1);
        assert!((ledger.survival_rate() - 0.5).abs() < 1e-12);
        // Bucket 0: 2 delivered + 1 faulted; bucket 1: 0 + 1 faulted.
        assert_eq!(ledger.rounds().len(), 2);
        assert!((ledger.rounds()[0].degradation() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(ledger.rounds()[1].degradation(), 1.0);
        let s = ledger.summary();
        assert!(
            s.contains("delivered=2") && s.contains("survival=50.0%"),
            "{s}"
        );
        let csv = ledger.to_csv();
        assert!(csv.starts_with("round,t_start_s,delivered,faulted,degradation\n"));
        assert_eq!(csv.lines().count(), 3); // header + 2 buckets
        assert!(csv.contains("\n1,5,0,1,1\n"), "{csv}");
    }

    #[test]
    fn fault_ledger_is_neutral_on_an_idle_run() {
        let ledger = FaultLedger::new(SimDuration::from_secs(5.0));
        assert_eq!(ledger.survival_rate(), 1.0);
        assert!(ledger.rounds().is_empty());
        assert_eq!(ledger.faulted(), 0);
    }

    #[test]
    fn jsonl_trace_writes_one_parseable_line_per_hook() {
        let (mut trace, buffer) = JsonlTrace::in_memory();
        let m = msg();
        trace.on_broadcast(SimTime::from_secs(2.5), 7, &m, &info(50, 1));
        trace.on_accept(SimTime::from_secs(3.0), 8, m.ad.id);
        trace.on_suppress(SimTime::from_secs(3.5), 8, &m, SuppressReason::Jammed);
        trace.on_depart(SimTime::from_secs(4.0), 9);
        let text = buffer.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert_eq!(
            lines[0],
            "{\"t\":2.5,\"ev\":\"broadcast\",\"node\":7,\"ad\":\"ad9.0\",\"bytes\":50,\"receivers\":1,\"dropped\":0,\"jammed\":0,\"collisions\":0}"
        );
        assert!(lines[1].contains("\"ev\":\"accept\""));
        assert_eq!(
            lines[2],
            "{\"t\":3.5,\"ev\":\"suppress\",\"node\":8,\"ad\":\"ad9.0\",\"reason\":\"jam\"}"
        );
        assert!(lines[3].contains("\"ev\":\"depart\""));
    }
}
