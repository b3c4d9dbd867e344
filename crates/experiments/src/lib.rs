//! The experiment harness: scenarios, the event-driven world, metrics,
//! and one module per figure/table of the paper's evaluation (§IV).
//!
//! Layering:
//!
//! * [`scenario`] — a declarative description of one run (field, fleet,
//!   radio, protocol, parameters, advertisement specs, seed);
//! * [`world`] — wires `ia-core` protocol state machines to the
//!   `ia-des` scheduler, `ia-mobility` fleet, and `ia-radio` medium, and
//!   drives the run to completion;
//! * [`tracker`] — the paper's three metrics (Delivery Rate, Delivery
//!   Time, Number of Messages), with exact area-entry times computed from
//!   trajectory/circle intersections;
//! * [`observer`] — the [`observer::SimObserver`] hook trait: opt-in
//!   per-event instrumentation (fault ledgers, structured traces) kept
//!   out of the event loop itself;
//! * [`runner`] — multi-seed execution (parallel via a shared atomic
//!   work-queue over scoped threads) and summary statistics;
//! * [`report`] — fixed-width table / CSV output for the `figures`
//!   binary;
//! * [`figures`] — one module per reproduced figure: 7 (network size),
//!   8 (speed), 9 (mechanism message reduction), 10 (alpha / round time /
//!   DIS tuning), the beta sweep (§IV-C), the popularity/FM study
//!   (§III-E), the parameter tables, and the extension experiments, each
//!   run by name through [`figures::run`].

pub mod figures;
pub mod observer;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod tracker;
pub mod world;

pub use observer::{
    BroadcastInfo, FaultLedger, JsonlTrace, LedgerRound, SimObserver, SuppressReason, TraceBuffer,
};
pub use runner::{run_scenario, run_seeds, run_seeds_with_threads, summarize, RunResult, Summary};
pub use scenario::{
    AdSpec, BurstLossSpec, ChurnSpec, CorruptionSpec, FaultPlan, MobilityKind, PartitionWave,
    Scenario,
};
pub use tracker::DeliveryTracker;
pub use world::{Deliveries, EntryWakeups, World};
