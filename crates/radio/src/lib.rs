//! The wireless broadcast medium.
//!
//! Substitutes for NS-2's 802.11 stack. The model is a *unit-disk
//! broadcast channel with delivery jitter and optional loss*: a broadcast
//! by node `s` at time `t` reaches every node within `range` metres of
//! `s`'s position at `t` (promiscuously — overhearing is what powers the
//! paper's Optimized Gossiping-2), after a small per-receiver delay drawn
//! from a configurable jitter window. This preserves everything the
//! paper's conclusions rest on — connectivity/partitioning, broadcast
//! reach, overhearing, and message counts — without modelling 802.11
//! micro-behaviour. Loss models (i.i.d. and distance-dependent) are
//! provided for robustness experiments.
//!
//! Performance: neighbour lookup uses a flat CSR spatial index
//! (`ia_geo::FlatGrid`) of node ids and positions, rebuilt in place at a
//! bounded staleness, while the medium keeps each node's current
//! trajectory leg in a table indexed by node id. A query is two passes
//! with no branch on where a node lies: the grid writes the entries of a
//! widened disk into one reused buffer, and each candidate is
//! *exact-checked* at its position on its leg, so results are exact while
//! broadcasts stay `O(neighbours)` and the steady state — grid rebuilds
//! included — allocates nothing.

pub mod config;
pub mod contention;
pub mod frame;
pub mod loss;
pub mod medium;
pub mod stats;

pub use config::RadioConfig;
pub use contention::Contention;
pub use frame::{BroadcastOutcome, Delivery, DropCounts, DropReason, FrameDrop};
pub use loss::{GilbertElliott, LossModel};
pub use medium::{JamZone, Medium};
pub use stats::TrafficStats;
