//! The paper's contribution: instant advertising protocols for mobile
//! peer-to-peer networks.
//!
//! This crate implements everything in §III of *"Instant Advertising in
//! Mobile Peer-to-Peer Networks"* (Chen, Shen, Xu, Zhou — ICDE 2009):
//!
//! * [`ad::Advertisement`] — the wire object: issue position/time, spatial
//!   radius `R`, temporal duration `D`, topics, and piggybacked FM
//!   sketches for popularity.
//! * [`prob`] — formulas (1)–(3): the distance/age forwarding-probability
//!   functions and the shrinking advertising radius.
//! * [`postpone`] — formula (4): the overhearing-based gossip postponement
//!   of Optimized Gossiping-2.
//! * [`cache`] — the top-k probability-sorted advertisement cache
//!   (store & forward).
//! * [`interest`] / [`rank`] — user interests, the `Match` function,
//!   formula (5)–(7) popularity ranking with FM sketches, and the bounded
//!   radius/duration enlargement of Algorithm 5.
//! * [`protocol`] — the five protocols: Restricted Flooding (baseline),
//!   pure Opportunistic Gossiping, Optimized Gossiping-1 (velocity/annulus
//!   constraint), Optimized Gossiping-2 (overhearing postponement), and
//!   Optimized Gossiping (both).
//!
//! The crate is simulator-agnostic: protocols are state machines driven
//! through [`protocol::Protocol`] with explicit contexts, pushing
//! [`protocol::Action`]s into a caller-owned [`protocol::ActionSink`]
//! (a reusable buffer, so steady-state dispatch is allocation-free).
//! The `ia-experiments` crate wires them to the discrete-event engine,
//! mobility, and radio.

pub mod ad;
pub mod cache;
pub mod codec;
pub mod ids;
pub mod interest;
pub mod params;
pub mod postpone;
pub mod prob;
pub mod protocol;
pub mod rank;

pub use ad::Advertisement;
pub use cache::{AdCache, CacheEntry};
pub use ids::{AdId, PeerId};
pub use interest::UserProfile;
pub use params::{GossipParams, SharedParams};
pub use protocol::{
    build_protocol, Action, ActionSink, AdMessage, CopyFate, EntryWake, Motion, PeerContext,
    Protocol, ProtocolKind, RxMeta,
};
