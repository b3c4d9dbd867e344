//! Mobility models with analytic piecewise-linear trajectories.
//!
//! This crate replaces NS-2's `setdest` trace generator. Instead of
//! sampling positions on a fixed tick, each node gets a [`Trajectory`]: a
//! contiguous sequence of constant-velocity [`Leg`]s (pauses are legs with
//! zero displacement). Positions and velocities at *any* instant are then
//! exact closed-form evaluations, and the experiment harness can compute
//! the exact moment a node enters an advertising area by intersecting legs
//! with the area circle (see `ia_geo::Segment::disk_transit`).
//!
//! Models provided:
//!
//! * [`RandomWaypoint`] — the paper's model: pick a uniform waypoint, move
//!   to it in a straight line at a uniform speed from
//!   `[mean - delta, mean + delta]`, pause, repeat.
//! * [`Manhattan`] — an extension: movement constrained to a street grid,
//!   closer to the urban scenario the paper motivates.
//! * [`Stationary`] — fixed nodes (e.g. the supermarket issuer).
//!
//! [`Fleet`] keeps every node's waypoints in one exactly sized table, lends
//! out each node's [`TrajectoryView`] and offers position lookups plus
//! the paper's two-fix velocity estimate. [`FleetCursor`]
//! is a per-holder leg-index cache that turns those lookups into O(1)
//! amortized scans under the simulator's monotone clock without changing
//! any returned value.

pub mod cursor;
pub mod fleet;
pub mod manhattan;
pub mod model;
pub mod noise;
pub mod ns2;
pub mod random_waypoint;
pub mod stationary;
pub mod trajectory;

pub use cursor::{FleetCursor, LegWalk};
pub use fleet::Fleet;
pub use manhattan::Manhattan;
pub use model::{MobilityModel, MIN_SPEED};
pub use noise::{GpsNoise, NoiseRamp};
pub use random_waypoint::RandomWaypoint;
pub use stationary::Stationary;
pub use trajectory::{Leg, Trajectory, TrajectoryView, Waypoint};
