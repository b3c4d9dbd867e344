//! 2-D geometry primitives for the instant-advertising simulator.
//!
//! Everything in this crate is plain Euclidean geometry on `f64`
//! coordinates, written to be deterministic and allocation-light:
//!
//! * [`Point`] / [`Vector`] — positions and displacements in metres.
//! * [`Segment`] — a directed line segment, used for piecewise-linear
//!   trajectories; supports exact segment/circle intersection, which the
//!   experiment harness uses to compute the *exact* instant a mobile peer
//!   enters an advertising area.
//! * [`Circle`] — advertising areas and radio disks, including the
//!   two-circle *lens* overlap area needed by the paper's Optimized
//!   Gossiping-2 postponement rule (formula 4).
//! * [`Rect`] — the rectangular simulation field.
//! * [`FlatGrid`] — a flat CSR-layout spatial index over dense-id points,
//!   with in-place (allocation-free) rebuilds and one branch-free disk
//!   scan; the neighbour lookup behind every wireless broadcast.

pub mod angle;
pub mod circle;
pub mod flat_grid;
pub mod point;
pub mod rect;
pub mod segment;

pub use angle::angle_between;
pub use circle::Circle;
pub use flat_grid::FlatGrid;
pub use point::{Point, Vector};
pub use rect::Rect;
pub use segment::Segment;

/// Numerical tolerance used by geometric predicates in this crate.
pub const EPS: f64 = 1e-9;
