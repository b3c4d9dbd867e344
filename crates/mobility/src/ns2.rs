//! NS-2 mobility-trace interoperability.
//!
//! The paper generated its mobility with NS-2's `setdest` tool, whose
//! trace format is Tcl commands:
//!
//! ```text
//! $node_(7) set X_ 2381.24
//! $node_(7) set Y_ 591.03
//! $ns_ at 12.50 "$node_(7) setdest 881.90 4025.00 13.45"
//! ```
//!
//! This module exports [`Trajectory`]s to that format, so a run's
//! mobility can be replayed in NS-2-based tooling (`instant-ads
//! --export-trace`). Pauses are represented implicitly by gaps between a
//! leg's arrival and the next `setdest` command, exactly as `setdest`
//! output does.

use crate::trajectory::Trajectory;
use std::fmt::Write as _;

/// Export one node's trajectory as `setdest`-style Tcl lines.
///
/// `node` is the NS-2 node index. The first two lines set the initial
/// position; each moving leg becomes an `$ns_ at <t> "... setdest x y v"`
/// command (pause legs emit nothing — the next command's timestamp
/// encodes them).
pub fn export_trajectory(node: u32, tr: &Trajectory) -> String {
    let mut out = String::new();
    let p0 = tr.start_position();
    let _ = writeln!(out, "$node_({node}) set X_ {:.6}", p0.x);
    let _ = writeln!(out, "$node_({node}) set Y_ {:.6}", p0.y);
    for leg in tr.legs() {
        if leg.is_pause() || leg.duration().is_zero() {
            continue;
        }
        let v = leg.velocity().norm();
        let _ = writeln!(
            out,
            "$ns_ at {:.6} \"$node_({node}) setdest {:.6} {:.6} {:.6}\"",
            leg.start_time.as_secs(),
            leg.to.x,
            leg.to.y,
            v
        );
    }
    out
}

/// Export a whole fleet (one block per node, in id order).
pub fn export_fleet(fleet: &crate::fleet::Fleet) -> String {
    let mut out = String::new();
    for (id, tr) in fleet.iter() {
        out.push_str(&export_trajectory(id, tr));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use crate::trajectory::Leg;
    use ia_des::SimTime;
    use ia_geo::Point;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn export_contains_initial_position_and_moves() {
        let tr = Trajectory::new(vec![
            Leg::new(
                t(0.0),
                t(10.0),
                Point::new(0.0, 0.0),
                Point::new(100.0, 0.0),
            ),
            Leg::pause(t(10.0), t(20.0), Point::new(100.0, 0.0)),
            Leg::new(
                t(20.0),
                t(30.0),
                Point::new(100.0, 0.0),
                Point::new(100.0, 50.0),
            ),
        ]);
        let text = export_trajectory(3, &tr);
        assert!(text.contains("$node_(3) set X_ 0.000000"));
        assert!(text.contains("$node_(3) set Y_ 0.000000"));
        assert!(
            text.contains("$ns_ at 0.000000 \"$node_(3) setdest 100.000000 0.000000 10.000000\"")
        );
        assert!(
            text.contains("$ns_ at 20.000000 \"$node_(3) setdest 100.000000 50.000000 5.000000\"")
        );
        // Pause legs are implicit (two setdest lines only).
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn fleet_roundtrip_preserves_node_ids() {
        // A fleet exports one block per node, in id order, each tagged
        // with its own node id.
        let tr = Trajectory::new(vec![Leg::new(
            t(0.0),
            t(10.0),
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
        )]);
        let text = export_trajectory(3, &tr);
        let parked = Trajectory::new(vec![Leg::pause(t(0.0), t(30.0), Point::new(7.0, 8.0))]);
        let fleet = Fleet::from_trajectories(vec![parked.clone(), tr.clone(), parked]);
        let blocks = [0, 1, 2].map(|id| export_trajectory(id, fleet.trajectory(id)));
        assert_eq!(export_fleet(&fleet), blocks.concat());
        assert_eq!(blocks[1], text.replace("node_(3)", "node_(1)"));
        assert_eq!(
            blocks[2],
            "$node_(2) set X_ 7.000000\n$node_(2) set Y_ 8.000000\n"
        );
    }
}
