//! Host-speed calibration. On a shared host the simulator's wall time
//! drifts by up to 2x over minutes as neighbours contend for cache and
//! memory. A fixed kernel, independent of the simulator, is timed next to
//! every run; dividing by it cancels most of that drift.
//!
//! The kernel makes random read-modify-write updates over a 4 MiB table:
//! past the per-core L2 and about the simulator's working set on the
//! benchmark's workloads. Of the kernels tried (pointer chases over
//! 1–8 MiB, pure arithmetic), its time tracked the simulator's best.

use std::hint::black_box;
use std::time::Instant;

/// Table entries: 4 MiB of `u32`.
const TABLE: usize = 1 << 20;
/// Updates per timing; about 12 ms on the reference host.
const UPDATES: usize = 2_000_000;
/// The kernel's typical time on the reference host (a shared 2-core
/// Xeon at 2.0 GHz), s. Scaling by `NOMINAL_S / kernel time` reports
/// times in that host's typical seconds.
const NOMINAL_S: f64 = 0.012;

pub struct Calibration {
    table: Vec<u32>,
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut calibration = Calibration {
            table: vec![0; TABLE],
        };
        calibration.time(); // fault the table in untimed
        calibration
    }

    /// Wall time of one fixed pass of the kernel, s.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % TABLE as u64) as usize;
            self.table[i] = self.table[i].wrapping_add(1);
        }
        black_box(&self.table);
        start.elapsed().as_secs_f64()
    }
}

/// `wall_s` measured while the kernel took `kernel_s`, in the reference
/// host's typical seconds.
pub fn scaled(wall_s: f64, kernel_s: f64) -> f64 {
    wall_s * NOMINAL_S / kernel_s
}
