//! A flat CSR-layout spatial index for disk queries over dense-id points.
//!
//! [`FlatGrid`] buckets points into square cells stored in
//! compressed-sparse-row form over a bounded cell rectangle:
//!
//! ```text
//! cell_start: [0, 2, 2, 5, ...]          one offset per cell, +1 sentinel
//! ids:        [3, 9,  1, 4, 7, ...]      packed entries, grouped by cell
//! pos:        [p3, p9, p1, p4, p7, ...]  parallel positions
//! ```
//!
//! A rebuild re-samples every entry in its current packed slot (bounding
//! the points as it goes), computes each entry's cell once, counts
//! entries per cell and then permutes the packed arrays into cell order
//! in place (cycle by cycle), so a warm rebuild allocates nothing and
//! needs no second copy of the entries. The permutation is stable:
//! entries of one cell keep their previous relative order (ascending id
//! after a first build).
//!
//! Cells are row-major, so the cells a disk overlaps in one grid row form
//! one packed range. [`FlatGrid::scan_disk`] writes the entries of those
//! ranges that lie inside the disk to the front of a reused buffer, with
//! no branch on the disk test, and [`FlatGrid::query_disk_into`] sorts
//! them by id. Ids are the dense indices `0..n` of the position slice,
//! matching the fleet's node ids, and query output is bit-for-bit a
//! brute-force linear scan's (pinned by the property tests below).
//!
//! The grid owns its memory bound: a rebuild coarsens the requested cell
//! until the bounding rectangle spans at most `max(4·n, 1024)` cells, so
//! the offset table stays linear in the point count however far the
//! points spread. A coarser cell only makes queries scan more candidates.

use crate::point::Point;

/// `q.floor() as i32` without a libm call: truncate (saturating, NaN to
/// 0), then step down where that rounded up, saturating as the cast does.
#[inline]
fn floor_i32(q: f64) -> i32 {
    let i = q as i32;
    i.saturating_sub((q < i as f64) as i32)
}

/// A dense CSR grid over points with ids `0..n`.
#[derive(Debug, Clone, Default)]
pub struct FlatGrid {
    cell: f64,
    /// Cell-coordinate origin of the bounded rectangle.
    min_cx: i32,
    min_cy: i32,
    /// Rectangle extent in cells.
    ncx: usize,
    ncy: usize,
    /// `cell_start[c]..cell_start[c + 1]` is cell `c`'s packed range
    /// (row-major over the rectangle); length `ncx * ncy + 1`.
    cell_start: Vec<u32>,
    /// Packed entry ids, grouped by cell.
    ids: Vec<u32>,
    /// Packed entry positions, parallel to `ids`.
    pos: Vec<Point>,
    /// Rebuild scratch, one per entry: its cell, then its new slot.
    dest: Vec<u32>,
}

impl FlatGrid {
    /// An empty index; call [`Self::rebuild`] to populate it.
    pub fn new() -> Self {
        FlatGrid::default()
    }

    /// Build an index over `positions` with the given cell side (metres).
    pub fn build(cell: f64, positions: &[Point]) -> Self {
        let mut g = FlatGrid::new();
        g.rebuild(cell, positions);
        g
    }

    /// Rebuild the index in place from `positions` (id = slice index),
    /// with cells of side `cell`, doubled as often as the spread of the
    /// points needs to keep the rectangle within its cell budget. All
    /// buffers retain capacity, so steady-state rebuilds over a stable
    /// point cloud perform **zero allocations** (asserted by the
    /// counting-allocator tests in `crates/experiments/tests/zero_alloc.rs`).
    pub fn rebuild(&mut self, cell: f64, positions: &[Point]) {
        self.resample(cell, positions.len(), |id| positions[id as usize]);
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    #[inline]
    fn cell_of(cell: f64, p: Point) -> (i32, i32) {
        (floor_i32(p.x / cell), floor_i32(p.y / cell))
    }

    /// Row-major cell index inside the bounded rectangle.
    #[inline]
    fn cell_index(&self, cx: i32, cy: i32) -> usize {
        (cy - self.min_cy) as usize * self.ncx + (cx - self.min_cx) as usize
    }

    /// Re-sample all `n` entries, then re-sort them into cells of side
    /// `cell` (coarsened to the cell budget as in [`FlatGrid::rebuild`]).
    ///
    /// `sample(id)` returns entry `id`'s position. Entries are sampled in
    /// their current packed order, or in id order when the grid held a
    /// different number of entries (the first build).
    pub fn resample(&mut self, cell: f64, n: usize, mut sample: impl FnMut(u32) -> Point) {
        assert!(cell > 0.0 && cell.is_finite(), "grid cell must be positive");
        if self.ids.len() != n {
            self.ids.clear();
            self.pos.clear();
            self.dest.clear();
            // Exact capacities: these buffers live as long as the grid.
            self.ids.reserve_exact(n);
            self.pos.reserve_exact(n);
            self.dest.reserve_exact(n);
            self.ids.extend(0..n as u32);
            self.pos.resize(n, Point::ORIGIN);
        }
        // The bounding box, taken as the entries are sampled.
        let (mut lo, mut hi) = (
            Point::new(f64::INFINITY, f64::INFINITY),
            Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        for (&id, p) in self.ids.iter().zip(&mut self.pos) {
            *p = sample(id);
            debug_assert!(p.is_finite(), "non-finite point");
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        self.sort_into_cells(cell, lo, hi);
    }

    /// Size the cell rectangle over the bounding box `lo..=hi` of the
    /// packed positions, then move every entry to its cell's packed
    /// range: a counting sort whose scatter is an in-place, stable
    /// permutation.
    fn sort_into_cells(&mut self, cell: f64, lo: Point, hi: Point) {
        let n = self.ids.len();
        self.cell_start.clear();
        self.dest.clear();
        if n == 0 {
            self.cell = cell;
            (self.min_cx, self.min_cy, self.ncx, self.ncy) = (0, 0, 0, 0);
            return;
        }
        // The cell, coarsened until the bounding cell rectangle fits the
        // budget.
        let budget = (4 * n).max(1024) as f64;
        let cells = |c: f64, lo: f64, hi: f64| (hi / c).floor() - (lo / c).floor() + 1.0;
        let mut cell = cell;
        while cells(cell, lo.x, hi.x) * cells(cell, lo.y, hi.y) > budget {
            cell *= 2.0;
        }
        self.cell = cell;
        let (min_cx, min_cy) = Self::cell_of(cell, lo);
        let (max_cx, max_cy) = Self::cell_of(cell, hi);
        self.min_cx = min_cx;
        self.min_cy = min_cy;
        self.ncx = (max_cx - min_cx) as usize + 1;
        self.ncy = (max_cy - min_cy) as usize + 1;
        let ncells = self.ncx * self.ncy;

        // Each entry's cell, computed once, and per-cell counts at
        // `c + 1`; an inclusive scan turns the counts into start offsets.
        self.cell_start.resize(ncells + 1, 0);
        for &p in &self.pos {
            let (cx, cy) = Self::cell_of(cell, p);
            let c = self.cell_index(cx, cy);
            self.dest.push(c as u32);
            self.cell_start[c + 1] += 1;
        }
        let mut running = 0u32;
        for s in self.cell_start.iter_mut() {
            running += *s;
            *s = running;
        }
        // Each entry's new slot, in packed order (so the sort is stable),
        // with `cell_start[c]` as cell c's write head. The heads end at
        // the next cell's start, so shifting them up one restores the
        // start offsets.
        for d in self.dest.iter_mut() {
            let c = *d as usize;
            *d = self.cell_start[c];
            self.cell_start[c] += 1;
        }
        self.cell_start.copy_within(..ncells, 1);
        self.cell_start[0] = 0;
        // Apply the permutation cycle by cycle: every swap puts one entry
        // in its final slot.
        for s in 0..n {
            loop {
                let d = self.dest[s] as usize;
                if d == s {
                    break;
                }
                self.ids.swap(s, d);
                self.pos.swap(s, d);
                self.dest.swap(s, d);
            }
        }
    }

    /// Write every `(id, position)` within `radius` of `center`
    /// (inclusive boundary, with `EPS` slack) to the front of `buf`, in
    /// packed order, and return how many there are. The one disk scan;
    /// [`FlatGrid::query_disk_into`] sorts its output.
    ///
    /// Every entry of the disk's row ranges is written at the next free
    /// slot, and the count advances by the disk test's result, so the
    /// scan has no branch on where an entry lies. `buf` is scratch: its
    /// entries past the count are left over, and it only grows, one slot
    /// at a time, to one more than the most entries a scan has found.
    #[inline]
    pub fn scan_disk(&self, center: Point, radius: f64, buf: &mut Vec<(u32, Point)>) -> usize {
        if radius < 0.0 || self.ids.is_empty() {
            return 0;
        }
        let r_sq = radius * radius + crate::EPS;
        // How far an entry that passes the disk test can lie along an
        // axis: `radius + √EPS`, padded by 16 unit roundoffs of it and of
        // the centre for the rounding of the test and of the cell bounds.
        // `x / cell` is monotone in `x`, so the cells cover every such
        // entry, on a cell edge too.
        let pad = 1.0 / (1u64 << 48) as f64;
        let reach =
            (radius + crate::EPS.sqrt()) * (1.0 + pad) + pad * center.x.abs().max(center.y.abs());
        // Clamp the disk's cell range to the bounded rectangle; cells
        // outside it are empty by construction.
        let cx0 = floor_i32((center.x - reach) / self.cell).max(self.min_cx);
        let cx1 = floor_i32((center.x + reach) / self.cell).min(self.min_cx + self.ncx as i32 - 1);
        let cy0 = floor_i32((center.y - reach) / self.cell).max(self.min_cy);
        let cy1 = floor_i32((center.y + reach) / self.cell).min(self.min_cy + self.ncy as i32 - 1);
        if cx0 > cx1 || cy0 > cy1 {
            return 0;
        }
        let mut found = 0;
        for cy in cy0..=cy1 {
            let row = self.cell_index(cx0, cy);
            let range = self.cell_start[row] as usize
                ..self.cell_start[row + (cx1 - cx0) as usize + 1] as usize;
            for (&id, &p) in self.ids[range.clone()].iter().zip(&self.pos[range]) {
                if found == buf.len() {
                    // Exact growth: the buffer lives as long as its owner.
                    buf.reserve_exact(1);
                    buf.push((0, Point::ORIGIN));
                }
                buf[found] = (id, p);
                found += (center.distance_sq(p) <= r_sq) as usize;
            }
        }
        found
    }

    /// Collect all `(id, position)` entries within `radius` of `center`
    /// (inclusive boundary, with `EPS` slack) into `out`, in ascending id
    /// order.
    pub fn query_disk_into(&self, center: Point, radius: f64, out: &mut Vec<(u32, Point)>) {
        let found = self.scan_disk(center, radius, out);
        out.truncate(found);
        // Ids are unique, so the order is total and the output matches a
        // linear scan's.
        out.sort_unstable_by_key(|&(id, _)| id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`FlatGrid::query_disk_into`] into a fresh buffer.
    pub(super) fn query(g: &FlatGrid, center: Point, radius: f64) -> Vec<(u32, Point)> {
        let mut out = Vec::new();
        g.query_disk_into(center, radius, &mut out);
        out
    }

    #[test]
    fn empty_grid_returns_nothing() {
        let g = FlatGrid::build(10.0, &[]);
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert!(query(&g, Point::new(0.0, 0.0), 100.0).is_empty());
    }

    #[test]
    fn finds_points_in_radius() {
        let g = FlatGrid::build(
            10.0,
            &[
                Point::new(0.0, 0.0),
                Point::new(5.0, 0.0),
                Point::new(30.0, 0.0),
                Point::new(0.0, 9.0),
            ],
        );
        assert_eq!(g.len(), 4);
        let hits: Vec<u32> = query(&g, Point::new(0.0, 0.0), 10.0)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(hits, vec![0, 1, 3]);
    }

    #[test]
    fn boundary_is_inclusive() {
        let g = FlatGrid::build(5.0, &[Point::new(10.0, 0.0)]);
        let hits = query(&g, Point::new(0.0, 0.0), 10.0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0], (0, Point::new(10.0, 0.0)));
    }

    #[test]
    fn negative_coordinates_work() {
        let g = FlatGrid::build(7.0, &[Point::new(-3.0, -4.0), Point::new(-100.0, -100.0)]);
        let hits = query(&g, Point::ORIGIN, 5.0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 0);
    }

    #[test]
    fn results_are_sorted_by_id_across_cells() {
        // Points deliberately laid out so cell visit order disagrees with
        // id order: high ids in low cells and vice versa.
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new(((49 - i) as f64) * 9.7, ((i * 7) % 23) as f64 * 9.7))
            .collect();
        let g = FlatGrid::build(25.0, &pts);
        let hits = query(&g, Point::new(240.0, 110.0), 400.0);
        let ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        assert_eq!(ids.len(), 50);
    }

    #[test]
    fn negative_radius_yields_nothing() {
        let g = FlatGrid::build(10.0, &[Point::ORIGIN]);
        assert!(query(&g, Point::ORIGIN, -1.0).is_empty());
    }

    #[test]
    fn rebuild_replaces_contents_in_place() {
        let mut g = FlatGrid::build(10.0, &[Point::ORIGIN, Point::new(5.0, 5.0)]);
        assert_eq!(g.len(), 2);
        g.rebuild(10.0, &[Point::new(100.0, 100.0)]);
        assert_eq!(g.len(), 1);
        assert!(query(&g, Point::ORIGIN, 10.0).is_empty());
        assert_eq!(query(&g, Point::new(100.0, 100.0), 1.0).len(), 1);
    }

    #[test]
    fn query_spanning_many_occupied_cells_is_sorted_and_complete() {
        // 1.0 m cells over a 100 m spread: the disk covers all 100
        // occupied cells, spread over 10 grid rows; output must stay
        // id-sorted and complete.
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64 * 10.0, (i / 10) as f64 * 10.0))
            .collect();
        let g = FlatGrid::build(1.0, &pts);
        let hits = query(&g, Point::new(45.0, 45.0), 200.0);
        assert_eq!(hits.len(), 100);
        let ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        for &(id, p) in &hits {
            assert_eq!(p, pts[id as usize]);
        }
    }

    /// 300 points over a field 4 096 km on a side, at 250 m cells: the
    /// 2²⁸-cell rectangle this once asked for (2 GiB of offsets) is
    /// coarsened to the cell budget, and queries still match a linear
    /// scan at every radius.
    #[test]
    fn a_wide_spread_stays_within_the_cell_budget() {
        let side = 4_096_000.0;
        // A scattered lattice: coordinates are multiples of side / 301.
        let at = |i: u64, k: u64| ((i * k) % 301) as f64 * side / 301.0;
        let pts: Vec<Point> = (0..300)
            .map(|i| Point::new(at(i, 97), at(i, 173)))
            .chain([Point::ORIGIN, Point::new(side, side)])
            .collect();
        let g = FlatGrid::build(250.0, &pts);
        let cells = g.ncx * g.ncy;
        assert!(cells <= 4 * pts.len(), "{cells} cells");
        assert_eq!(g.cell_start.len(), cells + 1);
        assert!(g.cell > 250.0);
        for (k, &centre) in pts.iter().enumerate().step_by(7) {
            for radius in [250.0, 1e4, 3e5, 2e6, 1e7] {
                let want: Vec<(u32, Point)> = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| centre.distance_sq(**p) <= radius * radius + crate::EPS)
                    .map(|(i, &p)| (i as u32, p))
                    .collect();
                assert_eq!(
                    query(&g, centre, radius),
                    want,
                    "point {k}, radius {radius}"
                );
            }
        }
        // A compact cloud keeps the requested cell.
        let compact: Vec<Point> = pts[..50]
            .iter()
            .map(|p| Point::new(p.x * 1e-4, p.y * 1e-4))
            .collect();
        let g = FlatGrid::build(250.0, &compact);
        assert_eq!(g.cell, 250.0);
    }

    #[test]
    #[should_panic(expected = "grid cell must be positive")]
    fn zero_cell_rejected() {
        let _ = FlatGrid::build(0.0, &[Point::ORIGIN]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::query;
    use super::*;
    use proptest::prelude::*;

    /// Values where truncation and floor part ways, or the cast saturates.
    const FLOOR_EDGES: [f64; 16] = [
        0.0,
        -0.0,
        -0.5,
        0.5,
        -1.0,
        1.0,
        -1.5,
        i32::MAX as f64,
        i32::MAX as f64 + 0.5,
        i32::MIN as f64,
        i32::MIN as f64 - 0.5,
        -2147483648.5e3,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::MIN_POSITIVE,
    ];

    proptest! {
        /// `floor_i32` is the `floor` cast for every `f64`: any bit
        /// pattern, integers and near-integers, values around ±2³¹, ±0,
        /// the infinities and NaN.
        #[test]
        fn floor_i32_is_the_floor_cast(raw in any::<u64>(), n in any::<i64>(), k in 0usize..16) {
            let near = (n % (1 << 33)) as f64;
            for q in [
                f64::from_bits(raw),
                near,
                near - 0.5,
                near + f64::EPSILON * near.abs(),
                near - f64::EPSILON * near.abs(),
                FLOOR_EDGES[k],
            ] {
                prop_assert_eq!(floor_i32(q), q.floor() as i32, "{}", q);
            }
        }

        /// `query_disk_into` agrees bitwise with a brute-force linear
        /// scan, id order included.
        #[test]
        fn matches_brute_force(
            pts in proptest::collection::vec((-500.0..500.0f64, -500.0..500.0f64), 0..200),
            qx in -500.0..500.0f64,
            qy in -500.0..500.0f64,
            r in 0.0..400.0f64,
            cell in 1.0..300.0f64,
        ) {
            let positions: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let flat = FlatGrid::build(cell, &positions);
            let center = Point::new(qx, qy);
            let got = query(&flat, center, r);
            let want: Vec<(u32, Point)> = positions
                .iter()
                .enumerate()
                .filter(|(_, p)| center.distance_sq(**p) <= r * r + crate::EPS)
                .map(|(i, &p)| (i as u32, p))
                .collect();
            prop_assert_eq!(got, want);
        }

        /// `scan_disk` finds exactly the `(id, position)` pairs of a
        /// brute-force linear scan, compared as sets, through one reused
        /// buffer: radius 0 and negative radii, disks spanning many grid
        /// rows, and points and centres on cell edges (lattice points at
        /// whole multiples of the cell, duplicates among them). The buffer
        /// never grows past one more than the most entries found.
        #[test]
        fn scan_matches_brute_force_as_a_set(
            pts in proptest::collection::vec(
                prop_oneof![
                    (-500.0..500.0f64, -500.0..500.0f64),
                    (-8i32..8, -8i32..8).prop_map(|(i, j)| (i as f64, j as f64)),
                ],
                0..200,
            ),
            queries in proptest::collection::vec(
                (
                    prop_oneof![
                        (-500.0..500.0f64, -500.0..500.0f64),
                        (-8i32..8, -8i32..8).prop_map(|(i, j)| (i as f64, j as f64)),
                    ],
                    prop_oneof![
                        Just(0.0),
                        -300.0..0.0f64,
                        0.0..400.0f64,
                        400.0..2000.0f64,
                        (0i32..8).prop_map(f64::from),
                    ],
                ),
                1..12,
            ),
            cell in prop_oneof![1.0..300.0f64, (1i32..100).prop_map(f64::from)],
        ) {
            // Lattice coordinates are whole multiples of the cell, so they
            // lie on cell edges; so do lattice radii.
            let at = |(x, y): (f64, f64)| {
                if x.fract() == 0.0 && y.fract() == 0.0 && x.abs() < 8.0 && y.abs() < 8.0 {
                    Point::new(x * cell, y * cell)
                } else {
                    Point::new(x, y)
                }
            };
            let positions: Vec<Point> = pts.iter().map(|&p| at(p)).collect();
            let grid = FlatGrid::build(cell, &positions);
            let (mut buf, mut most) = (Vec::new(), 0);
            for &(c, r) in &queries {
                let (center, radius) = (at(c), if r.fract() == 0.0 { r * cell } else { r });
                let found = grid.scan_disk(center, radius, &mut buf);
                let mut got = buf[..found].to_vec();
                got.sort_unstable_by_key(|&(id, _)| id);
                let want: Vec<(u32, Point)> = positions
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        radius >= 0.0 && center.distance_sq(**p) <= radius * radius + crate::EPS
                    })
                    .map(|(i, &p)| (i as u32, p))
                    .collect();
                prop_assert_eq!(got, want, "centre {:?}, radius {}", center, radius);
                most = most.max(found);
                prop_assert!(buf.len() <= most + 1, "{} slots for {} found", buf.len(), most);
            }
        }

        /// Rebuilding over fresh positions matches a from-scratch build.
        #[test]
        fn rebuild_equals_fresh_build(
            a in proptest::collection::vec((-500.0..500.0f64, -500.0..500.0f64), 0..120),
            b in proptest::collection::vec((-500.0..500.0f64, -500.0..500.0f64), 0..120),
            r in 0.0..300.0f64,
            cell in 1.0..300.0f64,
        ) {
            let pa: Vec<Point> = a.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let pb: Vec<Point> = b.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mut recycled = FlatGrid::build(cell, &pa);
            recycled.rebuild(cell, &pb);
            let fresh = FlatGrid::build(cell, &pb);
            prop_assert_eq!(
                query(&recycled, Point::new(0.0, 0.0), r),
                query(&fresh, Point::new(0.0, 0.0), r)
            );
        }
    }
}
