//! Uniform spatial grid over a fixed point set.
//!
//! Used to snap raw GPS samples and query locations to their nearest network
//! vertex (the paper assumes map-matched inputs; the grid is what makes the
//! map-matching simulation and query snapping fast). Euclidean R-trees are
//! deliberately avoided — the paper notes they are ineffective for *network*
//! pruning — but nearest-*vertex* lookup is a pure geometric problem where a
//! grid is ideal.

use serde::{Deserialize, Serialize};
use uots_network::{BBox, Point};

/// A static uniform grid over a set of points, supporting nearest-neighbour
/// and radius queries. Point identity is the index into the original slice.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridIndex {
    bbox: BBox,
    cell_size: f64,
    cols: usize,
    rows: usize,
    /// CSR-style buckets: `starts[c]..starts[c+1]` slices `entries`.
    starts: Vec<u32>,
    entries: Vec<u32>,
    points: Vec<Point>,
}

impl GridIndex {
    /// Builds a grid over `points`, sized for roughly `target_per_cell`
    /// points per cell (clamped to sane limits).
    ///
    /// # Panics
    ///
    /// Panics when `points` is empty.
    pub fn build(points: &[Point], target_per_cell: usize) -> Self {
        assert!(!points.is_empty(), "grid index needs at least one point");
        let target = target_per_cell.max(1);
        let mut bbox = BBox::of(points.iter());
        // degenerate extents (single point / collinear) get a tiny pad so
        // cell math stays finite
        if bbox.width() == 0.0 || bbox.height() == 0.0 {
            bbox = BBox::new(bbox.min.translate(-0.5, -0.5), bbox.max.translate(0.5, 0.5));
        }
        let cells_wanted = (points.len() as f64 / target as f64).max(1.0);
        let aspect = bbox.width() / bbox.height();
        let rows = (cells_wanted / aspect).sqrt().ceil().max(1.0) as usize;
        let cols = (cells_wanted / rows as f64).ceil().max(1.0) as usize;
        let cell_size = (bbox.width() / cols as f64).max(bbox.height() / rows as f64);
        // Recompute grid shape from the square cell size; the hard cap
        // guards against degenerate/hostile coordinate distributions ever
        // allocating an absurd cell table. The cell size must be enlarged
        // *before* deriving the shape: clamping cols/rows while keeping a
        // smaller cell size would leave boundary cells absorbing all
        // overflow points — wider than `cell_size` — and the ring bound in
        // `nearest` (every point of ring r is ≥ (r−1)·cell_size away) would
        // terminate before the absorbing cell is scanned.
        let max_side = (16.0 * points.len() as f64).sqrt().ceil().max(4.0) as usize;
        let cell_size = cell_size
            .max(bbox.width() / max_side as f64)
            .max(bbox.height() / max_side as f64);
        let cols = ((bbox.width() / cell_size).ceil().max(1.0) as usize).min(max_side);
        let rows = ((bbox.height() / cell_size).ceil().max(1.0) as usize).min(max_side);

        let cell_of = |p: &Point| -> usize {
            let cx = (((p.x - bbox.min.x) / cell_size) as usize).min(cols - 1);
            let cy = (((p.y - bbox.min.y) / cell_size) as usize).min(rows - 1);
            cy * cols + cx
        };

        let ncells = cols * rows;
        let mut counts = vec![0u32; ncells];
        for p in points {
            counts[cell_of(p)] += 1;
        }
        let mut starts = vec![0u32; ncells + 1];
        for c in 0..ncells {
            starts[c + 1] = starts[c] + counts[c];
        }
        let mut entries = vec![0u32; points.len()];
        let mut cursor = starts[..ncells].to_vec();
        for (i, p) in points.iter().enumerate() {
            let c = cell_of(p);
            entries[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        GridIndex {
            bbox,
            cell_size,
            cols,
            rows,
            starts,
            entries,
            points: points.to_vec(),
        }
    }

    #[inline]
    fn cell_coords(&self, p: &Point) -> (isize, isize) {
        let cx = ((p.x - self.bbox.min.x) / self.cell_size).floor() as isize;
        let cy = ((p.y - self.bbox.min.y) / self.cell_size).floor() as isize;
        (
            cx.clamp(0, self.cols as isize - 1),
            cy.clamp(0, self.rows as isize - 1),
        )
    }

    #[inline]
    fn bucket(&self, cx: isize, cy: isize) -> &[u32] {
        if cx < 0 || cy < 0 || cx >= self.cols as isize || cy >= self.rows as isize {
            return &[];
        }
        let c = cy as usize * self.cols + cx as usize;
        let lo = self.starts[c] as usize;
        let hi = self.starts[c + 1] as usize;
        &self.entries[lo..hi]
    }

    /// Index and distance of the point nearest to `q`.
    ///
    /// Expanding-ring search: rings of cells are scanned outwards until the
    /// best candidate found is provably closer than anything an unscanned
    /// ring could contain.
    pub fn nearest(&self, q: &Point) -> (usize, f64) {
        let (qcx, qcy) = self.cell_coords(q);
        let mut best_i = usize::MAX;
        let mut best_d2 = f64::INFINITY;
        let max_ring = self.cols.max(self.rows) as isize;
        for ring in 0..=max_ring {
            // Any point in a cell of ring `r` is at least
            // `(r - 1) * cell_size` away (conservative: the query point may
            // sit anywhere inside its own cell).
            if best_i != usize::MAX {
                let min_possible = (ring - 1).max(0) as f64 * self.cell_size;
                if min_possible * min_possible > best_d2 {
                    break;
                }
            }
            let mut visit = |cx: isize, cy: isize| {
                for &i in self.bucket(cx, cy) {
                    let d2 = q.distance_sq(&self.points[i as usize]);
                    if d2 < best_d2 {
                        best_d2 = d2;
                        best_i = i as usize;
                    }
                }
            };
            if ring == 0 {
                visit(qcx, qcy);
            } else {
                for cx in (qcx - ring)..=(qcx + ring) {
                    visit(cx, qcy - ring);
                    visit(cx, qcy + ring);
                }
                for cy in (qcy - ring + 1)..(qcy + ring) {
                    visit(qcx - ring, cy);
                    visit(qcx + ring, cy);
                }
            }
        }
        debug_assert!(best_i != usize::MAX);
        (best_i, best_d2.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(seed: u64, n: usize) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 60.0))
            .collect()
    }

    fn nearest_linear(points: &[Point], q: &Point) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        for (i, p) in points.iter().enumerate() {
            let d = q.distance(p);
            if d < best.1 {
                best = (i, d);
            }
        }
        best
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let pts = random_points(3, 500);
        let grid = GridIndex::build(&pts, 8);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let q = Point::new(
                rng.gen::<f64>() * 120.0 - 10.0,
                rng.gen::<f64>() * 80.0 - 10.0,
            );
            let (gi, gd) = grid.nearest(&q);
            let (_li, ld) = nearest_linear(&pts, &q);
            assert!(
                (gd - ld).abs() < 1e-9,
                "query {q:?}: grid {gd} (idx {gi}) vs linear {ld}"
            );
        }
    }

    #[test]
    fn nearest_of_indexed_point_is_itself() {
        let pts = random_points(4, 100);
        let grid = GridIndex::build(&pts, 4);
        for (i, p) in pts.iter().enumerate() {
            let (gi, gd) = grid.nearest(p);
            assert!(gd < 1e-12);
            // ties possible in principle, but random points are distinct
            assert_eq!(gi, i);
        }
    }

    #[test]
    fn single_point_and_degenerate_extents() {
        let grid = GridIndex::build(&[Point::new(3.0, 4.0)], 4);
        let (i, d) = grid.nearest(&Point::new(0.0, 0.0));
        assert_eq!(i, 0);
        assert!((d - 5.0).abs() < 1e-12);

        // collinear points (zero height)
        let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64, 2.0)).collect();
        let grid = GridIndex::build(&pts, 2);
        let (i, _) = grid.nearest(&Point::new(7.2, 2.0));
        assert_eq!(i, 7);
    }

    #[test]
    fn far_outside_queries_work() {
        let pts = random_points(6, 50);
        let grid = GridIndex::build(&pts, 4);
        let q = Point::new(-1000.0, 5000.0);
        let (gi, gd) = grid.nearest(&q);
        let (li, ld) = nearest_linear(&pts, &q);
        assert_eq!(gi, li);
        assert!((gd - ld).abs() < 1e-9);
    }

    #[test]
    fn duplicate_points_are_handled() {
        let pts = vec![Point::new(1.0, 1.0); 20];
        let grid = GridIndex::build(&pts, 4);
        let (_, d) = grid.nearest(&Point::new(1.0, 1.0));
        assert!(d < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_point_set_panics() {
        GridIndex::build(&[], 4);
    }

    /// Every cell's true extent must fit in `cell_size`, or the ring bound
    /// in `nearest` is unsound. Regression for the `max_side` clamp bug:
    /// the pre-fix build kept the un-clamped cell size, so on extreme
    /// aspect ratios the boundary cells absorbed all overflow.
    #[test]
    fn clamped_grid_still_covers_the_bbox() {
        // width 1e6 × height 1, 100 points, target 1 → the unclamped shape
        // wants ~100 columns, max_side clamps to 40
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new(i as f64 * 10_101.01, (i % 2) as f64))
            .collect();
        let grid = GridIndex::build(&pts, 1);
        let (cols, rows) = (grid.cols, grid.rows);
        let bbox = BBox::of(pts.iter());
        assert!(
            cols as f64 * grid.cell_size >= bbox.width() - 1e-6,
            "grid ({cols}×{rows}, cell {}) must cover width {}",
            grid.cell_size,
            bbox.width()
        );
        assert!(rows as f64 * grid.cell_size >= bbox.height() - 1e-6);
    }

    /// Brute-force differential over hostile coordinate distributions:
    /// extreme aspect ratios and point clusters at one corner, with
    /// queries aimed at the far end so the pre-fix ring bound terminated
    /// before the true nearest point's (absorbing) cell was scanned.
    #[test]
    fn nearest_matches_linear_scan_under_hostile_distributions() {
        let mut rng = StdRng::seed_from_u64(0x6712);
        let mut hostile: Vec<(String, Vec<Point>)> = Vec::new();
        // 1) extreme horizontal strip: clamp kicks in hard
        hostile.push((
            "wide strip".into(),
            (0..120)
                .map(|_| Point::new(rng.gen::<f64>() * 1e6, rng.gen::<f64>()))
                .collect(),
        ));
        // 2) extreme vertical strip
        hostile.push((
            "tall strip".into(),
            (0..120)
                .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>() * 1e6))
                .collect(),
        ));
        // 3) dense cluster at one corner plus a lone far point: the far
        // point lives in an absorbing boundary cell pre-fix
        let mut corner: Vec<Point> = (0..150)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        corner.push(Point::new(1e6, 1e6));
        hostile.push(("corner cluster".into(), corner));
        // 4) two opposite-corner clusters with a huge gap
        let mut bi: Vec<Point> = (0..60)
            .map(|_| Point::new(rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 10.0))
            .collect();
        bi.extend(
            (0..60)
                .map(|_| Point::new(1e5 + rng.gen::<f64>() * 10.0, 1e5 + rng.gen::<f64>() * 10.0)),
        );
        hostile.push(("opposite corners".into(), bi));

        for (label, pts) in &hostile {
            for target in [1usize, 4, 16] {
                let grid = GridIndex::build(pts, target);
                let bbox = BBox::of(pts.iter());
                for _ in 0..120 {
                    // queries biased across and beyond the whole bbox
                    let q = Point::new(
                        bbox.min.x + (rng.gen::<f64>() * 1.2 - 0.1) * bbox.width().max(1.0),
                        bbox.min.y + (rng.gen::<f64>() * 1.2 - 0.1) * bbox.height().max(1.0),
                    );
                    let (gi, gd) = grid.nearest(&q);
                    let (_, ld) = nearest_linear(pts, &q);
                    assert!(
                        (gd - ld).abs() < 1e-9,
                        "{label} (target {target}): query {q:?} grid {gd} (idx {gi}) vs linear {ld}"
                    );
                }
                // the indexed points themselves are the harshest probes
                for (i, p) in pts.iter().enumerate() {
                    let (_, gd) = grid.nearest(p);
                    assert!(
                        gd < 1e-9,
                        "{label} (target {target}): self-query {i} → {gd}"
                    );
                }
            }
        }
    }

    #[test]
    fn serde_round_trip_preserves_queries() {
        let pts = random_points(8, 120);
        let grid = GridIndex::build(&pts, 6);
        let json = serde_json::to_string(&grid).unwrap();
        let back: GridIndex = serde_json::from_str(&json).unwrap();
        let q = Point::new(12.0, 34.0);
        assert_eq!(grid.nearest(&q).0, back.nearest(&q).0);
        assert_eq!((grid.cols, grid.rows), (back.cols, back.rows));
    }
}
