//! Planar geometry primitives used throughout the workspace.
//!
//! Road networks in this reproduction live in a projected planar coordinate
//! system (kilometres by convention), matching the paper family's use of
//! map-matched, projected data. All distances are Euclidean in that plane;
//! network distances are sums of edge weights.

use serde::{Deserialize, Serialize};

/// A point in the projected plane. Coordinates are in kilometres by
/// convention (the unit only matters relative to the similarity decay scale,
/// see `uots-core`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Easting in kilometres.
    pub x: f64,
    /// Northing in kilometres.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root when
    /// only comparisons are needed, e.g. in nearest-neighbour scans).
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Component-wise midpoint between `self` and `other`.
    #[inline]
    pub(crate) fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Linear interpolation: returns `self + t * (other - self)`.
    ///
    /// `t = 0` yields `self`, `t = 1` yields `other`; values outside `[0, 1]`
    /// extrapolate along the segment.
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(
            self.x + t * (other.x - self.x),
            self.y + t * (other.y - self.y),
        )
    }

    /// Translates the point by `(dx, dy)`.
    #[inline]
    pub fn translate(&self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }
}

/// An axis-aligned bounding box, used by the spatial grid index and the
/// synthetic network generators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BBox {
    /// Minimum corner (south-west).
    pub min: Point,
    /// Maximum corner (north-east).
    pub max: Point,
}

impl BBox {
    /// Creates a bounding box from two corner points; the corners are
    /// normalized so callers may pass them in any order.
    pub fn new(a: Point, b: Point) -> Self {
        BBox {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The empty bounding box: the identity of [`BBox::extend`].
    pub(crate) fn empty() -> Self {
        BBox {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Grows the box (in place) so it contains `p`.
    pub(crate) fn extend(&mut self, p: &Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// The smallest box containing all points of `iter`, or the empty box.
    pub fn of<'a>(iter: impl IntoIterator<Item = &'a Point>) -> Self {
        let mut b = BBox::empty();
        for p in iter {
            b.extend(p);
        }
        b
    }

    /// Width (x extent) of the box; zero when empty.
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height (y extent) of the box; zero when empty.
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Center of the box. Undefined (NaN components) for the empty box.
    pub fn center(&self) -> Point {
        self.min.midpoint(&self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
        assert_eq!(b.distance(&a), 5.0);
    }

    #[test]
    fn point_distance_to_self_is_zero() {
        let p = Point::new(-2.5, 7.25);
        assert_eq!(p.distance(&p), 0.0);
    }

    #[test]
    fn midpoint_and_lerp_agree() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(3.0, 5.0);
        let m = a.midpoint(&b);
        let l = a.lerp(&b, 0.5);
        assert_eq!(m, Point::new(2.0, 3.0));
        assert_eq!(m, l);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
    }

    #[test]
    fn translate_moves_point() {
        let p = Point::new(1.0, 2.0).translate(-1.0, 3.0);
        assert_eq!(p, Point::new(0.0, 5.0));
    }

    #[test]
    fn bbox_normalizes_corners() {
        let b = BBox::new(Point::new(5.0, -1.0), Point::new(-2.0, 4.0));
        assert_eq!(b.min, Point::new(-2.0, -1.0));
        assert_eq!(b.max, Point::new(5.0, 4.0));
        assert_eq!(b.width(), 7.0);
        assert_eq!(b.height(), 5.0);
    }

    #[test]
    fn bbox_empty_then_extend() {
        let mut b = BBox::empty();
        assert!(b.min.x > b.max.x && b.min.y > b.max.y);
        b.extend(&Point::new(1.0, 2.0));
        assert_eq!(b.min, Point::new(1.0, 2.0));
        assert_eq!(b.max, Point::new(1.0, 2.0));
        b.extend(&Point::new(-1.0, 5.0));
        assert_eq!(b.min, Point::new(-1.0, 2.0));
        assert_eq!(b.max, Point::new(1.0, 5.0));
    }

    #[test]
    fn bbox_of_iterator() {
        let pts = [
            Point::new(0.0, 1.0),
            Point::new(4.0, -2.0),
            Point::new(2.0, 2.0),
        ];
        let b = BBox::of(pts.iter());
        assert_eq!(b.min, Point::new(0.0, -2.0));
        assert_eq!(b.max, Point::new(4.0, 2.0));
        assert_eq!(b.center(), Point::new(2.0, 0.0));
    }
}
