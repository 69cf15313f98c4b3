//! Stream adapters: rotate, scale, translate, interleave, chunk, and
//! clamp arbitrary point streams. These compose with any
//! [`PointStream`](crate::PointStream).

use geom::{Point2, Vec2};

/// Gathers the inner stream into `Vec<Point2>` chunks of a fixed size
/// (the final chunk may be shorter) — the feeding adapter for batched and
/// sharded ingestion: chunks go straight into
/// `HullSummary::insert_batch` or a `ShardedIngest` dispatcher without
/// materialising the whole stream.
#[derive(Debug)]
pub struct Chunks<S> {
    inner: S,
    size: usize,
}

impl<S> Chunks<S> {
    /// Chunking with `size >= 1` points per chunk.
    pub fn new(inner: S, size: usize) -> Self {
        assert!(size >= 1, "chunk size must be at least 1");
        Chunks { inner, size }
    }
}

impl<S: Iterator<Item = Point2>> Iterator for Chunks<S> {
    type Item = Vec<Point2>;
    fn next(&mut self) -> Option<Vec<Point2>> {
        let mut chunk = Vec::with_capacity(self.size);
        for p in self.inner.by_ref() {
            chunk.push(p);
            if chunk.len() == self.size {
                break;
            }
        }
        if chunk.is_empty() {
            None
        } else {
            Some(chunk)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.inner.size_hint();
        (lo.div_ceil(self.size), hi.map(|h| h.div_ceil(self.size)))
    }
}

/// Rotates every point of the inner stream about the origin.
#[derive(Debug)]
pub struct Rotate<S> {
    inner: S,
    cos: f64,
    sin: f64,
}

impl<S> Rotate<S> {
    /// Rotation by `theta` radians counterclockwise.
    pub fn new(inner: S, theta: f64) -> Self {
        let (sin, cos) = theta.sin_cos();
        Rotate { inner, cos, sin }
    }
}

impl<S: Iterator<Item = Point2>> Iterator for Rotate<S> {
    type Item = Point2;
    fn next(&mut self) -> Option<Point2> {
        let p = self.inner.next()?;
        Some(Point2::new(
            p.x * self.cos - p.y * self.sin,
            p.x * self.sin + p.y * self.cos,
        ))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Scales every point of the inner stream (anisotropic allowed).
#[derive(Debug)]
pub struct Scale<S> {
    inner: S,
    sx: f64,
    sy: f64,
}

impl<S> Scale<S> {
    /// Independent x/y scaling.
    pub fn new(inner: S, sx: f64, sy: f64) -> Self {
        Scale { inner, sx, sy }
    }

    /// Uniform scaling.
    pub fn uniform(inner: S, s: f64) -> Self {
        Scale {
            inner,
            sx: s,
            sy: s,
        }
    }
}

impl<S: Iterator<Item = Point2>> Iterator for Scale<S> {
    type Item = Point2;
    fn next(&mut self) -> Option<Point2> {
        let p = self.inner.next()?;
        Some(Point2::new(p.x * self.sx, p.y * self.sy))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Translates every point of the inner stream.
#[derive(Debug)]
pub struct Translate<S> {
    inner: S,
    offset: Vec2,
}

impl<S> Translate<S> {
    /// Translation by `offset`.
    pub fn new(inner: S, offset: Vec2) -> Self {
        Translate { inner, offset }
    }
}

impl<S: Iterator<Item = Point2>> Iterator for Translate<S> {
    type Item = Point2;
    fn next(&mut self) -> Option<Point2> {
        Some(self.inner.next()? + self.offset)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Attaches timestamps to a point stream, turning `Point2` items into
/// `(Point2, f64)` pairs for a time-based window
/// (`WindowedSummary::insert_at` / `insert_batch_timestamped`).
///
/// Two arrival patterns:
///
/// * [`uniform`](Timestamped::uniform) — one point every `dt` (a steady
///   sensor);
/// * [`bursty`](Timestamped::bursty) — points arrive in flushes of
///   `burst_len` spaced `dt_within` apart, with `gap` between flushes (a
///   sensor that buffers and reports in bursts). Bursty clocks stress
///   time-based windows: a whole flush expires at once, so bucket expiry
///   happens in slabs rather than a steady trickle.
#[derive(Debug)]
pub struct Timestamped<S> {
    inner: S,
    t0: f64,
    dt_within: f64,
    burst_len: usize,
    gap: f64,
    i: usize,
}

impl<S> Timestamped<S> {
    /// One point every `dt` time units starting at `t0` (`dt >= 0`).
    pub fn uniform(inner: S, t0: f64, dt: f64) -> Self {
        assert!(dt >= 0.0 && dt.is_finite(), "dt must be finite and >= 0");
        Timestamped {
            inner,
            t0,
            dt_within: dt,
            burst_len: 1,
            gap: dt,
            i: 0,
        }
    }

    /// Bursts of `burst_len` points spaced `dt_within` apart, with `gap`
    /// between a burst's last point and the next burst's first point.
    pub fn bursty(inner: S, t0: f64, burst_len: usize, dt_within: f64, gap: f64) -> Self {
        assert!(burst_len >= 1, "a burst holds at least one point");
        assert!(
            dt_within >= 0.0 && gap >= 0.0 && dt_within.is_finite() && gap.is_finite(),
            "spacings must be finite and >= 0"
        );
        Timestamped {
            inner,
            t0,
            dt_within,
            burst_len,
            gap,
            i: 0,
        }
    }

    /// The timestamp of point `i` under this arrival pattern.
    fn time_of(&self, i: usize) -> f64 {
        let burst = (i / self.burst_len) as f64;
        let within = (i % self.burst_len) as f64;
        self.t0
            + burst * ((self.burst_len - 1) as f64 * self.dt_within + self.gap)
            + within * self.dt_within
    }
}

impl<S: Iterator<Item = Point2>> Iterator for Timestamped<S> {
    type Item = (Point2, f64);
    fn next(&mut self) -> Option<(Point2, f64)> {
        let p = self.inner.next()?;
        let t = self.time_of(self.i);
        self.i += 1;
        Some((p, t))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Interleaves two streams round-robin (models two sensors reporting into
/// one channel); ends when both are exhausted.
#[derive(Debug)]
pub struct Interleave<A, B> {
    a: A,
    b: B,
    turn_a: bool,
}

impl<A, B> Interleave<A, B> {
    /// Round-robin interleaving starting with `a`.
    pub fn new(a: A, b: B) -> Self {
        Interleave { a, b, turn_a: true }
    }
}

impl<A, B> Iterator for Interleave<A, B>
where
    A: Iterator<Item = Point2>,
    B: Iterator<Item = Point2>,
{
    type Item = Point2;
    fn next(&mut self) -> Option<Point2> {
        if self.turn_a {
            self.turn_a = false;
            self.a.next().or_else(|| self.b.next())
        } else {
            self.turn_a = true;
            self.b.next().or_else(|| self.a.next())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::{CirclePoints, Square};
    use core::f64::consts::FRAC_PI_2;

    #[test]
    fn rotate_quarter_turn() {
        let pts: Vec<Point2> = Rotate::new(CirclePoints::new(4, 1.0), FRAC_PI_2).collect();
        // First circle point (1,0) becomes (0,1).
        assert!(pts[0].distance(Point2::new(0.0, 1.0)) < 1e-12);
    }

    #[test]
    fn rotation_preserves_norms() {
        let orig: Vec<Point2> = Square::new(1, 200, 1.0).collect();
        let rot: Vec<Point2> = Rotate::new(Square::new(1, 200, 1.0), 0.7).collect();
        for (a, b) in orig.iter().zip(&rot) {
            assert!((a.distance(Point2::ORIGIN) - b.distance(Point2::ORIGIN)).abs() < 1e-12);
        }
    }

    #[test]
    fn scale_and_translate() {
        let pts: Vec<Point2> = Translate::new(
            Scale::new(CirclePoints::new(1, 1.0), 2.0, 3.0),
            Vec2::new(10.0, 20.0),
        )
        .collect();
        assert!(pts[0].distance(Point2::new(12.0, 20.0)) < 1e-12);
    }

    #[test]
    fn chunks_exact_and_ragged() {
        let chunks: Vec<Vec<Point2>> = Chunks::new(CirclePoints::new(10, 1.0), 4).collect();
        assert_eq!(chunks.iter().map(Vec::len).collect::<Vec<_>>(), [4, 4, 2]);
        let rejoined: Vec<Point2> = chunks.concat();
        let direct: Vec<Point2> = CirclePoints::new(10, 1.0).collect();
        assert_eq!(rejoined, direct, "chunking must preserve order and content");
        // Exact multiple: no trailing empty chunk.
        let even: Vec<Vec<Point2>> = Chunks::new(CirclePoints::new(8, 1.0), 4).collect();
        assert_eq!(even.len(), 2);
        // Empty stream yields no chunks.
        assert_eq!(Chunks::new(CirclePoints::new(0, 1.0), 4).count(), 0);
        // Size hint is consistent.
        assert_eq!(
            Chunks::new(CirclePoints::new(10, 1.0), 4).size_hint(),
            (3, Some(3))
        );
    }

    #[test]
    fn timestamped_uniform_and_bursty_clocks() {
        let uni: Vec<(Point2, f64)> =
            Timestamped::uniform(CirclePoints::new(4, 1.0), 10.0, 0.5).collect();
        assert_eq!(uni.len(), 4);
        let ts: Vec<f64> = uni.iter().map(|&(_, t)| t).collect();
        assert_eq!(ts, [10.0, 10.5, 11.0, 11.5]);

        // Bursts of 3 points 0.1 apart, 5.0 between bursts.
        let bursty: Vec<f64> = Timestamped::bursty(CirclePoints::new(7, 1.0), 0.0, 3, 0.1, 5.0)
            .map(|(_, t)| t)
            .collect();
        let want = [0.0, 0.1, 0.2, 5.2, 5.3, 5.4, 10.4];
        assert_eq!(bursty.len(), want.len());
        for (got, want) in bursty.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{got} != {want}");
        }
        // Timestamps are always non-decreasing (the windowed-ingestion
        // requirement).
        assert!(bursty.windows(2).all(|w| w[0] <= w[1]));
        // The points themselves pass through untouched.
        let direct: Vec<Point2> = CirclePoints::new(4, 1.0).collect();
        let tagged: Vec<Point2> = uni.iter().map(|&(p, _)| p).collect();
        assert_eq!(tagged, direct);
    }

    #[test]
    fn interleave_alternates_and_drains() {
        let a = CirclePoints::new(3, 1.0);
        let b = CirclePoints::new(1, 2.0);
        let pts: Vec<Point2> = Interleave::new(a, b).collect();
        assert_eq!(pts.len(), 4);
        // Second element comes from b (radius 2).
        assert!((pts[1].distance(Point2::ORIGIN) - 2.0).abs() < 1e-12);
        // Remaining a-points drain after b is exhausted.
        assert!((pts[3].distance(Point2::ORIGIN) - 1.0).abs() < 1e-12);
    }
}
