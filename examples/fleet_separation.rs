//! Multi-stream monitoring from the paper's introduction: "track the
//! minimum distance between the convex hulls of two data streams", "report
//! when datasets A and B are no longer linearly separable", "report when
//! points of data stream A become completely surrounded by points of data
//! stream B."
//!
//! Two vehicle fleets (blue and red) report GPS positions; a third
//! surveillance drone swarm surrounds the area. A [`TenantEngine`] keeps
//! one adaptive hull per stream; after every round of positions the
//! monitor classifies each pair of hulls with `geom::distance` and reports
//! every change of pairwise state.
//!
//! Run: `cargo run --release --example fleet_separation`

use std::collections::BTreeMap;
use streamhull::geom::{clip, distance};
use streamhull::prelude::*;

struct Lcg(u64);
impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
    fn jitter(&mut self, scale: f64) -> Vec2 {
        Vec2::new(
            (self.next_f64() - 0.5) * scale,
            (self.next_f64() - 0.5) * scale,
        )
    }
}

/// Relationship between an ordered pair of streams.
#[derive(Clone, Copy, Debug, PartialEq)]
enum PairState {
    /// At least one stream is still empty.
    Undefined,
    /// Hulls are disjoint; carries the current minimum distance.
    Separated(f64),
    /// Hulls intersect but neither contains the other.
    Intersecting,
    /// The first stream's hull contains the second's.
    Contains,
    /// The second stream's hull contains the first's.
    ContainedBy,
}

impl PairState {
    /// Classifies two summary hulls (paper §1's three questions).
    fn of(a: &ConvexPolygon, b: &ConvexPolygon) -> PairState {
        match distance::separation(a, b) {
            // `None`: a stream is still empty.
            None => PairState::Undefined,
            Some(distance::Separation::Separated { distance, .. }) => {
                PairState::Separated(distance)
            }
            Some(distance::Separation::Intersecting { .. }) => {
                if distance::contains_polygon(a, b) {
                    PairState::Contains
                } else if distance::contains_polygon(b, a) {
                    PairState::ContainedBy
                } else {
                    PairState::Intersecting
                }
            }
        }
    }

    /// A change of kind is an event; a moving distance is not.
    fn same_kind(self, other: PairState) -> bool {
        std::mem::discriminant(&self) == std::mem::discriminant(&other)
    }
}

const DRONES: StreamId = StreamId(0);
const BLUE: StreamId = StreamId(1);
const RED: StreamId = StreamId(2);

fn name(id: StreamId) -> &'static str {
    match id {
        DRONES => "drones",
        BLUE => "blue",
        _ => "red",
    }
}

/// Pairwise state of every stream pair on the engine's current hulls.
fn pair_states(fleet: &mut TenantEngine) -> BTreeMap<(StreamId, StreamId), PairState> {
    let mut ids: Vec<StreamId> = fleet.ids().collect();
    ids.sort_unstable();
    let hulls: Vec<ConvexPolygon> = ids
        .iter()
        .map(|&id| fleet.hull(id).expect("monitored streams stay hot"))
        .collect();
    let mut states = BTreeMap::new();
    for i in 0..ids.len() {
        for j in (i + 1)..ids.len() {
            states.insert((ids[i], ids[j]), PairState::of(&hulls[i], &hulls[j]));
        }
    }
    states
}

fn main() {
    let mut rng = Lcg(7);
    // One summary per stream; the backend is chosen at runtime.
    let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16));
    let mut fleet = TenantEngine::new(config);

    // The drone swarm patrols a big ring around everything from the start.
    let ring: Vec<Point2> = (0..600)
        .map(|i| {
            let t = core::f64::consts::TAU * i as f64 / 600.0;
            Point2::new(40.0 * t.cos(), 40.0 * t.sin()) + rng.jitter(2.0)
        })
        .collect();
    fleet.insert_batch(DRONES, &ring).unwrap();

    // Blue starts west, red starts east; they advance toward each other.
    let mut last = BTreeMap::new();
    for step in 0..60usize {
        let advance = step as f64 * 0.45;
        let mut round = Vec::with_capacity(80);
        for _ in 0..40 {
            round.push((BLUE, Point2::new(-15.0 + advance, 0.0) + rng.jitter(6.0)));
            round.push((RED, Point2::new(15.0 - advance, 2.0) + rng.jitter(6.0)));
        }
        fleet.ingest_bulk(&round).unwrap();
        let when = fleet.pressure_report().points_ingested;
        for ((a, b), now) in pair_states(&mut fleet) {
            let before = last.insert((a, b), now).unwrap_or(PairState::Undefined);
            if before.same_kind(now) {
                continue;
            }
            let (a, b) = (name(a), name(b));
            match now {
                PairState::Separated(d) => {
                    println!("[{when:>6}] {a} / {b}: separated, min distance {d:.2}")
                }
                PairState::Intersecting => {
                    println!(
                        "[{when:>6}] {a} / {b}: NO LONGER LINEARLY SEPARABLE (from {before:?})"
                    )
                }
                PairState::Contains => println!("[{when:>6}] {a} now completely surrounds {b}"),
                PairState::ContainedBy => {
                    println!("[{when:>6}] {a} is now completely surrounded by {b}")
                }
                PairState::Undefined => {}
            }
        }
    }

    // Final report.
    println!("\nfinal pairwise states:");
    for ((a, b), state) in &last {
        println!("  {:>6} / {:<6}: {state:?}", name(*a), name(*b));
    }
    let blue = fleet.hull(BLUE).unwrap();
    let red = fleet.hull(RED).unwrap();
    println!(
        "\noverlap area of blue and red operating regions: {:.1}",
        clip::overlap_area(&blue, &red)
    );
    assert_eq!(
        last[&(DRONES, BLUE)],
        PairState::Contains,
        "the drone ring should surround the blue fleet"
    );
    assert!(
        matches!(last[&(BLUE, RED)], PairState::Intersecting),
        "the fleets should have met"
    );
}
