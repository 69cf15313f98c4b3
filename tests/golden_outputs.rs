//! Golden outputs: every backend, fed fixed seeded streams, must produce
//! exactly the recorded snapshot bytes, hull vertices, error bound, hull
//! generation and accounted footprint.
//!
//! The constants below were recorded once and are never re-recorded by a
//! performance change: a rewrite of an ingestion path is correct only if
//! every observable output stays bit-identical. One change of meaning
//! re-recorded columns: when error bounds moved to one composition rule
//! (parallel parts by max, chained stages by sum) and the adaptive bound
//! to the smaller of `16πP/r²` and its uniform substrate's certificate,
//! the bound column changed on every `adaptive`, `adaptive/bucket` and
//! `adaptive/r8` row, every `adaptive/r128` row but `few5` and `few13`
//! (where `16πP/r²` stays the smaller), and the window rows of
//! `uniform-naive`, `uniform`, `radial` and `adaptive-2r`; and the
//! snapshot hash of those 8 window rows changed, because a window
//! snapshot encodes each bucket's merge debt. Every hull, generation and
//! `approx_bytes` column, and every other row, stayed as recorded.
//!
//! A second change of meaning re-recorded one column: when the adaptive
//! unrefinement queue came to hold one entry per internal node instead of
//! one per endpoint change, the queue length that `approx_bytes` charges
//! fell, so the `approx_bytes` column changed on 38 rows, old → new:
//!
//! | config | drift | annulus | few3 | few5 | few13 | few40 | snapped | zeros |
//! |---|---|---|---|---|---|---|---|---|
//! | `adaptive` | 15904 → 6112 | 18192 → 6896 | 4896 → 4576 | 5520 → 4752 | 7200 → 5280 | 9136 → 5552 | 12128 → 7328 | 7584 → 6432 |
//! | `adaptive/bucket` | 12368 → 4880 | 11824 → 4784 | 4896 → 4576 | 5280 → 4576 | 5536 → 4224 | 7264 → 4672 | 11152 → 6800 | 6304 → 5728 |
//! | `adaptive/r8` | 27840 → 2240 | 7264 → 2592 | 2144 → 1952 | 2528 → 1952 | 3744 → 1952 | 6944 → 1952 | 3152 → 1968 | 2624 → 2400 |
//! | `adaptive/r128` | 39104 → 17504 | 69472 → 28096 | 13840 → 13488 | 15888 → 14896 | 21120 → 17760 | 24304 → 17200 | 31584 → 19584 | 17312 → 15520 |
//! | `cluster` | 43440 → 27824 | 52656 → 25872 | — | — | 21040 → 20048 | 27856 → 23856 | 41456 → 30160 | 16096 → 15776 |
//!
//! The `few2` rows (no refinement yet), `cluster` `few3` and `few5`, and
//! every window row (a window charges its stored points) kept their
//! value. Every snapshot, hull, bound and generation column, and every
//! other row, stayed as recorded.
//!
//! One config was removed with the code it pinned: the adaptive summary
//! lost its power-of-two bucket queue and the option that selected it, so
//! the `adaptive/bucket` config and its ten rows (its nine streams and
//! its window chain) went too. The snapshot format kept its queue byte,
//! always 0, so every remaining row stayed as recorded, window snapshot
//! hashes included.
//!
//! Each row hashes (FNV-1a) the sealed `encode_snapshot()` envelope and
//! the raw IEEE-754 bits of the hull vertices, and records the raw bits of
//! `error_bound()` (`u64::MAX` for `None`), `hull_generation()` and
//! `approx_bytes()`.
//!
//! Streams: a drifting Gaussian and a thin annulus (4000 points each),
//! few-point drifts of 2–40 points, an integer-snapped cloud full of
//! duplicate and collinear extrema, and a stream of signed zeros — all fed
//! in mixed chunk sizes that cross the batched path's leaf threshold. A
//! `LastN` window chain per backend covers bucket builds, carry merges and
//! the `query_window` collector.

use streamhull::prelude::*;
use streamhull::streamgen::{Annulus, Drift, Gaussian};

/// Chunk sizes cycled through while feeding a stream.
const CHUNKS: [usize; 7] = [1, 5, 33, 200, 2, 64, 500];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, bytes);
    h
}

fn hull_bits(hull: &ConvexPolygon) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in hull.vertices() {
        fnv1a(&mut h, &v.to_le_bytes());
    }
    h
}

fn bound_bits(bound: Option<f64>) -> u64 {
    bound.map_or(u64::MAX, f64::to_bits)
}

fn feed_mixed<S: HullSummary + ?Sized>(s: &mut S, pts: &[Point2]) {
    let mut rest = pts;
    for &c in CHUNKS.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(c.min(rest.len()));
        s.insert_batch(head);
        rest = tail;
    }
}

fn drift(seed: u64, n: usize) -> Vec<Point2> {
    Drift::new(
        seed,
        n,
        Point2::new(0.0, 0.0),
        Point2::new(256.0, 64.0),
        1.0,
    )
    .collect()
}

/// The named input streams every backend is fed.
fn streams() -> Vec<(&'static str, Vec<Point2>)> {
    let snapped: Vec<Point2> = Gaussian::new(5, 400, 3.0)
        .map(|p| Point2::new(p.x.round(), p.y.round()))
        .collect();
    let zeros = vec![
        Point2::new(0.0, 1.0),
        Point2::new(-0.0, 1.0),
        Point2::new(1.0, -0.0),
        Point2::new(-0.0, -0.0),
        Point2::new(0.0, -1.0),
        Point2::new(-1.0, 0.0),
        Point2::new(-0.0, -1.0),
        Point2::new(0.0, 0.0),
        Point2::new(1.0, 0.0),
        Point2::new(-1.0, -0.0),
        Point2::new(0.0, 2.0),
        Point2::new(-0.0, -2.0),
    ];
    vec![
        ("drift", drift(7, 4000)),
        ("annulus", Annulus::new(11, 4000, 0.95, 1.0).collect()),
        ("few2", drift(21, 2)),
        ("few3", drift(22, 3)),
        ("few5", drift(23, 5)),
        ("few13", drift(24, 13)),
        ("few40", drift(25, 40)),
        ("snapped", snapped),
        ("zeros", zeros),
    ]
}

/// The summary configurations under test: every kind at `r = 32`, plus
/// the adaptive kind at a small and a large `r`.
fn configs() -> Vec<(String, SummaryBuilder)> {
    let mut out: Vec<(String, SummaryBuilder)> = SummaryKind::ALL
        .iter()
        .map(|&k| (k.label().to_string(), SummaryBuilder::new(k).with_r(32)))
        .collect();
    let adaptive = SummaryBuilder::new(SummaryKind::Adaptive);
    out.push(("adaptive/r8".into(), adaptive.with_r(8)));
    out.push(("adaptive/r128".into(), adaptive.with_r(128)));
    out
}

/// One recorded row: `(config, stream, snapshot, hull, bound, generation,
/// approx_bytes)`.
type Row = (String, String, u64, u64, u64, u64, u64);

fn observe(config: &str, stream: &str, s: &dyn Mergeable, snapshot: &[u8]) -> Row {
    (
        config.to_string(),
        stream.to_string(),
        fnv(snapshot),
        hull_bits(s.hull_ref()),
        bound_bits(s.error_bound()),
        s.hull_generation(),
        s.approx_bytes() as u64,
    )
}

fn actual_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    let streams = streams();
    for (label, builder) in configs() {
        for (name, pts) in &streams {
            let mut s = builder.build_mergeable();
            feed_mixed(s.as_mut(), pts);
            let snap = s.encode_snapshot();
            rows.push(observe(&label, name, s.as_ref(), &snap));
        }
        // A LastN chain: buckets seal, carry-merge and expire, then the
        // collector merges the live buckets.
        let mut w = builder.windowed(WindowConfig::last_n(1500).with_granularity(64));
        feed_mixed(&mut w, &drift(31, 6000));
        let snap = Snapshot::encode(&w);
        let answer = w.query_window();
        let mut row = observe(&label, "window", answer.summary.as_ref(), &snap);
        row.4 = bound_bits(answer.error_bound());
        row.6 = w.approx_bytes() as u64;
        rows.push(row);
    }
    rows
}

fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    for (c, s, snap, hull, bound, generation, bytes) in rows {
        out.push_str(&format!(
            "    ({c:?}, {s:?}, {snap:#018x}, {hull:#018x}, {bound:#018x}, {generation}, {bytes}),\n"
        ));
    }
    out
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, u64, u64, u64, u64)] = &[
    ("exact", "drift", 0x5817d4b335e596eb, 0x23faf1fc7a1583cc, 0x0000000000000000, 36, 960),
    ("exact", "annulus", 0x4d552734e711b7ce, 0x1fe226c4b78f8286, 0x0000000000000000, 29, 5376),
    ("exact", "few2", 0xe430b15395d4c473, 0x6d9dc19d80f0f931, 0x0000000000000000, 2, 192),
    ("exact", "few3", 0x5ce91248966b1af8, 0x9ce3b36a24862c38, 0x0000000000000000, 3, 240),
    ("exact", "few5", 0xa199d2229de960d1, 0x80c1e7f2d86da1d2, 0x0000000000000000, 5, 288),
    ("exact", "few13", 0xfe3812fcb34775f5, 0x4f5677848c5f1182, 0x0000000000000000, 13, 480),
    ("exact", "few40", 0x6e6c52c017f3921e, 0x4f756c5f0f29d947, 0x0000000000000000, 8, 432),
    ("exact", "snapped", 0xbbd200eba6f13f2f, 0xbd62cc9a5f4d4581, 0x0000000000000000, 9, 480),
    ("exact", "zeros", 0xb39fc802b87a57d6, 0x5e9fe50fd0efbca5, 0x0000000000000000, 7, 288),
    ("exact", "window", 0x2e86a5b886033257, 0xbe434e65eced525c, 0x0000000000000000, 59, 4224),
    ("uniform-naive", "drift", 0x38d1d51c59b74a35, 0x0058d6c04fc466c2, 0x40242ae331c91a0c, 35, 672),
    ("uniform-naive", "annulus", 0x24f583270840fd55, 0x46d794bc2ddbeddd, 0x3f8ebd154a50798f, 24, 1632),
    ("uniform-naive", "few2", 0xa3f68cf0f9df463a, 0x6d9dc19d80f0f931, 0x40237d367153112e, 2, 192),
    ("uniform-naive", "few3", 0x1fa78357fbd2122d, 0x948dc9f3818eba10, 0x402292f939c853a2, 3, 192),
    ("uniform-naive", "few5", 0x629cb5d69e5f6b24, 0xbea9c9f94889121a, 0x40257235fce55213, 5, 192),
    ("uniform-naive", "few13", 0x64dfca8e9b3795bd, 0xa327b7af3b6dacf5, 0x402084d56300b9ec, 13, 192),
    ("uniform-naive", "few40", 0x4e63ff0324aebbd0, 0x9aa305c2540cb524, 0x40240f1895ac6a5c, 8, 288),
    ("uniform-naive", "snapped", 0x5b422b8cfe42d54e, 0xbd62cc9a5f4d4581, 0x3fe2654a1c273c44, 9, 480),
    ("uniform-naive", "zeros", 0x1619d88027e1a581, 0x6865e9c19dd51025, 0x3fba03f0e9e3526d, 7, 288),
    ("uniform-naive", "window", 0x453f176a752e978e, 0x98d67ef7442b7205, 0x40104d8388e760ac, 55, 3744),
    ("uniform", "drift", 0x182c38855912ca16, 0x0058d6c04fc466c2, 0x40242ae331c91a0c, 1096, 672),
    ("uniform", "annulus", 0x338d31b35d3fdf11, 0x46d794bc2ddbeddd, 0x3f8ebd154a50798f, 170, 1632),
    ("uniform", "few2", 0xa54eccc55a974c0b, 0x6d9dc19d80f0f931, 0x40237d367153112e, 2, 192),
    ("uniform", "few3", 0x74c94ae420705789, 0x948dc9f3818eba10, 0x402292f939c853a2, 3, 192),
    ("uniform", "few5", 0x211f9943b4e0e711, 0xbea9c9f94889121a, 0x40257235fce55213, 5, 192),
    ("uniform", "few13", 0x0b2291190e6bb0d8, 0xa327b7af3b6dacf5, 0x402084d56300b9ec, 13, 192),
    ("uniform", "few40", 0x742e0cd17de94c20, 0x9aa305c2540cb524, 0x40240f1895ac6a5c, 40, 288),
    ("uniform", "snapped", 0xe82c6378040512d8, 0xbd62cc9a5f4d4581, 0x3fe2654a1c273c44, 32, 480),
    ("uniform", "zeros", 0x67e8a6be5fb67f48, 0x6865e9c19dd51025, 0x3fba03f0e9e3526d, 7, 288),
    ("uniform", "window", 0xf2cd016118d42dcd, 0x98d67ef7442b7205, 0x40104d8388e760ac, 55, 3744),
    ("radial", "drift", 0x6c51c53a2337c957, 0x7c9032c651f0431e, 0x4049a592d5d617f0, 27, 1888),
    ("radial", "annulus", 0xc60997824d240cc5, 0x08a2cfc56d374507, 0x3fd857047274070b, 19, 1888),
    ("radial", "few2", 0xd86f0ed768a0fe01, 0x6d9dc19d80f0f931, 0x4049b93ff62a36db, 2, 1888),
    ("radial", "few3", 0xa3345b8827d7d96c, 0x948dc9f3818eba10, 0x4049bd52c77b4f65, 2, 1888),
    ("radial", "few5", 0x71432a79c6e08079, 0xbea9c9f94889121a, 0x4049ce3faf25841a, 2, 1888),
    ("radial", "few13", 0x3b8a0d6a90939fae, 0xa327b7af3b6dacf5, 0x4049a3f79ea7d0a4, 3, 1888),
    ("radial", "few40", 0x5a67592ca9269de4, 0x7ee08698cc22ade5, 0x4049ae44e3487fe9, 4, 1888),
    ("radial", "snapped", 0x59a7bd64d754c5f5, 0xbd62cc9a5f4d4581, 0x4007d2ca1794f3dd, 7, 1888),
    ("radial", "zeros", 0x2dbbb2cef539147b, 0x6865e9c19dd51025, 0x3fe2ba8a2d4f3c88, 3, 1888),
    ("radial", "window", 0x3da40f034c6c2666, 0xe004a7252d2eadc7, 0x4036373532cf269a, 8, 7440),
    ("frozen", "drift", 0xd3baff0f786a4ec1, 0x0058d6c04fc466c2, 0xffffffffffffffff, 35, 1408),
    ("frozen", "annulus", 0x28dc3acc17119492, 0x46d794bc2ddbeddd, 0xffffffffffffffff, 24, 1408),
    ("frozen", "few2", 0x6274271c04751ba0, 0x6d9dc19d80f0f931, 0xffffffffffffffff, 2, 1408),
    ("frozen", "few3", 0xa800bbce46cf00f5, 0x948dc9f3818eba10, 0xffffffffffffffff, 3, 1408),
    ("frozen", "few5", 0x117cd1c99794b0da, 0xbea9c9f94889121a, 0xffffffffffffffff, 5, 1408),
    ("frozen", "few13", 0x509d5bb02efd07d6, 0xa327b7af3b6dacf5, 0xffffffffffffffff, 13, 1408),
    ("frozen", "few40", 0xf17885bbceb08c4c, 0x9aa305c2540cb524, 0xffffffffffffffff, 8, 1408),
    ("frozen", "snapped", 0x1c3b28a6070be087, 0xbd62cc9a5f4d4581, 0xffffffffffffffff, 9, 1408),
    ("frozen", "zeros", 0x8b6a46711e877906, 0x6865e9c19dd51025, 0xffffffffffffffff, 7, 1408),
    ("frozen", "window", 0x6f39e9288edb8e02, 0x98d67ef7442b7205, 0xffffffffffffffff, 55, 3744),
    ("adaptive", "drift", 0x7560059b8776ba60, 0x63e5d08483189ad5, 0x40242ae331c91a0c, 37, 6112),
    ("adaptive", "annulus", 0x847427ea1a2ac610, 0x985845f14b6c6965, 0x3f8ebd154a50798f, 31, 6896),
    ("adaptive", "few2", 0x0558a2b5da2a1f7f, 0x6d9dc19d80f0f931, 0x40237d367153112e, 2, 4576),
    ("adaptive", "few3", 0x4b37d09d5084ac17, 0x948dc9f3818eba10, 0x402292f939c853a2, 3, 4576),
    ("adaptive", "few5", 0xc381ee7d5837357e, 0x80c1e7f2d86da1d2, 0x40257235fce55213, 5, 4752),
    ("adaptive", "few13", 0x7ddf2356be6c888f, 0x95304b19c378d4e1, 0x402084d56300b9ec, 13, 5280),
    ("adaptive", "few40", 0x105969b5b4c10786, 0xed6dba4da722ff83, 0x40240f1895ac6a5c, 8, 5552),
    ("adaptive", "snapped", 0xbb35296258f23f02, 0xbd62cc9a5f4d4581, 0x3fe2654a1c273c44, 9, 7328),
    ("adaptive", "zeros", 0x46ddf63e8ed9990f, 0x6865e9c19dd51025, 0x3fba03f0e9e3526d, 7, 6432),
    ("adaptive", "window", 0x7de88032f13ed5ff, 0x80ad994716582638, 0x40104d8388e760ac, 57, 4080),
    ("adaptive-2r", "drift", 0x2fc4ff85743fbb9f, 0x63e5d08483189ad5, 0x40242ae331c91a0c, 37, 4320),
    ("adaptive-2r", "annulus", 0x77f992626cedd0b9, 0x6828f88a8fb4f1ef, 0x3f8ebd154a50798f, 31, 5280),
    ("adaptive-2r", "few2", 0x259b7a1d934cd135, 0x6d9dc19d80f0f931, 0x40237d367153112e, 2, 2608),
    ("adaptive-2r", "few3", 0x981b6bbc40dac48f, 0x948dc9f3818eba10, 0x402292f939c853a2, 3, 2608),
    ("adaptive-2r", "few5", 0x6fc581a73dc0e541, 0x80c1e7f2d86da1d2, 0x40257235fce55213, 5, 3056),
    ("adaptive-2r", "few13", 0xad7be1a4e08d6abc, 0x95304b19c378d4e1, 0x402084d56300b9ec, 13, 3840),
    ("adaptive-2r", "few40", 0xf7f66874a0e45601, 0xed6dba4da722ff83, 0x40240f1895ac6a5c, 8, 3936),
    ("adaptive-2r", "snapped", 0x5f0d67d9542ab099, 0xbd62cc9a5f4d4581, 0x3fe2654a1c273c44, 9, 4128),
    ("adaptive-2r", "zeros", 0x2280888af1f7d729, 0x6865e9c19dd51025, 0x3fba03f0e9e3526d, 7, 3936),
    ("adaptive-2r", "window", 0x1e8acb60700f86a9, 0x80ad994716582638, 0x40104d8388e760ac, 59, 4176),
    ("cluster", "drift", 0xa0647fdbc87ab583, 0x63e5d08483189ad5, 0xffffffffffffffff, 35, 27824),
    ("cluster", "annulus", 0x7d116088e62cb7b1, 0xd19322ba10d0166d, 0xffffffffffffffff, 35, 25872),
    ("cluster", "few2", 0xfcd63b3189ecc419, 0x6d9dc19d80f0f931, 0xffffffffffffffff, 2, 6016),
    ("cluster", "few3", 0x3c7e5d097d7f64ee, 0x9ce3b36a24862c38, 0xffffffffffffffff, 2, 8928),
    ("cluster", "few5", 0xda50375c5eba1693, 0x80c1e7f2d86da1d2, 0xffffffffffffffff, 2, 13952),
    ("cluster", "few13", 0xab053753b3544786, 0x4f5677848c5f1182, 0xffffffffffffffff, 3, 20048),
    ("cluster", "few40", 0x5d54154c81f8a70b, 0xed6dba4da722ff83, 0xffffffffffffffff, 4, 23856),
    ("cluster", "snapped", 0x009eb3ecb36be2c3, 0xbd62cc9a5f4d4581, 0xffffffffffffffff, 7, 30160),
    ("cluster", "zeros", 0xd8108f88fa73a46c, 0x6865e9c19dd51025, 0xffffffffffffffff, 3, 15776),
    ("cluster", "window", 0x62e6bdf75d740160, 0xbe434e65eced525c, 0xffffffffffffffff, 8, 9456),
    ("adaptive/r8", "drift", 0x86078af8cef6f35b, 0x43ea7a7ca4e282fb, 0x40472fc2781283eb, 37, 2240),
    ("adaptive/r8", "annulus", 0xe3bd2ba7e1a890f8, 0x8ead1f37a1435497, 0x3fc5f46bcdac596f, 52, 2592),
    ("adaptive/r8", "few2", 0x54cc4fd6f02f9368, 0x6d9dc19d80f0f931, 0x40474c6802799654, 2, 1952),
    ("adaptive/r8", "few3", 0x85b3ddfa77aba1f5, 0x948dc9f3818eba10, 0x404720a5639715cf, 3, 1952),
    ("adaptive/r8", "few5", 0x7ce5dd2b20654457, 0xbea9c9f94889121a, 0x4047c862bea0c2b8, 5, 1952),
    ("adaptive/r8", "few13", 0x8005f9872e8b59d2, 0xa327b7af3b6dacf5, 0x4046aa6883e85f65, 13, 1952),
    ("adaptive/r8", "few40", 0x8ed8d74c0b13c5db, 0x8b81120807cf859a, 0x40476285242c280e, 8, 1952),
    ("adaptive/r8", "snapped", 0xe17cc6682bc0e79f, 0x6e9e0bb5d569f755, 0x40043d136248490e, 11, 1968),
    ("adaptive/r8", "zeros", 0x6f56ef74bf10bda8, 0x6865e9c19dd51025, 0x3fdc9f25c5bfeddd, 7, 2400),
    ("adaptive/r8", "window", 0x225728227d50c189, 0x2fc18011d4f18177, 0x4038265965e7b6fa, 48, 3024),
    ("adaptive/r128", "drift", 0x8d1bc8790029ddfa, 0x23faf1fc7a1583cc, 0x3feb4c9e518e0a4d, 36, 17504),
    ("adaptive/r128", "annulus", 0x8f308673d54cc412, 0x099d1f8486b24ea7, 0x3f5d5e484b1053ac, 29, 28096),
    ("adaptive/r128", "few2", 0x2066c999aaa80a96, 0x6d9dc19d80f0f931, 0x3f995c05f75b1eed, 2, 12960),
    ("adaptive/r128", "few3", 0x159f62a49d5aafcc, 0x9ce3b36a24862c38, 0x3fe9efcf7c2d1879, 3, 13488),
    ("adaptive/r128", "few5", 0x4d633ff40b224971, 0x80c1e7f2d86da1d2, 0x3ff9f8e39adb6612, 5, 14896),
    ("adaptive/r128", "few13", 0x5ac997d0c9305662, 0x4f5677848c5f1182, 0x3ff9ceadf236e826, 13, 17760),
    ("adaptive/r128", "few40", 0x60620e800dc3679b, 0x4f756c5f0f29d947, 0x3ff5f023114fc916, 8, 17200),
    ("adaptive/r128", "snapped", 0x85c87816eeda6055, 0xbd62cc9a5f4d4581, 0x3fc3bf5829a86a03, 9, 19584),
    ("adaptive/r128", "zeros", 0x136bd3a0b4c13c9e, 0x6865e9c19dd51025, 0x3f9bc4e3b9462fbf, 7, 15520),
    ("adaptive/r128", "window", 0x9a413b50a3a52b52, 0xbe434e65eced525c, 0x3feb785864fd1216, 58, 4224),
];

#[test]
fn every_backend_reproduces_its_recorded_outputs() {
    let actual = actual_rows();
    let expected: Vec<Row> = GOLDEN
        .iter()
        .map(|&(c, s, a, b, d, e, f)| (c.to_string(), s.to_string(), a, b, d, e, f))
        .collect();
    assert!(
        actual == expected,
        "golden outputs changed; actual table:\n{}",
        render(&actual)
    );
}
