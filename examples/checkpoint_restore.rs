//! Checkpoint, crash, recover: the snapshot codec as a durability story.
//!
//! Four gateways split a 200k-point stream by the sharded engine's
//! partition: chunk `c` of 2,048 points goes to gateway `c % 4`. Each
//! gateway summarises its chunks and rewrites its shard file every 25k
//! points. One gateway dies mid-stream; it restarts from its last file and
//! replays the chunks the file does not cover. A collector in "another
//! process" then reduces the four final files with `merge_snapshots`, and
//! the result is bit-identical to `ShardedIngest::run` over the whole
//! stream in one process. (In-process crash recovery, with validated
//! checkpoints and a replay buffer, is `SupervisedIngest`; see the
//! `chaos_recovery` example.) Finally a windowed summary round-trips
//! through the same codec mid-stream, and the restored chain's first
//! query matches the live chain's, which resumes from its query
//! checkpoints.
//!
//! Run: `cargo run --release --example checkpoint_restore`

use streamhull::prelude::*;

const GATEWAYS: usize = 4;
const CHUNK: usize = 2048;
/// Points a gateway ingests between rewrites of its shard file.
const EVERY: u64 = 25_000;

fn stream(n: usize) -> Vec<Point2> {
    (0..n)
        .map(|i| {
            let t = 2.399963229728653 * i as f64;
            let rad = 1.0 + 0.0002 * i as f64;
            Point2::new(rad * t.cos() * 3.0, rad * t.sin())
        })
        .collect()
}

/// What one gateway leaves behind.
struct GatewayLog {
    file: Vec<u8>,
    writes: usize,
    replayed: usize,
}

/// One gateway process: summarises its chunks, rewriting its shard file
/// every [`EVERY`] points and after its last chunk. With `crash_before =
/// Some(k)` the process dies before chunk `k`; it restarts from its last
/// file (only the file survives) and replays the chunks since.
fn gateway(
    builder: SummaryBuilder,
    chunks: &[&[Point2]],
    crash_before: Option<usize>,
) -> GatewayLog {
    let mut summary = builder.build_mergeable();
    let mut log = GatewayLog {
        file: summary.encode_snapshot(),
        writes: 0,
        replayed: 0,
    };
    let (mut next, mut covered, mut since) = (0, 0, 0u64);
    let mut crash = crash_before;
    while next < chunks.len() {
        if crash == Some(next) {
            crash = None;
            summary = SummaryBuilder::restore(&log.file).expect("shard file decodes");
            log.replayed += next - covered;
            next = covered;
            since = 0;
            continue;
        }
        summary.insert_batch(chunks[next]);
        since += chunks[next].len() as u64;
        next += 1;
        if since >= EVERY || next == chunks.len() {
            log.file = summary.encode_snapshot();
            log.writes += 1;
            covered = next;
            since = 0;
        }
    }
    log
}

fn main() {
    let pts = stream(200_000);
    let builder = SummaryBuilder::new(SummaryKind::Adaptive).with_r(32);
    let engine = ShardedIngest::new(builder, GATEWAYS).with_chunk(CHUNK);

    // --- Phase 1: the gateways run; gateway 2 dies two thirds through ---
    println!("  gateway  chunks  file writes  replayed chunks  file bytes");
    let files: Vec<Vec<u8>> = (0..GATEWAYS)
        .map(|g| {
            let mine: Vec<&[Point2]> = pts.chunks(CHUNK).skip(g).step_by(GATEWAYS).collect();
            let crash = (g == 2).then_some(mine.len() * 2 / 3);
            let log = gateway(builder, &mine, crash);
            println!(
                "  {g:>7}  {:>6}  {:>11}  {:>15}  {:>10}",
                mine.len(),
                log.writes,
                log.replayed,
                log.file.len()
            );
            log.file
        })
        .collect();

    // --- Phase 2: another process reduces the shard files ---
    let recovered = engine.merge_snapshots(&files).expect("shard files decode");
    let reference = engine.run(&pts);
    assert_eq!(
        recovered.summary.encode_snapshot(),
        reference.summary.encode_snapshot(),
        "the reduced files must be bit-identical to the in-process run"
    );
    assert_eq!(
        recovered.summary.error_bound(),
        reference.summary.error_bound()
    );
    println!(
        "\nreduced {} shard files: {} points, {}-vertex hull, error bound {:.2e} — \
         bit-identical to the in-process sharded run",
        files.len(),
        recovered.summary.points_seen(),
        recovered.summary.hull_ref().len(),
        recovered.summary.error_bound().unwrap_or(f64::NAN),
    );

    // A corrupted file is rejected with a typed error, never a panic.
    let mut corrupt = files[0].clone();
    corrupt[20] ^= 0x40;
    let err = engine
        .merge_snapshots([corrupt.as_slice()])
        .expect_err("corruption must be detected");
    println!("corrupted file rejected: {err}");

    // --- Phase 3: windowed chains snapshot too ---
    let mut window = builder.windowed(WindowConfig::last_n(10_000).with_granularity(512));
    let (head, tail) = pts.split_at(150_000);
    window.insert_batch(head);
    let bytes = Snapshot::encode(&window);
    let mut restored = WindowedSummary::decode(&bytes).expect("windowed snapshot decodes");
    // The live chain answers after every sealed bucket (512 points) while
    // the restored one idles. Each query saves collector checkpoints that
    // the next one resumes from; snapshots carry none, so the restored
    // chain's query below merges every bucket.
    let _ = window.query_window();
    for piece in tail.chunks(512) {
        window.insert_batch(piece);
        let _ = window.query_window();
    }
    restored.insert_batch(tail);
    let (a, b) = (window.query_window(), restored.query_window());
    // The spiral's newest points span the window hull, so compare the
    // collectors byte for byte too: a stale checkpoint would change what
    // they absorbed without moving a vertex.
    assert_eq!(a.summary.encode_snapshot(), b.summary.encode_snapshot());
    assert_eq!(a.hull().vertices(), b.hull().vertices());
    assert_eq!(a.merged_points, b.merged_points);
    assert_eq!(a.error_bound(), b.error_bound());
    println!(
        "\nwindowed chain snapshot: {} bytes for {} buckets; the restored chain's cold \
         query answers like the live chain's warm one ({} merged points, {} stale)",
        bytes.len(),
        restored.bucket_count(),
        b.merged_points,
        b.stale_points,
    );
}
