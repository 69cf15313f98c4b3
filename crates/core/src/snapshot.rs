//! Versioned snapshot/restore for every summary backend: a
//! self-describing, dependency-free binary codec that turns any summary
//! into durable, portable bytes — checkpoint a shard, ship it over the
//! wire, recover after a crash, or reduce shards produced on different
//! machines ([`ShardedIngest::merge_snapshots`](crate::parallel::ShardedIngest::merge_snapshots)).
//!
//! The paper's "small mergeable state" property is exactly what makes this
//! cheap: a snapshot is the summary's own `O(r)` sample plus bookkeeping,
//! never the stream.
//!
//! # Wire format
//!
//! Every snapshot is one *envelope*:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `b"HSNP"` |
//! | 4      | 2    | format version (`u16` LE, currently 1) |
//! | 6      | 1    | kind tag (index into [`SummaryKind::ALL`], or 8 = windowed; 9 is retired, never to be reused) |
//! | 7      | 1    | reserved (0) |
//! | 8      | 8    | payload length (`u64` LE) |
//! | 16     | len  | kind-specific payload |
//! | 16+len | 8    | FNV-1a 64 checksum of everything before it (`u64` LE) |
//!
//! All integers are little-endian; points, vectors and polygons use the
//! raw [`geom`] wire helpers ([`Point2::to_le_bytes`],
//! [`ConvexPolygon::encode_raw`](geom::ConvexPolygon::encode_raw)), so
//! `f64` payloads round-trip bit-exactly (including signed zeros and the
//! non-finite values some backends legitimately store).
//!
//! # Guarantees
//!
//! * **Round trip**: `decode(encode(s))` reconstructs a summary whose
//!   subsequent `hull_ref` / `error_bound` / `insert` behaviour is
//!   bit-identical to `s` continuing in-process (property-tested for all
//!   eight [`SummaryKind`]s and for
//!   [`WindowedSummary`](crate::window::WindowedSummary) chains in
//!   `tests/failure_injection.rs`). Only the observable-but-incidental
//!   [`hull_generation`](crate::summary::HullSummary::hull_generation)
//!   counter may restart — the same licence the batched-ingestion
//!   contract already grants.
//! * **Hardened decode**: truncated, bit-flipped, version-skewed or
//!   kind-swapped input yields a typed [`SnapshotError`], never a panic.
//!   The FNV-1a checksum provably detects every single-byte corruption
//!   (each step `h ← (h ⊕ b)·p` is invertible, so a changed byte always
//!   changes the digest), and payload readers bounds-check and
//!   re-validate every structural invariant before constructing a
//!   summary.
//!
//! # Entry points
//!
//! * [`Snapshot::encode`] / [`Snapshot::decode`] on each concrete type;
//! * [`Mergeable::encode_snapshot`] on trait objects;
//! * [`SummaryBuilder::restore`](crate::builder::SummaryBuilder::restore)
//!   to reconstruct the right backend from the tag alone.

use crate::builder::SummaryKind;
use crate::summary::Mergeable;
use core::fmt;
use geom::{ConvexPolygon, Point2, Vec2};

/// Envelope magic bytes.
pub const MAGIC: [u8; 4] = *b"HSNP";

/// Current (and only) snapshot format version.
pub const FORMAT_VERSION: u16 = 1;

/// Kind tag for [`WindowedSummary`](crate::window::WindowedSummary)
/// snapshots (the eight summary backends use their [`SummaryKind::ALL`]
/// index, 0–7).
pub const WINDOWED_TAG: u8 = 8;

/// Why a snapshot failed to decode. Decoding never panics: every failure
/// mode of untrusted bytes maps to one of these.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotError {
    /// Input shorter than the fixed envelope (header + checksum).
    TooShort {
        /// Minimum bytes an envelope needs.
        needed: usize,
        /// Bytes actually provided.
        got: usize,
    },
    /// The first four bytes are not the snapshot magic.
    BadMagic,
    /// The format version is newer than this library understands.
    UnsupportedVersion(u16),
    /// The recorded payload length disagrees with the input length.
    LengthMismatch {
        /// Total envelope size the header implies.
        expected: usize,
        /// Bytes actually provided.
        got: usize,
    },
    /// The checksum does not match: the bytes were corrupted in flight.
    ChecksumMismatch,
    /// The kind tag names no known backend (likely a newer library wrote
    /// it).
    UnknownKind(u8),
    /// The envelope is valid but holds a different kind than the caller
    /// asked to decode.
    KindMismatch {
        /// Kind the caller tried to decode.
        expected: &'static str,
        /// Kind the envelope actually holds.
        found: &'static str,
    },
    /// The payload is structurally invalid for its kind (version-skewed or
    /// hand-crafted input that passed the checksum).
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::TooShort { needed, got } => {
                write!(
                    f,
                    "snapshot too short: need at least {needed} bytes, got {got}"
                )
            }
            SnapshotError::BadMagic => write!(f, "not a summary snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            SnapshotError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot length mismatch: header implies {expected} bytes, got {got}"
                )
            }
            SnapshotError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch (corrupted bytes)")
            }
            SnapshotError::UnknownKind(tag) => write!(f, "unknown summary kind tag {tag}"),
            SnapshotError::KindMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot kind mismatch: expected {expected}, found {found}"
                )
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot payload: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64 over `bytes`. Dependency-free; every single-byte corruption
/// is detected because each round is an invertible map of the running
/// digest.
fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

const HEADER_LEN: usize = 16;
const CHECKSUM_LEN: usize = 8;
/// Smallest possible envelope (header + checksum, empty payload).
const MIN_ENVELOPE: usize = HEADER_LEN + CHECKSUM_LEN;

/// Seals the payload `write` appends into an envelope carrying `tag`,
/// written in place: one buffer, trimmed to the envelope's exact length
/// (a spilled tenant keeps it).
pub(crate) fn seal_with(tag: u8, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(tag);
    out.push(0); // reserved
    out.extend_from_slice(&[0; 8]); // payload length, patched below
    write(&mut out);
    let len = (out.len() - HEADER_LEN) as u64;
    out[8..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out.shrink_to_fit();
    out
}

/// Validates the envelope and returns `(kind tag, payload)`.
pub(crate) fn open(bytes: &[u8]) -> Result<(u8, &[u8]), SnapshotError> {
    if bytes.len() < MIN_ENVELOPE {
        return Err(SnapshotError::TooShort {
            needed: MIN_ENVELOPE,
            got: bytes.len(),
        });
    }
    if bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let tag = bytes[6];
    let len = le_u64(&bytes[8..16]);
    let expected =
        (len as usize)
            .checked_add(MIN_ENVELOPE)
            .ok_or(SnapshotError::LengthMismatch {
                expected: usize::MAX,
                got: bytes.len(),
            })?;
    if bytes.len() != expected {
        return Err(SnapshotError::LengthMismatch {
            expected,
            got: bytes.len(),
        });
    }
    let body = &bytes[..expected - CHECKSUM_LEN];
    let stored = le_u64(&bytes[expected - CHECKSUM_LEN..]);
    if fnv1a64(body) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok((tag, &bytes[HEADER_LEN..expected - CHECKSUM_LEN]))
}

/// Human-readable name for a kind tag (error messages).
fn tag_name(tag: u8) -> &'static str {
    if tag == WINDOWED_TAG {
        "windowed"
    } else {
        SummaryKind::ALL
            .get(tag as usize)
            .map(|k| k.label())
            .unwrap_or("unknown")
    }
}

/// Copies the first 8 bytes of `b` into a `u64` (callers guarantee the
/// slice is at least that long via the envelope length checks).
fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// The stable wire tag of a [`SummaryKind`] (its index in
/// [`SummaryKind::ALL`]; the exhaustive match is pinned against `ALL` by
/// the `tags_match_all_order` test so neither can drift).
pub fn kind_tag(kind: SummaryKind) -> u8 {
    match kind {
        SummaryKind::Exact => 0,
        SummaryKind::UniformNaive => 1,
        SummaryKind::Uniform => 2,
        SummaryKind::Radial => 3,
        SummaryKind::Frozen => 4,
        SummaryKind::Adaptive => 5,
        SummaryKind::AdaptiveFixedBudget => 6,
        SummaryKind::Cluster => 7,
    }
}

// ---------------------------------------------------------------------
// Payload writer/reader helpers (crate-internal)
// ---------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_point(out: &mut Vec<u8>, p: Point2) {
    out.extend_from_slice(&p.to_le_bytes());
}

pub(crate) fn put_vec2(out: &mut Vec<u8>, v: Vec2) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Bounds-checked cursor over a validated payload. Runs past the end only
/// on version-skewed or hand-crafted input (the checksum already passed),
/// which every method reports as [`SnapshotError::Malformed`].
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the whole payload was consumed (catches skewed
    /// payloads that parse as a prefix).
    pub(crate) fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Malformed("trailing payload bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Malformed("payload ends early"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        let mut a = [0u8; 4];
        a.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(a))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(le_u64(self.take(8)?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(le_u64(self.take(8)?)))
    }

    pub(crate) fn point(&mut self) -> Result<Point2, SnapshotError> {
        let mut a = [0u8; 16];
        a.copy_from_slice(self.take(16)?);
        Ok(Point2::from_le_bytes(a))
    }

    pub(crate) fn vec2(&mut self) -> Result<Vec2, SnapshotError> {
        let mut a = [0u8; 16];
        a.copy_from_slice(self.take(16)?);
        Ok(Vec2::from_le_bytes(a))
    }

    /// A `u64` count that must be storable as `usize` and plausible for a
    /// payload where each counted element occupies at least `min_elem_size`
    /// bytes — rejects absurd counts before any allocation.
    pub(crate) fn count(&mut self, min_elem_size: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let n: usize = n
            .try_into()
            .map_err(|_| SnapshotError::Malformed("count overflows usize"))?;
        if n.checked_mul(min_elem_size.max(1))
            .map(|total| total > self.remaining())
            .unwrap_or(true)
        {
            return Err(SnapshotError::Malformed("count exceeds payload size"));
        }
        Ok(n)
    }

    /// A length-prefixed byte slice (nested envelope).
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// A polygon written with [`ConvexPolygon::encode_raw`], re-validated.
    pub(crate) fn polygon(&mut self) -> Result<ConvexPolygon, SnapshotError> {
        let (poly, used) = ConvexPolygon::decode_raw(&self.buf[self.pos..])
            .ok_or(SnapshotError::Malformed("invalid polygon"))?;
        self.pos += used;
        Ok(poly)
    }
}

// ---------------------------------------------------------------------
// The Snapshot trait and the tag dispatch
// ---------------------------------------------------------------------

/// Self-describing binary persistence for a summary type.
///
/// `decode(encode(s))` restores a summary that behaves bit-identically to
/// `s` for every subsequent `insert` / `hull_ref` / `error_bound` /
/// `merge_from` call. See the [module docs](self) for the wire format.
pub trait Snapshot: Sized {
    /// Serialises the summary into a sealed, checksummed envelope.
    fn encode(&self) -> Vec<u8>;

    /// Reconstructs a summary from [`encode`](Snapshot::encode)d bytes,
    /// rejecting corrupted, truncated, version-skewed, or wrong-kind input
    /// with a typed error. Never panics.
    fn decode(bytes: &[u8]) -> Result<Self, SnapshotError>;
}

/// Validates the envelope, checks the tag is `expected`, and hands the
/// payload to `read`.
pub(crate) fn decode_expecting<T>(
    bytes: &[u8],
    expected_tag: u8,
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let (tag, payload) = open(bytes)?;
    if tag != expected_tag {
        if tag != WINDOWED_TAG && SummaryKind::ALL.get(tag as usize).is_none() {
            return Err(SnapshotError::UnknownKind(tag));
        }
        return Err(SnapshotError::KindMismatch {
            expected: tag_name(expected_tag),
            found: tag_name(tag),
        });
    }
    read_payload(payload, read)
}

/// Reads a whole opened payload with `read`, rejecting trailing bytes.
pub(crate) fn read_payload<T>(
    payload: &[u8],
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let mut reader = Reader::new(payload);
    let value = read(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

macro_rules! impl_snapshot {
    ($ty:path, $kind:expr) => {
        impl Snapshot for $ty {
            fn encode(&self) -> Vec<u8> {
                seal_with(kind_tag($kind), |out| self.snapshot_payload(out))
            }

            fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
                decode_expecting(bytes, kind_tag($kind), Self::from_snapshot_payload)
            }
        }
    };
}

impl_snapshot!(crate::exact::ExactHull, SummaryKind::Exact);
impl_snapshot!(crate::uniform::NaiveUniformHull, SummaryKind::UniformNaive);
impl_snapshot!(crate::uniform::UniformHull, SummaryKind::Uniform);
impl_snapshot!(crate::radial::RadialHull, SummaryKind::Radial);
impl_snapshot!(crate::frozen::FrozenHull, SummaryKind::Frozen);
impl_snapshot!(crate::adaptive::stream::AdaptiveHull, SummaryKind::Adaptive);
impl_snapshot!(
    crate::adaptive::fixed_budget::FixedBudgetAdaptiveHull,
    SummaryKind::AdaptiveFixedBudget
);
impl_snapshot!(crate::cluster::ClusterHull, SummaryKind::Cluster);

impl Snapshot for crate::window::WindowedSummary {
    fn encode(&self) -> Vec<u8> {
        seal_with(WINDOWED_TAG, |out| self.snapshot_payload(out))
    }

    fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        decode_expecting(bytes, WINDOWED_TAG, Self::from_snapshot_payload)
    }
}

/// Reconstructs the right backend from the envelope's kind tag alone —
/// the engine behind
/// [`SummaryBuilder::restore`](crate::builder::SummaryBuilder::restore).
pub(crate) fn restore_mergeable(
    bytes: &[u8],
) -> Result<Box<dyn Mergeable + Send + Sync>, SnapshotError> {
    let (tag, payload) = open(bytes)?;
    restore_payload(summary_kind(tag)?, payload)
}

/// The backend an opened envelope's tag names; a windowed envelope is a
/// [`SnapshotError::KindMismatch`].
pub(crate) fn summary_kind(tag: u8) -> Result<SummaryKind, SnapshotError> {
    if tag == WINDOWED_TAG {
        return Err(SnapshotError::KindMismatch {
            expected: "a summary backend",
            found: tag_name(tag),
        });
    }
    SummaryKind::ALL
        .get(tag as usize)
        .copied()
        .ok_or(SnapshotError::UnknownKind(tag))
}

/// Decodes an opened payload of `kind` into its backend.
pub(crate) fn restore_payload(
    kind: SummaryKind,
    payload: &[u8],
) -> Result<Box<dyn Mergeable + Send + Sync>, SnapshotError> {
    use crate::adaptive::{AdaptiveHull, FixedBudgetAdaptiveHull};
    use crate::uniform::{NaiveUniformHull, UniformHull};
    use crate::{cluster::ClusterHull, exact::ExactHull, frozen::FrozenHull, radial::RadialHull};
    fn boxed<T: Mergeable + Send + Sync + 'static>(
        payload: &[u8],
        read: impl FnOnce(&mut Reader<'_>) -> Result<T, SnapshotError>,
    ) -> Result<Box<dyn Mergeable + Send + Sync>, SnapshotError> {
        Ok(Box::new(read_payload(payload, read)?))
    }
    match kind {
        SummaryKind::Exact => boxed(payload, ExactHull::from_snapshot_payload),
        SummaryKind::UniformNaive => boxed(payload, NaiveUniformHull::from_snapshot_payload),
        SummaryKind::Uniform => boxed(payload, UniformHull::from_snapshot_payload),
        SummaryKind::Radial => boxed(payload, RadialHull::from_snapshot_payload),
        SummaryKind::Frozen => boxed(payload, FrozenHull::from_snapshot_payload),
        SummaryKind::Adaptive => boxed(payload, AdaptiveHull::from_snapshot_payload),
        SummaryKind::AdaptiveFixedBudget => {
            boxed(payload, FixedBudgetAdaptiveHull::from_snapshot_payload)
        }
        SummaryKind::Cluster => boxed(payload, ClusterHull::from_snapshot_payload),
    }
}

/// The [`SummaryKind`] a snapshot envelope holds, without decoding the
/// payload (`None` for a windowed envelope).
pub fn peek_kind(bytes: &[u8]) -> Result<Option<SummaryKind>, SnapshotError> {
    let (tag, _) = open(bytes)?;
    match summary_kind(tag) {
        Err(SnapshotError::KindMismatch { .. }) => Ok(None),
        kind => kind.map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_match_all_order() {
        for (i, &k) in SummaryKind::ALL.iter().enumerate() {
            assert_eq!(kind_tag(k) as usize, i);
        }
    }

    #[test]
    fn envelope_round_trips() {
        let sealed = seal_with(3, |out| out.extend_from_slice(b"hello payload"));
        let (tag, payload) = open(&sealed).unwrap();
        assert_eq!(tag, 3);
        assert_eq!(payload, b"hello payload");
    }

    #[test]
    fn envelope_rejects_every_single_bit_flip() {
        let sealed = seal_with(0, |out| {
            out.extend_from_slice(b"some bytes worth protecting")
        });
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut corrupt = sealed.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    open(&corrupt).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn envelope_rejects_every_truncation() {
        let sealed = seal_with(1, |out| out.extend_from_slice(b"payload"));
        for len in 0..sealed.len() {
            assert!(open(&sealed[..len]).is_err(), "length {len}");
        }
        // Extension is also rejected (length field pins the size).
        let mut extended = sealed.clone();
        extended.push(0);
        assert_eq!(
            open(&extended),
            Err(SnapshotError::LengthMismatch {
                expected: sealed.len(),
                got: sealed.len() + 1,
            })
        );
    }

    #[test]
    fn envelope_rejects_version_skew() {
        let mut sealed = seal_with(0, |out| out.extend_from_slice(b"x"));
        sealed[4] = 99; // version low byte
        let err = open(&sealed).unwrap_err();
        // Either the version check or the checksum may fire first; the
        // version check does because it precedes checksum validation.
        assert_eq!(err, SnapshotError::UnsupportedVersion(99));
    }

    #[test]
    fn kind_tags_are_stable() {
        // The wire format freezes these indices; reordering
        // SummaryKind::ALL would silently break every stored snapshot.
        let labels: Vec<&str> = (0..8).map(tag_name).collect();
        assert_eq!(
            labels,
            [
                "exact",
                "uniform-naive",
                "uniform",
                "radial",
                "frozen",
                "adaptive",
                "adaptive-2r",
                "cluster"
            ]
        );
        assert_eq!(tag_name(WINDOWED_TAG), "windowed");
        for &kind in &SummaryKind::ALL {
            assert_eq!(
                SummaryKind::ALL[kind_tag(kind) as usize],
                kind,
                "tag must round-trip"
            );
        }
    }

    #[test]
    fn reader_count_rejects_absurd_lengths() {
        let mut payload = Vec::new();
        put_u64(&mut payload, u64::MAX);
        let mut r = Reader::new(&payload);
        assert!(r.count(16).is_err());
    }
}
