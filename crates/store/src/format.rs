//! The snapshot container format: magic, version, section table, CRC32.
//!
//! A snapshot file is a sequence of named, checksummed binary sections:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"LOCECSNP"
//! 8       4     format version (little-endian u32, currently 1)
//! 12      4     snapshot kind  (u32, see [`SnapshotKind`])
//! 16      4     section count  (u32)
//! 20      …     section table: per section
//!                 name length (u16), name bytes (UTF-8, ≤ 64),
//!                 payload length (u64), CRC32 of the payload (u32)
//! …       …     section payloads, concatenated in table order
//! ```
//!
//! Every multi-byte value in the header *and* in section payloads is
//! little-endian; payloads are columnar arrays (`u32`/`f32`/`u8` runs)
//! written and read in bulk, with no per-element serializer dispatch.
//! Readers are fully bounds-checked and return a typed [`SnapshotError`]
//! on any malformation — truncation, bad magic, a future version, a kind
//! mismatch, or a checksum failure — never a panic.

use std::fmt;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"LOCECSNP";

/// The current (and only) format version.
pub const FORMAT_VERSION: u32 = 1;

/// Longest section name a reader accepts.
const MAX_SECTION_NAME: usize = 64;

/// What a snapshot file contains. Stored in the header so that pipeline
/// stages fail fast (and with a useful message) when handed the wrong
/// artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum SnapshotKind {
    /// Graph + user features + interactions + labels + train/test split.
    World = 1,
    /// A complete Phase I division (communities + membership table).
    Division = 2,
    /// The communities of one contiguous ego range of a sharded division.
    DivisionShard = 3,
    /// Phase II outputs: per-community embeddings `r_C` and probabilities.
    Aggregation = 4,
    /// A trained Phase II community classifier (GBDT or CommCNN).
    CommunityModel = 5,
    /// A trained Phase III edge classifier (logistic regression).
    EdgeModel = 6,
    /// Final per-edge predicted relationship types.
    Labels = 7,
    /// A timestamped edge-event stream (insert/remove batches plus
    /// interaction rows for inserted edges) against a world snapshot.
    WorldDelta = 8,
    /// The incremental complement of a division: the dirty egos of one
    /// world delta and their re-divided communities only.
    DivisionDelta = 9,
    /// A coordinator's mid-run merge state (absorbed ego ranges + spliced
    /// communities + divide parameters) for `coordinate --resume`.
    DivisionCheckpoint = 10,
}

impl SnapshotKind {
    /// Parses the header field.
    pub fn from_u32(v: u32) -> Option<Self> {
        Some(match v {
            1 => SnapshotKind::World,
            2 => SnapshotKind::Division,
            3 => SnapshotKind::DivisionShard,
            4 => SnapshotKind::Aggregation,
            5 => SnapshotKind::CommunityModel,
            6 => SnapshotKind::EdgeModel,
            7 => SnapshotKind::Labels,
            8 => SnapshotKind::WorldDelta,
            9 => SnapshotKind::DivisionDelta,
            10 => SnapshotKind::DivisionCheckpoint,
            _ => return None,
        })
    }

    /// Human-readable name (CLI `inspect` output).
    pub fn name(self) -> &'static str {
        match self {
            SnapshotKind::World => "world",
            SnapshotKind::Division => "division",
            SnapshotKind::DivisionShard => "division-shard",
            SnapshotKind::Aggregation => "aggregation",
            SnapshotKind::CommunityModel => "community-model",
            SnapshotKind::EdgeModel => "edge-model",
            SnapshotKind::Labels => "labels",
            SnapshotKind::WorldDelta => "world-delta",
            SnapshotKind::DivisionDelta => "division-delta",
            SnapshotKind::DivisionCheckpoint => "division-checkpoint",
        }
    }

    /// The indefinite article before [`SnapshotKind::name`] in a sentence.
    fn article(self) -> &'static str {
        if self.name().starts_with(['a', 'e', 'i', 'o', 'u']) {
            "an"
        } else {
            "a"
        }
    }
}

/// Everything that can go wrong reading (or writing) a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file declares a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The header kind field is not a known [`SnapshotKind`].
    UnknownKind(u32),
    /// The file is a valid snapshot of the wrong kind.
    WrongKind {
        /// What the caller needed.
        expected: SnapshotKind,
        /// What the file actually is.
        found: SnapshotKind,
    },
    /// The file ends before its declared content does.
    Truncated,
    /// A section's payload does not match its table checksum.
    ChecksumMismatch {
        /// Name of the failing section.
        section: String,
    },
    /// A required section is absent.
    MissingSection(&'static str),
    /// A section decoded structurally but violates a content invariant.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a LoCEC snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "snapshot format version {v} is not supported (this build reads {FORMAT_VERSION})")
            }
            SnapshotError::UnknownKind(k) => write!(f, "unknown snapshot kind {k}"),
            SnapshotError::WrongKind { expected, found } => write!(
                f,
                "expected {} {} snapshot, found {} {} snapshot",
                expected.article(),
                expected.name(),
                found.article(),
                found.name()
            ),
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section '{section}'")
            }
            SnapshotError::MissingSection(name) => write!(f, "missing section '{name}'"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Cached global-recorder handles for snapshot I/O: byte/section totals
/// per direction plus the time spent checksumming (the CPU cost the
/// container format adds on top of raw file I/O).
struct StoreMetrics {
    bytes_written: locec_obs::Counter,
    bytes_read: locec_obs::Counter,
    sections_written: locec_obs::Counter,
    sections_read: locec_obs::Counter,
    crc_nanos: locec_obs::Histogram,
}

impl StoreMetrics {
    fn get() -> &'static StoreMetrics {
        static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let rec = locec_obs::Recorder::global();
            StoreMetrics {
                bytes_written: rec.counter("store.bytes_written"),
                bytes_read: rec.counter("store.bytes_read"),
                sections_written: rec.counter("store.sections_written"),
                sections_read: rec.counter("store.sections_read"),
                crc_nanos: rec.histogram("store.crc_nanos"),
            }
        })
    }
}

/// [`crc32`] with the time spent recorded into `store.crc_nanos`.
fn crc32_timed(bytes: &[u8]) -> u32 {
    let t0 = std::time::Instant::now();
    let crc = crc32(bytes);
    StoreMetrics::get().crc_nanos.record_since(t0);
    crc
}

/// Input bytes one CRC step consumes (and tables it reads).
const CRC_SLICE: usize = 16;

/// The slicing tables: `t[0]` is the classic byte-at-a-time table and
/// `t[k][b]` is the CRC state after byte `b` followed by `k` zero bytes, so
/// [`CRC_SLICE`] table reads advance the state over as many input bytes at
/// once.
fn crc_tables() -> &'static [[u32; 256]; CRC_SLICE] {
    static TABLES: OnceLock<[[u32; 256]; CRC_SLICE]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; CRC_SLICE];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..CRC_SLICE {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// CRC32 (IEEE 802.3 polynomial, the zlib/PNG variant) by slicing: the
/// state is folded into the first four bytes of a `CRC_SLICE`-byte step,
/// every byte of the step indexes the table of its distance from the
/// step's end, and the lookups — independent of each other — are xor-ed
/// together. The tail runs byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = crc_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut steps = bytes.chunks_exact(CRC_SLICE);
    for step in &mut steps {
        let state = crc.to_le_bytes();
        crc = 0;
        for (i, &b) in step.iter().enumerate() {
            let b = if i < 4 { b ^ state[i] } else { b };
            crc ^= t[CRC_SLICE - 1 - i][b as usize];
        }
    }
    for &b in steps.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Little-endian section payload encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty payload buffer.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Appends one `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends one little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one little-endian `f32` (bit pattern preserved exactly).
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` array (elements only — callers record the count).
    pub fn u32_slice(&mut self, vs: &[u32]) {
        self.words(vs, |v| v.to_le_bytes());
    }

    /// Appends an `f32` array, bit patterns preserved exactly.
    pub fn f32_slice(&mut self, vs: &[f32]) {
        self.words(vs, |v| v.to_le_bytes());
    }

    /// Reserves the array's bytes once, then converts block by block
    /// through a small stack buffer (a straight copy on little-endian
    /// targets) — no per-element capacity check, no zero-fill of the
    /// destination.
    fn words<T: Copy>(&mut self, vs: &[T], le: impl Fn(T) -> [u8; 4]) {
        const BLOCK: usize = 1024;
        self.buf.reserve(vs.len() * 4);
        let mut stage = [0u8; BLOCK * 4];
        for block in vs.chunks(BLOCK) {
            let bytes = &mut stage[..block.len() * 4];
            for (dst, &v) in bytes.chunks_exact_mut(4).zip(block) {
                dst.copy_from_slice(&le(v));
            }
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Appends a raw byte array.
    pub fn u8_slice(&mut self, vs: &[u8]) {
        self.buf.extend_from_slice(vs);
    }

    /// The finished payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Copies an already-bounds-checked slice into a fixed-size array without
/// a panicking `try_into().unwrap()`. Every caller passes exactly `N`
/// bytes (from `take(N)` or `chunks_exact(N)`); a shorter slice — which
/// would indicate a decoder bug, not corrupt input — zero-pads instead of
/// panicking, keeping the decode path free of panic branches.
fn array<const N: usize>(slice: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    let n = slice.len().min(N);
    out[..n].copy_from_slice(&slice[..n]);
    out
}

/// Groups a flat decoded `f32` vector into fixed-width rows.
/// `chunks_exact` yields slices of exactly `N`, so the per-row copy
/// cannot fail; a trailing partial chunk (a decoder-shape bug) is
/// dropped by `chunks_exact` rather than panicking.
pub(crate) fn rows_of<const N: usize>(flat: &[f32]) -> Vec<[f32; N]> {
    flat.chunks_exact(N)
        .map(|c| {
            let mut row = [0f32; N];
            row.copy_from_slice(c);
            row
        })
        .collect()
}

/// Bounds-checked little-endian payload decoder.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor over one section payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads one little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(array(self.take(4)?)))
    }

    /// Reads one little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(array(self.take(8)?)))
    }

    /// Reads one little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_le_bytes(array(self.take(4)?)))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn count(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt("count exceeds usize"))
    }

    /// Reads `count` little-endian `u32`s. The byte requirement is checked
    /// against the remaining payload *before* allocating, so a corrupt
    /// count cannot trigger an absurd allocation.
    pub fn u32_vec(&mut self, count: usize) -> Result<Vec<u32>, SnapshotError> {
        self.words(count, u32::from_le_bytes)
    }

    /// Reads `count` little-endian `f32`s (bit patterns preserved exactly).
    pub fn f32_vec(&mut self, count: usize) -> Result<Vec<f32>, SnapshotError> {
        self.words(count, f32::from_le_bytes)
    }

    /// Reads `count` little-endian `u64`s with one bounds check, before
    /// allocating, into a vector of exactly that size.
    pub fn u64_vec(&mut self, count: usize) -> Result<Vec<u64>, SnapshotError> {
        let bytes = self.take(count.checked_mul(8).ok_or(SnapshotError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(array(c)))
            .collect())
    }

    /// Reads `count` little-endian `u32`s, each mapped through `f`, into one
    /// shared buffer: bounds-checked before allocating, then written in a
    /// single pass into an allocation of its final size.
    pub fn u32_column<T>(
        &mut self,
        count: usize,
        f: impl Fn(u32) -> T,
    ) -> Result<Arc<[T]>, SnapshotError> {
        let bytes = self.take(count.checked_mul(4).ok_or(SnapshotError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect())
    }

    /// Bounds-checks `count` 4-byte words, then converts them in one
    /// `chunks_exact` pass into a vector allocated at its final size.
    fn words<T>(
        &mut self,
        count: usize,
        le: impl Fn([u8; 4]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let bytes = self.take(count.checked_mul(4).ok_or(SnapshotError::Truncated)?)?;
        let mut out = Vec::with_capacity(count);
        out.extend(bytes.chunks_exact(4).map(|c| le([c[0], c[1], c[2], c[3]])));
        Ok(out)
    }

    /// Reads `count` raw bytes.
    pub fn u8_vec(&mut self, count: usize) -> Result<Vec<u8>, SnapshotError> {
        Ok(self.take(count)?.to_vec())
    }

    /// Asserts the whole payload was consumed.
    pub fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt("trailing bytes in section"))
        }
    }
}

/// Accumulates named sections and serializes the container.
pub struct SnapshotWriter {
    kind: SnapshotKind,
    sections: Vec<(&'static str, Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty snapshot of the given kind.
    pub fn new(kind: SnapshotKind) -> Self {
        SnapshotWriter {
            kind,
            sections: Vec::new(),
        }
    }

    /// Appends a section (order is preserved in the file).
    pub fn add(&mut self, name: &'static str, payload: Vec<u8>) {
        debug_assert!(name.len() <= MAX_SECTION_NAME);
        self.sections.push((name, payload));
    }

    /// Header + section table (checksumming every payload).
    fn header(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.sections.len() * 32);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.kind as u32).to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let metrics = StoreMetrics::get();
        for (name, payload) in &self.sections {
            metrics.sections_written.incr();
            metrics.bytes_written.add(payload.len() as u64);
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32_timed(payload).to_le_bytes());
        }
        out
    }

    /// Serializes header + table + payloads.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.header();
        out.reserve_exact(self.sections.iter().map(|(_, p)| p.len()).sum());
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Writes the serialized snapshot to a file: the same bytes as
    /// [`SnapshotWriter::to_bytes`], each payload handed to the file as it
    /// is instead of first being copied into one contiguous buffer.
    pub fn write_to(&self, path: &Path) -> Result<(), SnapshotError> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(&self.header())?;
        for (_, payload) in &self.sections {
            file.write_all(payload)?;
        }
        Ok(())
    }
}

/// One entry of a parsed section table.
struct Section {
    name: String,
    /// Absolute offset of the payload in the file.
    offset: u64,
    len: usize,
    crc: u32,
}

/// The parsed header and section table — everything in a snapshot file
/// ahead of the first payload. Both readers parse it with [`Header::read`],
/// so every structural check on untrusted bytes is made in one place.
struct Header {
    version: u32,
    kind: SnapshotKind,
    sections: Vec<Section>,
}

impl Header {
    /// Parses magic → version → kind → section table from `src`, a file of
    /// `total_len` bytes positioned at its start, and checks that the table's
    /// declared payloads end exactly at `total_len`. Payloads are not read.
    fn read(src: &mut impl Read, total_len: u64) -> Result<Header, SnapshotError> {
        let mut magic = [0u8; 8];
        let mut got = 0usize;
        while got < magic.len() {
            let k = src.read(&mut magic[got..])?;
            if k == 0 {
                break;
            }
            got += k;
        }
        if magic[..got] != MAGIC[..got] {
            return Err(SnapshotError::BadMagic);
        }
        if got < magic.len() {
            return Err(SnapshotError::Truncated);
        }
        let version = read_u32(src)?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let kind_raw = read_u32(src)?;
        let kind = SnapshotKind::from_u32(kind_raw).ok_or(SnapshotError::UnknownKind(kind_raw))?;
        let count = read_u32(src)? as usize;
        // Each table entry takes at least 14 bytes; reject absurd counts
        // before allocating.
        if (count as u64).saturating_mul(14) > total_len {
            return Err(SnapshotError::Truncated);
        }
        let mut sections = Vec::with_capacity(count);
        let mut table_end = 20u64;
        for _ in 0..count {
            let mut len_buf = [0u8; 2];
            read_exact_or_typed(src, &mut len_buf)?;
            let name_len = u16::from_le_bytes(len_buf) as usize;
            if name_len > MAX_SECTION_NAME {
                return Err(SnapshotError::Corrupt("section name too long"));
            }
            let mut name_buf = vec![0u8; name_len];
            read_exact_or_typed(src, &mut name_buf)?;
            let name = String::from_utf8(name_buf)
                .map_err(|_| SnapshotError::Corrupt("section name is not UTF-8"))?;
            let mut rest = [0u8; 12];
            read_exact_or_typed(src, &mut rest)?;
            let len = usize::try_from(u64::from_le_bytes(array(&rest[..8])))
                .map_err(|_| SnapshotError::Corrupt("section length exceeds usize"))?;
            let crc = u32::from_le_bytes(array(&rest[8..12]));
            table_end += 2 + name_len as u64 + 12;
            sections.push(Section {
                name,
                offset: 0,
                len,
                crc,
            });
        }
        // Payloads follow the table contiguously; the whole file must be
        // exactly header + table + payloads. Declared lengths are untrusted
        // — accumulate with overflow checks so a crafted length cannot wrap
        // the offset into a plausible-looking table.
        let mut offset = table_end;
        for section in &mut sections {
            section.offset = offset;
            offset = offset
                .checked_add(section.len as u64)
                .ok_or(SnapshotError::Truncated)?;
        }
        match offset.cmp(&total_len) {
            std::cmp::Ordering::Greater => Err(SnapshotError::Truncated),
            std::cmp::Ordering::Less => {
                Err(SnapshotError::Corrupt("trailing bytes after last section"))
            }
            std::cmp::Ordering::Equal => Ok(Header {
                version,
                kind,
                sections,
            }),
        }
    }

    fn expect_kind(&self, expected: SnapshotKind) -> Result<(), SnapshotError> {
        if self.kind == expected {
            Ok(())
        } else {
            Err(SnapshotError::WrongKind {
                expected,
                found: self.kind,
            })
        }
    }

    fn section(&self, name: &'static str) -> Result<&Section, SnapshotError> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .ok_or(SnapshotError::MissingSection(name))
    }

    fn section_summaries(&self) -> impl Iterator<Item = (&str, usize)> {
        self.sections.iter().map(|s| (s.name.as_str(), s.len))
    }
}

/// Counts `payload` as read and checks it against its table entry's CRC.
fn verify_payload(section: &Section, payload: &[u8]) -> Result<(), SnapshotError> {
    let metrics = StoreMetrics::get();
    metrics.sections_read.incr();
    metrics.bytes_read.add(payload.len() as u64);
    if crc32_timed(payload) == section.crc {
        Ok(())
    } else {
        Err(SnapshotError::ChecksumMismatch {
            section: section.name.clone(),
        })
    }
}

/// A parsed, checksum-verified snapshot: the file's bytes in one owned
/// buffer, and the section table locating each payload in it.
pub struct Snapshot {
    header: Header,
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Parses and verifies a serialized snapshot.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Snapshot::parse(bytes.to_vec())
    }

    fn parse(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        let header = Header::read(&mut &bytes[..], bytes.len() as u64)?;
        let snapshot = Snapshot { header, bytes };
        for section in &snapshot.header.sections {
            verify_payload(section, snapshot.payload(section))?;
        }
        Ok(snapshot)
    }

    /// A section's payload; [`Header::read`] checked that it lies in the file.
    fn payload(&self, section: &Section) -> &[u8] {
        &self.bytes[section.offset as usize..][..section.len]
    }

    /// Reads and verifies a snapshot file.
    pub fn read_from(path: &Path) -> Result<Self, SnapshotError> {
        Snapshot::parse(std::fs::read(path)?)
    }

    /// The file's format version.
    pub fn version(&self) -> u32 {
        self.header.version
    }

    /// The file's kind.
    pub fn kind(&self) -> SnapshotKind {
        self.header.kind
    }

    /// Fails unless the snapshot has the expected kind.
    pub fn expect_kind(&self, expected: SnapshotKind) -> Result<(), SnapshotError> {
        self.header.expect_kind(expected)
    }

    /// A decoder over the named section's payload.
    pub fn section(&self, name: &'static str) -> Result<Dec<'_>, SnapshotError> {
        Ok(Dec::new(self.payload(self.header.section(name)?)))
    }

    /// `(name, payload length)` of every section, in file order.
    pub fn section_summaries(&self) -> impl Iterator<Item = (&str, usize)> {
        self.header.section_summaries()
    }
}

/// A snapshot opened lazily: the header and section table are parsed (and
/// the declared total length checked against the file) up front, but
/// payloads stay on disk until requested — [`LazySnapshot::section_bytes`]
/// seeks to one section, reads only its bytes and verifies only its CRC.
///
/// At WeChat scale the world snapshot is dominated by feature and
/// interaction columns a graph-only consumer (`locec divide`) never
/// touches; the eager [`Snapshot`] reader slurps and checksums all of it,
/// this reader none of it. The trade-off is detection time: damage inside
/// an unread section goes unnoticed, which is exactly the contract — each
/// section is validated at the moment its data is about to be used.
pub struct LazySnapshot {
    file: std::fs::File,
    header: Header,
}

impl LazySnapshot {
    /// Opens a snapshot file, parsing header + section table only.
    pub fn open(path: &Path) -> Result<Self, SnapshotError> {
        let file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let header = Header::read(&mut std::io::BufReader::new(&file), file_len)?;
        Ok(LazySnapshot { file, header })
    }

    /// The file's format version.
    pub fn version(&self) -> u32 {
        self.header.version
    }

    /// The file's kind.
    pub fn kind(&self) -> SnapshotKind {
        self.header.kind
    }

    /// Fails unless the snapshot has the expected kind.
    pub fn expect_kind(&self, expected: SnapshotKind) -> Result<(), SnapshotError> {
        self.header.expect_kind(expected)
    }

    /// `(name, payload length)` of every section, in file order — available
    /// without reading any payload.
    pub fn section_summaries(&self) -> impl Iterator<Item = (&str, usize)> {
        self.header.section_summaries()
    }

    /// Reads one section's payload from disk and verifies its checksum.
    /// Other sections are neither read nor validated.
    pub fn section_bytes(&mut self, name: &'static str) -> Result<Vec<u8>, SnapshotError> {
        let section = self.header.section(name)?;
        self.file.seek(SeekFrom::Start(section.offset))?;
        let mut payload = vec![0u8; section.len];
        read_exact_or_typed(&mut self.file, &mut payload)?;
        verify_payload(section, &payload)?;
        Ok(payload)
    }
}

/// `read_exact` with `UnexpectedEof` mapped to the typed truncation error.
fn read_exact_or_typed(src: &mut impl Read, buf: &mut [u8]) -> Result<(), SnapshotError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated
        } else {
            SnapshotError::Io(e)
        }
    })
}

fn read_u32(src: &mut impl Read) -> Result<u32, SnapshotError> {
    let mut buf = [0u8; 4];
    read_exact_or_typed(src, &mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotWriter {
        let mut w = SnapshotWriter::new(SnapshotKind::Labels);
        let mut enc = Enc::new();
        enc.u32(7);
        enc.f32(1.5);
        enc.u32_slice(&[1, 2, 3]);
        w.add("alpha", enc.finish());
        w.add("beta", vec![9, 8, 7]);
        w
    }

    #[test]
    fn roundtrip_header_and_sections() {
        let bytes = sample().to_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.kind(), SnapshotKind::Labels);
        assert_eq!(snap.version(), FORMAT_VERSION);
        let mut dec = snap.section("alpha").unwrap();
        assert_eq!(dec.u32().unwrap(), 7);
        assert_eq!(dec.f32().unwrap(), 1.5);
        assert_eq!(dec.u32_vec(3).unwrap(), vec![1, 2, 3]);
        dec.done().unwrap();
        assert!(matches!(
            snap.section("gamma"),
            Err(SnapshotError::MissingSection("gamma"))
        ));
    }

    #[test]
    fn every_snapshot_kind_roundtrips_through_the_header() {
        let all = [
            SnapshotKind::World,
            SnapshotKind::Division,
            SnapshotKind::DivisionShard,
            SnapshotKind::Aggregation,
            SnapshotKind::CommunityModel,
            SnapshotKind::EdgeModel,
            SnapshotKind::Labels,
            SnapshotKind::WorldDelta,
            SnapshotKind::DivisionDelta,
            SnapshotKind::DivisionCheckpoint,
        ];
        for &kind in &all {
            let bytes = SnapshotWriter::new(kind).to_bytes();
            let snap = Snapshot::from_bytes(&bytes).unwrap();
            assert_eq!(snap.kind(), kind, "{kind:?}");
            assert_eq!(SnapshotKind::from_u32(kind as u32), Some(kind), "{kind:?}");
            assert!(!kind.name().is_empty(), "{kind:?}");
        }
        // The registry is dense and ends at DivisionCheckpoint.
        assert_eq!(SnapshotKind::from_u32(0), None);
        assert_eq!(
            SnapshotKind::from_u32(SnapshotKind::DivisionCheckpoint as u32 + 1),
            None
        );
    }

    #[test]
    fn every_truncation_yields_a_typed_error() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            match Snapshot::from_bytes(&bytes[..cut]) {
                Err(
                    SnapshotError::Truncated
                    | SnapshotError::BadMagic
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::Corrupt(_),
                ) => {}
                Ok(_) => panic!("truncation at {cut} parsed successfully"),
                Err(e) => panic!("unexpected error at {cut}: {e}"),
            }
        }
    }

    #[test]
    fn corruption_is_detected_by_checksum() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1; // inside section "beta"
        bytes[last] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { section }) if section == "beta"
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(v)) if v == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn bad_magic_and_unknown_kind_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
        let mut bytes = sample().to_bytes();
        bytes[12..16].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnknownKind(999))
        ));
    }

    #[test]
    fn wrong_kind_reads_with_the_right_article() {
        let err = SnapshotError::WrongKind {
            expected: SnapshotKind::Aggregation,
            found: SnapshotKind::Division,
        };
        assert_eq!(
            err.to_string(),
            "expected an aggregation snapshot, found a division snapshot"
        );
        let err = SnapshotError::WrongKind {
            expected: SnapshotKind::Division,
            found: SnapshotKind::EdgeModel,
        };
        assert_eq!(
            err.to_string(),
            "expected a division snapshot, found an edge-model snapshot"
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time table walk the sliced loop replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &crc_tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    proptest::proptest! {
        /// Every length around the step width, at every start alignment
        /// (the input is a sub-slice `align` bytes into an allocation).
        #[test]
        fn crc32_matches_the_bytewise_loop(
            len in 0usize..4096,
            align in 0usize..8,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed | 1;
            let buf: Vec<u8> = (0..align + len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 24) as u8
                })
                .collect();
            let bytes = &buf[align..];
            proptest::prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
        }
    }

    #[test]
    fn streamed_file_equals_serialized_bytes() {
        let w = sample();
        let path = tmp("streamed.lsnap");
        w.write_to(&path).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(on_disk, w.to_bytes());
    }

    #[test]
    fn bulk_word_codecs_roundtrip_across_the_staging_block() {
        // Lengths on both sides of `Enc::words`' 1024-word staging block.
        for n in [0usize, 1, 1023, 1024, 1025, 2500] {
            let us: Vec<u32> = (0..n as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect();
            let fs: Vec<f32> = us.iter().map(|&u| f32::from_bits(u)).collect();
            let mut enc = Enc::new();
            enc.u8(9); // knock the payload off 4-byte alignment
            enc.u32_slice(&us);
            enc.f32_slice(&fs);
            let payload = enc.finish();
            assert_eq!(payload.len(), 1 + 8 * n);
            let per_element: Vec<u8> = us.iter().flat_map(|u| u.to_le_bytes()).collect();
            assert_eq!(&payload[1..1 + 4 * n], per_element);
            let mut dec = Dec::new(&payload);
            assert_eq!(dec.u8().unwrap(), 9);
            assert_eq!(dec.u32_vec(n).unwrap(), us);
            let back = dec.f32_vec(n).unwrap();
            assert!(back
                .iter()
                .zip(&fs)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            dec.done().unwrap();
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("locec_fmt_{}_{name}", std::process::id()))
    }

    #[test]
    fn lazy_reader_matches_eager_reader() {
        let bytes = sample().to_bytes();
        let path = tmp("lazy_eq.lsnap");
        std::fs::write(&path, &bytes).unwrap();
        let eager = Snapshot::from_bytes(&bytes).unwrap();
        let mut lazy = LazySnapshot::open(&path).unwrap();
        assert_eq!(lazy.kind(), eager.kind());
        assert_eq!(lazy.version(), eager.version());
        let eager_summary: Vec<(String, usize)> = eager
            .section_summaries()
            .map(|(n, l)| (n.to_owned(), l))
            .collect();
        let lazy_summary: Vec<(String, usize)> = lazy
            .section_summaries()
            .map(|(n, l)| (n.to_owned(), l))
            .collect();
        assert_eq!(eager_summary, lazy_summary);
        for name in ["alpha", "beta"] {
            let payload = lazy.section_bytes(name).unwrap();
            let mut dec = eager.section(name).unwrap();
            let expected = dec.u8_vec(payload.len()).unwrap();
            assert_eq!(payload, expected);
        }
        assert!(matches!(
            lazy.section_bytes("gamma"),
            Err(SnapshotError::MissingSection("gamma"))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lazy_reader_validates_only_the_accessed_section() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1; // inside section "beta"
        bytes[last] ^= 0xFF;
        let path = tmp("lazy_crc.lsnap");
        std::fs::write(&path, &bytes).unwrap();
        // The eager reader rejects the whole file; the lazy reader opens it,
        // serves the intact section, and fails only on the damaged one.
        assert!(Snapshot::from_bytes(&bytes).is_err());
        let mut lazy = LazySnapshot::open(&path).unwrap();
        assert!(lazy.section_bytes("alpha").is_ok());
        assert!(matches!(
            lazy.section_bytes("beta"),
            Err(SnapshotError::ChecksumMismatch { section }) if section == "beta"
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lazy_open_rejects_every_truncation_with_a_typed_error() {
        let bytes = sample().to_bytes();
        let path = tmp("lazy_trunc.lsnap");
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            match LazySnapshot::open(&path) {
                Err(SnapshotError::Truncated | SnapshotError::BadMagic) => {}
                Ok(_) => panic!("truncation at {cut} opened successfully"),
                Err(e) => panic!("unexpected error at {cut}: {e}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lazy_open_rejects_header_damage_and_trailing_bytes() {
        let path = tmp("lazy_header.lsnap");
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            LazySnapshot::open(&path),
            Err(SnapshotError::BadMagic)
        ));
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            LazySnapshot::open(&path),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            LazySnapshot::open(&path),
            Err(SnapshotError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dec_guards_allocation_against_corrupt_counts() {
        let mut dec = Dec::new(&[1, 2, 3, 4]);
        assert!(matches!(
            dec.u32_vec(usize::MAX / 2),
            Err(SnapshotError::Truncated)
        ));
    }
}
