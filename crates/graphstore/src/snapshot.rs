//! The sectioned binary snapshot: [`StoreBuilder`] (write side) and
//! [`Store`] (zero-copy read side).
//!
//! The byte-for-byte layout is specified in the [crate docs](crate). The
//! invariant both sides maintain: every section payload starts at an
//! 8-byte-aligned offset of the file, so the reader can hand out
//! `&[u32]` / `&[i32]` / `&[f64]` slices borrowed directly from the one
//! buffer the whole file was read into.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use citegraph::{AuthorTable, CitationNetwork, VenueTable};
use sparsela::{top_k_indices, Csr, CsrView};

use crate::bytes::{as_f64s, as_i32s, as_u32s, as_u64s, AlignedBuf};
use crate::{fnv1a64, section_checksum_v2};

/// File magic, bytes 0..8.
pub const MAGIC: [u8; 8] = *b"ATRSTOR1";
/// The format version [`StoreBuilder`] writes. Version 1 files (byte
/// FNV-1a section checksums, otherwise identical) are still read.
pub const VERSION: u32 = 2;

/// Sentinel for "no venue" in a VENUES section.
pub const NO_VENUE: u32 = u32::MAX;

const HEADER_LEN: usize = 16;
const SECTION_HEADER_LEN: usize = 32;

/// Section tags (see the crate-level format table).
mod tag {
    pub const YEARS: u32 = 1;
    pub const INDPTR: u32 = 2;
    pub const INDICES: u32 = 3;
    pub const VENUES: u32 = 4;
    pub const AUTHOR_OFFSETS: u32 = 5;
    pub const AUTHOR_IDS: u32 = 6;
    pub const EPOCH_META: u32 = 7;
    pub const EPOCH_SCORES: u32 = 8;
    pub const WAL_WATERMARK: u32 = 9;
    pub const SHARD_MANIFEST: u32 = 10;
    pub const VENUE_POST_OFFSETS: u32 = 11;
    pub const VENUE_POST_IDS: u32 = 12;
    pub const AUTHOR_POST_OFFSETS: u32 = 13;
    pub const AUTHOR_POST_IDS: u32 = 14;
    /// The resolved push state older builds wrote: skipped, never read,
    /// never verified.
    pub const RESOLVED_PUSH_STATE: u32 = 15;
    pub const PUSH_STATE: u32 = 16;
}

/// The most scalars a PUSH_STATE section may carry after its lanes.
pub const MAX_PUSH_SCALARS: usize = 16;

/// An incremental scorer's push state as a snapshot persists it: three
/// lanes of one entry per paper, then a few scalars (at most
/// [`MAX_PUSH_SCALARS`]) whose meaning belongs to the scorer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushState<'a> {
    /// The lanes, one entry per paper each.
    pub lanes: [&'a [f64]; 3],
    /// The scalars the lanes' resolve needs.
    pub scalars: &'a [f64],
}

/// Element kinds (see the crate-level format table).
mod kind {
    pub const U32: u32 = 1;
    pub const I32: u32 = 2;
    pub const F64: u32 = 3;
    pub const U64: u32 = 4;
    pub const RAW: u32 = 5;

    /// Element size in bytes; raw sections have no divisibility rule.
    pub fn elem_size(kind: u32) -> Option<usize> {
        match kind {
            U32 | I32 => Some(4),
            F64 | U64 => Some(8),
            RAW => Some(1),
            _ => None,
        }
    }
}

/// Errors from reading or writing a snapshot store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not follow the format (bad magic/version, truncated
    /// section, length inconsistency).
    Format(String),
    /// A section's checksum did not match its payload — on-disk
    /// corruption.
    Corrupt(String),
    /// The bytes are well-formed but semantically invalid (CSR or
    /// temporal invariants violated, metadata out of range).
    Invalid(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Format(m) => write!(f, "malformed store: {m}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::Invalid(m) => write!(f, "invalid store contents: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The per-section integrity check of format `version` over the first 24
/// header bytes (tag, kind, len, aux) and the payload — streamed, so the
/// multi-megabyte payloads are never copied. Version 1 is byte FNV-1a 64
/// over header then payload; version 2 is [`section_checksum_v2`].
fn section_checksum(version: u32, header24: &[u8], payload: &[u8]) -> u64 {
    debug_assert_eq!(header24.len(), 24);
    match version {
        1 => crate::fnv1a64_with(fnv1a64(header24), payload),
        _ => {
            debug_assert_eq!(version, VERSION);
            section_checksum_v2(header24, payload)
        }
    }
}

/// One section staged for writing.
#[derive(Debug, Clone)]
struct OwnedSection {
    tag: u32,
    kind: u32,
    aux: u64,
    payload: Vec<u8>,
}

/// Serializes a snapshot: stage a network and any number of score epochs,
/// then write the file (atomically) or render the bytes.
#[derive(Debug, Default)]
pub struct StoreBuilder {
    sections: Vec<OwnedSection>,
}

impl StoreBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages the network's years, CSR adjacency, and metadata tables.
    pub fn network(mut self, net: &CitationNetwork) -> Self {
        let n = net.n_papers() as u64;
        let refs = net.refs_csr();
        self.push(tag::YEARS, kind::I32, n, encode_i32s(net.years()));
        self.push(tag::INDPTR, kind::U32, n, encode_u32s(refs.indptr()));
        self.push(
            tag::INDICES,
            kind::U32,
            refs.nnz() as u64,
            encode_u32s(refs.indices()),
        );
        if let Some(v) = net.venues() {
            let slots: Vec<u32> = v.slots().iter().map(|s| s.unwrap_or(NO_VENUE)).collect();
            self.push(
                tag::VENUES,
                kind::U32,
                v.n_venues() as u64,
                encode_u32s(&slots),
            );
            // The venue→papers secondary index, persisted so a cold start
            // restores it (validated, not rebuilt). Readers predating the
            // sections skip the unknown tags.
            let (post_offsets, post_papers) = v.postings();
            let post_offsets: Vec<u64> = post_offsets.iter().map(|&o| o as u64).collect();
            self.push(
                tag::VENUE_POST_OFFSETS,
                kind::U64,
                v.n_venues() as u64,
                encode_u64s(&post_offsets),
            );
            self.push(
                tag::VENUE_POST_IDS,
                kind::U32,
                v.n_venues() as u64,
                encode_u32s(post_papers),
            );
        }
        if let Some(a) = net.authors() {
            let offsets: Vec<u64> = a.offsets().iter().map(|&o| o as u64).collect();
            self.push(
                tag::AUTHOR_OFFSETS,
                kind::U64,
                a.n_authors() as u64,
                encode_u64s(&offsets),
            );
            self.push(
                tag::AUTHOR_IDS,
                kind::U32,
                a.n_authors() as u64,
                encode_u32s(a.flat_author_ids()),
            );
            // The author→papers secondary index (the transposed view).
            let (post_offsets, post_papers) = a.postings();
            let post_offsets: Vec<u64> = post_offsets.iter().map(|&o| o as u64).collect();
            self.push(
                tag::AUTHOR_POST_OFFSETS,
                kind::U64,
                a.n_authors() as u64,
                encode_u64s(&post_offsets),
            );
            self.push(
                tag::AUTHOR_POST_IDS,
                kind::U32,
                a.n_authors() as u64,
                encode_u32s(post_papers),
            );
        }
        self
    }

    /// Stages one published score epoch: the method's canonical config
    /// string, its epoch number, and one score per paper.
    pub fn epoch(mut self, spec: &str, epoch: u64, scores: &[f64]) -> Self {
        self.push(tag::EPOCH_META, kind::RAW, epoch, spec.as_bytes().to_vec());
        self.push(tag::EPOCH_SCORES, kind::F64, epoch, encode_f64s(scores));
        self
    }

    /// Stages the push state of `epoch` — the unresolved lanes an
    /// incremental AttRank scorer resumes pushing from, then their
    /// scalars, concatenated in that order. Stage it right after the
    /// [`Self::epoch`] it belongs to.
    pub fn push_state(mut self, epoch: u64, state: PushState<'_>) -> Self {
        let [a, b, c] = state.lanes;
        let payload = [a, b, c, state.scalars].concat();
        self.push(tag::PUSH_STATE, kind::F64, epoch, encode_f64s(&payload));
        self
    }

    /// Stages the WAL sequence watermark: the sequence number of the
    /// first log record this snapshot does **not** contain. Restart
    /// replay folds in exactly the records with `seq >= watermark`, so a
    /// crash between a snapshot write and a WAL truncation can never
    /// apply a batch twice.
    pub fn wal_watermark(mut self, seq: u64) -> Self {
        self.push(tag::WAL_WATERMARK, kind::U64, seq, Vec::new());
        self
    }

    /// Stages a shard manifest: this file holds shard `manifest.shard` of
    /// a plan whose global id `boundaries` are recorded in full, so a
    /// cold start that opens **any** one shard file learns the whole
    /// plan and can open the remaining shards in parallel. Readers that
    /// predate the section skip it (unknown-tag forward compatibility).
    pub fn shard_manifest(mut self, manifest: &ShardManifest) -> Self {
        let mut payload: Vec<u32> = Vec::with_capacity(1 + manifest.boundaries.len());
        payload.push(manifest.shard);
        payload.extend_from_slice(&manifest.boundaries);
        self.push(
            tag::SHARD_MANIFEST,
            kind::U32,
            manifest.n_shards() as u64,
            encode_u32s(&payload),
        );
        self
    }

    fn push(&mut self, tag: u32, kind: u32, aux: u64, payload: Vec<u8>) {
        self.sections.push(OwnedSection {
            tag,
            kind,
            aux,
            payload,
        });
    }

    /// Renders the complete snapshot file image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for s in &self.sections {
            let header_start = out.len();
            out.extend_from_slice(&s.tag.to_le_bytes());
            out.extend_from_slice(&s.kind.to_le_bytes());
            out.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&s.aux.to_le_bytes());
            // The checksum covers the 24 header bytes above AND the
            // payload, so corruption of tag/kind/len/aux (the WAL
            // watermark and epoch numbers live in `aux`) is caught, not
            // just payload corruption.
            let checksum =
                section_checksum(VERSION, &out[header_start..header_start + 24], &s.payload);
            out.extend_from_slice(&checksum.to_le_bytes());
            out.extend_from_slice(&s.payload);
            // Zero-pad so the next section header stays 8-aligned.
            while out.len() % 8 != 0 {
                out.push(0);
            }
        }
        out
    }

    /// Writes the snapshot to `path` crash-safely: serialize to a
    /// temporary file in the same directory, `fsync`, atomically rename
    /// over `path`, then fsync the directory. An interrupted write can
    /// only lose the new file, never damage an existing one.
    pub fn write_to<P: AsRef<Path>>(&self, path: P) -> Result<(), StoreError> {
        let path = path.as_ref();
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        let file_name = path
            .file_name()
            .ok_or_else(|| StoreError::Format(format!("{} has no file name", path.display())))?;
        let tmp = dir.join(format!(
            ".{}.tmp-{}",
            file_name.to_string_lossy(),
            std::process::id()
        ));
        let result = (|| -> io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
            fs::rename(&tmp, path)?;
            // Persist the rename itself. Directory fsync is best-effort:
            // some filesystems refuse to open directories for writing.
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
            Ok(())
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result.map_err(StoreError::Io)
    }
}

fn encode_u32s(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn encode_i32s(values: &[i32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn encode_u64s(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn encode_f64s(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// A u64 offsets payload as the `usize` offsets the metadata tables hold.
fn widen_offsets(payload: &[u8]) -> Vec<usize> {
    as_u64s(payload).iter().map(|&o| o as usize).collect()
}

/// One section located inside the loaded buffer.
#[derive(Debug, Clone, Copy)]
struct Section {
    tag: u32,
    kind: u32,
    aux: u64,
    /// Payload byte range within the buffer.
    start: usize,
    len: usize,
}

/// Which shard of a sharded serving plan a snapshot file holds, plus the
/// plan's full id-boundary list (see the SHARD_MANIFEST section of the
/// crate-level format spec). `boundaries` has `S + 1` entries: shard `s`
/// owns global paper ids `boundaries[s]..boundaries[s + 1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Index of the shard this file holds (`< n_shards`).
    pub shard: u32,
    /// The plan's `S + 1` strictly increasing global id boundaries.
    pub boundaries: Vec<u32>,
}

impl ShardManifest {
    /// Number of shards `S` in the plan.
    pub fn n_shards(&self) -> usize {
        self.boundaries.len() - 1
    }
}

/// One published epoch borrowed from a [`Store`].
#[derive(Debug, Clone, Copy)]
pub struct EpochRef<'a> {
    /// Canonical method config string the scores were computed with.
    pub spec: &'a str,
    /// Epoch number at persist time.
    pub epoch: u64,
    /// Score per paper, id-indexed — borrowed straight from the file
    /// buffer (bit-exact with what was persisted).
    pub scores: &'a [f64],
}

/// A loaded snapshot: one aligned buffer plus a validated table of
/// contents. All array accessors are zero-copy borrows into the buffer.
#[derive(Debug)]
pub struct Store {
    buf: AlignedBuf,
    /// The file's format version (1 or 2): it selects the section
    /// checksum, here and in the deferred [`Self::push_state`] check.
    version: u32,
    sections: Vec<Section>,
    /// `(meta_index, scores_index)` per published epoch, in file order.
    epochs: Vec<(usize, usize)>,
    /// Index of the PUSH_STATE section, shape-checked but not yet
    /// checksummed (see [`Self::push_state`]).
    push_state: Option<usize>,
    n_papers: usize,
}

impl Store {
    /// Opens and fully validates a snapshot file — structure, checksums
    /// and shapes; the deeper CSR/temporal validation runs in
    /// [`Self::to_network`], and the push state's checksum in
    /// [`Self::push_state`].
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        let mut f = fs::File::open(path)?;
        let len = f.metadata()?.len() as usize;
        let buf = AlignedBuf::read_exact(&mut f, len)?;
        Self::parse(buf)
    }

    /// Parses an in-memory file image (copied into an aligned buffer).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::parse(AlignedBuf::from_bytes(bytes))
    }

    fn parse(buf: AlignedBuf) -> Result<Self, StoreError> {
        let bytes = buf.bytes();
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Format(format!(
                "file is {} bytes, smaller than the {HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        if bytes[..8] != MAGIC {
            return Err(StoreError::Format(
                "bad magic (not a snapshot store)".into(),
            ));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if !(1..=VERSION).contains(&version) {
            return Err(StoreError::Format(format!(
                "unsupported version {version} (reader supports 1 to {VERSION})"
            )));
        }
        // No checksum covers the count: bound it by what the file can hold
        // before allocating for it.
        let declared = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        let room = (bytes.len() - HEADER_LEN) / SECTION_HEADER_LEN;
        if declared > room {
            return Err(StoreError::Format(format!(
                "header declares {declared} sections, the file has room for at most {room}"
            )));
        }

        let mut sections = Vec::with_capacity(declared);
        let mut offset = HEADER_LEN;
        while offset < bytes.len() {
            if bytes.len() - offset < SECTION_HEADER_LEN {
                return Err(StoreError::Format(format!(
                    "truncated section header at offset {offset}"
                )));
            }
            let h = &bytes[offset..offset + SECTION_HEADER_LEN];
            let tag = u32::from_le_bytes(h[0..4].try_into().expect("4 bytes"));
            let knd = u32::from_le_bytes(h[4..8].try_into().expect("4 bytes"));
            let len = u64::from_le_bytes(h[8..16].try_into().expect("8 bytes")) as usize;
            let aux = u64::from_le_bytes(h[16..24].try_into().expect("8 bytes"));
            let checksum = u64::from_le_bytes(h[24..32].try_into().expect("8 bytes"));
            let start = offset + SECTION_HEADER_LEN;
            if len > bytes.len() - start {
                return Err(StoreError::Format(format!(
                    "section tag {tag} at offset {offset}: payload of {len} bytes overruns the file"
                )));
            }
            // The push state is the one section the first page never
            // reads: its checksum is verified by `push_state`, off the
            // cold-start path. The retired resolved form is never read.
            if tag != tag::PUSH_STATE
                && tag != tag::RESOLVED_PUSH_STATE
                && section_checksum(version, &h[0..24], &bytes[start..start + len]) != checksum
            {
                return Err(StoreError::Corrupt(format!(
                    "section tag {tag} at offset {offset}: checksum mismatch"
                )));
            }
            let Some(elem) = kind::elem_size(knd) else {
                return Err(StoreError::Format(format!(
                    "section tag {tag}: unknown element kind {knd}"
                )));
            };
            if !len.is_multiple_of(elem) {
                return Err(StoreError::Format(format!(
                    "section tag {tag}: {len} bytes not a multiple of element size {elem}"
                )));
            }
            sections.push(Section {
                tag,
                kind: knd,
                aux,
                start,
                len,
            });
            offset = start + len;
            offset += (8 - offset % 8) % 8; // skip padding
        }
        if sections.len() != declared {
            return Err(StoreError::Format(format!(
                "header declares {declared} sections, file contains {}",
                sections.len()
            )));
        }

        let store = Self {
            buf,
            version,
            sections,
            epochs: Vec::new(),
            push_state: None,
            n_papers: 0,
        };
        store.validate_shapes()
    }

    /// Cross-section shape validation; fills in the epoch table and
    /// paper count.
    fn validate_shapes(mut self) -> Result<Self, StoreError> {
        let years = self.required(tag::YEARS, kind::I32, "YEARS")?;
        let n = years.len / 4;
        let indptr = self.required(tag::INDPTR, kind::U32, "INDPTR")?;
        if indptr.len / 4 != n + 1 {
            return Err(StoreError::Format(format!(
                "INDPTR has {} entries, expected n_papers + 1 = {}",
                indptr.len / 4,
                n + 1
            )));
        }
        self.required(tag::INDICES, kind::U32, "INDICES")?;
        if let Some(v) = self.find(tag::VENUES) {
            if v.kind != kind::U32 || v.len / 4 != n {
                return Err(StoreError::Format(
                    "VENUES section has the wrong kind or length".into(),
                ));
            }
        }
        match (self.find(tag::AUTHOR_OFFSETS), self.find(tag::AUTHOR_IDS)) {
            (None, None) => {}
            (Some(off), Some(ids)) => {
                if off.kind != kind::U64 || off.len / 8 != n + 1 {
                    return Err(StoreError::Format(
                        "AUTHOR_OFFSETS section has the wrong kind or length".into(),
                    ));
                }
                if ids.kind != kind::U32 {
                    return Err(StoreError::Format(
                        "AUTHOR_IDS section has the wrong kind".into(),
                    ));
                }
            }
            _ => {
                return Err(StoreError::Format(
                    "AUTHOR_OFFSETS and AUTHOR_IDS must appear together".into(),
                ));
            }
        }

        // Persisted secondary indexes: optional (older files rebuild on
        // load), but when present each offsets/ids pair must be complete,
        // hang off its base section, and agree with it on the facet-space
        // size carried in `aux`. Content-level validation (sortedness,
        // membership against the base arrays) happens in `to_network`.
        for (name, post_off, post_ids, base, base_name) in [
            (
                "VENUE_POST",
                tag::VENUE_POST_OFFSETS,
                tag::VENUE_POST_IDS,
                tag::VENUES,
                "VENUES",
            ),
            (
                "AUTHOR_POST",
                tag::AUTHOR_POST_OFFSETS,
                tag::AUTHOR_POST_IDS,
                tag::AUTHOR_OFFSETS,
                "AUTHOR_OFFSETS",
            ),
        ] {
            match (self.find(post_off), self.find(post_ids)) {
                (None, None) => {}
                (Some(off), Some(ids)) => {
                    let Some(base) = self.find(base) else {
                        return Err(StoreError::Format(format!(
                            "{name} sections present without a {base_name} section"
                        )));
                    };
                    if off.kind != kind::U64 || ids.kind != kind::U32 {
                        return Err(StoreError::Format(format!(
                            "{name} sections have the wrong element kinds"
                        )));
                    }
                    if off.aux != base.aux || ids.aux != base.aux {
                        return Err(StoreError::Format(format!(
                            "{name} sections disagree with {base_name} on the facet-space size"
                        )));
                    }
                    if off.len / 8 != off.aux as usize + 1 {
                        return Err(StoreError::Format(format!(
                            "{name}_OFFSETS has {} entries, expected facet count + 1 = {}",
                            off.len / 8,
                            off.aux + 1
                        )));
                    }
                }
                _ => {
                    return Err(StoreError::Format(format!(
                        "{name}_OFFSETS and {name}_IDS must appear together"
                    )));
                }
            }
        }

        if let Some(s) = self.find(tag::SHARD_MANIFEST) {
            let n_shards = s.aux as usize;
            if s.kind != kind::U32 || n_shards == 0 || s.len / 4 != n_shards + 2 {
                return Err(StoreError::Format(
                    "SHARD_MANIFEST section has the wrong kind or length".into(),
                ));
            }
            let payload = as_u32s(self.payload(s));
            if payload[0] as usize >= n_shards {
                return Err(StoreError::Format(format!(
                    "SHARD_MANIFEST names shard {} of {n_shards}",
                    payload[0]
                )));
            }
            let boundaries = &payload[1..];
            if boundaries[0] != 0 || boundaries.windows(2).any(|w| w[0] >= w[1]) {
                return Err(StoreError::Format(
                    "SHARD_MANIFEST boundaries are not strictly increasing from 0".into(),
                ));
            }
        }

        // Epochs: every SCORES pairs with the closest preceding META.
        let mut pending_meta: Option<usize> = None;
        let mut epochs = Vec::new();
        let mut push_state = None;
        for (i, s) in self.sections.iter().enumerate() {
            match s.tag {
                tag::EPOCH_META => {
                    if s.kind != kind::RAW {
                        return Err(StoreError::Format(
                            "EPOCH_META section has the wrong kind".into(),
                        ));
                    }
                    if std::str::from_utf8(self.payload(s)).is_err() {
                        return Err(StoreError::Format(
                            "EPOCH_META spec is not valid UTF-8".into(),
                        ));
                    }
                    pending_meta = Some(i);
                }
                tag::EPOCH_SCORES => {
                    let Some(meta) = pending_meta.take() else {
                        return Err(StoreError::Format(
                            "EPOCH_SCORES without a preceding EPOCH_META".into(),
                        ));
                    };
                    if s.kind != kind::F64 || s.len / 8 != n {
                        return Err(StoreError::Format(format!(
                            "EPOCH_SCORES has {} entries, expected {n}",
                            s.len / 8
                        )));
                    }
                    if s.aux != self.sections[meta].aux {
                        return Err(StoreError::Format(
                            "EPOCH_META/EPOCH_SCORES epoch numbers disagree".into(),
                        ));
                    }
                    epochs.push((meta, i));
                }
                // The push state belongs to the closest preceding complete
                // EPOCH pair; its checksum is deferred, so these checks are
                // what stand between a flipped tag and a misread section.
                tag::PUSH_STATE => {
                    let owner = match (pending_meta, epochs.last()) {
                        (None, Some(&(meta, _))) => Some(self.sections[meta].aux),
                        _ => None,
                    };
                    if owner != Some(s.aux) {
                        return Err(StoreError::Format(format!(
                            "PUSH_STATE for epoch {} does not follow that epoch's EPOCH pair",
                            s.aux
                        )));
                    }
                    if s.kind != kind::F64
                        || !(3 * n..=3 * n + MAX_PUSH_SCALARS).contains(&(s.len / 8))
                    {
                        return Err(StoreError::Format(format!(
                            "PUSH_STATE has the wrong kind or length \
                             (expected 3 x {n} f64 and at most {MAX_PUSH_SCALARS} scalars)"
                        )));
                    }
                    if push_state.replace(i).is_some() {
                        return Err(StoreError::Format(
                            "more than one PUSH_STATE section".into(),
                        ));
                    }
                }
                _ => {}
            }
        }
        if pending_meta.is_some() {
            return Err(StoreError::Format(
                "EPOCH_META without a following EPOCH_SCORES".into(),
            ));
        }
        self.epochs = epochs;
        self.push_state = push_state;
        self.n_papers = n;
        Ok(self)
    }

    fn find(&self, tag: u32) -> Option<&Section> {
        self.sections.iter().find(|s| s.tag == tag)
    }

    fn required(&self, t: u32, k: u32, name: &str) -> Result<&Section, StoreError> {
        let s = self
            .find(t)
            .ok_or_else(|| StoreError::Format(format!("missing mandatory section {name}")))?;
        if s.kind != k {
            return Err(StoreError::Format(format!(
                "section {name} has element kind {}, expected {k}",
                s.kind
            )));
        }
        Ok(s)
    }

    fn payload(&self, s: &Section) -> &[u8] {
        &self.buf.bytes()[s.start..s.start + s.len]
    }

    /// Number of papers in the stored network.
    pub fn n_papers(&self) -> usize {
        self.n_papers
    }

    /// Number of stored citations.
    pub fn n_citations(&self) -> usize {
        self.find(tag::INDICES).map_or(0, |s| s.len / 4)
    }

    /// Publication years, id-indexed (borrowed from the file buffer).
    pub fn years(&self) -> &[i32] {
        as_i32s(self.payload(self.find(tag::YEARS).expect("validated")))
    }

    /// CSR row pointers of the reference adjacency (length `n + 1`).
    pub fn indptr(&self) -> &[u32] {
        as_u32s(self.payload(self.find(tag::INDPTR).expect("validated")))
    }

    /// CSR column indices of the reference adjacency (length `nnz`).
    pub fn indices(&self) -> &[u32] {
        as_u32s(self.payload(self.find(tag::INDICES).expect("validated")))
    }

    /// A validated, borrowed CSR view of the reference adjacency — row
    /// traversal without materializing an owned matrix. Validation is
    /// `O(V + E)` on each call; callers that need the view repeatedly
    /// should keep it.
    pub fn csr_view(&self) -> Result<CsrView<'_>, StoreError> {
        CsrView::new(self.indptr(), self.indices(), self.n_papers)
            .map_err(|e| StoreError::Invalid(e.to_string()))
    }

    /// The published epochs, in file order.
    pub fn epochs(&self) -> Vec<EpochRef<'_>> {
        self.epochs
            .iter()
            .map(|&(meta, scores)| {
                let m = &self.sections[meta];
                let s = &self.sections[scores];
                EpochRef {
                    spec: std::str::from_utf8(self.payload(m)).expect("validated UTF-8"),
                    epoch: m.aux,
                    scores: as_f64s(self.payload(s)),
                }
            })
            .collect()
    }

    /// The WAL sequence watermark stored in this snapshot (see
    /// [`StoreBuilder::wal_watermark`]); `None` when the snapshot was
    /// written without WAL coordination (replay everything).
    pub fn wal_watermark(&self) -> Option<u64> {
        self.find(tag::WAL_WATERMARK).map(|s| s.aux)
    }

    /// The epoch persisted for `spec`, if any.
    pub fn epoch_for(&self, spec: &str) -> Option<EpochRef<'_>> {
        self.epochs().into_iter().find(|e| e.spec == spec)
    }

    /// The push state persisted with `epoch` (see
    /// [`StoreBuilder::push_state`]), `None` when the snapshot carries
    /// none for that epoch — as it is for a snapshot that holds only the
    /// retired resolved form older builds wrote.
    ///
    /// The section's checksum is verified here, on every call, not in
    /// [`Self::open`]: a cold start serves its first page without reading
    /// these `24·n` bytes.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when the section fails its checksum.
    pub fn push_state(&self, epoch: u64) -> Result<Option<PushState<'_>>, StoreError> {
        let Some(s) = self.push_state.map(|i| &self.sections[i]) else {
            return Ok(None);
        };
        if s.aux != epoch {
            return Ok(None);
        }
        let header = &self.buf.bytes()[s.start - SECTION_HEADER_LEN..s.start];
        let checksum = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
        let payload = self.payload(s);
        if section_checksum(self.version, &header[0..24], payload) != checksum {
            return Err(StoreError::Corrupt(format!(
                "PUSH_STATE of epoch {epoch}: checksum mismatch"
            )));
        }
        let values = as_f64s(payload);
        let n = self.n_papers;
        Ok(Some(PushState {
            lanes: [&values[..n], &values[n..2 * n], &values[2 * n..3 * n]],
            scalars: &values[3 * n..],
        }))
    }

    /// The shard manifest stored in this snapshot (see
    /// [`StoreBuilder::shard_manifest`]); `None` for unsharded snapshots.
    pub fn shard_manifest(&self) -> Option<ShardManifest> {
        self.find(tag::SHARD_MANIFEST).map(|s| {
            let payload = as_u32s(self.payload(s));
            ShardManifest {
                shard: payload[0],
                boundaries: payload[1..].to_vec(),
            }
        })
    }

    /// Ids of the `k` highest-scoring papers of the first stored epoch
    /// (or of `spec`'s epoch when given) — the millisecond cold-start
    /// path: open, borrow, select; no network build, no solve.
    pub fn top_k(&self, spec: Option<&str>, k: usize) -> Option<Vec<u32>> {
        let epoch = match spec {
            Some(s) => self.epoch_for(s)?,
            None => self.epochs().into_iter().next()?,
        };
        Some(top_k_indices(epoch.scores, k))
    }

    /// Materializes the stored network, re-validating every structural
    /// and temporal invariant (two memcpys for the adjacency, `O(V + E)`
    /// integer checks that also count the in-degrees, no text parsing).
    /// The citers transpose is not built: the network builds it on first
    /// use, and no serving path uses it.
    pub fn to_network(&self) -> Result<CitationNetwork, StoreError> {
        let n = self.n_papers;
        let refs = Csr::from_store_parts(self.indptr().to_vec(), self.indices().to_vec(), n)
            .map_err(|e| StoreError::Invalid(e.to_string()))?;
        let venues = match self.find(tag::VENUES) {
            Some(s) => {
                let n_venues = s.aux as usize;
                let mut slots = Vec::with_capacity(n);
                for &v in as_u32s(self.payload(s)) {
                    if v == NO_VENUE {
                        slots.push(None);
                    } else if (v as usize) < n_venues {
                        slots.push(Some(v));
                    } else {
                        return Err(StoreError::Invalid(format!(
                            "venue id {v} out of range {n_venues}"
                        )));
                    }
                }
                // The persisted posting index, when present, must equal
                // the one rebuilt from the slots; older files without the
                // sections just rebuild it.
                let table = match (
                    self.find(tag::VENUE_POST_OFFSETS),
                    self.find(tag::VENUE_POST_IDS),
                ) {
                    (Some(off), Some(ids)) => VenueTable::from_parts(
                        slots,
                        n_venues,
                        &widen_offsets(self.payload(off)),
                        as_u32s(self.payload(ids)),
                    )
                    .map_err(StoreError::Invalid)?,
                    _ => VenueTable::new(slots, n_venues),
                };
                Some(table)
            }
            None => None,
        };
        let authors = match (self.find(tag::AUTHOR_OFFSETS), self.find(tag::AUTHOR_IDS)) {
            (Some(off), Some(ids)) => {
                let offsets = widen_offsets(self.payload(off));
                let flat_ids = as_u32s(self.payload(ids)).to_vec();
                let n_authors = off.aux as usize;
                // Same deal as venues: the persisted author→papers index
                // must equal the inversion `from_flat` builds anyway.
                let table = match (
                    self.find(tag::AUTHOR_POST_OFFSETS),
                    self.find(tag::AUTHOR_POST_IDS),
                ) {
                    (Some(poff), Some(pids)) => AuthorTable::from_flat_with_postings(
                        offsets,
                        flat_ids,
                        n_authors,
                        &widen_offsets(self.payload(poff)),
                        as_u32s(self.payload(pids)),
                    )
                    .map_err(StoreError::Invalid)?,
                    _ => AuthorTable::from_flat(offsets, flat_ids, n_authors)
                        .map_err(StoreError::Invalid)?,
                };
                Some(table)
            }
            _ => None,
        };
        CitationNetwork::from_store_parts(self.years().to_vec(), refs, authors, venues)
            .map_err(|e| StoreError::Invalid(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citegraph::NetworkBuilder;

    fn meta_network() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        b.add_paper_with_metadata(1999, vec![0, 2], Some(1));
        b.add_paper_with_metadata(2001, vec![1], None);
        b.add_paper_with_metadata(2003, vec![0], Some(0));
        b.add_paper(2004);
        b.add_citation(1, 0).unwrap();
        b.add_citation(2, 0).unwrap();
        b.build().unwrap()
    }

    /// Simulate a pre-index writer: a snapshot with the posting sections
    /// stripped must still load, rebuilding the indexes from the base
    /// metadata — and the rebuilt postings must match what a fresh build
    /// produces.
    #[test]
    fn old_snapshot_without_posting_sections_rebuilds_indexes() {
        let net = meta_network();
        let mut builder = StoreBuilder::new().network(&net);
        builder.sections.retain(|s| s.tag < tag::VENUE_POST_OFFSETS);
        let back = Store::from_bytes(&builder.to_bytes())
            .unwrap()
            .to_network()
            .unwrap();
        assert_eq!(
            back.venues().unwrap().postings(),
            net.venues().unwrap().postings()
        );
        assert_eq!(
            back.authors().unwrap().postings(),
            net.authors().unwrap().postings()
        );
    }

    /// A posting-list payload whose checksum is fine but whose *content*
    /// lies (out-of-order ids) must fail content validation, not load.
    #[test]
    fn tampered_posting_payload_is_semantically_rejected() {
        let net = meta_network();
        let mut builder = StoreBuilder::new().network(&net);
        let ids = builder
            .sections
            .iter_mut()
            .find(|s| s.tag == tag::AUTHOR_POST_IDS)
            .expect("author posting section staged");
        // Author 0 lists papers {0, 2}; swapping the two u32 words breaks
        // the strict-increase invariant while keeping the multiset.
        let (a, b) = (
            u32::from_le_bytes(ids.payload[0..4].try_into().unwrap()),
            u32::from_le_bytes(ids.payload[4..8].try_into().unwrap()),
        );
        ids.payload[0..4].copy_from_slice(&b.to_le_bytes());
        ids.payload[4..8].copy_from_slice(&a.to_le_bytes());
        let store = Store::from_bytes(&builder.to_bytes()).unwrap();
        match store.to_network() {
            Err(StoreError::Invalid(msg)) => {
                assert!(msg.contains("author 0 posting list differs"), "{msg}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    /// Half a posting-index pair is a format error — the reader must not
    /// guess which half to trust.
    #[test]
    fn unpaired_posting_section_is_a_format_error() {
        for drop in [tag::VENUE_POST_IDS, tag::AUTHOR_POST_OFFSETS] {
            let mut builder = StoreBuilder::new().network(&meta_network());
            builder.sections.retain(|s| s.tag != drop);
            match Store::from_bytes(&builder.to_bytes()) {
                Err(StoreError::Format(msg)) => {
                    assert!(msg.contains("must appear together"), "{msg}")
                }
                other => panic!("expected Format error, got {other:?}"),
            }
        }
    }

    /// Posting sections whose aux disagrees with the facet space of the
    /// base section are rejected before any content walk.
    #[test]
    fn posting_aux_mismatch_is_a_format_error() {
        let mut builder = StoreBuilder::new().network(&meta_network());
        let s = builder
            .sections
            .iter_mut()
            .find(|s| s.tag == tag::VENUE_POST_OFFSETS)
            .unwrap();
        s.aux += 1;
        match Store::from_bytes(&builder.to_bytes()) {
            Err(StoreError::Format(msg)) => {
                assert!(
                    msg.contains("facet-space size") || msg.contains("entries"),
                    "{msg}"
                )
            }
            other => panic!("expected Format error, got {other:?}"),
        }
    }
}
