//! # graphstore — binary snapshot store + delta WAL for warm restarts
//!
//! The durability layer under the serving stack: a [`Store`] holds one
//! citation network (CSR adjacency, years, optional metadata) plus any
//! number of published score epochs in a sectioned binary format that
//! loads with **one buffer read and zero per-element parsing** — typed
//! slices (`&[u32]`, `&[i32]`, `&[f64]`) are aligned reinterpretations of
//! the file buffer. A [`DeltaWal`] is the append-only companion log:
//! [`citegraph::GraphDelta`] batches with per-record checksums, recovered
//! up to the last intact record after a crash, and folded back into a
//! fresh snapshot by [`compact`].
//!
//! Cold-start cost model (what this crate buys):
//!
//! | path                          | cost                                  |
//! |-------------------------------|---------------------------------------|
//! | TSV parse + full re-rank      | O(text) parse + O(E·iters) solve      |
//! | `Store::open` + [`Store::top_k`] | O(file) read + O(n) partial select |
//! | `+ to_network` (to keep serving) | + O(V + E) validate, two memcpys   |
//!
//! # Snapshot format, byte for byte
//!
//! All integers are **little-endian**; the zero-copy reader requires a
//! little-endian target (compile-time asserted — a big-endian port
//! needs an explicit conversion pass). The file is a 16-byte header
//! followed by 8-byte-aligned sections:
//!
//! ```text
//! offset 0   magic           8 bytes   b"ATRSTOR1"
//! offset 8   version         u32       currently 1
//! offset 12  section_count   u32
//! offset 16  sections …
//! ```
//!
//! Each section is a 32-byte header followed by its payload, zero-padded
//! to the next multiple of 8 so every payload (and the next header)
//! starts 8-byte aligned — the property that makes borrowing `&[f64]`
//! straight out of the buffer sound:
//!
//! ```text
//! +0   tag       u32    section kind (table below)
//! +4   kind      u32    element kind: 1 = u32, 2 = i32, 3 = f64,
//!                       4 = u64, 5 = raw bytes (UTF-8 where noted)
//! +8   len       u64    payload length in bytes
//! +16  aux       u64    per-tag auxiliary value (table below)
//! +24  checksum  u64    FNV-1a 64 of the 24 header bytes above
//!                       (tag‖kind‖len‖aux, as serialized) followed by
//!                       the payload bytes — aux values (epoch numbers,
//!                       the WAL watermark) are integrity-checked too
//! +32  payload   len bytes, then 0..7 bytes of zero padding
//! ```
//!
//! | tag | name           | kind | payload                        | aux        |
//! |-----|----------------|------|--------------------------------|------------|
//! | 1   | YEARS          | i32  | publication year per paper     | n_papers   |
//! | 2   | INDPTR         | u32  | CSR row pointers, n+1 entries  | n_papers   |
//! | 3   | INDICES        | u32  | CSR column indices, nnz entries| nnz        |
//! | 4   | VENUES         | u32  | venue per paper, `u32::MAX`=none| n_venues  |
//! | 5   | AUTHOR_OFFSETS | u64  | flat offsets, n+1 entries      | n_authors  |
//! | 6   | AUTHOR_IDS     | u32  | flat author ids                | n_authors  |
//! | 7   | EPOCH_META     | raw  | UTF-8 method spec string       | epoch no.  |
//! | 8   | EPOCH_SCORES   | f64  | score per paper                | epoch no.  |
//! | 9   | WAL_WATERMARK  | u64  | empty                          | see below  |
//! | 10  | SHARD_MANIFEST | u32  | shard index, then S+1 global   | n_shards S |
//! |     |                |      | id boundaries of the plan      |            |
//! | 11  | VENUE_POST_OFFSETS | u64 | venue→papers offsets, V+1   | n_venues   |
//! | 12  | VENUE_POST_IDS | u32  | venue→papers posting ids       | n_venues   |
//! | 13  | AUTHOR_POST_OFFSETS | u64 | author→papers offsets, A+1 | n_authors  |
//! | 14  | AUTHOR_POST_IDS| u32  | author→papers posting ids      | n_authors  |
//! | 15  | PUSH_STATE     | f64  | att ‖ rec ‖ kernel, 3·n values | epoch no.  |
//!
//! Sections 1–3 are mandatory and describe the reference adjacency (row
//! `j` = papers cited by `j`); the citers transpose is rebuilt on load.
//! Sections 4–6 appear only when the network carries metadata (5 and 6
//! always together). Sections 11–14 persist the secondary posting
//! indexes (the venue→papers and author→papers inversions, CSR with
//! ascending paper ids per list); each offsets/ids pair appears together
//! or not at all, must hang off its base section (11/12 off 4, 13/14 off
//! 5+6), and agrees with it on the facet-space size in `aux`. On load
//! the pairs are **validated, not trusted**: list-wise strict increase
//! plus membership against the forward arrays plus a cardinality check
//! force the restored index to equal the inversion bit for bit. Files
//! written before the sections existed simply rebuild the indexes
//! (counting sort) on load. Each published epoch contributes a 7+8 pair in
//! order: the EPOCH_SCORES section belongs to the closest preceding
//! EPOCH_META, and both carry the epoch number in `aux`. At most one
//! PUSH_STATE section follows a complete 7+8 pair and carries that pair's
//! epoch number in `aux`: the incremental AttRank scorer's attention
//! component, recency component and uniform kernel, so a restart resumes
//! pushing instead of re-solving. It is the one section whose checksum
//! [`Store::open`] does **not** verify — the first page never reads its
//! `24·n` bytes — so its shape (kind, length `3·n`, owning epoch, count)
//! is checked at open and its checksum by [`Store::push_state`], before
//! any byte of it is handed out. A
//! WAL_WATERMARK section carries (in `aux`) the sequence number of the
//! first WAL record the snapshot does *not* contain; restart replay and
//! [`compact`] fold in only records at or past it, which makes the
//! snapshot-write → WAL-truncate pair safe to crash between. Unknown tags
//! are skipped on read (forward compatibility); failing any checksum,
//! bound, or shape check yields a typed [`StoreError`], never garbage.
//!
//! Writes are crash-safe: the whole file is serialized to
//! `<path>.tmp-<pid>`, flushed with `fsync`, atomically renamed over
//! `<path>`, and the parent directory is fsynced — a torn write can lose
//! the *new* snapshot, never corrupt the old one.
//!
//! # WAL format, byte for byte
//!
//! ```text
//! offset 0   magic   8 bytes   b"ATRWAL01"
//! offset 8   records …
//! ```
//!
//! Each record (headers packed, no alignment — the WAL is decoded
//! streaming, not reinterpreted):
//!
//! ```text
//! +0   payload_len  u32    bytes after the checksum
//! +4   checksum     u64    FNV-1a 64 of the payload bytes
//! +12  payload:
//!      seq          u64    writer-assigned sequence number
//!      n_papers     u32    bit 31 = metadata flag (v2, see below)
//!      n_citations  u32
//!      years        i32 × n_papers      (delta paper years, id order)
//!      edges        (u32, u32) × n_citations   (citing, cited)
//!      metadata     v2 only: per delta paper, in id order:
//!        venue      u32    `u32::MAX` = none
//!        n_authors  u32
//!        authors    u32 × n_authors
//! ```
//!
//! **v2 records** carry per-paper venue/author metadata so facet indexes
//! stay fresh across WAL replay. The high bit of the `n_papers` field is
//! the version flag: clear → a v1 record whose payload *ends* at the
//! edge list (the exact-length check still applies, so v1 decoding is
//! unchanged); set → the low 31 bits are the paper count and the
//! metadata blocks follow the edges, covering every delta paper. A
//! metadata-free delta encodes byte-identically to v1, so logs written
//! by this version remain readable by pre-v2 readers until the first
//! metadata-bearing batch — and v1 log tails always replay here.
//!
//! Sequence numbers must be strictly increasing within one log.
//! Recovery ([`DeltaWal::open`]) replays records until the first torn or
//! corrupt one — incomplete header, payload overrunning the file,
//! checksum mismatch, an internally inconsistent payload, or a
//! non-increasing sequence number — and truncates the file back to the
//! end of the last intact record, exactly the contract of a write-ahead
//! log under crash-at-any-point. A failed append rolls the file back to
//! its pre-append length, so an unacknowledged batch is never left
//! behind for replay.

#![warn(missing_docs)]

// The on-disk format is little-endian and the zero-copy load path
// reinterprets file bytes in native order — identical only on
// little-endian targets. Fail the build elsewhere instead of silently
// serving byte-swapped scores (a big-endian port needs an explicit
// conversion pass in `bytes.rs`).
const _: () = assert!(
    cfg!(target_endian = "little"),
    "graphstore's zero-copy reads require a little-endian target"
);

mod bytes;
pub mod net;
pub mod snapshot;
pub mod wal;

pub use net::{compact, load_network, save_network, CompactReport, NetworkStoreExt};
pub use snapshot::{EpochRef, ShardManifest, Store, StoreBuilder, StoreError};
pub use wal::{DeltaWal, WalObservers, WalRecord, WalRecovery};

/// FNV-1a 64-bit checksum (the store's and WAL's per-section integrity
/// check — dependency-free, one multiply per byte, and byte-order
/// independent since it consumes the serialized little-endian payload).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_with(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64 hash from an intermediate state — lets the
/// snapshot checksum cover header + payload without concatenating them.
pub fn fnv1a64_with(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
