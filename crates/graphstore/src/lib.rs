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
//! | path                             | cost                                       |
//! |----------------------------------|--------------------------------------------|
//! | TSV parse + full re-rank         | O(text) parse + O(E·iters) solve           |
//! | `Store::open` + [`Store::top_k`] | O(file) read + checksum, O(n) select       |
//! | `+ to_network` (to keep serving) | + O(V + E) validate, memcpys, inversions   |
//!
//! `to_network` builds no citers transpose: the validation pass over the
//! references also counts the in-degrees, and the transpose is built only
//! if something asks for it (no serving path does).
//!
//! Every byte a cold start reads is checked once: the section checksums
//! run at memory speed (four independent multiply lanes over u64 words),
//! and a persisted posting index costs one sequential comparison against
//! the inversion the load computes anyway.
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
//! offset 8   version         u32       2 (1 is still read, see below)
//! offset 12  section_count   u32       at most (file length − 16) / 32
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
//! +24  checksum  u64    section checksum (below) of the 24 header bytes
//!                       above (tag‖kind‖len‖aux, as serialized) and the
//!                       payload bytes — aux values (epoch numbers, the
//!                       WAL watermark) are integrity-checked too
//! +32  payload   len bytes, then 0..7 bytes of zero padding
//! ```
//!
//! The **v2 section checksum** is FNV-1a's xor-multiply step
//! (`P = 0x100000001b3`, all arithmetic mod 2⁶⁴) over the payload read
//! as little-endian u64 words in four interleaved lanes:
//!
//! ```text
//! s       = fnv1a64(header24)                 byte FNV-1a 64 of the header
//! lane[i] = s.rotate_left(16·i)               i = 0..4
//! for each whole 32-byte block b of the payload, for i = 0..4:
//!     lane[i] = (lane[i] ^ u64_le(b[8i..8i+8]))·P
//! h = s;  for i = 0..4:  h = (h ^ lane[i])·P
//! for each of the 0..31 tail bytes t:  h = (h ^ t)·P
//! h = (h ^ len)·P                             len = payload length in bytes
//! ```
//!
//! Every step is a bijection of the state it updates, so a change to the
//! payload confined to one 8-byte word of its whole blocks, or to one of
//! its bytes anywhere — every single-bit and single-byte flip — always
//! changes the checksum. **Version 1** files are identical except
//! that the checksum is byte FNV-1a 64 over the 24 header bytes followed
//! by the payload; they still open and verify (the version in the header
//! selects the function, for the deferred PUSH_STATE check too), and the
//! next snapshot written over them — `persist_epoch`, [`compact`] — is v2.
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
//! | 15  | (retired)      | f64  | resolved att ‖ rec ‖ kernel    | epoch no.  |
//! | 16  | PUSH_STATE     | f64  | 3 unresolved lanes, 3·n values,| epoch no.  |
//! |     |                |      | then ≤ 16 scalars              |            |
//!
//! Sections 1–3 are mandatory and describe the reference adjacency (row
//! `j` = papers cited by `j`); the citers transpose is not stored, and a
//! load does not build it (a network builds it on first use).
//! Sections 4–6 appear only when the network carries metadata (5 and 6
//! always together). Sections 11–14 persist the secondary posting
//! indexes (the venue→papers and author→papers inversions, CSR with
//! ascending paper ids per list); each offsets/ids pair appears together
//! or not at all, must hang off its base section (11/12 off 4, 13/14 off
//! 5+6), and agrees with it on the facet-space size in `aux`. On load
//! the pairs are **validated, not trusted**: the load rebuilds each
//! inversion from the forward arrays (counting sort) and a persisted pair
//! must be **equal to the rebuilt inversion**, array for array — the
//! error names the first facet whose list differs. Equality is exactly
//! what list-wise strict increase, membership and cardinality force.
//! Files written before the sections existed skip the comparison. Each
//! published epoch contributes a 7+8 pair in
//! order: the EPOCH_SCORES section belongs to the closest preceding
//! EPOCH_META, and both carry the epoch number in `aux`. At most one
//! PUSH_STATE section follows a complete 7+8 pair and carries that pair's
//! epoch number in `aux`: the incremental AttRank scorer's unresolved
//! kernel, attention and recency lanes and the scalars their resolve
//! needs ([`PushState`]), so a restart resumes pushing instead of
//! re-solving. It is the one section whose checksum
//! [`Store::open`] does **not** verify — the first page never reads its
//! `24·n` bytes — so its shape (kind, length `3·n` plus at most
//! [`MAX_PUSH_SCALARS`], owning epoch, count)
//! is checked at open and its checksum by [`Store::push_state`], before
//! any byte of it is handed out. Tag 15 held the *resolved* vectors
//! (attention component, recency component, kernel) that builds before
//! the unresolved lanes wrote; it is skipped unread and unverified, so
//! such a store restores with no push state and its first replayed batch
//! runs the full solve. A
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

pub use net::{compact, load_network, save_network, CompactReport};
pub use snapshot::{
    EpochRef, PushState, ShardManifest, Store, StoreBuilder, StoreError, MAX_PUSH_SCALARS,
};
pub use wal::{DeltaWal, WalObservers, WalRecord, WalRecovery};

/// The FNV-1a 64 prime: every checksum step here is `h = (h ^ x)·P`.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit checksum: one xor-multiply step per byte. It is the
/// WAL's per-record check, the v1 snapshot's per-section check, and the
/// seed and tail of the v2 section checksum (see the crate docs) —
/// dependency-free and byte-order independent, since it consumes the
/// serialized little-endian bytes. Byte-serial, so it runs at about one
/// multiply latency per byte; the v2 snapshot checksum exists because a
/// cold start reads tens of megabytes through it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_with(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64 hash from an intermediate state — lets the
/// snapshot checksum cover header + payload without concatenating them.
pub fn fnv1a64_with(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The v2 snapshot section checksum (byte for byte in the crate docs):
/// FNV-1a's xor-multiply step over little-endian u64 words in four
/// interleaved lanes, seeded by the FNV-1a 64 of the 24 section-header
/// bytes, folded, then finished over the 0–31 tail bytes and the payload
/// length. The four lanes are independent multiply chains, so the loop
/// runs at memory speed instead of one multiply latency per byte. Each
/// step is a bijection of the state it updates, so a change confined to
/// one word of a whole block, or to one byte anywhere, always changes
/// the result.
pub(crate) fn section_checksum_v2(header24: &[u8], payload: &[u8]) -> u64 {
    let seed = fnv1a64(header24);
    let mut lanes = [0, 1, 2, 3].map(|i| seed.rotate_left(16 * i));
    let blocks = payload.chunks_exact(32);
    let tail = blocks.remainder();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ word).wrapping_mul(FNV_PRIME);
        }
    }
    let folded = lanes
        .iter()
        .fold(seed, |h, &lane| (h ^ lane).wrapping_mul(FNV_PRIME));
    (fnv1a64_with(folded, tail) ^ payload.len() as u64).wrapping_mul(FNV_PRIME)
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

    /// The v2 section checksum is an on-disk format: these values pin it
    /// (empty payload, a tail only, one block, blocks plus a tail).
    #[test]
    fn section_checksum_v2_reference_vectors() {
        let header: Vec<u8> = (0u8..24).collect();
        let payload: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        let got = [0, 31, 32, 100].map(|len| section_checksum_v2(&header, &payload[..len]));
        assert_eq!(
            got,
            [
                0xd993_497e_26c0_0dc8,
                0xf508_00d5_374b_b8a3,
                0xcf4e_7c72_ecad_1b9a,
                0x4004_87b7_79e2_cb1e,
            ]
        );
    }

    #[test]
    fn section_checksum_v2_detects_every_single_bit_flip() {
        let header = [7u8; 24];
        let payload: Vec<u8> = (0..257u32).map(|i| (i * 131 + 5) as u8).collect();
        let clean = section_checksum_v2(&header, &payload);
        let mut evil = payload.clone();
        for bit in 0..payload.len() * 8 {
            evil[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                section_checksum_v2(&header, &evil),
                clean,
                "flip of bit {bit}"
            );
            evil[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
