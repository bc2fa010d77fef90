//! Network-level convenience API: save/load whole networks and WAL
//! compaction.

use std::path::Path;

use citegraph::{CitationNetwork, GraphDelta};

use crate::snapshot::{Store, StoreBuilder, StoreError};
use crate::wal::DeltaWal;

/// Writes `net` (without score epochs) to a snapshot at `path`,
/// crash-safely. Use [`StoreBuilder`] directly to persist epochs too.
pub fn save_network<P: AsRef<Path>>(net: &CitationNetwork, path: P) -> Result<(), StoreError> {
    StoreBuilder::new().network(net).write_to(path)
}

/// Loads the network stored at `path` (one buffer read, two memcpys,
/// `O(V + E)` validation — no text parsing).
pub fn load_network<P: AsRef<Path>>(path: P) -> Result<CitationNetwork, StoreError> {
    Store::open(path)?.to_network()
}

/// Outcome of a [`compact`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// WAL records folded into the snapshot.
    pub records_folded: usize,
    /// WAL records skipped because the snapshot's watermark showed they
    /// were already folded (a crash between snapshot write and WAL
    /// truncation leaves such records behind — skipping them is what
    /// makes compaction idempotent).
    pub records_skipped: usize,
    /// Papers appended by those records.
    pub papers_added: usize,
    /// Citations appended by those records.
    pub citations_added: usize,
    /// Torn-tail bytes the WAL recovery discarded before folding.
    pub truncated_bytes: u64,
    /// Whether stale score epochs were dropped from the snapshot (they
    /// described the pre-compaction network).
    pub epochs_dropped: bool,
}

/// Folds the WAL at `wal_path` into the snapshot at `store_path`:
/// loads the stored network, replays every intact WAL record onto it,
/// atomically rewrites the snapshot, then truncates the WAL.
///
/// Score epochs present in the snapshot are preserved only when the WAL
/// was empty (otherwise they describe a superseded network state and are
/// dropped; the serving engine re-persists fresh epochs via
/// `persist_epoch`). Crash-safety: the snapshot rewrite is atomic and
/// the WAL is truncated only after the rename lands, so a crash
/// mid-compaction leaves a state `open` + replay still recovers exactly.
pub fn compact<P: AsRef<Path>, Q: AsRef<Path>>(
    store_path: P,
    wal_path: Q,
) -> Result<CompactReport, StoreError> {
    let store = Store::open(&store_path)?;
    let net = store.to_network()?;
    let (mut wal, recovery) = DeltaWal::open(&wal_path)?;

    // Records below the snapshot's watermark are already folded in (the
    // previous compaction or persist crashed before truncating the log).
    let watermark = store.wal_watermark().unwrap_or(0);
    let fresh: Vec<&GraphDelta> = recovery
        .records
        .iter()
        .filter(|r| r.seq >= watermark)
        .map(|r| &r.delta)
        .collect();
    let skipped = recovery.records.len() - fresh.len();

    if fresh.is_empty() {
        if !recovery.records.is_empty() {
            wal.truncate()?;
        }
        return Ok(CompactReport {
            records_folded: 0,
            records_skipped: skipped,
            papers_added: 0,
            citations_added: 0,
            truncated_bytes: recovery.truncated_bytes,
            epochs_dropped: false,
        });
    }

    // Merge the batches (ids are assigned sequentially past the base
    // network, so replaying the concatenation equals replaying each batch
    // in order) and apply once.
    let mut merged = GraphDelta::new();
    for d in &fresh {
        merged.merge(d);
    }
    let next = net
        .with_delta(&merged)
        .map_err(|e| StoreError::Invalid(format!("WAL replay rejected: {e}")))?;

    StoreBuilder::new()
        .network(&next)
        .wal_watermark(recovery.next_seq())
        .write_to(&store_path)?;
    wal.truncate()?;
    Ok(CompactReport {
        records_folded: fresh.len(),
        records_skipped: skipped,
        papers_added: merged.n_papers(),
        citations_added: merged.n_citations(),
        truncated_bytes: recovery.truncated_bytes,
        epochs_dropped: !store.epochs().is_empty(),
    })
}
