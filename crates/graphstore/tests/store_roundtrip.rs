//! Round-trip property tests for the snapshot store and WAL: save→load
//! must reproduce the network, CSR arrays, metadata, and epoch scores
//! **bit-exactly**, and recovery must survive simulated crashes.

use proptest::prelude::*;

use citegraph::{CitationNetwork, GraphDelta, NetworkBuilder};
use graphstore::{
    compact, load_network, save_network, DeltaWal, PushState, Store, StoreBuilder, StoreError,
    MAX_PUSH_SCALARS,
};

/// Strategy: a valid temporal citation network plus one score per paper.
///
/// Ids are assigned in year order by construction (years are sorted
/// before insertion) and every edge points backwards (`cited < citing`),
/// so the builder accepts every generated case.
fn network_strategy() -> impl Strategy<Value = (CitationNetwork, Vec<f64>)> {
    (1usize..40).prop_flat_map(|n| {
        let years = proptest::collection::vec(1950i32..2020, n).prop_map(|mut y| {
            y.sort_unstable();
            y
        });
        let edges = proptest::collection::vec((1u32..n.max(2) as u32, 0u32..n as u32), 0..n * 3);
        let scores = proptest::collection::vec(-1.0e6f64..1.0e6, n);
        (years, edges, scores).prop_map(move |(years, edges, scores)| {
            let mut b = NetworkBuilder::new();
            for &y in &years {
                b.add_paper(y);
            }
            for &(citing, cited) in &edges {
                let citing = citing % n as u32;
                let cited = cited % n as u32;
                if cited < citing {
                    b.add_citation(citing, cited).unwrap();
                }
            }
            (b.build().unwrap(), scores)
        })
    })
}

fn assert_networks_identical(a: &CitationNetwork, b: &CitationNetwork) {
    assert_eq!(a.n_papers(), b.n_papers());
    assert_eq!(a.n_citations(), b.n_citations());
    assert_eq!(a.years(), b.years());
    assert_eq!(a.refs_csr().indptr(), b.refs_csr().indptr());
    assert_eq!(a.refs_csr().indices(), b.refs_csr().indices());
    for p in 0..a.n_papers() as u32 {
        assert_eq!(a.references(p), b.references(p));
        assert_eq!(a.citations(p), b.citations(p));
    }
}

proptest! {
    #[test]
    fn snapshot_roundtrip_is_bit_exact((net, scores) in network_strategy()) {
        let bytes = StoreBuilder::new()
            .network(&net)
            .epoch("attrank:alpha=0.2,beta=0.4,y=3,w=-0.16", 7, &scores)
            .to_bytes();
        let store = Store::from_bytes(&bytes).unwrap();

        // Zero-copy views match the source arrays exactly.
        prop_assert_eq!(store.n_papers(), net.n_papers());
        prop_assert_eq!(store.n_citations(), net.n_citations());
        prop_assert_eq!(store.years(), net.years());
        prop_assert_eq!(store.indptr(), net.refs_csr().indptr());
        prop_assert_eq!(store.indices(), net.refs_csr().indices());

        // The borrowed CSR view walks identical rows.
        let view = store.csr_view().unwrap();
        for p in 0..net.n_papers() as u32 {
            prop_assert_eq!(view.row(p), net.references(p));
        }

        // Scores round-trip bit-for-bit.
        let epochs = store.epochs();
        prop_assert_eq!(epochs.len(), 1);
        prop_assert_eq!(epochs[0].epoch, 7);
        prop_assert_eq!(epochs[0].spec, "attrank:alpha=0.2,beta=0.4,y=3,w=-0.16");
        for (a, b) in scores.iter().zip(epochs[0].scores) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        // Materialized network is structurally identical.
        let back = store.to_network().unwrap();
        assert_networks_identical(&net, &back);
    }

    #[test]
    fn push_state_roundtrip_is_bit_exact((net, scores) in network_strategy()) {
        let lanes = push_lanes(&scores);
        let bytes = StoreBuilder::new()
            .network(&net)
            .epoch("attrank", 4, &scores)
            .push_state(4, push_state(&lanes))
            .wal_watermark(9)
            .to_bytes();
        let store = Store::from_bytes(&bytes).unwrap();
        let back = store.push_state(4).unwrap().expect("section present");
        for (lane, got) in lanes.iter().zip(back.lanes) {
            prop_assert_eq!(bits(lane), bits(got));
        }
        prop_assert_eq!(bits(back.scalars), bits(&PUSH_SCALARS));
        // Another epoch's push state is not this one.
        prop_assert!(store.push_state(3).unwrap().is_none());
    }

    #[test]
    fn corrupt_payload_byte_is_detected((net, scores) in network_strategy(),
                                        frac in 0.0f64..1.0,
                                        with_push_state in 0u8..2) {
        let lanes = push_lanes(&scores);
        let mut builder = StoreBuilder::new().network(&net).epoch("cc", 0, &scores);
        if with_push_state == 1 {
            builder = builder.push_state(0, push_state(&lanes));
        }
        let bytes = builder.to_bytes();
        // Flip one byte anywhere past the file header: either a section
        // checksum catches it (at open, or at `push_state` for the one
        // section whose checksum is deferred), the structure walk rejects
        // it, or (if the flip lands in padding) the file still parses —
        // but it must never parse into *different* data.
        let idx = 16 + ((bytes.len() - 17) as f64 * frac) as usize;
        let mut evil = bytes.clone();
        evil[idx] ^= 0x01;
        match Store::from_bytes(&evil) {
            Err(_) => {}
            Ok(store) => match store.push_state(0) {
                Err(e) => prop_assert!(matches!(e, StoreError::Corrupt(_)), "{}", e),
                Ok(push_state) => {
                    // Flip landed in inter-section padding: content intact.
                    let clean = Store::from_bytes(&bytes).unwrap();
                    prop_assert_eq!(store.years(), clean.years());
                    prop_assert_eq!(store.indptr(), clean.indptr());
                    prop_assert_eq!(store.indices(), clean.indices());
                    let (a, b) = (store.epochs(), clean.epochs());
                    prop_assert_eq!(a.len(), b.len());
                    for (ea, eb) in a.iter().zip(&b) {
                        prop_assert_eq!(ea.scores, eb.scores);
                    }
                    prop_assert_eq!(push_state, clean.push_state(0).unwrap());
                }
            },
        }
    }

    #[test]
    fn truncated_snapshot_is_rejected((net, scores) in network_strategy(),
                                      frac in 0.0f64..1.0) {
        let bytes = StoreBuilder::new()
            .network(&net)
            .epoch("cc", 0, &scores)
            .to_bytes();
        let keep = (bytes.len() as f64 * frac) as usize;
        if keep < bytes.len() {
            prop_assert!(Store::from_bytes(&bytes[..keep]).is_err());
        }
    }

    #[test]
    fn wal_roundtrip_preserves_batches(batches in proptest::collection::vec(
        (proptest::collection::vec(2000i32..2020, 0..4),
         proptest::collection::vec((0u32..50, 0u32..50), 0..6)),
        0..8,
    )) {
        let dir = std::env::temp_dir().join("graphstore_roundtrip_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("prop-{}-{:x}.wal", std::process::id(),
            batches.len() * 31 + batches.iter().map(|(p, c)| p.len() + c.len()).sum::<usize>()));
        let _ = std::fs::remove_file(&path);

        let deltas: Vec<GraphDelta> = batches
            .iter()
            .map(|(papers, cites)| {
                let mut d = GraphDelta::new();
                for &y in papers {
                    d.add_paper(y);
                }
                for &(a, b) in cites {
                    d.add_citation(a, b);
                }
                d
            })
            .collect();

        let (mut wal, _) = DeltaWal::open(&path).unwrap();
        for (i, d) in deltas.iter().enumerate() {
            wal.append(i as u64, d).unwrap();
        }
        drop(wal);
        let (_, rec) = DeltaWal::open(&path).unwrap();
        let back: Vec<_> = rec.records.iter().map(|r| r.delta.clone()).collect();
        prop_assert_eq!(back, deltas);
        prop_assert_eq!(rec.next_seq(), rec.records.len() as u64);
        prop_assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }
}

fn rich_network() -> CitationNetwork {
    let mut b = NetworkBuilder::new();
    let p0 = b.add_paper_with_metadata(1999, vec![0, 2], Some(1));
    let p1 = b.add_paper_with_metadata(2001, vec![1], None);
    let p2 = b.add_paper_with_metadata(2003, vec![0], Some(0));
    let p3 = b.add_paper(2004);
    b.add_citation(p1, p0).unwrap();
    b.add_citation(p2, p0).unwrap();
    b.add_citation(p2, p1).unwrap();
    b.add_citation(p3, p2).unwrap();
    b.build().unwrap()
}

fn temp_file(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("graphstore_roundtrip_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

#[test]
fn file_roundtrip_with_metadata() {
    let path = temp_file("meta.store");
    let net = rich_network();
    save_network(&net, &path).unwrap();
    let back = load_network(&path).unwrap();
    assert_networks_identical(&net, &back);
    let (a, b) = (net.authors().unwrap(), back.authors().unwrap());
    assert_eq!(a.n_authors(), b.n_authors());
    for p in 0..net.n_papers() as u32 {
        assert_eq!(a.authors_of(p), b.authors_of(p));
        assert_eq!(
            net.venues().unwrap().venue_of(p),
            back.venues().unwrap().venue_of(p)
        );
    }
    // The persisted secondary indexes restore bit-exactly: identical
    // offset and posting arrays, not merely equivalent query answers.
    assert_eq!(a.postings(), b.postings());
    assert_eq!(
        net.venues().unwrap().postings(),
        back.venues().unwrap().postings()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn store_top_k_matches_scores() {
    let net = rich_network();
    let scores = [0.25, 4.0, 1.0, 0.5];
    let bytes = StoreBuilder::new()
        .network(&net)
        .epoch("cc", 3, &scores)
        .to_bytes();
    let store = Store::from_bytes(&bytes).unwrap();
    assert_eq!(store.top_k(None, 2).unwrap(), vec![1, 2]);
    assert_eq!(store.top_k(Some("cc"), 1).unwrap(), vec![1]);
    assert!(store.top_k(Some("pagerank"), 1).is_none());
    assert_eq!(store.epoch_for("cc").unwrap().epoch, 3);
}

#[test]
fn atomic_write_replaces_existing_snapshot() {
    let path = temp_file("replace.store");
    let net = rich_network();
    save_network(&net, &path).unwrap();
    // Overwrite with a larger network; the old file must be fully
    // replaced (no stale tail).
    let mut d = GraphDelta::new();
    d.add_paper(2010);
    d.add_citation(4, 0);
    let bigger = net.with_delta(&d).unwrap();
    save_network(&bigger, &path).unwrap();
    let back = load_network(&path).unwrap();
    assert_networks_identical(&bigger, &back);
    std::fs::remove_file(&path).ok();
}

#[test]
fn compact_folds_wal_into_snapshot() {
    let store_path = temp_file("compact.store");
    let wal_path = temp_file("compact.wal");
    let _ = std::fs::remove_file(&wal_path);
    let net = rich_network();
    StoreBuilder::new()
        .network(&net)
        .epoch("cc", 1, &[4.0, 3.0, 2.0, 1.0])
        .write_to(&store_path)
        .unwrap();

    let mut d1 = GraphDelta::new();
    d1.add_paper(2010);
    d1.add_citation(4, 0);
    let mut d2 = GraphDelta::new();
    d2.add_citation(4, 2);
    let (mut wal, _) = DeltaWal::open(&wal_path).unwrap();
    wal.append(0, &d1).unwrap();
    wal.append(1, &d2).unwrap();
    drop(wal);

    let report = compact(&store_path, &wal_path).unwrap();
    assert_eq!(report.records_folded, 2);
    assert_eq!(report.records_skipped, 0);
    assert_eq!(report.papers_added, 1);
    assert_eq!(report.citations_added, 2);
    assert!(report.epochs_dropped);

    // Snapshot now equals the delta-applied network; WAL is empty.
    let expected = net.with_delta(&d1).unwrap().with_delta(&d2).unwrap();
    let store = Store::open(&store_path).unwrap();
    assert_networks_identical(&expected, &store.to_network().unwrap());
    assert!(store.epochs().is_empty());
    // The rewritten snapshot records the watermark past the folded log.
    assert_eq!(store.wal_watermark(), Some(2));
    let (wal, rec) = DeltaWal::open(&wal_path).unwrap();
    assert!(rec.records.is_empty());
    assert!(wal.is_empty().unwrap());

    // A second compact over the empty WAL is a no-op that keeps epochs.
    let report = compact(&store_path, &wal_path).unwrap();
    assert_eq!(report.records_folded, 0);
    assert!(!report.epochs_dropped);
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(&wal_path).ok();
}

#[test]
fn compact_rejects_inconsistent_wal() {
    let store_path = temp_file("badcompact.store");
    let wal_path = temp_file("badcompact.wal");
    let _ = std::fs::remove_file(&wal_path);
    save_network(&rich_network(), &store_path).unwrap();
    let mut d = GraphDelta::new();
    d.add_citation(99, 0); // unknown paper
    let (mut wal, _) = DeltaWal::open(&wal_path).unwrap();
    wal.append(0, &d).unwrap();
    drop(wal);
    let err = compact(&store_path, &wal_path).unwrap_err();
    assert!(err.to_string().contains("WAL replay rejected"), "{err}");
    // The snapshot is untouched by the failed compact.
    let back = load_network(&store_path).unwrap();
    assert_networks_identical(&rich_network(), &back);
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(&wal_path).ok();
}

#[test]
fn corrupting_the_watermark_aux_is_detected() {
    // The WAL watermark (and epoch numbers) live in the section header's
    // aux field; the checksum must cover it — a flipped aux bit on disk
    // would otherwise silently break exactly-once replay.
    let net = rich_network();
    let bytes = StoreBuilder::new()
        .network(&net)
        .wal_watermark(5)
        .to_bytes();
    assert_eq!(Store::from_bytes(&bytes).unwrap().wal_watermark(), Some(5));

    // Walk the section headers to find the WAL_WATERMARK (tag 9) aux.
    let mut offset = 16usize;
    let mut aux_at = None;
    while offset + 32 <= bytes.len() {
        let tag = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[offset + 8..offset + 16].try_into().unwrap()) as usize;
        if tag == 9 {
            aux_at = Some(offset + 16);
            break;
        }
        offset += 32 + len;
        offset += (8 - offset % 8) % 8;
    }
    let aux_at = aux_at.expect("watermark section present");
    let mut evil = bytes.clone();
    evil[aux_at] ^= 0x01; // watermark 5 -> 4: would double-apply a batch
    assert!(matches!(
        Store::from_bytes(&evil),
        Err(graphstore::StoreError::Corrupt(_))
    ));
}

#[test]
fn shard_manifest_roundtrips() {
    let net = rich_network();
    let manifest = graphstore::ShardManifest {
        shard: 1,
        boundaries: vec![0, 2, 4],
    };
    let bytes = StoreBuilder::new()
        .network(&net)
        .shard_manifest(&manifest)
        .to_bytes();
    let store = Store::from_bytes(&bytes).unwrap();
    let back = store.shard_manifest().expect("manifest section present");
    assert_eq!(back.shard, 1);
    assert_eq!(back.boundaries, vec![0, 2, 4]);
    assert_eq!(back.n_shards(), 2);

    // A store written without a manifest reports none.
    let plain = StoreBuilder::new().network(&net).to_bytes();
    assert!(Store::from_bytes(&plain)
        .unwrap()
        .shard_manifest()
        .is_none());
}

#[test]
fn malformed_shard_manifest_is_rejected() {
    // Boundaries must start at zero and be strictly increasing, and the
    // shard index must name one of the plan's shards — a store carrying
    // a nonsensical manifest must fail to parse rather than send a cold
    // start looking for shard files that cannot exist.
    let net = rich_network();
    for manifest in [
        graphstore::ShardManifest {
            shard: 2, // out of range for 2 shards
            boundaries: vec![0, 2, 4],
        },
        graphstore::ShardManifest {
            shard: 0,
            boundaries: vec![1, 2, 4], // does not start at 0
        },
        graphstore::ShardManifest {
            shard: 0,
            boundaries: vec![0, 3, 3], // not strictly increasing
        },
    ] {
        let bytes = StoreBuilder::new()
            .network(&net)
            .shard_manifest(&manifest)
            .to_bytes();
        assert!(
            matches!(
                Store::from_bytes(&bytes),
                Err(graphstore::StoreError::Format(_))
            ),
            "manifest {manifest:?} should be rejected"
        );
    }
}

/// Three push-state lanes derived from `scores`, distinct per lane.
fn push_lanes(scores: &[f64]) -> [Vec<f64>; 3] {
    [1.0, 0.5, -2.0].map(|k| scores.iter().map(|s| s * k + k).collect())
}

/// The scalars every fixture's push state carries after its lanes.
const PUSH_SCALARS: [f64; 7] = [0.1, 0.2, 0.3, 5.0, 7.0, 9.0, 2004.0];

fn push_state(lanes: &[Vec<f64>; 3]) -> PushState<'_> {
    PushState {
        lanes: [&lanes[0], &lanes[1], &lanes[2]],
        scalars: &PUSH_SCALARS,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `(tag, header offset)` of every section, in file order.
fn section_headers(bytes: &[u8]) -> Vec<(u32, usize)> {
    let mut headers = Vec::new();
    let mut offset = 16usize;
    while offset + 32 <= bytes.len() {
        let tag = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[offset + 8..offset + 16].try_into().unwrap()) as usize;
        headers.push((tag, offset));
        offset += 32 + len;
        offset += (8 - offset % 8) % 8;
    }
    headers
}

const SCORES: [f64; 4] = [0.4, 0.3, 0.2, 0.1];

/// `rich_network` with every optional section: metadata, posting
/// indexes, an epoch and its push state, a watermark.
fn full_store() -> StoreBuilder {
    let lanes = push_lanes(&SCORES);
    StoreBuilder::new()
        .network(&rich_network())
        .epoch("attrank", 2, &SCORES)
        .push_state(2, push_state(&lanes))
        .wal_watermark(3)
}

#[test]
fn one_bit_tag_flips_onto_the_push_state_tag_are_caught() {
    // The push state's checksum (tag 16) is deferred past `open`, and the
    // retired resolved push state (tag 15) is never verified, so a section
    // whose tag flips to either is not checksummed there. No tag in use is
    // one bit from 16; for 15 the pair and shape checks must reject it.
    for used in 1u32..=15 {
        assert_ne!((used ^ 16).count_ones(), 1, "tag {used}");
    }
    let bytes = full_store().to_bytes();
    let headers = section_headers(&bytes);
    for from in [14u32, 11, 13, 7] {
        assert_eq!((from ^ 15).count_ones(), 1);
        let &(_, at) = headers.iter().find(|&&(tag, _)| tag == from).unwrap();
        let mut evil = bytes.clone();
        evil[at] ^= (from ^ 15) as u8;
        match Store::from_bytes(&evil) {
            Err(StoreError::Format(_)) => {}
            other => panic!("tag {from} -> 15: expected a Format error, got {other:?}"),
        }
    }
}

#[test]
fn malformed_push_state_is_a_format_error() {
    let net = rich_network();
    let lanes = push_lanes(&SCORES);
    let lanes = push_state(&lanes);
    let with_epoch = || {
        StoreBuilder::new()
            .network(&net)
            .epoch("attrank", 2, &SCORES)
    };
    let short = PushState {
        lanes: [lanes.lanes[0], lanes.lanes[1], &lanes.lanes[2][..1]],
        scalars: &[],
    };
    let too_many = [0.5; MAX_PUSH_SCALARS + 1];
    let too_many = PushState {
        scalars: &too_many,
        ..lanes
    };
    let cases = [
        ("length", with_epoch().push_state(2, short)),
        ("scalars", with_epoch().push_state(2, too_many)),
        ("orphan aux", with_epoch().push_state(1, lanes)),
        (
            "no epoch",
            StoreBuilder::new().network(&net).push_state(2, lanes),
        ),
        (
            "two sections",
            with_epoch().push_state(2, lanes).push_state(2, lanes),
        ),
    ];
    for (what, builder) in cases {
        match Store::from_bytes(&builder.to_bytes()) {
            Err(StoreError::Format(_)) => {}
            other => panic!("{what}: expected a Format error, got {other:?}"),
        }
    }
    // The kind: u64 in place of f64 (same width, so only the kind check
    // can tell).
    let mut bytes = full_store().to_bytes();
    let &(_, at) = section_headers(&bytes)
        .iter()
        .find(|&&(tag, _)| tag == 16)
        .unwrap();
    bytes[at + 4..at + 8].copy_from_slice(&4u32.to_le_bytes());
    assert!(matches!(
        Store::from_bytes(&bytes),
        Err(StoreError::Format(_))
    ));
}

#[test]
fn push_state_checksum_is_verified_on_read() {
    let bytes = full_store().to_bytes();
    let &(_, at) = section_headers(&bytes)
        .iter()
        .find(|&&(tag, _)| tag == 16)
        .unwrap();
    let clean = Store::from_bytes(&bytes).unwrap();
    let lanes = push_lanes(&SCORES);
    let got = clean.push_state(2).unwrap().unwrap();
    assert_eq!(got, push_state(&lanes));
    // One payload byte flipped: the store opens (the first page never
    // reads the section) and the push state is refused.
    let mut evil = bytes.clone();
    evil[at + 32 + 17] ^= 0x40;
    let store = Store::from_bytes(&evil).expect("open does not read the push state");
    assert_eq!(store.epochs()[0].scores, &SCORES[..]);
    assert!(matches!(store.push_state(2), Err(StoreError::Corrupt(_))));
    // So is a flip in its checksum field.
    let mut evil = bytes;
    evil[at + 24] ^= 0x01;
    let store = Store::from_bytes(&evil).unwrap();
    assert!(matches!(store.push_state(2), Err(StoreError::Corrupt(_))));
}

#[test]
fn compact_drops_the_push_state_with_the_epochs() {
    let store_path = temp_file("compact-push.store");
    let wal_path = temp_file("compact-push.wal");
    let _ = std::fs::remove_file(&wal_path);
    full_store().write_to(&store_path).unwrap();

    // Nothing to fold: the snapshot is left as it is.
    DeltaWal::open(&wal_path).unwrap();
    assert!(!compact(&store_path, &wal_path).unwrap().epochs_dropped);
    assert!(Store::open(&store_path)
        .unwrap()
        .push_state(2)
        .unwrap()
        .is_some());

    // A folded record rewrites the network only.
    let mut d = GraphDelta::new();
    d.add_paper(2010);
    d.add_citation(4, 0);
    let (mut wal, _) = DeltaWal::open(&wal_path).unwrap();
    wal.append(3, &d).unwrap();
    drop(wal);
    assert!(compact(&store_path, &wal_path).unwrap().epochs_dropped);
    let store = Store::open(&store_path).unwrap();
    assert!(store.epochs().is_empty());
    assert!(store.push_state(2).unwrap().is_none());
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(&wal_path).ok();
}

/// Re-stamps a current (v2) snapshot image as format v1: version 1 in the
/// header and every section re-checksummed with byte FNV-1a 64 over its
/// 24 header bytes and payload — what a v1 writer produced.
fn restamp_v1(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[8..12].copy_from_slice(&1u32.to_le_bytes());
    for (_, at) in section_headers(bytes) {
        let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
        let payload = &bytes[at + 32..at + 32 + len];
        let checksum = graphstore::fnv1a64_with(graphstore::fnv1a64(&bytes[at..at + 24]), payload);
        out[at + 24..at + 32].copy_from_slice(&checksum.to_le_bytes());
    }
    out
}

#[test]
fn v1_store_still_opens_and_verifies() {
    let bytes = full_store().to_bytes();
    assert_eq!(bytes[8..12], 2u32.to_le_bytes(), "the builder writes v2");
    let v1 = restamp_v1(&bytes);
    let (old, new) = (
        Store::from_bytes(&v1).unwrap(),
        Store::from_bytes(&bytes).unwrap(),
    );
    let (a, b) = (old.to_network().unwrap(), new.to_network().unwrap());
    assert_networks_identical(&a, &b);
    assert_eq!(a.authors(), b.authors());
    assert_eq!(a.venues(), b.venues());
    let (ea, eb) = (old.epochs(), new.epochs());
    assert_eq!(ea.len(), 1);
    assert_eq!((ea[0].spec, ea[0].epoch), (eb[0].spec, eb[0].epoch));
    assert_eq!(bits(ea[0].scores), bits(eb[0].scores));
    let (pa, pb) = (old.push_state(2).unwrap(), new.push_state(2).unwrap());
    assert_eq!(pa.unwrap(), pb.unwrap());
    assert_eq!(old.wal_watermark(), Some(3));

    // A v1 file is checked with the v1 function: one flipped payload byte
    // in any section is `Corrupt`, at open or (push state) on read.
    for (tag, at) in section_headers(&v1) {
        let len = u64::from_le_bytes(v1[at + 8..at + 16].try_into().unwrap()) as usize;
        if len == 0 {
            continue;
        }
        let mut evil = v1.clone();
        evil[at + 32 + len / 2] ^= 0x10;
        let caught = match Store::from_bytes(&evil) {
            Err(e) => matches!(e, StoreError::Corrupt(_)),
            Ok(store) => matches!(store.push_state(2), Err(StoreError::Corrupt(_))),
        };
        assert!(caught, "flip in section tag {tag} went undetected");
    }

    // A version past the reader's is a format error.
    let mut v3 = bytes;
    v3[8..12].copy_from_slice(&3u32.to_le_bytes());
    assert!(matches!(Store::from_bytes(&v3), Err(StoreError::Format(_))));
}

#[test]
fn compact_rewrites_a_v1_store_as_v2() {
    let store_path = temp_file("v1-compact.store");
    let wal_path = temp_file("v1-compact.wal");
    let _ = std::fs::remove_file(&wal_path);
    std::fs::write(&store_path, restamp_v1(&full_store().to_bytes())).unwrap();
    let mut d = GraphDelta::new();
    d.add_paper(2010);
    d.add_citation(4, 0);
    let (mut wal, _) = DeltaWal::open(&wal_path).unwrap();
    wal.append(3, &d).unwrap();
    drop(wal);
    assert_eq!(compact(&store_path, &wal_path).unwrap().records_folded, 1);
    let bytes = std::fs::read(&store_path).unwrap();
    assert_eq!(bytes[8..12], 2u32.to_le_bytes());
    let expected = rich_network().with_delta(&d).unwrap();
    let back = Store::from_bytes(&bytes).unwrap().to_network().unwrap();
    assert_networks_identical(&expected, &back);
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(&wal_path).ok();
}

#[test]
fn section_count_that_disagrees_with_the_file_is_a_format_error() {
    // No checksum covers the header's section count: a huge count must
    // not be allocated for, and a wrong one must not be believed.
    let mut header = graphstore::snapshot::MAGIC.to_vec();
    header.extend_from_slice(&1u32.to_le_bytes());
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Store::from_bytes(&header),
        Err(StoreError::Format(_))
    ));
    let bytes = full_store().to_bytes();
    for count in [0, u32::MAX] {
        let mut evil = bytes.clone();
        evil[12..16].copy_from_slice(&count.to_le_bytes());
        match Store::from_bytes(&evil) {
            Err(StoreError::Format(msg)) => assert!(msg.contains("declares"), "{msg}"),
            other => panic!("count {count}: expected a Format error, got {other:?}"),
        }
    }
}

#[test]
fn empty_network_roundtrips() {
    let net = NetworkBuilder::new().build().unwrap();
    let bytes = StoreBuilder::new().network(&net).to_bytes();
    let store = Store::from_bytes(&bytes).unwrap();
    assert_eq!(store.n_papers(), 0);
    assert_eq!(store.to_network().unwrap().n_papers(), 0);
    assert!(store.top_k(None, 5).is_none());
}
