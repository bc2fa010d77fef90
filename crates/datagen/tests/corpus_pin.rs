//! Generated corpora are pinned bit for bit.
//!
//! Every ranking figure, benchmark oracle and recorded NDCG in this
//! repository reads a generated corpus, so a change to how the generator
//! stores its state (the attention pool, the builder's remap) must not move
//! a single RNG draw. Each case hashes a corpus — years, every reference
//! row, every author list and every venue slot, each row prefixed by its
//! length — with 64-bit FNV-1a and compares against the value recorded
//! before the generator's pool became run-length encoded. A mismatch means
//! the corpus changed: every downstream number moves with it.

use citegen::{generate, DatasetProfile};
use citegraph::{CitationNetwork, NetworkBuilder};

/// 64-bit FNV-1a over a stream of `u32` words (little-endian bytes).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn row(&mut self, row: &[u32]) {
        self.word(row.len() as u32);
        for &w in row {
            self.word(w);
        }
    }
}

fn corpus_hash(net: &CitationNetwork) -> u64 {
    let mut h = Fnv1a::new();
    let n = net.n_papers() as u32;
    h.word(n);
    for &y in net.years() {
        h.word(y as u32);
    }
    for p in 0..n {
        h.row(net.references(p));
    }
    match net.authors() {
        Some(authors) => {
            h.word(authors.n_authors() as u32);
            for p in 0..n {
                h.row(authors.authors_of(p));
            }
        }
        None => h.word(u32::MAX),
    }
    match net.venues() {
        Some(venues) => {
            h.word(venues.n_venues() as u32);
            for p in 0..n {
                h.word(venues.venue_of(p).unwrap_or(u32::MAX));
            }
        }
        None => h.word(u32::MAX),
    }
    h.0
}

/// `(profile, scale, seed, n_citations, hash)`.
type Pin = (fn() -> DatasetProfile, usize, u64, usize, u64);

/// Two points per paper profile, recorded on the generator with one `u32`
/// per attention event.
#[rustfmt::skip]
const PINS: [Pin; 8] = [
    (DatasetProfile::hepth, 1_000, 1, 15_270, 0x40f2_db10_e2af_017a),
    (DatasetProfile::hepth, 6_000, 7, 92_438, 0x2563_4594_228e_365f),
    (DatasetProfile::aps,   1_000, 3, 13_371, 0xa23c_39b1_3f93_b5e1),
    (DatasetProfile::aps,   6_000, 11, 80_347, 0x3855_04e7_d502_96bc),
    (DatasetProfile::pmc,   1_000, 5, 1_356, 0xb87f_01f4_f929_c4ee),
    (DatasetProfile::pmc,   6_000, 13, 8_737, 0xb5d2_ae1b_92ec_735d),
    (DatasetProfile::dblp,  1_000, 7, 9_522, 0xf759_242b_042c_346c),
    (DatasetProfile::dblp,  6_000, 17, 61_765, 0x20a6_9d12_d799_b3ea),
];

#[test]
fn generated_corpora_match_their_pins() {
    let mut mismatches = Vec::new();
    for (profile, scale, seed, n_citations, hash) in PINS {
        let p = profile().scaled(scale);
        let net = generate(&p, seed);
        let got = (net.n_citations(), corpus_hash(&net));
        if got != (n_citations, hash) {
            mismatches.push(format!(
                "{} scale {scale} seed {seed}: got ({}, {:#018x}), pinned ({n_citations}, {hash:#018x})",
                p.name, got.0, got.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "generated corpora moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn the_hash_sees_every_part_of_a_corpus() {
    let net = generate(&DatasetProfile::dblp().scaled(300), 2);
    let base = corpus_hash(&net);
    // Same corpus, same hash; a different seed moves it.
    assert_eq!(
        corpus_hash(&generate(&DatasetProfile::dblp().scaled(300), 2)),
        base
    );
    assert_ne!(
        corpus_hash(&generate(&DatasetProfile::dblp().scaled(300), 3)),
        base
    );
    // Rebuilt from its parts it hashes the same; without its metadata
    // (same years, same reference rows) it does not.
    let rebuild = |with_metadata: bool| {
        let mut b = NetworkBuilder::new();
        for p in 0..net.n_papers() as u32 {
            if with_metadata {
                let authors = net.authors().unwrap().authors_of(p).to_vec();
                b.add_paper_with_metadata(net.year(p), authors, net.venues().unwrap().venue_of(p));
            } else {
                b.add_paper(net.year(p));
            }
        }
        for p in 0..net.n_papers() as u32 {
            for &r in net.references(p) {
                b.add_citation(p, r).unwrap();
            }
        }
        b.build().unwrap()
    };
    assert_eq!(corpus_hash(&rebuild(true)), base);
    assert_ne!(corpus_hash(&rebuild(false)), base);
}
