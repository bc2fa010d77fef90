//! Seeded input generation: request shapes and streams per workload, and
//! the metadata-bearing publish batches of the write phases.
//!
//! `--seed` drives only this module. The engines never see the seed —
//! they receive grammar strings and [`GraphDelta`]s, exactly what a
//! caller of the library would hand them.

use std::collections::BTreeSet;

use citegraph::{CitationNetwork, GraphDelta, PaperId, ShardPlan, Year};

/// splitmix64: a few lines, well mixed, and identical on every platform —
/// the benchmark's inputs must not depend on a library's RNG stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻³² for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Zipf(1) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// What a request asks for, as the generator built it. The traced run
/// refines this into the planner's driver classes via `explain`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Unfiltered,
    /// Page 2 of a base shape, through the cursor page 1 minted.
    Page2,
    Seeded,
    /// `year=Y..` — open-ended, recent side.
    Year,
    /// `year=A..B` — a closed span in the middle of the corpus.
    YearSpan,
    VenueYear,
    Author,
    AuthorYear,
    Compare,
}

/// A request shape before cursor minting: the grammar string of page 1
/// and whether the request is that page or the one after it.
#[derive(Debug, Clone)]
pub struct Shape {
    pub text: String,
    pub kind: Kind,
    pub page2: bool,
}

impl Shape {
    fn new(text: String, kind: Kind) -> Self {
        Shape {
            text,
            kind,
            page2: false,
        }
    }

    fn page2(text: String) -> Self {
        Shape {
            text,
            kind: Kind::Page2,
            page2: true,
        }
    }
}

/// One request as the client sends it. For the flat engine a page-2
/// cursor is part of the grammar string; the sharded engine takes it as a
/// second token.
#[derive(Debug, Clone)]
pub struct Request {
    pub text: String,
    pub cursor: Option<String>,
    /// Id of the last hit of page 1 — where the oracle's cursor-skip
    /// resumes (the cursor's own position fields are private).
    pub after: Option<PaperId>,
    pub kind: Kind,
}

/// The shape universe of a workload plus the order its requests arrive
/// in (indices into `shapes`).
pub struct Mix {
    pub shapes: Vec<Shape>,
    pub stream: Vec<u32>,
}

/// Corpus facts the generators draw facet values from.
///
/// The *structure* of every shape — class, page size, year bound — is a
/// fixed function of its position, and only the facet *ids* (venues,
/// authors, seed papers) and the arrival order come from the seed. Cost
/// depends on structure far more than on ids, so two seeds give different
/// inputs of the same weight and the metrics stay comparable across them.
struct Facets<'a> {
    net: &'a CitationNetwork,
    first: Year,
    current: Year,
    n_venues: usize,
}

impl<'a> Facets<'a> {
    fn new(net: &'a CitationNetwork) -> Self {
        Facets {
            net,
            first: net.first_year().expect("corpus is not empty"),
            current: net.current_year().expect("corpus is not empty"),
            n_venues: net.venues().expect("DBLP profile has venues").n_venues(),
        }
    }

    fn venue(&self, rng: &mut Rng) -> u32 {
        rng.below(self.n_venues) as u32
    }

    /// An author drawn through a random paper, so prolific authors are
    /// asked for more often — as on a real author page.
    fn author(&self, rng: &mut Rng) -> u32 {
        let table = self.net.authors().expect("DBLP profile has authors");
        loop {
            let paper = rng.below(self.net.n_papers()) as PaperId;
            let authors = table.authors_of(paper);
            if !authors.is_empty() {
                return *rng.pick(authors);
            }
        }
    }

    /// The year `back` years before the newest, clamped into the corpus.
    fn years_back(&self, back: usize) -> Year {
        (self.current - back as Year).max(self.first)
    }

    /// Three distinct seed papers at or after `from` that each cite at
    /// least a few others, so the personalized top-k is not a tie at zero.
    fn seed_set(&self, rng: &mut Rng, from: PaperId) -> String {
        let n = self.net.n_papers() as PaperId;
        let mut seeds = BTreeSet::new();
        let mut tries = 0;
        while seeds.len() < 3 {
            let p = from + rng.below((n - from) as usize) as PaperId;
            tries += 1;
            if self.net.reference_count(p) >= 3 || tries > 10_000 {
                seeds.insert(p);
            }
        }
        let ids: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
        ids.join("|")
    }
}

/// Shapes grouped into weighted classes.
#[derive(Default)]
struct Classes {
    shapes: Vec<Shape>,
    /// `(weight, shapes of the class)`.
    classes: Vec<(usize, std::ops::Range<usize>)>,
}

impl Classes {
    fn add(&mut self, weight: usize, shapes: Vec<Shape>) {
        let start = self.shapes.len();
        self.shapes.extend(shapes);
        self.classes.push((weight, start..self.shapes.len()));
    }

    /// `n` stream entries, laid out in blocks of [`BLOCK`]: each class
    /// gets its share of every block to within one entry (of the stream
    /// so far exactly, the last class taking the rounding remainder),
    /// handed round-robin to its shapes; the seed only shuffles the order
    /// inside a block. Which shapes a block holds, and how often, is then
    /// the same under every seed — and a block is a `query_batch` round,
    /// whose cost depends on the duplicates and distinct seed sets in it.
    fn into_mix(self, n: usize, rng: &mut Rng) -> Mix {
        let total: usize = self.classes.iter().map(|c| c.0).sum();
        // Entries of class `i` among the first `upto` of the stream.
        let share = |i: usize, upto: usize| -> usize {
            let of = |j: usize| upto * self.classes[j].0 / total;
            if i + 1 == self.classes.len() {
                upto - (0..i).map(of).sum::<usize>()
            } else {
                of(i)
            }
        };
        let mut stream = Vec::with_capacity(n);
        while stream.len() < n {
            let start = stream.len();
            let end = (start + BLOCK).min(n);
            for (i, (_, shapes)) in self.classes.iter().enumerate() {
                for served in share(i, start)..share(i, end) {
                    stream.push((shapes.start + served % shapes.len()) as u32);
                }
            }
            for i in (start + 1..end).rev() {
                stream.swap(i, start + rng.below(i - start + 1));
            }
        }
        Mix {
            shapes: self.shapes,
            stream,
        }
    }
}

/// Positions per block of a class-weighted stream (see
/// [`Classes::into_mix`]), and members of one `query_batch` round.
pub const BLOCK: usize = 64;

const METHODS: [&str; 3] = ["", "method=cc,", "method=pagerank,"];

/// `read_mixed`: 64 shapes — few enough for the 256-entry plan cache and
/// the personalization cache — whose cost is the selection kernels over
/// full score vectors.
pub fn read_mixed(net: &CitationNetwork, n: usize, rng: &mut Rng) -> Mix {
    let f = Facets::new(net);
    let mut c = Classes::default();
    c.add(
        25,
        METHODS
            .iter()
            .flat_map(|m| [10, 25, 100].map(|k| Shape::new(format!("{m}k={k}"), Kind::Unfiltered)))
            .collect(),
    );
    c.add(
        15,
        METHODS
            .iter()
            .flat_map(|m| [10, 25].map(|k| Shape::page2(format!("{m}k={k}"))))
            .collect(),
    );
    c.add(
        20,
        (0..32)
            .map(|_| {
                let seeds = f.seed_set(rng, 0);
                Shape::new(format!("method=pagerank,k=10,seed={seeds}"), Kind::Seeded)
            })
            .collect(),
    );
    c.add(
        20,
        (0..8)
            .map(|i| {
                let (m, k) = (METHODS[i % 3], [10, 25][i % 2]);
                let y = f.years_back(1 + 4 * i);
                Shape::new(format!("{m}k={k},year={y}.."), Kind::Year)
            })
            .collect(),
    );
    c.add(
        10,
        (0..6)
            .map(|i| {
                let mut vs = BTreeSet::new();
                while vs.len() < 3 {
                    vs.insert(f.venue(rng));
                }
                let vs: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
                let y = f.years_back(2 + 3 * i);
                Shape::new(
                    format!("k=10,year={y}..,venue={}", vs.join("|")),
                    Kind::VenueYear,
                )
            })
            .collect(),
    );
    let y = f.years_back(5);
    c.add(
        10,
        vec![
            Shape::new("vs=cc,k=10".into(), Kind::Compare),
            Shape::new("vs=pagerank,k=25".into(), Kind::Compare),
            Shape::new(
                format!("method=cc,vs=attrank,k=10,year={y}.."),
                Kind::Compare,
            ),
        ],
    );
    c.into_mix(n, rng)
}

/// `read_selective`: `universe` distinct selective shapes (16× the plan
/// cache at full scale) drawn under Zipf(1), so per-request bookkeeping —
/// parse, fingerprint, plan-cache hit/miss/evict, pin, page build, cursor
/// encode — outweighs the select. Of every ten consecutive ranks, four
/// are `author=A`, two `author=A,year=Y..`, three `venue=V,year=Y..` and
/// one page 2 of `venue=V`, so the popular head has the same make-up
/// under every seed.
pub fn read_selective(net: &CitationNetwork, universe: usize, n: usize, rng: &mut Rng) -> Mix {
    const PATTERN: [Kind; 10] = [
        Kind::Author,
        Kind::VenueYear,
        Kind::Author,
        Kind::AuthorYear,
        Kind::VenueYear,
        Kind::Author,
        Kind::Page2,
        Kind::AuthorYear,
        Kind::VenueYear,
        Kind::Author,
    ];
    let f = Facets::new(net);
    let mut seen = BTreeSet::new();
    let mut shapes = Vec::with_capacity(universe);
    for rank in 0..universe {
        let block = rank / PATTERN.len();
        let year = f.years_back(block % 25);
        // Redraw the ids until the shape is new; a small corpus can run
        // out of distinct ones, and then a repeat is as good.
        for attempt in 0.. {
            let shape = match PATTERN[rank % PATTERN.len()] {
                Kind::Author => Shape::new(format!("k=10,author={}", f.author(rng)), Kind::Author),
                Kind::AuthorYear => Shape::new(
                    format!("k=10,year={year}..,author={}", f.author(rng)),
                    Kind::AuthorYear,
                ),
                Kind::VenueYear => Shape::new(
                    format!(
                        "k={},year={year}..,venue={}",
                        [10, 25][block % 2],
                        f.venue(rng)
                    ),
                    Kind::VenueYear,
                ),
                _ => Shape::page2(format!(
                    "k={},venue={}",
                    [5, 10, 25, 50][block % 4],
                    f.venue(rng)
                )),
            };
            if seen.insert((shape.text.clone(), shape.page2)) || attempt == 50 {
                shapes.push(shape);
                break;
            }
        }
    }
    let zipf = Zipf::new(shapes.len());
    let stream = (0..n).map(|_| zipf.sample(rng) as u32).collect();
    Mix { shapes, stream }
}

/// `read_sharded`: the same grammar through the scatter-gather path —
/// mostly tail-window year filters that prune all shards but the last.
pub fn read_sharded(net: &CitationNetwork, plan: &ShardPlan, n: usize, rng: &mut Rng) -> Mix {
    let f = Facets::new(net);
    let mut c = Classes::default();
    // Years only the tail shard overlaps: the filter prunes every other.
    let mut tail_years: Vec<Year> = (f.first..=f.current)
        .filter(|&y| plan.overlapping(Some(y), None) == [plan.tail()])
        .collect();
    if tail_years.is_empty() {
        tail_years.push(f.current);
    }
    c.add(
        45,
        tail_years
            .iter()
            .flat_map(|y| {
                [10, 25, 50, 100].map(|k| Shape::new(format!("k={k},year={y}.."), Kind::Year))
            })
            .collect(),
    );
    c.add(
        20,
        (0..24)
            .map(|i| {
                Shape::new(
                    format!(
                        "k=10,year={}..,venue={}",
                        f.years_back(i % 12),
                        f.venue(rng)
                    ),
                    Kind::VenueYear,
                )
            })
            .collect(),
    );
    c.add(
        15,
        [10, 25]
            .iter()
            .flat_map(|k| {
                [
                    Shape::new(format!("k={k}"), Kind::Unfiltered),
                    Shape::page2(format!("k={k}")),
                ]
            })
            .collect(),
    );
    let mid = (f.first + f.current) / 2;
    c.add(
        10,
        (0..8)
            .map(|i| {
                let lo = mid + i;
                Shape::new(
                    format!("k=10,year={lo}..{}", lo + 2 + i % 4),
                    Kind::YearSpan,
                )
            })
            .collect(),
    );
    // Seeds from the newer half: their reference cones are deep, so the
    // personalized top-k is strictly positive in the shards that serve it.
    let half = (net.n_papers() / 2) as PaperId;
    c.add(
        10,
        (0..8)
            .map(|_| Shape::new(format!("k=10,seed={}", f.seed_set(rng, half)), Kind::Seeded))
            .collect(),
    );
    c.into_mix(n, rng)
}

/// `write_durable`'s read side: the pages of a listing site — recent
/// venue and author pages, the newest years, now and then the overall
/// top-k.
pub fn listing_pages(net: &CitationNetwork, n: usize, rng: &mut Rng) -> Mix {
    let f = Facets::new(net);
    let mut c = Classes::default();
    // Several recent years, so a venue's band is a few hundred papers
    // whichever venue the seed picks.
    let recent = f.years_back(6);
    // Every venue, each as often as the next: a venue page costs what its
    // band holds, bands differ by orders of magnitude, and the median
    // request of this mix is a venue page — drawing a few venues would
    // make it a different request under every seed.
    c.add(
        45,
        (0..f.n_venues)
            .map(|v| Shape::new(format!("k=10,year={recent}..,venue={v}"), Kind::VenueYear))
            .collect(),
    );
    c.add(
        30,
        (0..96)
            .map(|_| Shape::new(format!("k=10,author={}", f.author(rng)), Kind::Author))
            .collect(),
    );
    c.add(
        22,
        (0..4)
            .map(|i| {
                let y = f.years_back(i / 2);
                Shape::new(format!("{}k=25,year={y}..", METHODS[i % 2]), Kind::Year)
            })
            .collect(),
    );
    // Few of these: one costs a hundred of the others, and the workload's
    // seconds belong to its writes.
    c.add(
        3,
        METHODS[..2]
            .iter()
            .map(|m| Shape::new(format!("{m}k=10"), Kind::Unfiltered))
            .collect(),
    );
    c.into_mix(n, rng)
}

/// The page an ingest is timed to: this year's papers, best first.
pub fn visible_page(net: &CitationNetwork) -> Shape {
    let year = net.current_year().expect("corpus is not empty");
    Shape::new(format!("k=10,year={year}.."), Kind::Year)
}

/// Probe shapes covering every flat driver class the planner picks on
/// this corpus, appended to the traced stream so each per-class metric
/// has samples on every workload. (Mask algebra is never the cheapest
/// shape here: no author has the ~800 papers it takes to beat the bands.)
pub fn flat_probes(net: &CitationNetwork, per_class: usize, rng: &mut Rng) -> Vec<Shape> {
    let f = Facets::new(net);
    let mut shapes = Vec::new();
    for i in 0..per_class {
        let m = METHODS[i % 3];
        shapes.push(Shape::new(format!("{m}k=10"), Kind::Unfiltered));
        shapes.push(Shape::page2(format!("{m}k=10")));
        shapes.push(Shape::new(
            format!("method=pagerank,k=10,seed={}", f.seed_set(rng, 0)),
            Kind::Seeded,
        ));
        shapes.push(Shape::new(
            format!("{m}k=10,year={}..", f.years_back(1 + 2 * i)),
            Kind::Year,
        ));
        shapes.push(Shape::new(
            format!("k=10,year={}..,venue={}", f.years_back(i), f.venue(rng)),
            Kind::VenueYear,
        ));
        shapes.push(Shape::new(
            format!("k=10,author={}", f.author(rng)),
            Kind::Author,
        ));
        shapes.push(Shape::new(format!("{m}vs=cc,k=10"), Kind::Compare));
    }
    shapes
}

/// Probe shapes covering every sharded query shape.
pub fn sharded_probes(
    net: &CitationNetwork,
    plan: &ShardPlan,
    per_class: usize,
    rng: &mut Rng,
) -> Vec<Shape> {
    let mix = read_sharded(net, plan, 0, rng);
    let mut by_kind: Vec<(Kind, Vec<Shape>)> = Vec::new();
    for shape in mix.shapes.into_iter().filter(|s| !s.page2) {
        match by_kind.iter_mut().find(|(k, _)| *k == shape.kind) {
            Some((_, group)) => group.push(shape),
            None => by_kind.push((shape.kind, vec![shape])),
        }
    }
    by_kind
        .iter()
        .flat_map(|(_, group)| (0..per_class).map(|i| group[i % group.len()].clone()))
        .collect()
}

/// One publish batch: `papers` new current-year papers carrying venue
/// and author metadata, each citing `refs` distinct existing papers with
/// the recency bias of `citegen::publish_delta` (~70% from the newest
/// tenth of the corpus, ~20% from the newest half, the rest anywhere).
/// `n0` is the paper count of the state the batch lands on.
pub fn publish_batch(
    net: &CitationNetwork,
    n0: usize,
    papers: usize,
    refs: usize,
    rng: &mut Rng,
) -> GraphDelta {
    let f = Facets::new(net);
    let n_authors = net.authors().expect("DBLP profile has authors").n_authors();
    assert!(refs <= n0 / 10, "corpus too small for {refs} distinct refs");
    let mut delta = GraphDelta::new();
    for _ in 0..papers {
        let authors: BTreeSet<u32> = (0..1 + rng.below(3))
            .map(|_| rng.below(n_authors) as u32)
            .collect();
        let offset = delta.add_paper_with_metadata(
            f.current,
            authors.into_iter().collect(),
            Some(f.venue(rng)),
        );
        let id = (n0 + offset) as PaperId;
        let mut cited = BTreeSet::new();
        while cited.len() < refs {
            let window = match rng.below(10) {
                0..=6 => n0 / 10,
                7..=8 => n0 / 2,
                _ => n0,
            };
            cited.insert((n0 - 1 - rng.below(window)) as PaperId);
        }
        for c in cited {
            delta.add_citation(id, c);
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let (mut a, mut b) = (Rng::new(9), Rng::new(9));
        for _ in 0..1000 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
        }
        let mut r = Rng::new(1);
        assert!((0..10_000).all(|_| r.below(7) < 7));
        assert!((0..10_000).all(|_| (0.0..1.0).contains(&r.unit())));
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
    }

    #[test]
    fn zipf_follows_one_over_rank() {
        let zipf = Zipf::new(100);
        let mut rng = Rng::new(3);
        let mut counts = [0usize; 100];
        let n = 200_000;
        for _ in 0..n {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // H(100) ≈ 5.187: rank 0 carries ~19.3% of the mass, rank 9 a
        // tenth of that.
        let share0 = counts[0] as f64 / n as f64;
        assert!((share0 - 0.1928).abs() < 0.01, "rank 0 share {share0}");
        let ratio = counts[0] as f64 / counts[9] as f64;
        assert!((ratio - 10.0).abs() < 1.5, "rank0/rank9 = {ratio}");
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn every_block_of_a_weighted_stream_holds_each_class_s_share() {
        let classes = || {
            let mut c = Classes::default();
            let author = |t: &str| Shape::new(t.into(), Kind::Author);
            c.add(75, vec![author("a"), author("b")]);
            c.add(25, vec![Shape::new("c".into(), Kind::Year)]);
            c
        };
        let n = 2 * BLOCK + 40;
        let mix = classes().into_mix(n, &mut Rng::new(4));
        assert_eq!(mix.stream.len(), n);
        for block in mix.stream.chunks(BLOCK) {
            let count = |shape: u32| block.iter().filter(|&&s| s == shape).count();
            assert!(count(2).abs_diff(block.len() / 4) <= 1);
            assert!(count(0).abs_diff(count(1)) <= 1);
        }
        let of_c = mix.stream.iter().filter(|&&s| s == 2).count();
        assert_eq!(of_c, n - n * 75 / 100);
        // Another seed: the same make-up block by block, in another order.
        let other = classes().into_mix(n, &mut Rng::new(5));
        assert_ne!(mix.stream, other.stream);
        for (a, b) in mix.stream.chunks(BLOCK).zip(other.stream.chunks(BLOCK)) {
            let (mut a, mut b) = (a.to_vec(), b.to_vec());
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn zipf_single_rank() {
        let zipf = Zipf::new(1);
        assert_eq!(zipf.sample(&mut Rng::new(5)), 0);
    }
}
