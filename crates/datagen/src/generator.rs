//! The citation-network growth process.
//!
//! Papers appear year by year (volumes from
//! [`DatasetProfile::papers_per_year`]). Each new paper draws a reference
//! count from a clamped log-normal and picks each reference target through a
//! three-way mixture that mirrors the reading behaviours the ranking
//! methods model:
//!
//! 1. **attention** — uniform draw from the pool of citation events of the
//!    trailing `attention_window` years. Sampling events (not papers) makes
//!    the choice proportional to *recent citations received*: a
//!    time-restricted preferential attachment (Barabási–Albert restricted to
//!    a window; paper §3).
//! 2. **recency** — pick a publication year with probability
//!    `∝ count(year) · e^{recency_decay · age}`, then a uniform paper within
//!    it (the Eq. 3 mechanism).
//! 3. **background** — preferential attachment on *cumulative* citations
//!    (the classic Barabási–Albert rich-get-richer term), with a small
//!    uniform escape so every paper stays reachable. This is the long
//!    memory that keeps canonical papers earning citations for decades.
//!
//! With probability `topic_affinity` the draw is constrained to the citing
//! paper's topic (resampled up to a bounded number of attempts, then the
//! constraint is dropped — real bibliographies also cross fields).
//!
//! A `burst_fraction` of papers additionally receives *phantom attention
//! events* starting `burst_delay` years after publication: they become
//! popular late, like the 1997 BLAST paper of Fig. 1b. Phantom events only
//! bias target selection; they are never edges.
//!
//! ## The attention pool
//!
//! Components 1 and 3 draw a uniform index `k` into a pool of citation
//! events, so a paper's chance is its event count. Each year's events are
//! kept run-length encoded (`RunPool`): one `(paper, end)` pair per run of
//! consecutive events for one paper, `end` the year's cumulative count, and
//! event `k` is the run whose `end > k`. Phantom events come in runs — a
//! fitness boost or a burst adds tens to thousands of events for one paper
//! at once — so the encoding is what keeps the pool near the size of the
//! edge list: at `dblp().scaled(200_000)` a flat pool holds 29,834,209
//! `u32` events (119 MB) for 2,037,642 citations, the runs are 2,292,415
//! pairs (18 MB), and generation peaks at ~55 MB (VmHWM) for a 43 MB
//! network where the flat pool peaked at ~200 MB. The draws (`k`, and
//! every RNG call) are those of the flat pool, so a seed generates the same
//! corpus either way (`tests/corpus_pin.rs`).

use std::ops::Range;

use citegraph::{CitationNetwork, NetworkBuilder, Year};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profile::DatasetProfile;

/// Generates a network from a profile; convenience wrapper over
/// [`Generator`].
pub fn generate(profile: &DatasetProfile, seed: u64) -> CitationNetwork {
    Generator::new(profile.clone(), seed).run()
}

/// The growth-process driver. Create one per generation run.
#[derive(Debug)]
pub struct Generator {
    profile: DatasetProfile,
    rng: StdRng,
    /// Paper ids per year offset: papers are born in year order with
    /// consecutive ids, so each year is one id range.
    papers_by_year: Vec<Range<u32>>,
    /// Citation events (cited paper ids) per citing-year offset, phantom
    /// events included.
    events_by_year: Vec<RunPool>,
    /// Events over all years (the background component's pool size).
    events_total: usize,
    /// Topic of every paper.
    topics: Vec<u16>,
    /// Burst papers scheduled as `(year_offset, paper)` activations.
    burst_schedule: Vec<Vec<u32>>,
    /// Fitness phantom events scheduled as `(paper, count)` per year.
    fitness_schedule: Vec<Vec<(u32, usize)>>,
    /// Author productivity pool: author ids with repetition (rich get
    /// richer).
    author_events: Vec<u32>,
    next_author: u32,
    author_pool_max: u32,
    /// Per-paper scratch of [`Generator::cite`], kept for its capacity:
    /// the reference list being drawn and the recency year CDF.
    chosen: Vec<u32>,
    recency_cdf: Vec<f64>,
}

impl Generator {
    /// Creates a generator; panics if the profile fails validation.
    pub fn new(profile: DatasetProfile, seed: u64) -> Self {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid profile {}: {e}", profile.name));
        let ny = profile.n_years();
        let author_pool_max =
            ((profile.n_papers as f64 * profile.author_pool_factor).ceil() as u32).max(1);
        Self {
            rng: StdRng::seed_from_u64(seed),
            papers_by_year: vec![0..0; ny],
            events_by_year: vec![RunPool::default(); ny],
            events_total: 0,
            topics: Vec::with_capacity(profile.n_papers),
            burst_schedule: vec![Vec::new(); ny],
            fitness_schedule: vec![Vec::new(); ny],
            author_events: Vec::new(),
            next_author: 0,
            author_pool_max,
            chosen: Vec::new(),
            recency_cdf: Vec::new(),
            profile,
        }
    }

    /// Runs the full growth process and returns the finished network.
    pub fn run(mut self) -> CitationNetwork {
        let volumes = self.profile.papers_per_year();
        let mut builder = NetworkBuilder::with_capacity(
            self.profile.n_papers,
            (self.profile.n_papers as f64 * self.profile.refs_mean) as usize,
        );
        let mut n_existing: u32 = 0;
        for (year_off, &volume) in volumes.iter().enumerate() {
            self.inject_burst_events(year_off, volume);
            for _ in 0..volume {
                let id = self.birth_paper(&mut builder, year_off);
                debug_assert_eq!(id, n_existing);
                n_existing += 1;
                if n_existing > 1 {
                    self.cite(&mut builder, id, year_off);
                }
            }
        }
        // The growth state (attention pool, schedules, author pool) is
        // garbage once the last paper is born: free it before the build
        // lays out the network beside the builder's lists.
        drop(self);
        builder
            .build()
            .expect("generator produces temporally valid citations")
    }

    /// Creates one paper (metadata included) and registers it in the
    /// per-year indexes. Returns its id.
    fn birth_paper(&mut self, builder: &mut NetworkBuilder, year_off: usize) -> u32 {
        let year = self.profile.start_year + year_off as Year;
        let topic = self.rng.gen_range(0..self.profile.n_topics as u16);
        let authors = self.sample_authors();
        let venue = if self.profile.with_venues {
            // Venues are topical: venue id = topic * per_topic + local.
            let local = self.rng.gen_range(0..self.profile.venues_per_topic as u32);
            Some(topic as u32 * self.profile.venues_per_topic as u32 + local)
        } else {
            None
        };
        let id = builder.add_paper_with_metadata(year, authors, venue);
        self.topics.push(topic);
        let papers = &mut self.papers_by_year[year_off];
        if papers.start == papers.end {
            *papers = id..id;
        }
        debug_assert_eq!(papers.end, id, "papers are born with consecutive ids");
        papers.end = id + 1;
        // Intrinsic fitness: log-normal with median 1. High-fitness papers
        // seed phantom attention events at birth ("initial attractiveness"),
        // which the preferential loop then amplifies into persistent
        // popularity — without it, trends churn far faster than in real
        // citation data (cf. the paper's Table 1).
        let fitness = if self.profile.fitness_sigma > 0.0 {
            let u1: f64 = self.rng.gen_range(1e-12..1.0);
            let u2: f64 = self.rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (self.profile.fitness_sigma * z).exp().min(12.0)
        } else {
            1.0
        };
        // The boost lands in the paper's first and second *full* years —
        // citation lag means even a hot paper needs time to be read.
        let phantom = ((fitness - 1.0).max(0.0)
            * self.profile.refs_mean
            * self.profile.fitness_boost)
            .round() as usize;
        if phantom > 0 {
            // Partially visible immediately: a hot paper shows early
            // momentum that observers (and AttRank's attention vector) can
            // pick up before the full wave arrives.
            self.push_events(year_off, id, 1 + phantom / 2);
            if year_off + 1 < self.fitness_schedule.len() {
                self.fitness_schedule[year_off + 1].push((id, phantom));
            }
            if year_off + 2 < self.fitness_schedule.len() {
                self.fitness_schedule[year_off + 2].push((id, phantom / 2));
            }
        }
        // Schedule a delayed burst for a small fraction of papers.
        if self.rng.gen_bool(self.profile.burst_fraction) {
            let start = year_off + self.profile.burst_delay as usize;
            for off in start..(start + self.profile.burst_duration as usize) {
                if off < self.burst_schedule.len() {
                    self.burst_schedule[off].push(id);
                }
            }
        }
        id
    }

    /// Draws this paper's reference list and records the edges.
    fn cite(&mut self, builder: &mut NetworkBuilder, citing: u32, year_off: usize) {
        let n_refs = self.sample_ref_count();
        let mut chosen = std::mem::take(&mut self.chosen);
        chosen.clear();
        let topic = self.topics[citing as usize];
        let mut recency_cdf = std::mem::take(&mut self.recency_cdf);
        self.recency_year_cdf(year_off, &mut recency_cdf);
        for _ in 0..n_refs {
            // A handful of attempts to satisfy topic + dedup constraints;
            // on exhaustion the reference is dropped (papers citing fewer
            // in-corpus works than drawn is normal — corpora are partial).
            let mut target = None;
            for attempt in 0..12 {
                let want_topic = attempt < 8 && self.rng.gen_bool(self.profile.topic_affinity);
                let cand = self.sample_target(citing, year_off, &recency_cdf);
                let Some(cand) = cand else { continue };
                if cand == citing || chosen.contains(&cand) {
                    continue;
                }
                if want_topic && self.topics[cand as usize] != topic {
                    continue;
                }
                target = Some(cand);
                break;
            }
            if let Some(t) = target {
                chosen.push(t);
            }
        }
        for &cited in &chosen {
            builder
                .add_citation(citing, cited)
                .expect("targets are existing, distinct papers");
            self.push_events(year_off, cited, 1);
        }
        self.chosen = chosen;
        self.recency_cdf = recency_cdf;
    }

    /// Adds `n` attention events for `paper` in year `year_off`.
    fn push_events(&mut self, year_off: usize, paper: u32, n: usize) {
        self.events_by_year[year_off].push_n(paper, n);
        self.events_total += n;
    }

    /// One mixture draw; `None` when the chosen component has no candidates
    /// yet (e.g. empty attention window in year 0).
    fn sample_target(&mut self, citing: u32, year_off: usize, recency_cdf: &[f64]) -> Option<u32> {
        let roll: f64 = self.rng.gen();
        let p = &self.profile;
        if roll < p.w_attention {
            self.sample_attention(year_off)
        } else if roll < p.w_attention + p.w_recency {
            self.sample_recency(year_off, recency_cdf)
        } else {
            self.sample_background(citing)
        }
    }

    /// Uniform draw from the citation events of the trailing window
    /// (inclusive of the current year: attention is instantaneous within
    /// the corpus's one-year time resolution).
    fn sample_attention(&mut self, year_off: usize) -> Option<u32> {
        let lo = year_off.saturating_sub(self.profile.attention_window as usize - 1);
        let window = lo..=year_off;
        let total: usize = self.events_by_year[window.clone()]
            .iter()
            .map(RunPool::len)
            .sum();
        if total == 0 {
            return None;
        }
        let k = self.rng.gen_range(0..total);
        Some(nth_event(&self.events_by_year[window], k))
    }

    /// Cumulative year weights `count(year)·e^{decay·age}` for the recency
    /// component into `cdf`, recomputed once per paper (years are few).
    fn recency_year_cdf(&self, year_off: usize, cdf: &mut Vec<f64>) {
        cdf.clear();
        let mut acc = 0.0;
        for y in 0..=year_off {
            let age = (year_off - y) as f64;
            // Citation lag: freshly published work is under-cited until the
            // community has had time to read it (Fig. 1a's delayed peak).
            let lag = 1.0 - self.profile.citation_lag * (-1.2 * age).exp();
            acc += self.papers_by_year[y].len() as f64
                * (self.profile.recency_decay * age).exp()
                * lag;
            cdf.push(acc);
        }
    }

    fn sample_recency(&mut self, year_off: usize, cdf: &[f64]) -> Option<u32> {
        let total = *cdf.last()?;
        if total <= 0.0 {
            return None;
        }
        let x = self.rng.gen::<f64>() * total;
        let year = cdf.partition_point(|&c| c <= x).min(year_off);
        let papers = self.papers_by_year[year].clone();
        if papers.is_empty() {
            return None;
        }
        Some(papers.start + self.rng.gen_range(0..papers.len()) as u32)
    }

    /// Long-memory background: preferential on cumulative citations with a
    /// 20% uniform escape (pure rich-get-richer would freeze the corpus on
    /// its earliest hits; real bibliographies also cite obscure work).
    fn sample_background(&mut self, citing: u32) -> Option<u32> {
        if citing == 0 {
            return None;
        }
        let total = self.events_total;
        if total == 0 || self.rng.gen_bool(0.2) {
            return Some(self.rng.gen_range(0..citing));
        }
        let k = self.rng.gen_range(0..total);
        Some(nth_event(&self.events_by_year, k))
    }

    /// Log-normal reference count, clamped to `[0, max_refs]`.
    fn sample_ref_count(&mut self) -> usize {
        if self.profile.refs_mean <= 0.0 {
            return 0;
        }
        // Box–Muller from two uniforms; StdRng is fast enough here and this
        // avoids a rand_distr dependency.
        let u1: f64 = self.rng.gen_range(1e-12..1.0);
        let u2: f64 = self.rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        // Parameterize so the log-normal's *median* is refs_mean (keeps the
        // clamp from shifting the mean too far for heavy sigmas).
        let x = (self.profile.refs_mean.ln() + self.profile.refs_sigma * z).exp();
        (x.round() as usize).min(self.profile.max_refs)
    }

    /// Authors via rich-get-richer: with probability shrinking as the pool
    /// fills, mint a new author; otherwise repeat a previous author-event
    /// (productivity becomes Zipf-like, as in the real corpora).
    fn sample_authors(&mut self) -> Vec<u32> {
        let mean = self.profile.authors_per_paper;
        if mean <= 0.0 {
            return Vec::new();
        }
        // Geometric-ish count with the requested mean, at least 1.
        let mut count = 1;
        while count < 12 && self.rng.gen_bool(1.0 - 1.0 / mean.max(1.0)) {
            count += 1;
        }
        let mut authors = Vec::with_capacity(count);
        for _ in 0..count {
            let pool_open = self.next_author < self.author_pool_max;
            let mint = pool_open
                && (self.author_events.is_empty()
                    || self.rng.gen_bool(
                        (1.0 - self.next_author as f64 / self.author_pool_max as f64)
                            .clamp(0.05, 1.0),
                    ));
            let a = if mint {
                let a = self.next_author;
                self.next_author += 1;
                a
            } else if !self.author_events.is_empty() {
                self.author_events[self.rng.gen_range(0..self.author_events.len())]
            } else {
                0
            };
            if !authors.contains(&a) {
                authors.push(a);
            }
        }
        for &a in &authors {
            self.author_events.push(a);
        }
        authors
    }

    /// Adds phantom attention events for papers bursting this year and for
    /// scheduled fitness boosts.
    fn inject_burst_events(&mut self, year_off: usize, volume: usize) {
        let boosts = std::mem::take(&mut self.fitness_schedule[year_off]);
        for (paper, count) in boosts {
            self.push_events(year_off, paper, count);
        }
        if self.burst_schedule[year_off].is_empty() {
            return;
        }
        let phantom_per_paper =
            ((self.profile.burst_boost * volume as f64).round() as usize).max(1);
        let bursting = std::mem::take(&mut self.burst_schedule[year_off]);
        for paper in bursting {
            self.push_events(year_off, paper, phantom_per_paper);
        }
    }
}

/// Event `k` of the concatenation of `pools` (`k` below their total).
fn nth_event(pools: &[RunPool], mut k: usize) -> u32 {
    for pool in pools {
        if k < pool.len() {
            return pool.get(k);
        }
        k -= pool.len();
    }
    unreachable!("k < total by construction")
}

/// One year's attention events, run-length encoded: `runs[i] = (paper,
/// end)` holds the events `runs[i-1].end..end`, all for `paper`. Behaves
/// as the flat `Vec<u32>` of events it encodes: [`RunPool::len`] and
/// [`RunPool::get`] read exactly what that vector's `len()` and `[k]`
/// would.
///
/// `get` narrows its search with a coarse index, `buckets[j]` = the run
/// holding event `j·BUCKET`: event `k` lies in `runs[buckets[k / BUCKET]
/// ..= buckets[k / BUCKET + 1]]`, a few runs in one or two cache lines.
/// A plain binary search over a year's runs (up to 222k at
/// `dblp().scaled(200_000)`) made APS generation ~15 % slower than the
/// flat pool's one load; with the index (1.9 MB at that scale) no profile
/// generates slower than it did over the flat pool.
#[derive(Debug, Clone, Default)]
struct RunPool {
    runs: Vec<(u32, u32)>,
    buckets: Vec<u32>,
    /// The last run's `end`, kept beside the runs so that walking the
    /// years reads no run.
    len: u32,
}

/// Events per [`RunPool`] index bucket.
const BUCKET: u32 = 64;

impl RunPool {
    /// Number of events (not runs).
    fn len(&self) -> usize {
        self.len as usize
    }

    /// Appends `n` events for `paper`, extending the last run when it is
    /// the same paper's; `n = 0` appends nothing.
    fn push_n(&mut self, paper: u32, n: usize) {
        if n == 0 {
            return;
        }
        self.len = u32::try_from(self.len() + n).expect("one year's events fit a u32");
        match self.runs.last_mut() {
            Some(last) if last.0 == paper => last.1 = self.len,
            _ => self.runs.push((paper, self.len)),
        }
        // Every bucket whose first event was just appended starts in the
        // last run.
        let last = self.runs.len() as u32 - 1;
        let n_buckets = self.len.div_ceil(BUCKET) as usize;
        self.buckets.resize(n_buckets, last);
    }

    /// The `k`-th event (`k < len`): the paper of the first run whose
    /// `end > k`.
    fn get(&self, k: usize) -> u32 {
        let k = k as u32;
        let bucket = (k / BUCKET) as usize;
        let lo = self.buckets[bucket] as usize;
        let hi = self
            .buckets
            .get(bucket + 1)
            .map_or(self.runs.len(), |&run| run as usize + 1);
        let run = lo + self.runs[lo..hi].partition_point(|&(_, end)| end <= k);
        self.runs[run].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citegraph::stats;
    use proptest::prelude::*;

    fn small_profile() -> DatasetProfile {
        DatasetProfile::hepth().scaled(1500)
    }

    #[test]
    fn generates_requested_paper_count() {
        let net = generate(&small_profile(), 1);
        assert_eq!(net.n_papers(), 1500);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&small_profile(), 7);
        let b = generate(&small_profile(), 7);
        assert_eq!(a.n_papers(), b.n_papers());
        assert_eq!(a.n_citations(), b.n_citations());
        assert_eq!(a.years(), b.years());
        for p in 0..a.n_papers() as u32 {
            assert_eq!(a.references(p), b.references(p));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_profile(), 1);
        let b = generate(&small_profile(), 2);
        assert_ne!(
            a.n_citations(),
            b.n_citations(),
            "distinct seeds should yield distinct networks"
        );
    }

    #[test]
    fn mean_references_in_calibrated_range() {
        let net = generate(&small_profile(), 3);
        let mean = net.n_citations() as f64 / net.n_papers() as f64;
        // Median-13 log-normal truncated by small early years: accept a
        // broad but meaningful band.
        assert!(
            (5.0..25.0).contains(&mean),
            "mean refs {mean} outside calibration band"
        );
    }

    #[test]
    fn years_span_profile_range() {
        let p = small_profile();
        let net = generate(&p, 4);
        assert_eq!(net.first_year(), Some(p.start_year));
        assert_eq!(net.current_year(), Some(p.end_year));
    }

    #[test]
    fn metadata_present_per_profile() {
        let hep = generate(&DatasetProfile::hepth().scaled(400), 5);
        assert!(hep.authors().is_some());
        assert!(hep.venues().is_none() || hep.venues().unwrap().n_venues() == 0);

        let dblp = generate(&DatasetProfile::dblp().scaled(400), 5);
        assert!(dblp.authors().is_some());
        let venues = dblp.venues().expect("DBLP profile generates venues");
        assert!(venues.n_venues() > 0);
        // Every paper got a venue.
        for paper in 0..dblp.n_papers() as u32 {
            assert!(venues.venue_of(paper).is_some());
        }
    }

    #[test]
    fn citation_age_peaks_early_for_hepth() {
        let net = generate(&DatasetProfile::hepth().scaled(3000), 11);
        let dist = stats::citation_age_distribution(&net, 10);
        // Fast field: the first three years hold most of the mass (real
        // hep-th peaks at age 1 with ~28%; age 0 stays small from the
        // citation lag).
        let early: f64 = dist[..3].iter().sum();
        assert!(
            early > 0.5,
            "hep-th early citation mass {early} too small: {dist:?}"
        );
        // And the tail decays.
        assert!(dist[1] > dist[6], "age distribution must decay: {dist:?}");
    }

    #[test]
    fn aps_ages_slower_than_hepth() {
        let hep = generate(&DatasetProfile::hepth().scaled(3000), 13);
        let aps = generate(&DatasetProfile::aps().scaled(3000), 13);
        let dh = stats::citation_age_distribution(&hep, 10);
        let da = stats::citation_age_distribution(&aps, 10);
        let tail_h: f64 = dh[4..].iter().sum();
        let tail_a: f64 = da[4..].iter().sum();
        assert!(
            tail_a > tail_h,
            "APS must hold more old-citation mass (APS {tail_a} vs hep-th {tail_h})"
        );
    }

    #[test]
    fn attention_is_predictive_of_future_citations() {
        // The heart of the substitution argument: papers popular in the
        // recent window must keep collecting citations, so recent counts
        // correlate positively with next-window counts.
        let net = generate(&DatasetProfile::dblp().scaled(4000), 17);
        let split = citegraph::ratio_split(&net, 1.6);
        let recent = citegraph::window::recent_citation_counts(&split.current, 3);
        let n_cur = split.current.n_papers();
        let future_counts = split.future.citation_counts();
        let current_counts = split.current.citation_counts();
        let sti: Vec<f64> = (0..n_cur)
            .map(|p| (future_counts[p] - current_counts[p]) as f64)
            .collect();
        let recent: Vec<f64> = recent.iter().map(|&c| c as f64).collect();
        // Pearson on the raw values is enough for a sign check.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mr, ms) = (mean(&recent), mean(&sti));
        let cov: f64 = recent
            .iter()
            .zip(&sti)
            .map(|(r, s)| (r - mr) * (s - ms))
            .sum();
        let vr: f64 = recent.iter().map(|r| (r - mr).powi(2)).sum();
        let vs: f64 = sti.iter().map(|s| (s - ms).powi(2)).sum();
        let corr = cov / (vr.sqrt() * vs.sqrt()).max(1e-12);
        // Pearson on heavy-tailed counts is a conservative lower bound on
        // the rank correlation the evaluation actually uses.
        assert!(
            corr > 0.2,
            "recent attention must predict short-term impact (corr {corr})"
        );
    }

    #[test]
    fn bursts_create_late_bloomers() {
        // With a hefty burst fraction, some paper must receive more
        // citations in its 3rd+ year than in its first two.
        let mut p = DatasetProfile::hepth().scaled(2500);
        p.burst_fraction = 0.05;
        p.burst_boost = 1.5;
        let net = generate(&p, 23);
        let mut found = false;
        for paper in 0..net.n_papers() as u32 {
            let series = stats::yearly_citations(&net, paper);
            if series.len() < 5 {
                continue;
            }
            let early: u32 = series[..2].iter().map(|&(_, c)| c).sum();
            let late: u32 = series[2..5].iter().map(|&(_, c)| c).sum();
            if late > early.saturating_mul(2) && late >= 10 {
                found = true;
                break;
            }
        }
        assert!(found, "expected at least one delayed-burst paper");
    }

    #[test]
    fn author_pool_respects_factor() {
        let p = DatasetProfile::hepth().scaled(2000);
        let net = generate(&p, 29);
        let table = net.authors().unwrap();
        let ceiling = (p.n_papers as f64 * p.author_pool_factor).ceil() as usize;
        assert!(table.n_authors() <= ceiling + 1);
        assert!(table.n_authors() > ceiling / 4, "pool should fill up");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A run pool reads as the flat event vector it encodes. Papers
        /// come from a small range so consecutive calls often repeat one
        /// (a run extends), `n` is often 0 (nothing appended), and one
        /// call in three is a phantom-sized run that crosses index
        /// buckets.
        #[test]
        fn run_pool_matches_the_flat_model(
            pushes in proptest::collection::vec(
                (0u32..4, 0usize..6, 0usize..3).prop_map(|(paper, n, big)| {
                    (paper, if big == 0 { n * 29 } else { n })
                }),
                0..48,
            ),
        ) {
            let mut pool = RunPool::default();
            let mut flat: Vec<u32> = Vec::new();
            for &(paper, n) in &pushes {
                pool.push_n(paper, n);
                flat.extend(std::iter::repeat_n(paper, n));
                prop_assert_eq!(pool.len(), flat.len());
            }
            for (k, &paper) in flat.iter().enumerate() {
                prop_assert_eq!(pool.get(k), paper);
            }
            // Maximal runs: no two neighbours hold one paper.
            prop_assert!(pool.runs.windows(2).all(|w| w[0].0 != w[1].0 && w[0].1 < w[1].1));
            // The index is tight: bucket j names the run holding event
            // j·BUCKET (a looser bucket still reads right, only slower).
            prop_assert_eq!(pool.buckets.len(), flat.len().div_ceil(BUCKET as usize));
            for (j, &run) in pool.buckets.iter().enumerate() {
                let run = run as usize;
                let start = if run == 0 { 0 } else { pool.runs[run - 1].1 };
                let first = j as u32 * BUCKET;
                prop_assert!(start <= first && first < pool.runs[run].1);
            }
        }

        /// `nth_event` over several years' pools reads their concatenation.
        #[test]
        fn run_pools_concatenate_in_nth_event(
            years in proptest::collection::vec(
                proptest::collection::vec((0u32..3, 0usize..4), 0..8),
                1..5,
            ),
        ) {
            let mut flat: Vec<u32> = Vec::new();
            let pools: Vec<RunPool> = years
                .iter()
                .map(|pushes| {
                    let mut pool = RunPool::default();
                    for &(paper, n) in pushes {
                        pool.push_n(paper, n);
                        flat.extend(std::iter::repeat_n(paper, n));
                    }
                    pool
                })
                .collect();
            for (k, &paper) in flat.iter().enumerate() {
                prop_assert_eq!(nth_event(&pools, k), paper);
            }
        }
    }

    #[test]
    fn run_pool_alternating_papers_keep_one_run_each() {
        let mut pool = RunPool::default();
        pool.push_n(7, 3);
        pool.push_n(7, 0);
        pool.push_n(7, 2); // extends the first run
        pool.push_n(9, 1);
        pool.push_n(7, 1);
        pool.push_n(9, 0);
        assert_eq!(pool.runs, vec![(7, 5), (9, 6), (7, 7)]);
        let flat: Vec<u32> = (0..pool.len()).map(|k| pool.get(k)).collect();
        assert_eq!(flat, vec![7, 7, 7, 7, 7, 9, 7]);
    }

    #[test]
    #[should_panic(expected = "invalid profile")]
    fn invalid_profile_panics() {
        let mut p = DatasetProfile::hepth();
        p.w_uniform = 0.9; // breaks the mixture sum
        let _ = Generator::new(p, 0);
    }
}
