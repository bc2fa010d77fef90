//! Filtered, faceted, paginated top-k queries over epoch snapshots.
//!
//! This is the read-side workload layer: the consumers of a citation
//! ranker (scholar search, venue dashboards, author pages) never ask for
//! a *global* top-k — they ask for "the top papers at this venue since
//! 2015", page by page, and they want two methods' verdicts side by
//! side. A [`Query`] expresses exactly that; a [`QueryEngine`] executes
//! it against one pinned [`EpochSnapshot`] so results are immune to
//! concurrent publishes.
//!
//! # Query grammar
//!
//! Compact `key=value` lists, mirroring the [`MethodSpec`] style:
//!
//! ```text
//! venue=3,k=10
//! method=attrank,author=42,year=1995..2000,k=5
//! method=attrank,vs=cc,venue=3|7,k=20
//! method=pagerank,seed=17|91,k=10
//! k=10,cursor=c1-3fe51eb851eb851f-2a-9e3779b97f4a7c15
//! ```
//!
//! `year` accepts `A..B`, `A..`, `..B` or a single year. `venue` and
//! `author` accept `|`-separated id lists (OR within the facet class,
//! AND across classes). `vs` names a second registered method for
//! [`QueryEngine::compare`]. Unknown keys, duplicates and malformed
//! values are typed errors naming the offending key, like the
//! method-spec parser.
//!
//! `seed` is a `|`-separated **paper** id list that switches the ranking
//! to the personalized solve: teleport mass concentrates uniformly on
//! the seed papers instead of spreading over the corpus, so the top-k is
//! "papers most related to the seeds" under the method's damped walk.
//! Unlike the facet lists, `seed=` is *strict* — the list is a teleport
//! distribution, where a repeated id would silently double a seed's
//! weight — so duplicates (and at serve time, out-of-range ids) are
//! rejected with a typed [`QueryError::BadValue`] naming the offending
//! id. Only methods with a damping factor ([`MethodSpec::damping`]:
//! `pagerank`, `attrank`, `citerank`) can serve seeded queries; others
//! fail with [`QueryError::SeedUnsupported`]. Solves are served through
//! the engine-wide [`crate::PersonalizationCache`], so a repeated seed
//! set against an unchanged epoch costs no solve work at all.
//!
//! # Planner
//!
//! Every predicate compiles to an id set/range with an *exact*
//! cardinality — venue and author predicates to prebuilt posting lists
//! (`citegraph::VenueTable::papers_at`, `AuthorTable::papers_of`), year
//! bounds to a contiguous id range via binary search on the time-sorted
//! id space. Because the posting lists are ascending over the same
//! time-sorted ids, a *composite* (facet, year-range) predicate probes
//! one contiguous band of the posting list ([`citegraph::band`]) — the
//! year bound costs two binary searches, not a residual check. The
//! planner compares three execution shapes by **measured cost** (the
//! constants come from the `index_vs_scan` bench group):
//!
//! * **banded postings** — the year-banded posting lists of the most
//!   selective facet class drive (venue bands through the block walk
//!   below, author bands gathered for [`sparsela::top_k_filtered`]);
//!   other classes demote to per-candidate residual checks,
//! * **range scan** — one contiguous id range through the block walk,
//!   with facet residuals,
//! * **mask algebra** — the whole predicate tree (OR within classes,
//!   AND across, year range) pushed down to word-wide [`IdMask`] set
//!   operations, the mask built per query from the posting lists and
//!   the year range; no residuals remain.
//!
//! Two kernels serve every plan. Every frozen score vector carries
//! per-block maxima over its ids and over each venue's posting list
//! ([`sparsela::BlockMaxima`], both built with the epoch snapshot or the
//! personalization-cache entry), and [`sparsela::top_k_pruned_into`]
//! walks an id range — the whole vector, a year window, either one
//! resumed behind a cursor, with or without facet residuals — or one band
//! per venue feeding one selection. The candidate lists of author bands
//! and of the mask go to [`sparsela::top_k_filtered_into`]. Without a
//! residual the walk reads only the blocks that can reach the page,
//! counting what lies behind the cursor by blocks; a page the heads of its
//! year cuts hold reads no block at all — an id range's, from the head of
//! its first year (the first [`sparsela::HEAD_LEN`] ids, in order, of the
//! papers from that year on), and a venue band union's, from the head of
//! each venue's list from that year on, each built by the first page that
//! reads it: it is a slice of those heads, and its count is the range (or
//! the bands) less the head ids behind the cursor. Such plans are priced
//! by blocks, not by ids. A residual needs every id
//! (or posting) tested for the match count, so a range under a venue or
//! author residual is priced per id, and only the blocks that can reach
//! the page are offered to the selection. [`QueryEngine::explain`]
//! surfaces the chosen driver, its exact (or bounded) candidate count,
//! the estimated cost, and the surviving residual checks.
//!
//! Planning and selection work on a *partition* of the id space —
//! network, first global id, score slice with its block maxima, score
//! scale: `price_partition` prices one partition, `select_partition`
//! runs the chosen driver over it.
//!
//! # One core, one serve path
//!
//! Both public engines are facades over one private serving core: methods
//! × partitions over one partition plan, with one read path (plan cache,
//! personalization cache, cost model, admission, scratch pool) and one
//! metrics bundle. A [`QueryEngine`] is the core with one partition per
//! method; a [`ShardedEngine`](crate::ShardedEngine) the core with one
//! method over its shards. Every read entry point of both is a thin
//! wrapper over the core's one serve function on a pinned partition set:
//! a method's snapshot as one partition at id 0 with seed share 1.0
//! (`x * 1.0` is bit-exact), or a shard set. Identity and fingerprint,
//! cursor check, seeded solves, plan ([`PlanCache`]), admission, selection
//! per partition, the k-way merge and the page run in that order into a
//! [`PageBuf`] through a [`QueryScratch`]; owned-page entry points borrow
//! the scratch from one bounded pool, and a batch is `serve_batch` over
//! one scratch. Between queries an engine remembers plans and seeded
//! solves ([`crate::PersonalizationCache`]), and nothing else anything: a
//! [`QueryScratch`] is warm capacity, and caches nothing.
//!
//! # Cursors
//!
//! Pagination is offset-free: a [`Cursor`] embeds the epoch it was
//! minted on, the `(score, id)` position of the last returned item, and
//! a fingerprint of the query's normalized identity (method, year bounds,
//! deduplicated facet lists, sorted seeds: the words a plan-cache entry
//! is keyed by). Page `n+1` selects the best items
//! *strictly after* that position in the total order
//! ([`sparsela::cmp_score_desc`]: descending score, ties by ascending
//! id, NaN last), so pages never overlap and never skip — even under
//! heavy score ties. A cursor presented to a snapshot from a different
//! epoch fails with [`QueryError::StaleCursor`] (results silently
//! shifting under a client mid-pagination is the bug this type system
//! exists to prevent); hold the `Arc<EpochSnapshot>` (or re-issue page 1)
//! to paginate consistently across publishes. The sharded engine uses
//! this same type, token, decoder and error, with the pinned shard set's
//! epoch key in the epoch's place.

use std::borrow::Borrow;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

use citegraph::{
    AuthorId, CitationNetwork, GraphDelta, PaperId, SeedError, SeedPersonalization, VenueId, Year,
};
use obsv::MetricsRegistry;
use sparsela::{
    cmp_score_desc, merge_k_sorted_into, top_k_filtered_into, top_k_pruned_into, BlockWalk,
    Frontier, IdMask, MergeScratch, Scores, Segment, BLOCK_LEN, POSTING_BLOCK_LEN,
};

use crate::admission::{
    AdmissionController, AdmissionPolicy, AdmissionStats, AdmissionTicket, CostedQuery,
};
use crate::engine::{
    EngineError, EpochSnapshot, IngestReport, Ranking, RankingEngine, RerankPolicy,
};
use crate::metrics::{Layout, ScratchTally, ServingMetrics};
use crate::personalization::{CacheConfig, CacheStats, CachedRanking, PersonalizationCache};
use crate::spec::{MethodSpec, SpecError};

/// A filtered, paginated top-k request.
///
/// All facets are optional; an empty query is the global top-k. Parse
/// one from the compact grammar (see the module docs) or build it
/// directly.
#[derive(Debug, Clone)]
pub struct Query {
    /// Registered method to rank by (`None` = the engine's default).
    pub method: Option<String>,
    /// Second registered method for [`QueryEngine::compare`].
    pub vs: Option<String>,
    /// Page size (default 10).
    pub k: usize,
    /// Earliest admissible publication year (inclusive).
    pub year_min: Option<Year>,
    /// Latest admissible publication year (inclusive).
    pub year_max: Option<Year>,
    /// Restrict to papers at *any* of these venues (empty = no venue
    /// restriction).
    pub venues: Vec<VenueId>,
    /// Restrict to papers (co-)written by *any* of these authors (empty
    /// = no author restriction).
    pub authors: Vec<AuthorId>,
    /// Personalization seed papers: when non-empty, rank by the seeded
    /// solve (teleport mass on these papers) instead of the global
    /// ranking. Strict — no duplicates, ids must exist at serve time.
    pub seeds: Vec<PaperId>,
    /// Resume marker from a previous [`Page::next`].
    pub cursor: Option<Cursor>,
}

impl Default for Query {
    fn default() -> Self {
        Self {
            method: None,
            vs: None,
            k: 10,
            year_min: None,
            year_max: None,
            venues: Vec::new(),
            authors: Vec::new(),
            seeds: Vec::new(),
            cursor: None,
        }
    }
}

/// Field by field — `serve_batch`'s duplicate memo compares every member
/// with every earlier one, 2,016 comparisons in a 64-member round. An id
/// list compares length first and its contents only when non-empty: an
/// empty `Vec` that never allocated holds a dangling pointer, and `==` on
/// two of them is a `memcmp` that costs ~130 ns through it (a derived
/// `==` measured 146–153 ns a comparison on distinct `k=10,author=A`
/// queries, this one 6.6 ns).
impl PartialEq for Query {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive, so a new field fails to compile until it is compared.
        let Query {
            method,
            vs,
            k,
            year_min,
            year_max,
            venues,
            authors,
            seeds,
            cursor,
        } = self;
        fn same(a: &[u32], b: &[u32]) -> bool {
            a.len() == b.len() && (a.is_empty() || a == b)
        }
        *k == other.k
            && *year_min == other.year_min
            && *year_max == other.year_max
            && *cursor == other.cursor
            && same(venues, &other.venues)
            && same(authors, &other.authors)
            && same(seeds, &other.seeds)
            && *method == other.method
            && *vs == other.vs
    }
}

impl Query {
    /// `true` when no facet restricts the id space (a cursor is not a
    /// facet — it restricts the *position*, not the candidate set).
    fn is_unfiltered(&self) -> bool {
        self.year_min.is_none()
            && self.year_max.is_none()
            && self.venues.is_empty()
            && self.authors.is_empty()
    }
}

/// Joins facet ids with the grammar's `|` OR separator.
fn join_ids(ids: &[u32]) -> String {
    ids.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("|")
}

/// Parses a `|`-separated facet id list; at least one id required.
fn parse_ids(key: &str, value: &str) -> Result<Vec<u32>, QueryError> {
    value
        .split('|')
        .map(|p| {
            p.trim().parse().map_err(|_| QueryError::BadValue {
                key: key.into(),
                value: value.into(),
            })
        })
        .collect()
}

/// Parses the strict `seed=` id list. Unlike the facet lists (where a
/// repeated id is a legal restatement of the same OR set and silently
/// dedups), the seed list is a teleport *distribution*: a duplicate
/// would double that seed's weight, so it is rejected with a typed
/// error naming the offending id. Out-of-range ids are caught at serve
/// time against the snapshot's paper count (also as
/// [`QueryError::BadValue`] naming the id).
fn parse_seed_ids(value: &str) -> Result<Vec<PaperId>, QueryError> {
    let ids = parse_ids("seed", value)?;
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    if let Some(pair) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return Err(QueryError::BadValue {
            key: "seed".into(),
            value: format!("{} (duplicate seed id)", pair[0]),
        });
    }
    Ok(ids)
}

impl fmt::Display for Query {
    /// Canonical grammar form; `parse ∘ display` is the identity.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(m) = &self.method {
            write!(f, "method={m},")?;
        }
        if let Some(v) = &self.vs {
            write!(f, "vs={v},")?;
        }
        write!(f, "k={}", self.k)?;
        if !self.seeds.is_empty() {
            write!(f, ",seed={}", join_ids(&self.seeds))?;
        }
        match (self.year_min, self.year_max) {
            (None, None) => {}
            (lo, hi) => {
                write!(f, ",year=")?;
                if let Some(lo) = lo {
                    write!(f, "{lo}")?;
                }
                write!(f, "..")?;
                if let Some(hi) = hi {
                    write!(f, "{hi}")?;
                }
            }
        }
        if !self.venues.is_empty() {
            write!(f, ",venue={}", join_ids(&self.venues))?;
        }
        if !self.authors.is_empty() {
            write!(f, ",author={}", join_ids(&self.authors))?;
        }
        if let Some(c) = &self.cursor {
            write!(f, ",cursor={c}")?;
        }
        Ok(())
    }
}

impl FromStr for Query {
    type Err = QueryError;

    fn from_str(s: &str) -> Result<Self, QueryError> {
        let mut q = Query::default();
        let mut seen: Vec<&str> = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=').ok_or_else(|| QueryError::Syntax {
                message: format!("expected key=value, got {part:?}"),
            })?;
            let (key, value) = (key.trim(), value.trim());
            if seen.contains(&key) {
                return Err(QueryError::DuplicateKey { key: key.into() });
            }
            let bad = |k: &str, v: &str| QueryError::BadValue {
                key: k.into(),
                value: v.into(),
            };
            match key {
                "method" => q.method = Some(value.to_string()),
                "vs" => q.vs = Some(value.to_string()),
                "k" => q.k = value.parse().map_err(|_| bad(key, value))?,
                "year" => {
                    let (lo, hi) = match value.split_once("..") {
                        Some((lo, hi)) => (lo.trim(), hi.trim()),
                        None => (value, value), // single year = degenerate range
                    };
                    q.year_min = match lo {
                        "" => None,
                        y => Some(y.parse().map_err(|_| bad(key, value))?),
                    };
                    q.year_max = match hi {
                        "" => None,
                        y => Some(y.parse().map_err(|_| bad(key, value))?),
                    };
                }
                "venue" => q.venues = parse_ids(key, value)?,
                "author" => q.authors = parse_ids(key, value)?,
                "seed" => q.seeds = parse_seed_ids(value)?,
                "cursor" => q.cursor = Some(value.parse()?),
                other => {
                    return Err(QueryError::UnknownKey { key: other.into() });
                }
            }
            seen.push(key);
        }
        Ok(q)
    }
}

/// Why a query (or a cursor) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Malformed grammar (missing `=`, bad cursor shape, …).
    Syntax {
        /// What went wrong.
        message: String,
    },
    /// A key the grammar does not know.
    UnknownKey {
        /// The offending key.
        key: String,
    },
    /// A key given more than once.
    DuplicateKey {
        /// The repeated key.
        key: String,
    },
    /// A value that failed to parse for its key.
    BadValue {
        /// The key.
        key: String,
        /// The unparsable text.
        value: String,
    },
    /// `method`/`vs` names a method the engine does not serve.
    UnknownMethod {
        /// The requested name.
        name: String,
        /// The methods actually registered.
        known: Vec<String>,
    },
    /// A venue facet against a corpus with no venue metadata.
    NoVenueData,
    /// An author facet against a corpus with no author metadata.
    NoAuthorData,
    /// A venue id past the corpus's venue id space.
    UnknownVenue {
        /// The requested venue.
        id: VenueId,
        /// The number of known venues.
        n_venues: usize,
    },
    /// An author id past the corpus's author id space.
    UnknownAuthor {
        /// The requested author.
        id: AuthorId,
        /// The number of known authors.
        n_authors: usize,
    },
    /// The cursor was minted on a different epoch than the snapshot
    /// answering the query: the ranking it walked no longer exists here.
    StaleCursor {
        /// Epoch the cursor was minted on.
        cursor_epoch: u64,
        /// Epoch of the snapshot asked to resume it.
        current_epoch: u64,
    },
    /// The cursor was minted for a different method/filter combination
    /// than this query (resuming it would silently change result sets).
    CursorMismatch,
    /// `seed=` personalization against a method without a damping
    /// factor — only the push family (`pagerank`, `attrank`,
    /// `citerank`) defines the personalized linear system.
    SeedUnsupported {
        /// The method that cannot serve personalized rankings.
        method: String,
    },
    /// [`QueryEngine::compare`] needs `vs=<method>` in the query.
    MissingCompareMethod,
    /// Compare mode was asked to join two engines whose partition plans
    /// disagree (different shard starts): their global ids name different
    /// papers, so a row-wise join would be meaningless.
    PlanMismatch,
    /// A method spec failed while building the engine set.
    Spec(SpecError),
    /// Two specs share one method name (queries could not address them).
    DuplicateMethod {
        /// The colliding canonical name.
        name: String,
    },
    /// Admission control shed the query: even the degraded shape (k
    /// clamped, indexed fallback) did not fit under the policy ceiling.
    /// Backpressure, not failure — retry when load drains.
    Overloaded {
        /// Estimated cost of the (possibly degraded) query, in ns.
        cost_ns: f64,
        /// Reserved in-flight estimated cost at decision time, in ns.
        inflight_ns: u64,
        /// The policy ceiling that was exceeded, in ns.
        limit_ns: f64,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Syntax { message } => write!(f, "bad query syntax: {message}"),
            QueryError::UnknownKey { key } => write!(f, "unknown query key {key:?}"),
            QueryError::DuplicateKey { key } => {
                write!(f, "query key {key:?} given more than once")
            }
            QueryError::BadValue { key, value } => {
                write!(f, "cannot parse {value:?} for query key {key:?}")
            }
            QueryError::UnknownMethod { name, known } => {
                write!(
                    f,
                    "method {name:?} not served (known: {})",
                    known.join(", ")
                )
            }
            QueryError::NoVenueData => write!(f, "corpus has no venue metadata"),
            QueryError::NoAuthorData => write!(f, "corpus has no author metadata"),
            QueryError::UnknownVenue { id, n_venues } => {
                write!(f, "venue {id} out of range ({n_venues} venues)")
            }
            QueryError::UnknownAuthor { id, n_authors } => {
                write!(f, "author {id} out of range ({n_authors} authors)")
            }
            QueryError::StaleCursor {
                cursor_epoch,
                current_epoch,
            } => write!(
                f,
                "stale cursor: minted on epoch {cursor_epoch}, current epoch is \
                 {current_epoch} (pin the snapshot or restart from page 1)"
            ),
            QueryError::CursorMismatch => write!(
                f,
                "cursor was minted for a different method/filter combination"
            ),
            QueryError::SeedUnsupported { method } => write!(
                f,
                "method {method:?} has no damping factor: seed= serves only \
                 the push family (pagerank, attrank, citerank)"
            ),
            QueryError::MissingCompareMethod => {
                write!(f, "compare needs vs=<method> in the query")
            }
            QueryError::PlanMismatch => {
                write!(f, "compare needs both engines on the same shard plan")
            }
            QueryError::Spec(e) => write!(f, "method spec: {e}"),
            QueryError::DuplicateMethod { name } => {
                write!(f, "two specs share the method name {name:?}")
            }
            QueryError::Overloaded {
                cost_ns,
                inflight_ns,
                limit_ns,
            } => write!(
                f,
                "overloaded: estimated query cost {cost_ns:.0} ns exceeds the \
                 admission ceiling {limit_ns:.0} ns ({inflight_ns} ns in flight); \
                 retry when load drains"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<SpecError> for QueryError {
    fn from(e: SpecError) -> Self {
        QueryError::Spec(e)
    }
}

/// An offset-free pagination marker.
///
/// Encodes the epoch it was minted on, the `(score, id)` position of the
/// last item served, and a fingerprint of the `(method, filters)` it
/// belongs to. Serializes to a compact token (`Display`/`FromStr`) for
/// transport through the CLI / an API boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    epoch: u64,
    score_bits: u64,
    last_id: PaperId,
    fingerprint: u64,
}

impl Cursor {
    /// Mints the cursor resuming strictly after `(score, last_id)` on the
    /// serving generation `epoch`, bound to the filter identity
    /// `fingerprint`.
    pub(crate) fn after(epoch: u64, score: f64, last_id: PaperId, fingerprint: u64) -> Self {
        Cursor {
            epoch,
            score_bits: score.to_bits(),
            last_id,
            fingerprint,
        }
    }

    /// The serving generation this cursor paginates: the snapshot's epoch
    /// on a [`QueryEngine`], the pinned set's
    /// [`ShardSnapshots::epoch_key`](crate::ShardSnapshots::epoch_key) on
    /// a [`ShardedEngine`](crate::ShardedEngine). Queries against any
    /// other generation fail with [`QueryError::StaleCursor`] — which is
    /// also what keeps one engine's token from resuming on the other.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The id of the last item the previous page served.
    pub fn last_id(&self) -> PaperId {
        self.last_id
    }

    /// Encodes the transport token into a caller-provided buffer and
    /// returns it as `&str` — the allocation-free counterpart of
    /// `to_string()`. The buffer is cleared first; once its capacity
    /// covers the longest token seen (at most 70 bytes), repeat encodes
    /// perform zero heap allocations.
    pub fn encode_into<'a>(&self, buf: &'a mut String) -> &'a str {
        use fmt::Write as _;
        buf.clear();
        write!(buf, "{self}").expect("writing a cursor token to a String cannot fail");
        buf.as_str()
    }
}

impl fmt::Display for Cursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{:x}-{:x}-{:x}-{:x}",
            self.epoch, self.score_bits, self.last_id, self.fingerprint
        )
    }
}

impl FromStr for Cursor {
    type Err = QueryError;

    fn from_str(s: &str) -> Result<Self, QueryError> {
        let bad = || QueryError::BadValue {
            key: "cursor".into(),
            value: s.into(),
        };
        let body = s.strip_prefix('c').ok_or_else(bad)?;
        let mut parts = body.split('-');
        // Only the spelling `Display` writes is accepted (lowercase hex,
        // no sign, no leading zeros), so a token names one cursor and a
        // cursor one token.
        let mut field = || {
            parts
                .next()
                .filter(|p| {
                    p.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
                        && (*p == "0" || !p.starts_with('0'))
                })
                .and_then(|p| u64::from_str_radix(p, 16).ok())
                .ok_or_else(bad)
        };
        let (epoch, score_bits, last_id, fingerprint) = (field()?, field()?, field()?, field()?);
        if parts.next().is_some() || last_id > PaperId::MAX as u64 {
            return Err(bad());
        }
        Ok(Cursor {
            epoch,
            score_bits,
            last_id: last_id as PaperId,
            fingerprint,
        })
    }
}

/// One page of query results.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// The method that produced the ranking.
    pub method: String,
    /// The epoch the page was served from.
    pub epoch: u64,
    /// The hits, best first (at most `k`).
    pub items: Vec<Hit>,
    /// Total candidates matching the filters at (and after) the cursor
    /// position — `items.len() + what later pages would return`.
    pub matched: usize,
    /// Cursor for the next page; `None` when this page exhausts the
    /// result set (or `k` was 0).
    pub next: Option<Cursor>,
}

/// One ranked result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// The paper.
    pub id: PaperId,
    /// Its score under the query's method, in this epoch.
    pub score: f64,
    /// Its publication year.
    pub year: Year,
    /// Its venue, when the corpus has venue metadata.
    pub venue: Option<VenueId>,
}

/// What drives candidate enumeration for a query — the execution shape
/// the planner judged cheapest under the measured cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryDriver {
    /// No facets, no cursor: the streaming selection over all scores.
    Unfiltered,
    /// Scan of a contiguous id range (year bounds, or a cursor with no
    /// facets).
    IdRange {
        /// First id scanned.
        start: PaperId,
        /// One past the last id scanned.
        end: PaperId,
    },
    /// Year-banded venue posting lists (OR over the listed venues —
    /// disjoint by construction, so no dedup), walked by blocks.
    VenueBands {
        /// The venues, deduplicated.
        venues: Vec<VenueId>,
        /// Total banded posting length (exact selectivity).
        len: usize,
    },
    /// Year-banded author posting lists (OR over the listed authors —
    /// deduplicated at execution when lists can overlap).
    AuthorBands {
        /// The authors, deduplicated.
        authors: Vec<AuthorId>,
        /// Total banded posting length (exact up to cross-author
        /// overlap).
        len: usize,
    },
    /// The whole predicate pushed down to [`IdMask`] set algebra: OR
    /// within facet classes (posting lists inserted into one mask), AND
    /// across them and the year range, evaluated word-wide. No residual
    /// checks remain.
    MaskAlgebra {
        /// Upper bound on surviving candidates (the tightest class's
        /// banded selectivity).
        candidates: usize,
    },
}

impl QueryDriver {
    /// Every shape's name — its candidate-table row and its `driver`
    /// metric label — in [`Self::index`] order.
    pub(crate) const NAMES: [&'static str; 5] = [
        "unfiltered",
        "id_range",
        "venue_bands",
        "author_bands",
        "mask_algebra",
    ];

    /// This shape's position in [`Self::NAMES`].
    pub(crate) fn index(&self) -> usize {
        match self {
            Self::Unfiltered => 0,
            Self::IdRange { .. } => 1,
            Self::VenueBands { .. } => 2,
            Self::AuthorBands { .. } => 3,
            Self::MaskAlgebra { .. } => 4,
        }
    }

    /// This shape's name.
    pub(crate) fn name(&self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

/// Planner cost constants: estimated nanoseconds per unit of work for
/// each execution shape. Absolute values matter less than the ratios —
/// they decide the crossover points between shapes.
///
/// The baked defaults ([`CostModel::default`]) are fit to the
/// `index_vs_scan` bench group at the 200k-paper scale on the baseline
/// machine (see the README cost table), and every engine starts from
/// them: construction reads no file and no environment variable, so the
/// same corpus plans the same way wherever the process was started.
/// Re-fitting to another machine is explicit — `repro bench-check` prints
/// the constants fitted to the bench report it just read
/// (`repro_bench::benchcheck::fit_cost_model`) beside the baked ones, and
/// [`QueryEngine::set_cost_model`] installs a model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Per id of a contiguous range under a facet residual, which the
    /// block walk tests id by id for its count — the residual rows measure
    /// ~1.34–1.36 ns/id at 100k–200k ids on the baseline machine. A range
    /// with no residual is priced by blocks in these units too.
    pub scan_per_id: f64,
    /// Per banded posting-list candidate (gathered score access,
    /// residual checks, selection) — `author_posting_200k` over the
    /// busiest author's band.
    pub band_per_candidate: f64,
    /// Extra per-candidate cost of sorting + deduplicating the union of
    /// overlapping posting bands (multi-author OR).
    pub dedup_per_candidate: f64,
    /// Per posting entry inserted while materializing an [`IdMask`].
    pub mask_insert: f64,
    /// Per 64-bit word per mask set operation (AND/OR sweep, ones scan).
    pub mask_per_word: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            scan_per_id: 1.3,
            band_per_candidate: 2.4,
            dedup_per_candidate: 4.8,
            mask_insert: 2.2,
            mask_per_word: 0.6,
        }
    }
}

/// The planner's verdict for a query against one snapshot: which
/// predicate drives, how many candidates it enumerates, its estimated
/// cost, and which predicates remain as per-candidate residual checks.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The driving predicate.
    pub driver: QueryDriver,
    /// Ids the driver enumerates — exact for range and band drivers
    /// (their cardinality is read off the index), an upper bound for
    /// the mask driver (overlap is only known after evaluation).
    pub candidates: usize,
    /// Estimated execution cost in nanoseconds under the measured
    /// constants — what the planner minimized over the viable shapes.
    pub cost_ns: f64,
    /// Residual predicate names, applied per enumerated candidate
    /// (`"year"`, `"venue"`, `"author"`, `"cursor"`).
    pub residuals: Vec<&'static str>,
    /// Every shape the planner priced — the chosen driver plus the
    /// rejected candidates and their costs, so explain output (and the
    /// admission controller's indexed-fallback search) can see the
    /// decision margin instead of just the winner.
    pub table: Vec<PlanCandidate>,
}

/// One priced row of the planner's candidate table.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCandidate {
    /// Shape name (`"unfiltered"`, `"id_range"`, `"venue_bands"`,
    /// `"author_bands"`, `"mask_algebra"`).
    pub driver: &'static str,
    /// The shape's estimated execution cost in nanoseconds.
    pub cost_ns: f64,
    /// Whether the planner picked this shape.
    pub chosen: bool,
}

impl QueryPlan {
    /// The cheapest indexed (non-scan) rejected candidate's cost: what
    /// admission control degrades a residual scan to. `None` when no
    /// indexed shape was priced (facet-free queries).
    pub fn indexed_alternative_ns(&self) -> Option<f64> {
        self.table
            .iter()
            .filter(|c| !c.chosen && c.driver != "id_range" && c.driver != "unfiltered")
            .map(|c| c.cost_ns)
            .min_by(f64::total_cmp)
    }

    /// Whether this plan is a residual scan: an id-range enumeration
    /// with facet predicates re-checked per candidate — the shape whose
    /// cost scales with the year span, not the selectivity.
    pub fn is_residual_scan(&self) -> bool {
        matches!(self.driver, QueryDriver::IdRange { .. })
            && self
                .residuals
                .iter()
                .any(|r| *r == "venue" || *r == "author")
    }
}

/// Maps a seed-set validation failure onto the grammar's typed
/// [`QueryError::BadValue`], naming the offending id (the parser
/// already rejects duplicates; this catches out-of-range ids against
/// the serving snapshot and defends the rest in depth).
fn seed_error_to_query(e: SeedError) -> QueryError {
    let value = match e {
        SeedError::Duplicate(id) => format!("{id} (duplicate seed id)"),
        SeedError::OutOfRange { id, n_papers } => {
            format!("{id} (out of range: corpus has {n_papers} papers)")
        }
        other => other.to_string(),
    };
    QueryError::BadValue {
        key: "seed".into(),
        value,
    }
}

/// Deduplicates a facet id list into `out` (cleared first), preserving
/// first-occurrence order — a repeated id in an OR list is legal and
/// means the same set. Warm storage, so normalizing a repeat query
/// allocates nothing.
fn dedup_ids_into(ids: &[u32], out: &mut Vec<u32>) {
    out.clear();
    for &id in ids {
        if !out.contains(&id) {
            out.push(id);
        }
    }
}

/// Counters and occupancy of a [`PlanCache`], cumulative since
/// construction. `hits + misses + stale` is the total lookup count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups served from the cache (same query, same generation).
    pub hits: u64,
    /// Lookups for a fingerprint the cache had never seen (or held for
    /// another query: a fingerprint collision).
    pub misses: u64,
    /// Lookups that found the query but on an older generation — a
    /// publish invalidated the entry, so it was dropped and re-planned.
    /// A stale entry is *never* served (the plan was computed against
    /// the previous epoch's network).
    pub stale: u64,
    /// Entries dropped to admit a new plan at capacity (LRU order).
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// `(partition index, plan)` of each partition a query reads.
type PartitionPlans = Arc<[(usize, QueryPlan)]>;

/// One cached plan set: the identity of the query it was planned for
/// ([`QueryScratch::set_identity`]) and the view generation it was planned
/// against, an LRU recency stamp, and the shared plans.
struct PlanCacheEntry {
    identity: Box<[u32]>,
    generation: u64,
    stamp: u64,
    plans: PartitionPlans,
}

/// The mutable half of a [`PlanCache`]: fingerprint-keyed entries plus
/// the LRU clock.
pub(crate) struct PlanCacheInner {
    entries: HashMap<(u64, bool), PlanCacheEntry>,
    tick: u64,
    capacity: usize,
}

/// Plan-cache capacity every engine starts with
/// ([`QueryEngine::set_plan_cache_capacity`] overrides).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// A bounded cache of planner verdicts keyed by (normalized query
/// fingerprint, cursor presence), each entry holding the plans of the
/// partitions that survived the prune, pinned to the generation it was
/// planned against (a snapshot's epoch, a shard set's epoch key).
///
/// Invalidation is **lazy**: publishes advance the generation, so a
/// lookup after a publish finds the entry's recorded generation differs,
/// drops it, and re-plans — no publish hook, no cross-thread
/// coordination beyond the lookup lock. The fingerprint covers method,
/// facet lists, year bounds and seeds (page size `k` deliberately
/// excluded — the plan is k-independent), and cursor *presence* is part
/// of the key because the planner shapes cursor-resumed queries
/// differently. A hit also compares the stored query identity, so two
/// queries colliding on one fingerprint each get their own plans, and
/// returns the shared plans without allocating.
pub struct PlanCache {
    pub(crate) inner: Mutex<PlanCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(PlanCacheInner {
                entries: HashMap::new(),
                tick: 0,
                capacity: capacity.max(1),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Counters and occupancy.
    pub fn stats(&self) -> PlanCacheStats {
        let entries = self.lock().entries.len();
        PlanCacheStats {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
            stale: self.stale.load(AtomicOrdering::Relaxed),
            evictions: self.evictions.load(AtomicOrdering::Relaxed),
            entries,
        }
    }

    /// Drops every cached plan (counters keep accumulating). Called
    /// when the cost model changes — cached verdicts priced under the
    /// old constants would otherwise survive.
    pub fn clear(&self) {
        self.lock().entries.clear();
    }

    /// The entries; a lock poisoned by a panic mid-update is recovered by
    /// dropping every plan (each is one planner call away).
    fn lock(&self) -> MutexGuard<'_, PlanCacheInner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut inner = poisoned.into_inner();
            inner.entries.clear();
            self.inner.clear_poison();
            inner
        })
    }

    /// The plans for the query `identity` names, under `(fingerprint,
    /// resumed)` on `generation`: cached when the entry holds this
    /// identity on this generation, else `plan()`'s, cached. Planning
    /// errors are returned as-is and never cached — an invalid facet must
    /// keep failing typed.
    fn get_or_plan(
        &self,
        fp: (u64, bool),
        generation: u64,
        identity: &[u32],
        plan: impl FnOnce() -> Result<Vec<(usize, QueryPlan)>, QueryError>,
    ) -> Result<PartitionPlans, QueryError> {
        {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let outcome = match inner.entries.get_mut(&fp) {
                Some(entry) if *entry.identity != *identity => &self.misses,
                // A publish moved the generation on: the cached plans were
                // computed against networks that no longer serve.
                Some(entry) if entry.generation != generation => &self.stale,
                Some(entry) => {
                    entry.stamp = tick;
                    self.hits.fetch_add(1, AtomicOrdering::Relaxed);
                    return Ok(Arc::clone(&entry.plans));
                }
                None => &self.misses,
            };
            outcome.fetch_add(1, AtomicOrdering::Relaxed);
            inner.entries.remove(&fp);
        }
        let planned: PartitionPlans = plan()?.into();
        let mut inner = self.lock();
        let tick = inner.tick;
        if inner.entries.len() >= inner.capacity && !inner.entries.contains_key(&fp) {
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            {
                inner.entries.remove(&victim);
                self.evictions.fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
        inner.entries.insert(
            fp,
            PlanCacheEntry {
                identity: identity.into(),
                generation,
                stamp: tick,
                plans: Arc::clone(&planned),
            },
        );
        Ok(planned)
    }
}

/// Reusable buffers for the allocation-free serve path of both engines.
///
/// Every `Vec`, `IdMask` and heap the serve path needs — per-partition
/// selection, per-partition runs, the k-way merge — lives here and is
/// cleared (never shrunk) between queries, so a steady-state query —
/// same shape, warm scratch — performs **zero heap allocations** (pinned
/// by the `alloc_free` test harness). One scratch serves one thread;
/// create one per worker and thread it through
/// [`QueryEngine::query_with`] (the owned-page entry points borrow one
/// from the engine's pool).
///
/// A scratch is warm capacity and nothing more: every query rebuilds
/// what it reads — its facet lists, its author-band candidates, its
/// mask — so no query can see another's contents, whatever epoch or
/// engine each ran on. On an instrumented stack it also carries that
/// stack's per-query counts for the queries it served, which only the
/// stack's metrics read.
#[derive(Default)]
pub struct QueryScratch {
    /// Deduplicated venue list of the current query
    /// ([`Self::set_facets`]).
    venues: Vec<VenueId>,
    /// Deduplicated author list of the current query.
    authors: Vec<AuthorId>,
    /// Candidate ids of an author-band or mask page, residuals applied
    /// (the selection kernel's input).
    candidates: Vec<PaperId>,
    /// The current venue page's bands: each venue's band as positions in
    /// its posting list.
    bands: Vec<(VenueId, std::ops::Range<usize>)>,
    /// Selection kernel output buffer: the partition-local ids
    /// [`select_partition`] picked, best first.
    select: Vec<u32>,
    /// Facet mask storage.
    mask: IdMask,
    /// Second mask for AND-composition during mask builds.
    mask_tmp: IdMask,
    /// The query's seeds, sorted ([`Self::set_identity`]).
    seeds: Vec<PaperId>,
    /// The query's normalized identity ([`Self::set_identity`]).
    identity: Vec<u32>,
    /// One `(score, global id)` run per partition read.
    runs: Vec<Vec<(f64, PaperId)>>,
    /// K-way merge heap storage.
    merge: MergeScratch,
    /// The merged page.
    merged: Vec<(f64, PaperId)>,
    /// This scratch's per-query counts on the last instrumented stack it
    /// served.
    tally: Option<ScratchTally>,
}

impl QueryScratch {
    /// An empty scratch; the first query sizes every buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads the query's facet lists, deduplicated (a repeated id in an
    /// OR list names the same set), for [`price_partition`] and
    /// [`select_partition`] to read — once per query however many
    /// partitions it touches.
    pub(crate) fn set_facets(&mut self, q: &Query) {
        dedup_ids_into(&q.venues, &mut self.venues);
        dedup_ids_into(&q.authors, &mut self.authors);
    }

    /// Writes the query's normalized identity as words — method label,
    /// year bounds, the deduplicated facet lists ([`Self::set_facets`]),
    /// the seeds sorted (a seed set is a set: `seed=3|1` and `seed=1|3`
    /// walk one personalized ranking) — into `identity`, and returns its
    /// [`fingerprint`]. The identity is what a [`PlanCache`] entry must
    /// equal, not only hash to, before its plans serve; the fingerprint is
    /// what binds a [`Cursor`] to the result set it walks. Page size and
    /// `vs` are left out: changing `k` mid-pagination is legitimate, and
    /// compare mode joins onto the same primary ranking. One flat buffer,
    /// so storing it is one allocation and comparing it one `memcmp` (over
    /// real memory: it is never empty).
    fn set_identity(&mut self, method: &str, q: &Query) -> u64 {
        let Self {
            venues,
            authors,
            seeds,
            identity,
            ..
        } = self;
        seeds.clear();
        seeds.extend_from_slice(&q.seeds);
        seeds.sort_unstable();
        identity.clear();
        identity.push(method.len() as u32);
        identity.extend(method.bytes().map(u32::from));
        for year in [q.year_min, q.year_max] {
            identity.extend(year.map_or([0, 0], |y| [1, y as u32]));
        }
        for list in [&*venues, &*authors, &*seeds] {
            identity.push(list.len() as u32);
            identity.extend_from_slice(list);
        }
        fingerprint(identity)
    }
}

/// FNV-style hash of a query identity ([`QueryScratch::set_identity`]): one
/// xor and one multiply per word. Tokens live for one epoch and are never
/// persisted, so the hash is an in-process detail. Two identities that
/// name one set — `venue=3|3` and `venue=3` — hash alike; any other
/// difference in the lists (`venue=3` → `venue=3|5`) changes the words,
/// so a resumed cursor fails typed instead of silently changing result
/// sets. The hash is not keyed: a collision between two identities is
/// possible, and a plan-cache hit compares the identity itself.
fn fingerprint(identity: &[u32]) -> u64 {
    identity.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Warm scratches an engine keeps between queries: enough for a handful
/// of concurrent readers; a burst beyond it builds cold ones and drops
/// them.
pub(crate) const SCRATCH_POOL_CAP: usize = 4;

/// The warm scratches behind the owned-page entry points; the lock is
/// held for a pop or a push, never across a query.
#[derive(Default)]
pub(crate) struct ScratchPool {
    pub(crate) warm: Mutex<Vec<QueryScratch>>,
}

impl ScratchPool {
    /// Runs `f` with a pooled scratch (a cold one when none is warm),
    /// returning it afterwards unless the pool is full.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut QueryScratch) -> R) -> R {
        // A pooled scratch is plain buffers with no invariant among them,
        // so a lock poisoned by a panic elsewhere is safe to take over.
        let pooled = self
            .warm
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let mut scratch = pooled.unwrap_or_default();
        let result = f(&mut scratch);
        let mut pool = self.warm.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
        result
    }
}

/// A reusable result page: the allocation-free counterpart of [`Page`].
///
/// The serve path of both engines writes each page into a `PageBuf` (the
/// caller's, under [`QueryEngine::query_with`]), reusing the item vector
/// and the method/cursor-token strings, so a steady-state query
/// allocates nothing while the caller still sees the exact fields a
/// [`Page`] carries.
#[derive(Debug, Default)]
pub struct PageBuf {
    method: String,
    epoch: u64,
    items: Vec<Hit>,
    matched: usize,
    next: Option<Cursor>,
    token: String,
}

impl PageBuf {
    /// An empty page buffer; the first query sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The method that produced the ranking.
    pub fn method(&self) -> &str {
        &self.method
    }

    /// The epoch the page was served from.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The hits, best first (at most `k`).
    pub fn items(&self) -> &[Hit] {
        &self.items
    }

    /// Total candidates matching the filters at (and after) the cursor
    /// position.
    pub fn matched(&self) -> usize {
        self.matched
    }

    /// Cursor for the next page; `None` when this page exhausts the
    /// result set.
    pub fn next(&self) -> Option<Cursor> {
        self.next
    }

    /// The next-page cursor's transport token, encoded into this
    /// buffer's own scratch string ([`Cursor::encode_into`]) — no
    /// allocation once the token capacity is warm.
    pub fn next_token(&mut self) -> Option<&str> {
        match self.next {
            None => None,
            Some(c) => Some(c.encode_into(&mut self.token)),
        }
    }

    /// Converts into an owned [`Page`], moving the item vector out (the
    /// buffer stays usable but cold).
    pub fn take_page(&mut self) -> Page {
        Page {
            method: std::mem::take(&mut self.method),
            epoch: self.epoch,
            items: std::mem::take(&mut self.items),
            matched: self.matched,
            next: self.next,
        }
    }

    /// Clones into an owned [`Page`], keeping the buffer warm.
    pub fn to_page(&self) -> Page {
        Page {
            method: self.method.clone(),
            epoch: self.epoch,
            items: self.items.clone(),
            matched: self.matched,
            next: self.next,
        }
    }
}

/// Plans `q` against the network of one snapshot under a [`CostModel`]:
/// the two halves of planning a one-partition engine — validate the facet
/// ids, then price the shapes. Pure function of the predicate
/// cardinalities and the model; separated from execution so tests (and
/// the CLI's explain output) can inspect planner decisions directly.
/// `forbid_scan` is the admission controller's degradation knob (see
/// [`price_partition`]).
fn plan_shaped(
    net: &CitationNetwork,
    q: &Query,
    cost: &CostModel,
    forbid_scan: bool,
) -> Result<QueryPlan, QueryError> {
    validate_facets(std::iter::once(net), q)?;
    let mut facets = QueryScratch::new();
    facets.set_facets(q);
    let resumed = q.cursor.is_some();
    Ok(price_partition(net, q, &facets, resumed, cost, forbid_scan))
}

/// Typed facet validation against a partition **set** as a whole: a
/// typed error beats a silent empty page for ids outside the corpus's id
/// spaces. Ids are checked against the *largest* facet space any
/// partition carries (a tail metadata delta grows the venue/author
/// spaces in the tail shard only), and missing metadata is an error only
/// when *no* partition has the table. A flat engine passes its one
/// network; a partition whose own table is smaller — or absent — just
/// contributes no matches for those ids ([`price_partition`]).
fn validate_facets<'a>(
    nets: impl Iterator<Item = &'a CitationNetwork> + Clone,
    q: &Query,
) -> Result<(), QueryError> {
    if !q.venues.is_empty() {
        let sizes = nets
            .clone()
            .filter_map(|net| Some(net.venues()?.n_venues()));
        let n_venues = sizes.max().ok_or(QueryError::NoVenueData)?;
        if let Some(&id) = q.venues.iter().find(|&&v| v as usize >= n_venues) {
            return Err(QueryError::UnknownVenue { id, n_venues });
        }
    }
    if !q.authors.is_empty() {
        let sizes = nets.filter_map(|net| Some(net.authors()?.n_authors()));
        let n_authors = sizes.max().ok_or(QueryError::NoAuthorData)?;
        if let Some(&id) = q.authors.iter().find(|&&a| a as usize >= n_authors) {
            return Err(QueryError::UnknownAuthor { id, n_authors });
        }
    }
    Ok(())
}

/// Venue `v`'s posting list in this partition — empty when the partition
/// was carved before venue metadata existed or `v` lies past its local
/// table (set-wide validation already ran; see [`validate_facets`]).
fn venue_postings(net: &CitationNetwork, v: VenueId) -> &[PaperId] {
    net.venues()
        .filter(|t| (v as usize) < t.n_venues())
        .map_or(&[], |t| t.papers_at(v))
}

/// Author `a`'s posting list in this partition, tolerant like
/// [`venue_postings`].
fn author_postings(net: &CitationNetwork, a: AuthorId) -> &[PaperId] {
    net.authors()
        .filter(|t| (a as usize) < t.n_authors())
        .map_or(&[], |t| t.papers_of(a))
}

/// Price of a range scan with no facet residual — the plans
/// [`select_partition`] runs through the block walk — in `scan_per_id`
/// units, so a re-fit model moves it with every other scan: about four
/// ids' worth per block in range (its maximum is read by the pre-pass and
/// again by the walk) plus the blocks a page reads and the selection over
/// them, about 4096 ids' worth (fitted on the 200k-paper `cc` vector at
/// `k = 10`: 21.6 µs priced, 12–24 µs measured; 8.2 µs priced for a
/// 36k-id year window, 7–9 µs measured). Independent of `k` and of a
/// cursor's depth — plans are cached without either — and never above
/// `len` ids, the price of a range under a residual, which is what a
/// range too short to prune costs.
fn pruned_scan_ns(len: usize, cost: &CostModel) -> f64 {
    let by_blocks = 4.0 * len.div_ceil(BLOCK_LEN) as f64 + 4096.0;
    (len as f64).min(by_blocks) * cost.scan_per_id
}

/// Price of a venue-band walk with no author residual — `len` postings
/// over `bands` venue bands — in `band_per_candidate` units, the way
/// [`pruned_scan_ns`] prices a range: about four postings' worth per
/// block the bands span (each band adds at most one partial block) plus
/// the blocks a page reads and the selection over them, about 1024
/// postings' worth (fitted on the 200k-paper vectors at `k = 10`: a
/// ~900-posting band reads 2.6–3.0 µs). Never above the gather's `len`
/// postings, so a band too short to prune prices as it always did.
fn pruned_band_ns(len: usize, bands: usize, cost: &CostModel) -> f64 {
    let by_blocks = 4.0 * (len.div_ceil(POSTING_BLOCK_LEN) + bands) as f64 + 1024.0;
    (len as f64).min(by_blocks) * cost.band_per_candidate
}

/// Prices every execution shape of `q` over **one partition** (a flat
/// engine's corpus or one shard's band) and picks the cheapest. `facets`
/// holds the query's deduplicated facet lists
/// ([`QueryScratch::set_facets`]), already validated set-wide; `resumed`
/// says whether a cursor frontier applies.
/// Infallible: a facet id with no postings here prices a zero-length
/// band, which wins and selects nothing — the partition contributes no
/// matches.
///
/// When `forbid_scan` is set (admission's degradation knob), the
/// id-range scan shape is priced (for the candidate table) but never
/// chosen — the plan is the cheapest *indexed* shape instead. Faceted
/// queries always have one (the mask shape is always priced), which is
/// the only context the flag is used in.
pub(crate) fn price_partition(
    net: &CitationNetwork,
    q: &Query,
    facets: &QueryScratch,
    resumed: bool,
    cost: &CostModel,
    forbid_scan: bool,
) -> QueryPlan {
    let (venues, authors) = (&facets.venues, &facets.authors);
    let year_range = net.id_range_for_years(q.year_min, q.year_max);
    let year_len = (year_range.end - year_range.start) as usize;

    if q.is_unfiltered() {
        return if resumed {
            // Position-only restriction: one block walk.
            let cost_ns = pruned_scan_ns(year_len, cost);
            QueryPlan {
                driver: QueryDriver::IdRange {
                    start: year_range.start,
                    end: year_range.end,
                },
                candidates: year_len,
                cost_ns,
                residuals: vec!["cursor"],
                table: vec![PlanCandidate {
                    driver: "id_range",
                    cost_ns,
                    chosen: true,
                }],
            }
        } else {
            let cost_ns = pruned_scan_ns(net.n_papers(), cost);
            QueryPlan {
                driver: QueryDriver::Unfiltered,
                candidates: net.n_papers(),
                cost_ns,
                residuals: Vec::new(),
                table: vec![PlanCandidate {
                    driver: "unfiltered",
                    cost_ns,
                    chosen: true,
                }],
            }
        };
    }

    // Exact banded selectivities: each facet's posting list cut to the
    // year id range by two binary searches (`citegraph::band`).
    let vband: Option<usize> = (!venues.is_empty()).then(|| {
        venues
            .iter()
            .map(|&v| citegraph::band(venue_postings(net, v), &year_range).len())
            .sum()
    });
    let aband: Option<usize> = (!authors.is_empty()).then(|| {
        authors
            .iter()
            .map(|&a| citegraph::band(author_postings(net, a), &year_range).len())
            .sum()
    });
    // Full (unbanded) posting mass: what a mask build has to insert.
    let mask_inserts: usize = venues
        .iter()
        .map(|&v| venue_postings(net, v).len())
        .chain(authors.iter().map(|&a| author_postings(net, a).len()))
        .sum();

    // Candidate shapes, costed under the measured constants. Every
    // priced shape lands in the table; `best` tracks the cheapest
    // *eligible* one (the scan shape is ineligible under `forbid_scan`).
    let mut table: Vec<PlanCandidate> = Vec::with_capacity(4);
    // A pure year window is a block walk; a facet residual tests every
    // id of the range.
    let idrange_cost = if venues.is_empty() && authors.is_empty() {
        pruned_scan_ns(year_len, cost)
    } else {
        year_len as f64 * cost.scan_per_id
    };
    table.push(PlanCandidate {
        driver: "id_range",
        cost_ns: idrange_cost,
        chosen: false,
    });
    let mut best: Option<(f64, QueryDriver)> = (!forbid_scan).then_some((
        idrange_cost,
        QueryDriver::IdRange {
            start: year_range.start,
            end: year_range.end,
        },
    ));
    if let Some(len) = vband {
        // An author residual reads every posting for its count.
        let c = if authors.is_empty() {
            pruned_band_ns(len, venues.len(), cost)
        } else {
            len as f64 * cost.band_per_candidate
        };
        table.push(PlanCandidate {
            driver: "venue_bands",
            cost_ns: c,
            chosen: false,
        });
        if best.as_ref().is_none_or(|b| c < b.0) {
            best = Some((
                c,
                QueryDriver::VenueBands {
                    venues: venues.to_vec(),
                    len,
                },
            ));
        }
    }
    if let Some(len) = aband {
        let mut c = len as f64 * cost.band_per_candidate;
        if authors.len() > 1 {
            c += len as f64 * cost.dedup_per_candidate;
        }
        table.push(PlanCandidate {
            driver: "author_bands",
            cost_ns: c,
            chosen: false,
        });
        if best.as_ref().is_none_or(|b| c < b.0) {
            best = Some((
                c,
                QueryDriver::AuthorBands {
                    authors: authors.to_vec(),
                    len,
                },
            ));
        }
    }
    {
        // Mask pushdown: build one mask per leaf, AND/OR them word-wide,
        // sweep the ones. Wins when overlapping OR unions are large
        // enough that per-candidate dedup dominates.
        let words = net.n_papers().div_ceil(64);
        let leaves = venues.len() + authors.len() + 1; // year range leaf
        let upper = [vband, aband, Some(year_len)]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(year_len);
        let c = mask_inserts as f64 * cost.mask_insert
            + (words * (leaves + 2)) as f64 * cost.mask_per_word
            + upper as f64 * cost.band_per_candidate;
        table.push(PlanCandidate {
            driver: "mask_algebra",
            cost_ns: c,
            chosen: false,
        });
        if best.as_ref().is_none_or(|b| c < b.0) {
            best = Some((c, QueryDriver::MaskAlgebra { candidates: upper }));
        }
    }

    let (cost_ns, driver) = best.expect("the mask shape is always priced");
    let chosen_name = driver.name();
    for row in &mut table {
        row.chosen = row.driver == chosen_name;
    }
    let candidates = match &driver {
        QueryDriver::IdRange { .. } => year_len,
        QueryDriver::VenueBands { len, .. } | QueryDriver::AuthorBands { len, .. } => *len,
        QueryDriver::MaskAlgebra { candidates } => *candidates,
        QueryDriver::Unfiltered => unreachable!("filtered query"),
    };
    let mut residuals = Vec::new();
    match &driver {
        QueryDriver::IdRange { .. } => {
            // The range *is* the year predicate; facets stay residual.
            if !venues.is_empty() {
                residuals.push("venue");
            }
            if !authors.is_empty() {
                residuals.push("author");
            }
        }
        QueryDriver::VenueBands { .. } => {
            // The band probe folds the year bound into the posting
            // slice — no "year" residual survives.
            if !authors.is_empty() {
                residuals.push("author");
            }
        }
        QueryDriver::AuthorBands { .. } => {
            if !venues.is_empty() {
                residuals.push("venue");
            }
        }
        QueryDriver::MaskAlgebra { .. } => {}
        QueryDriver::Unfiltered => unreachable!("filtered query"),
    }
    if resumed {
        residuals.push("cursor");
    }
    QueryPlan {
        driver,
        candidates,
        cost_ns,
        residuals,
        table,
    }
}

/// Cursor validity on either engine: the `cursor` argument and the
/// grammar's `own` agree when both are given, and the cursor was minted
/// on this serving `generation` (a snapshot's epoch, or a pinned shard
/// set's epoch key) for this `(method, filter)` identity. Returns the
/// decoded resume position — the `(score, global id)` frontier.
fn resume_at(
    cursor: Option<&Cursor>,
    own: Option<&Cursor>,
    generation: u64,
    fp: u64,
) -> Result<Option<(f64, PaperId)>, QueryError> {
    if cursor.zip(own).is_some_and(|(arg, own)| arg != own) {
        return Err(QueryError::CursorMismatch);
    }
    let Some(c) = cursor.or(own) else {
        return Ok(None);
    };
    if c.epoch != generation {
        return Err(QueryError::StaleCursor {
            cursor_epoch: c.epoch,
            current_epoch: generation,
        });
    }
    if c.fingerprint != fp {
        return Err(QueryError::CursorMismatch);
    }
    Ok(Some((f64::from_bits(c.score_bits), c.last_id)))
}

/// The admission step: prices the query at the sum of its partitions'
/// plans (none installed admits everything unpriced) and returns the
/// ticket holding the in-flight reservation — execute with the
/// *ticket's* `k`, re-planned without scans when it says `use_indexed` —
/// or the typed shed.
fn admit(
    admission: Option<&Arc<AdmissionController>>,
    plans: &[(usize, QueryPlan)],
    k: usize,
) -> Result<Option<AdmissionTicket>, QueryError> {
    let costed = || CostedQuery {
        plan_cost_ns: plans.iter().map(|(_, p)| p.cost_ns).sum(),
        // Every residual scan steered onto its partition's cheapest index.
        indexed_alternative_ns: plans
            .iter()
            .map(|(_, p)| {
                if p.is_residual_scan() {
                    p.indexed_alternative_ns()
                } else {
                    Some(p.cost_ns)
                }
            })
            .sum(),
        scan_family: plans.iter().any(|(_, p)| p.is_residual_scan()),
        k,
    };
    admission
        .map(|a| {
            a.admit(costed()).map_err(|o| QueryError::Overloaded {
                cost_ns: o.cost_ns,
                inflight_ns: o.inflight_ns,
                limit_ns: o.limit_ns,
            })
        })
        .transpose()
}

/// The batch executor of both engines: runs `members` in submission
/// order through `serve` — the engine's single-query function, closed
/// over the batch's pin and its one scratch — and answers a member equal
/// to an earlier *served* member from that member's page (the only place
/// a query is compared with another). An error is never remembered: the
/// duplicate fails again with the same typed error.
fn serve_batch<M: PartialEq, P: Clone, E>(
    members: &[M],
    mut serve: impl FnMut(&M) -> Result<P, E>,
) -> Vec<Result<P, E>> {
    let mut results: Vec<Result<P, E>> = Vec::with_capacity(members.len());
    for (i, member) in members.iter().enumerate() {
        let earlier = members[..i].iter().zip(&results);
        let served = earlier
            .filter(|(prev, _)| *prev == member)
            .find_map(|(_, page)| page.as_ref().ok().cloned());
        results.push(served.map_or_else(|| serve(member), Ok));
    }
    results
}

/// Builds the whole-predicate facet mask — the union of the venues'
/// postings, AND the union of the authors' postings, AND the year range
/// — directly into `acc` (with `tmp` as the AND partner), with zero
/// allocations once the masks are warm. A facet id with no postings in
/// this partition contributes no bits.
fn build_facet_mask(
    net: &CitationNetwork,
    venues: &[VenueId],
    authors: &[AuthorId],
    year_min: Option<Year>,
    year_max: Option<Year>,
    acc: &mut IdMask,
    tmp: &mut IdMask,
) {
    let n = net.n_papers();
    let mut have = false;
    if !venues.is_empty() {
        acc.reset(n);
        for &id in venues.iter().flat_map(|&v| venue_postings(net, v)) {
            acc.insert(id);
        }
        have = true;
    }
    if !authors.is_empty() {
        let target = if have { &mut *tmp } else { &mut *acc };
        target.reset(n);
        for &id in authors.iter().flat_map(|&a| author_postings(net, a)) {
            target.insert(id);
        }
        if have {
            acc.intersect_with(tmp);
        }
        have = true;
    }
    if year_min.is_some() || year_max.is_some() {
        let range = net.id_range_for_years(year_min, year_max);
        let target = if have { &mut *tmp } else { &mut *acc };
        target.reset(n);
        for id in range {
            target.insert(id);
        }
        if have {
            acc.intersect_with(tmp);
        }
        have = true;
    }
    debug_assert!(have, "the mask driver implies at least one facet");
}

/// The one selection block under both engines: runs `plan` — priced for
/// this partition by [`price_partition`] — over `ranking`, the scores
/// of partition snapshot `snap` (dense), or a personalized solve on its
/// epoch (a cached [`sparsela::Cone`]; the function is monomorphized per
/// score source, and the serve loop picks one per partition), and leaves
/// the best `k` partition-local ids strictly after `frontier` in
/// `scratch.select`, best first. Returns how many candidates matched the
/// filters at and after the frontier (and, for the block-pruned arms, how
/// many blocks the walk read of how many the range spans). `scratch`
/// holds the query's deduplicated facet lists
/// ([`QueryScratch::set_facets`]); every other buffer is this function's
/// working set, so a steady-state call performs zero heap allocations.
///
/// An id range — everything, a year window, either one resumed behind a
/// cursor — and a union of venue bands go through [`top_k_pruned_into`]
/// over the vector's block maxima (over ids, over venue postings). With no
/// facet residual the frontier is the only per-id test, the walk counts it
/// by blocks, and a page the heads of its year cuts hold — a range's, or
/// every venue band's — is a slice of those heads (rule 0 of the walk),
/// unseeded or seeded, flat or one shard's. Facet residuals — venue and
/// author on a range, author on a venue band — are tested per id inside
/// the walk, for the count. Author bands and the mask gather their
/// candidates for [`top_k_filtered_into`].
///
/// Within one partition, ordering ties by local id equals ordering them
/// by global id (`global = start + local` is monotone), so the ids a
/// shard selects merge globally without re-sorting.
fn select_partition<S: Scores + ?Sized>(
    snap: &EpochSnapshot,
    Ranking { scores, blocks }: Ranking<'_, S>,
    frontier: Option<Frontier>,
    q: &Query,
    k: usize,
    plan: &QueryPlan,
    scratch: &mut QueryScratch,
) -> BlockWalk {
    let net: &CitationNetwork = snap.network();
    debug_assert_eq!(scores.len(), net.n_papers());
    let QueryScratch {
        venues,
        authors,
        candidates,
        bands,
        select,
        mask,
        mask_tmp,
        ..
    } = scratch;
    // Residual closures over the *deduplicated* facet lists: a venue
    // residual is a small-list membership test on `venue_of`, an author
    // residual walks the paper's (collapsed) author row.
    let venues: &[VenueId] = venues;
    let authors: &[AuthorId] = authors;
    let after_cursor = |id: u32| frontier.is_none_or(|f| f.admits(scores.at(id as usize), id));
    let venue_ok = |id: u32| {
        venues.is_empty()
            || net
                .venues()
                .and_then(|t| t.venue_of(id))
                .is_some_and(|v| venues.contains(&v))
    };
    let author_ok = |id: u32| {
        authors.is_empty()
            || net
                .authors()
                .is_some_and(|t| t.authors_of(id).iter().any(|a| authors.contains(a)))
    };
    let range = net.id_range_for_years(q.year_min, q.year_max);
    let frontier = frontier.as_ref();
    // The arms that gather candidates count them; only a walk counts
    // blocks.
    let counted = |matched: usize| BlockWalk {
        matched,
        ..BlockWalk::default()
    };
    match &plan.driver {
        QueryDriver::Unfiltered | QueryDriver::IdRange { .. } => {
            // The range is the year predicate (or the cursor's, or none);
            // facets, when the query has any, are the residual.
            let ids = match plan.driver {
                QueryDriver::IdRange { start, end } => start..end,
                _ => 0..net.n_papers() as u32,
            };
            let mut facets_ok = |id: u32| venue_ok(id) && author_ok(id);
            let residual: Option<&mut dyn FnMut(u32) -> bool> =
                (!venues.is_empty() || !authors.is_empty()).then_some(&mut facets_ok);
            let ids = [Segment::range(ids)];
            top_k_pruned_into(scores, &blocks.ids, ids, k, frontier, residual, select)
        }
        QueryDriver::VenueBands { venues: vs, .. } => {
            // One band probe per venue, sliced from the venue summary's
            // heads or walked over its blocks; venue lists are disjoint, so
            // the bands feed one selection as they are. The year bound is
            // inside the band — only author and cursor residuals remain,
            // and an author residual is tested per id, for the count. Each band is found once, as positions
            // in its venue's list (the walk reads its segments more than
            // once); an empty one — a venue past this partition's table
            // included — has nothing to walk.
            bands.clear();
            bands.extend(
                vs.iter()
                    .map(|&v| (v, citegraph::band_span(venue_postings(net, v), &range)))
                    .filter(|(_, span)| !span.is_empty()),
            );
            let bands = bands
                .iter()
                .map(|(v, span)| Segment::band(*v as usize, venue_postings(net, *v), span.clone()));
            let mut author_ok = author_ok;
            let residual: Option<&mut dyn FnMut(u32) -> bool> =
                (!authors.is_empty()).then_some(&mut author_ok);
            top_k_pruned_into(scores, &blocks.venues, bands, k, frontier, residual, select)
        }
        QueryDriver::AuthorBands { authors: aus, .. } => {
            // Band probes per author; co-authored papers appear in
            // several lists, so a multi-author union sort-dedups before
            // residual filtering (otherwise `matched` over-counts).
            candidates.clear();
            candidates.extend(
                aus.iter()
                    .flat_map(|&a| citegraph::band(author_postings(net, a), &range))
                    .copied(),
            );
            if aus.len() > 1 {
                candidates.sort_unstable();
                candidates.dedup();
            }
            candidates.retain(|&id| venue_ok(id) && after_cursor(id));
            top_k_filtered_into(scores, candidates, k, select);
            counted(candidates.len())
        }
        QueryDriver::MaskAlgebra { .. } => {
            // Whole-predicate pushdown: OR within classes, AND across
            // them and the year range, evaluated word-wide; the ones of
            // the final mask are the exact match set (before cursor).
            build_facet_mask(net, venues, authors, q.year_min, q.year_max, mask, mask_tmp);
            candidates.clear();
            candidates.extend(mask.ones().filter(|&id| after_cursor(id)));
            top_k_filtered_into(scores, candidates, k, select);
            counted(candidates.len())
        }
    }
}

/// Partition `start`'s part of a page into `scratch.runs[run]` (made if
/// missing): the first `k` of its ids that `select(want, scratch)` picks
/// into `scratch.select` — the best `want` partition-local ids after the
/// frontier in [`cmp_score_desc`] order of their raw `scores` — as
/// `(score · scale, start + id)` pairs in the order pages are merged
/// under. Returns the selection's walk (its heads built summed over
/// every call).
///
/// At `scale` 1.0 the raw order is the merged order, bit for bit. A seed
/// share below one keeps the order of two scores, but can round two
/// distinct ones to the same product, whose pairs must then come out by
/// id — and a lower id past the `k`-th raw pick may belong on the page:
/// left behind, it would sort before the cursor the page mints and never
/// be served. So a scaled run selects one more id than it keeps, doubles
/// that while the last pick still scales to the `k`-th's product, then
/// sorts its pairs and keeps the first `k`.
fn partition_run<S: Scores + ?Sized>(
    scores: &S,
    scale: f64,
    start: PaperId,
    k: usize,
    scratch: &mut QueryScratch,
    run: usize,
    select: impl Fn(usize, &mut QueryScratch) -> BlockWalk,
) -> BlockWalk {
    let scaled = |l: u32| (scores.at(l as usize) * scale, start + l);
    let mut want = if scale == 1.0 || k == 0 { k } else { k + 1 };
    let mut heads_built = 0;
    let walk = loop {
        let walk = select(want, scratch);
        heads_built += walk.heads_built;
        let picked = &scratch.select;
        if want == k || picked.len() < want || scaled(picked[want - 1]).0 != scaled(picked[k - 1]).0
        {
            break walk;
        }
        want *= 2;
    };
    if scratch.runs.len() == run {
        scratch.runs.push(Vec::new());
    }
    let out = &mut scratch.runs[run];
    out.clear();
    out.extend(scratch.select.iter().map(|&l| scaled(l)));
    if want > k {
        out.sort_unstable_by(|&(x, a), &(y, b)| cmp_score_desc(x, a, y, b));
        out.truncate(k);
    }
    BlockWalk {
        heads_built,
        ..walk
    }
}

/// The year prune: whether partition `snap`'s year span can intersect the
/// query's year window. Without a window every partition survives; with
/// one, an empty partition has nothing to match.
pub(crate) fn overlaps(snap: &EpochSnapshot, q: &Query) -> bool {
    if q.year_min.is_none() && q.year_max.is_none() {
        return true;
    }
    let net = snap.network();
    let (Some(first), Some(last)) = (net.first_year(), net.current_year()) else {
        return false;
    };
    !(q.year_min.is_some_and(|lo| lo > last) || q.year_max.is_some_and(|hi| hi < first))
}

/// The pinned partitions one query reads, as the serve path sees them: a
/// flat engine's method snapshot as the one partition at id 0, or a
/// pinned shard set.
struct Pinned<'a, S> {
    /// The served method.
    method: &'a Method,
    /// Global id of each partition's local id 0.
    starts: &'a [PaperId],
    /// Each partition's snapshot.
    snaps: &'a [S],
    /// What cursors and cached plans are bound to: a snapshot's epoch, or
    /// a shard set's epoch key.
    generation: u64,
}

impl<S: Borrow<EpochSnapshot>> Pinned<'_, S> {
    fn snap(&self, s: usize) -> &EpochSnapshot {
        self.snaps[s].borrow()
    }

    /// `(partition, local id)` of a global id the view covers.
    fn locate(&self, id: PaperId) -> (usize, PaperId) {
        let s = self.starts.partition_point(|&b| b <= id) - 1;
        (s, id - self.starts[s])
    }
}

/// One partition's ranking under a seeded query: `None` when it holds no
/// seed (boundary edges are teleport-absorbed, so its personalized scores
/// are identically zero), else its personalized solve and its share of
/// the seed mass — a score multiplier, so runs compare under the global
/// uniform distribution.
type SeededPart = Option<(CachedRanking, f64)>;

/// The per-partition solves of a seeded query (`Ok(None)` when unseeded):
/// seeds validated once against the whole view, routed to their
/// partitions and solved there through the [`PersonalizationCache`].
fn seeded_partitions<S: Borrow<EpochSnapshot>>(
    view: &Pinned<'_, S>,
    cache: &PersonalizationCache,
    q: &Query,
) -> Result<Option<Vec<SeededPart>>, QueryError> {
    if q.seeds.is_empty() {
        return Ok(None);
    }
    let alpha = view
        .method
        .damping
        .ok_or_else(|| QueryError::SeedUnsupported {
            method: view.method.name.clone(),
        })?;
    let n_papers = (0..view.snaps.len()).map(|s| view.snap(s).n_papers()).sum();
    SeedPersonalization::uniform(&q.seeds, n_papers).map_err(seed_error_to_query)?;
    let mut locals: Vec<Vec<PaperId>> = vec![Vec::new(); view.snaps.len()];
    for &g in &q.seeds {
        let (s, local) = view.locate(g);
        locals[s].push(local);
    }
    let total = q.seeds.len() as f64;
    let mut per = Vec::with_capacity(locals.len());
    for (s, ids) in locals.iter().enumerate() {
        if ids.is_empty() {
            per.push(None);
            continue;
        }
        let snap = view.snap(s);
        let seed =
            SeedPersonalization::uniform(ids, snap.n_papers()).map_err(seed_error_to_query)?;
        let (ranking, _) = cache.ranking(&view.method.labels[s], snap, &seed, alpha);
        per.push(Some((ranking, ids.len() as f64 / total)));
    }
    Ok(Some(per))
}

/// Plans `q` over every partition of `view` that can match it — one
/// [`price_partition`] each — skipping a partition whose year span misses
/// the filter or, under `seed=`, that holds no seed.
fn plan_partitions<S: Borrow<EpochSnapshot>>(
    view: &Pinned<'_, S>,
    q: &Query,
    facets: &QueryScratch,
    resumed: bool,
    seeded: Option<&[SeededPart]>,
    cost: &CostModel,
    forbid_scan: bool,
) -> Vec<(usize, QueryPlan)> {
    (0..view.snaps.len())
        .filter(|&s| seeded.is_none_or(|per| per[s].is_some()) && overlaps(view.snap(s), q))
        .map(|s| {
            let net = view.snap(s).network();
            (
                s,
                price_partition(net, q, facets, resumed, cost, forbid_scan),
            )
        })
        .collect()
}

/// What the serving core keeps for its read path between queries —
/// seeded solves, plans and their cost model, admission, warm scratches —
/// for every method it serves.
pub(crate) struct ReadPath {
    pub(crate) cache: PersonalizationCache,
    pub(crate) plans: PlanCache,
    pub(crate) cost: CostModel,
    pub(crate) admission: Option<Arc<AdmissionController>>,
    pub(crate) scratches: ScratchPool,
}

impl ReadPath {
    /// Empty caches, the baked [`CostModel`], no admission.
    pub(crate) fn new() -> Self {
        Self {
            cache: PersonalizationCache::new(CacheConfig::default()),
            plans: PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY),
            cost: CostModel::default(),
            admission: None,
            scratches: ScratchPool::default(),
        }
    }
}

/// One row of a two-method comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareRow {
    /// The paper.
    pub id: PaperId,
    /// Score under the primary method.
    pub score_a: f64,
    /// 1-based global rank under the primary method.
    pub rank_a: usize,
    /// Score under the `vs` method (`None` when its epoch does not cover
    /// the id yet).
    pub score_b: Option<f64>,
    /// 1-based global rank under the `vs` method.
    pub rank_b: Option<usize>,
}

/// `id`'s global score and 1-based rank under the ranking of `snaps`,
/// partitions in id order whose first global ids are `starts` (one per
/// shard; one for a flat engine), `None` past its coverage.
fn score_and_rank<S: Borrow<EpochSnapshot>>(
    starts: &[PaperId],
    snaps: &[S],
    id: PaperId,
) -> Option<(f64, usize)> {
    let parts = starts.iter().zip(snaps);
    let (start, snap) = parts.clone().rev().find(|(start, _)| **start <= id)?;
    let score = snap.borrow().score(id - start)?;
    let ahead: usize = parts
        .map(|(&start, snap)| snap.borrow().ahead_of(score, id, start))
        .sum();
    Some((score, 1 + ahead))
}

/// The compare join under both engines: each page hit with its global
/// rank under ranking `a` (the page's own, so always covered) and its
/// global score and rank under `b` (`None` past `b`'s coverage), both
/// over the partitions starting at `starts`.
fn join_ranks<S: Borrow<EpochSnapshot>>(
    items: &[Hit],
    starts: &[PaperId],
    a: &[S],
    b: &[S],
) -> Vec<CompareRow> {
    items
        .iter()
        .map(|hit| {
            let (_, rank_a) =
                score_and_rank(starts, a, hit.id).expect("a page hit is in its own ranking");
            let (score_b, rank_b) = score_and_rank(starts, b, hit.id).unzip();
            CompareRow {
                id: hit.id,
                score_a: hit.score,
                rank_a,
                score_b,
                rank_b,
            }
        })
        .collect()
}

/// The result of a compare: the primary method's filtered page, joined
/// against a second method's ranking of the same papers — two methods of
/// one [`QueryEngine`] ([`QueryEngine::compare`]), or two
/// [`ShardedEngine`](crate::ShardedEngine)s over one shard plan
/// ([`ShardedEngine::compare`](crate::ShardedEngine::compare)).
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Primary method label.
    pub method_a: String,
    /// Generation of the primary ranking: its snapshot's epoch, or its
    /// pinned shard set's
    /// [`epoch_key`](crate::ShardSnapshots::epoch_key).
    pub epoch_a: u64,
    /// Secondary (`vs`) method label.
    pub method_b: String,
    /// Generation of the secondary ranking, as `epoch_a`.
    pub epoch_b: u64,
    /// Joined rows, in the primary ranking's order.
    pub rows: Vec<CompareRow>,
    /// The primary page (cursor, match count) the rows were built from.
    pub page: Page,
}

/// A pinned partition set one query reads: a method's snapshot (one
/// partition at id 0) or a shard set. Its generation is what the set's
/// cursors and cached plans are bound to.
pub(crate) trait Pin {
    /// How the set holds each partition's snapshot.
    type Part: Borrow<EpochSnapshot>;
    /// The partitions' snapshots, in id order.
    fn parts(&self) -> &[Self::Part];
    /// Each partition's first global id.
    fn starts(&self) -> &[PaperId];
    /// A snapshot's epoch, or a shard set's epoch key.
    fn generation(&self) -> u64;
}

impl Pin for EpochSnapshot {
    type Part = EpochSnapshot;

    fn parts(&self) -> &[EpochSnapshot] {
        std::slice::from_ref(self)
    }

    /// A constant, so the serve path compiled for one snapshot folds its
    /// partition arithmetic away.
    fn starts(&self) -> &[PaperId] {
        &[0]
    }

    fn generation(&self) -> u64 {
        self.epoch()
    }
}

/// A batch member: its query and the explicit resume cursor beside it.
pub(crate) trait Member: PartialEq {
    fn query(&self) -> &Query;
    fn cursor(&self) -> Option<&Cursor>;
}

impl Member for Query {
    fn query(&self) -> &Query {
        self
    }

    fn cursor(&self) -> Option<&Cursor> {
        None
    }
}

impl Member for (Query, Option<Cursor>) {
    fn query(&self) -> &Query {
        &self.0
    }

    fn cursor(&self) -> Option<&Cursor> {
        self.1.as_ref()
    }
}

/// `f` over `0..n`, one scoped thread each (none for a single call),
/// results in order; a panic in any call re-raises here.
pub(crate) fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if n == 1 {
        return vec![f(0)];
    }
    thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..n).map(|i| scope.spawn(move || f(i))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// One method a [`Core`] serves: its label, its damping factor (parsed
/// once — the seeded path must not re-parse the spec per query), the
/// [`PersonalizationCache`] label of each partition, and the partition
/// engines in id order.
pub(crate) struct Method {
    name: String,
    damping: Option<f64>,
    labels: Vec<String>,
    parts: Vec<Arc<RankingEngine>>,
}

impl Method {
    /// `name` served by `parts`. The damping factor is read off the
    /// engines' method label, which is its spec's canonical spelling and
    /// parses back (`None`: the method cannot serve `seed=`).
    pub(crate) fn new(name: String, parts: Vec<Arc<RankingEngine>>) -> Self {
        let spec = parts[0].method().parse::<MethodSpec>().ok();
        Self {
            damping: spec.and_then(|spec| spec.damping()),
            labels: (0..parts.len()).map(|s| format!("{name}#s{s}")).collect(),
            name,
            parts,
        }
    }
}

/// The serving core under both public engines: methods × partitions over
/// one partition plan (`starts`), with one [`ReadPath`] and one metrics
/// bundle for all of them. A [`QueryEngine`] is the core with one
/// partition per method; a [`ShardedEngine`](crate::ShardedEngine) is the
/// core with one method over its shards, plus its shard plan.
pub(crate) struct Core {
    methods: Vec<Method>,
    /// First global id of each partition. Fixed after construction (only
    /// the last partition grows), so every pinned shard set shares it.
    starts: Arc<[PaperId]>,
    pub(crate) read: ReadPath,
    /// The metric families, once [`Self::enable_metrics_on`] ran. Boxed:
    /// they are wide and most engines never enable them.
    metrics: Option<Box<ServingMetrics>>,
}

impl Core {
    /// `methods` over the partitions starting at `starts`: empty caches,
    /// the baked [`CostModel`], no admission, no metrics.
    pub(crate) fn new(methods: Vec<Method>, starts: Arc<[PaperId]>) -> Self {
        Self {
            methods,
            starts,
            read: ReadPath::new(),
            metrics: None,
        }
    }

    /// Method `m`'s label.
    pub(crate) fn method(&self, m: usize) -> &str {
        &self.methods[m].name
    }

    /// Method `m`'s partition engines, in id order.
    pub(crate) fn parts(&self, m: usize) -> &[Arc<RankingEngine>] {
        &self.methods[m].parts
    }

    /// The partition plan: first global id of each partition.
    pub(crate) fn starts(&self) -> &Arc<[PaperId]> {
        &self.starts
    }

    /// Resolves a method name (`None` = the first) to its index.
    fn resolve(&self, name: Option<&str>) -> Result<usize, QueryError> {
        let Some(name) = name else { return Ok(0) };
        self.methods
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| QueryError::UnknownMethod {
                name: name.into(),
                known: self.methods.iter().map(|m| m.name.clone()).collect(),
            })
    }

    /// Method `m`'s current epoch in every partition.
    pub(crate) fn pin(&self, m: usize) -> Vec<Arc<EpochSnapshot>> {
        self.parts(m).iter().map(|e| e.snapshot()).collect()
    }

    /// Installs (or replaces) the admission policy.
    pub(crate) fn set_admission(&mut self, policy: AdmissionPolicy) {
        self.read.admission = Some(Arc::new(AdmissionController::new(policy)));
    }

    /// Counters of the admission controller, if one is installed.
    pub(crate) fn admission_stats(&self) -> Option<AdmissionStats> {
        self.read.admission.as_ref().map(|a| a.stats())
    }

    /// Every partition engine, method-major: the metric children's order.
    fn engines(&self) -> impl Iterator<Item = &Arc<RankingEngine>> {
        self.methods.iter().flat_map(|m| &m.parts)
    }

    /// Registers the `layout`'s families on `registry` — one write-path
    /// child per partition engine, named by method (flat) or by shard
    /// index (sharded) — and wires each engine's live instruments.
    ///
    /// # Panics
    /// Panics if the layout's family names are already registered.
    pub(crate) fn enable_metrics_on(&mut self, registry: Arc<MetricsRegistry>, layout: Layout) {
        let children: Vec<String> = self
            .methods
            .iter()
            .flat_map(|m| (0..m.parts.len()).map(move |s| (m, s)))
            .map(|(m, s)| match layout {
                Layout::Flat => m.name.clone(),
                Layout::Sharded => s.to_string(),
            })
            .collect();
        let children: Vec<&str> = children.iter().map(String::as_str).collect();
        let serving = ServingMetrics::register(registry, layout, &children);
        for (idx, engine) in self.engines().enumerate() {
            engine.instrument(serving.instruments(idx));
        }
        self.metrics = Some(Box::new(serving));
    }

    /// [`Self::enable_metrics_on`] over a fresh registry, returned.
    pub(crate) fn enable_metrics(&mut self, layout: Layout) -> Arc<MetricsRegistry> {
        let registry = Arc::new(MetricsRegistry::new());
        self.enable_metrics_on(Arc::clone(&registry), layout);
        registry
    }

    /// Refreshes the sampled families (`boundary_edges` per shard on the
    /// sharded layout) and renders the registry; `None` until metrics are
    /// enabled.
    pub(crate) fn render_metrics(&self, boundary_edges: &[usize]) -> Option<String> {
        Some(self.metrics.as_ref()?.render(
            self.engines().map(|e| &**e),
            &self.read.cache.stats(),
            &self.read.plans.stats(),
            self.admission_stats(),
            boundary_edges,
        ))
    }

    /// The serve path under every entry point of both engines (see the
    /// module docs): `q` under method `m` over `pin`, written into `out`
    /// through `scratch` — zero heap allocations for a steady-state
    /// unseeded query. `cursor` is an explicit resume argument beside
    /// `q.cursor`. Returns how many partitions were read. Without metrics
    /// no clock is read; with them, one query in
    /// [`TIMED_EVERY`](crate::metrics::TIMED_EVERY) per shape on `scratch`.
    fn serve<P: Pin + ?Sized>(
        &self,
        m: usize,
        pin: &P,
        q: &Query,
        cursor: Option<&Cursor>,
        scratch: &mut QueryScratch,
        out: &mut PageBuf,
    ) -> Result<usize, QueryError> {
        let view = &Pinned {
            method: &self.methods[m],
            starts: pin.starts(),
            snaps: pin.parts(),
            generation: pin.generation(),
        };
        let metrics = self.metrics.as_deref();
        let clock = metrics.map(|m| m.begin(&mut scratch.tally, q));
        scratch.set_facets(q);
        let fp = scratch.set_identity(&view.method.name, q);
        let resume =
            resume_at(cursor, q.cursor.as_ref(), view.generation, fp).inspect_err(|err| {
                if let Some(metrics) = metrics {
                    metrics.cursor_error(err);
                }
            })?;
        let seeded = seeded_partitions(view, &self.read.cache, q)?;
        let seeded = seeded.as_deref();
        let resumed = resume.is_some();
        let identity = &scratch.identity;
        let mut plans =
            self.read
                .plans
                .get_or_plan((fp, resumed), view.generation, identity, || {
                    validate_facets((0..view.snaps.len()).map(|s| &**view.snap(s).network()), q)?;
                    Ok(plan_partitions(
                        view,
                        q,
                        scratch,
                        resumed,
                        seeded,
                        &self.read.cost,
                        false,
                    ))
                })?;
        if let Some(metrics) = metrics {
            metrics.planned(&mut scratch.tally, &plans);
        }
        // The ticket (when admission is on) holds the in-flight cost
        // reservation until the page is built.
        let ticket = admit(self.read.admission.as_ref(), &plans, q.k)?;
        if ticket.as_ref().is_some_and(|t| t.use_indexed) {
            // Degradation depends on instantaneous load, not query
            // identity: never cached.
            plans =
                plan_partitions(view, q, scratch, resumed, seeded, &self.read.cost, true).into();
        }
        let k = ticket.as_ref().map_or(q.k, |t| t.k);

        let mut walked = BlockWalk::default();
        let mut used = 0;
        for (s, plan) in plans.iter() {
            let snap = view.snap(*s);
            let start = view.starts[*s];
            let frontier = |scale| {
                resume.map(|(score, id)| Frontier {
                    score,
                    id,
                    scale,
                    base: start,
                })
            };
            // A seeded partition ranks by its solve in cone form, scaled
            // by its seed share; an unseeded one by its epoch's scores.
            // One dispatch per partition: each arm runs the selection
            // monomorphized for its score source.
            let walk = match seeded.and_then(|per| per[*s].as_ref()) {
                Some((cached, share)) => {
                    let (ranking, frontier) = (cached.view(), frontier(*share));
                    partition_run(
                        ranking.scores,
                        *share,
                        start,
                        k,
                        scratch,
                        used,
                        |want, sc| select_partition(snap, ranking, frontier, q, want, plan, sc),
                    )
                }
                None => {
                    let (ranking, frontier) = (snap.ranking(), frontier(1.0));
                    partition_run(ranking.scores, 1.0, start, k, scratch, used, |want, sc| {
                        select_partition(snap, ranking, frontier, q, want, plan, sc)
                    })
                }
            };
            walked.matched += walk.matched;
            walked.blocks_scanned += walk.blocks_scanned;
            walked.blocks_in_range += walk.blocks_in_range;
            walked.head_slices += walk.head_slices;
            walked.heads_built += walk.heads_built;
            if !scratch.runs[used].is_empty() {
                used += 1;
            }
        }
        merge_k_sorted_into(
            &scratch.runs[..used],
            k,
            &mut scratch.merge,
            &mut scratch.merged,
        );

        out.items.clear();
        out.items.extend(scratch.merged.iter().map(|&(score, id)| {
            let (s, local) = view.locate(id);
            let net = view.snap(s).network();
            Hit {
                id,
                score,
                year: net.year(local),
                venue: net.venues().and_then(|t| t.venue_of(local)),
            }
        }));
        // More matches exist past this page ⇒ mint the resume cursor from
        // the last item's (score, id) position.
        out.next = match out.items.last() {
            Some(last) if walked.matched > out.items.len() => {
                Some(Cursor::after(view.generation, last.score, last.id, fp))
            }
            _ => None,
        };
        out.epoch = view.generation;
        out.matched = walked.matched;
        out.method.clear();
        out.method.push_str(&view.method.name);
        if let (Some(metrics), Some(clock)) = (metrics, clock) {
            metrics.served(&mut scratch.tally, q, &plans, clock, &walked);
        }
        Ok(plans.len())
    }

    /// [`Self::serve`] through a pooled scratch into an owned page.
    pub(crate) fn page<P: Pin + ?Sized>(
        &self,
        m: usize,
        pin: &P,
        q: &Query,
        cursor: Option<&Cursor>,
    ) -> Result<(Page, usize), QueryError> {
        let mut out = PageBuf::new();
        let read = self
            .read
            .scratches
            .with(|scratch| self.serve(m, pin, q, cursor, scratch, &mut out))?;
        Ok((out.take_page(), read))
    }

    /// Serves every member in submission order through one pooled scratch
    /// and one page buffer, each under the method and pin `route` gives
    /// its query, and hands each page (with the partitions it read) to
    /// `finish`; a member equal to an earlier served one is answered from
    /// that page (`serve_batch`).
    pub(crate) fn batch<'p, M: Member, P: Pin + ?Sized + 'p, T: Clone>(
        &self,
        members: &[M],
        route: impl Fn(&Query) -> Result<(usize, &'p P), QueryError>,
        finish: impl Fn(Page, usize) -> T,
    ) -> Vec<Result<T, QueryError>> {
        let mut out = PageBuf::new();
        self.read.scratches.with(|scratch| {
            serve_batch(members, |member| {
                let (m, pin) = route(member.query())?;
                let read =
                    self.serve(m, pin, member.query(), member.cursor(), scratch, &mut out)?;
                Ok(finish(out.to_page(), read))
            })
        })
    }

    /// Compare mode: the page of `q` under method `a` over `pin_a`, each
    /// hit joined with its global score and rank under method `b` of
    /// `other` over `pin_b` (`join_ranks`; a flat engine passes itself as
    /// `other`). The two must share one partition plan.
    pub(crate) fn compare<P: Pin>(
        &self,
        (a, pin_a): (usize, &P),
        other: &Core,
        (b, pin_b): (usize, &P),
        q: &Query,
        cursor: Option<&Cursor>,
    ) -> Result<Comparison, QueryError> {
        if self.starts != other.starts {
            return Err(QueryError::PlanMismatch);
        }
        let (page, _) = self.page(a, pin_a, q, cursor)?;
        let rows = join_ranks(&page.items, pin_a.starts(), pin_a.parts(), pin_b.parts());
        Ok(Comparison {
            method_a: page.method.clone(),
            epoch_a: page.epoch,
            method_b: other.methods[b].name.clone(),
            epoch_b: pin_b.generation(),
            rows,
            page,
        })
    }

    /// Stages `delta` (in partition `part`'s local ids) on that partition
    /// of every method, in registration order; one report per method.
    ///
    /// When more than one method shares the batch it is all-or-nothing:
    /// the delta is pre-validated against every member
    /// ([`RankingEngine::check_delta`]) before it is staged in any, so a
    /// rejection leaves all members unchanged — without the pre-flight a
    /// member whose lineage diverged (ingested directly, or mid-restore)
    /// could fail mid-loop and split the lineages for every later query. A
    /// lone member validates before it stages anything.
    ///
    /// A publish costs one successor network per corpus, not per method:
    /// each member is handed the epoch the previous member just published
    /// and adopts its network when parent and staged delta match.
    pub(crate) fn ingest(
        &self,
        part: usize,
        delta: &GraphDelta,
    ) -> Result<Vec<IngestReport>, EngineError> {
        let members = || self.methods.iter().map(|m| &m.parts[part]);
        if self.methods.len() > 1 {
            for engine in members() {
                engine.check_delta(delta)?;
            }
        }
        let mut sibling: Option<Arc<EpochSnapshot>> = None;
        members()
            .map(|engine| {
                let report = engine.ingest_after(delta, sibling.as_deref())?;
                if report.published {
                    sibling = Some(engine.snapshot());
                }
                Ok(report)
            })
            .collect()
    }

    /// Re-ranks and publishes every partition engine — a method's
    /// partitions in parallel (one scoped thread each, each writer owning
    /// its kernel workspace), its methods in sequence, so each partition
    /// adopts the successor network the previous method's same partition
    /// just published, as in [`Self::ingest`]. Returns the published
    /// epochs, method-major.
    pub(crate) fn rerank(&self) -> Vec<u64> {
        let mut siblings: Vec<Option<Arc<EpochSnapshot>>> = vec![None; self.starts.len()];
        let mut epochs = Vec::new();
        for m in &self.methods {
            epochs.extend(par_map(m.parts.len(), |s| {
                m.parts[s].rerank_after(siblings[s].as_deref())
            }));
            siblings = m.parts.iter().map(|e| Some(e.snapshot())).collect();
        }
        epochs
    }
}

/// A set of concurrently served ranking methods with a shared query
/// front-end: the serving core with one partition per method.
///
/// Each registered [`MethodSpec`] gets its own [`RankingEngine`] over
/// one shared copy of the corpus; [`Self::ingest`] fans a delta out to
/// all of them so their network lineages stay identical — the first
/// member to publish builds the successor network and the others adopt it
/// (epochs may differ if policies fire differently — that is what
/// per-snapshot pinning and cursor epochs are for). Queries address
/// methods by their canonical name (`attrank`, `cc`, …).
///
/// Seeded queries (`seed=`) are served through one engine-wide
/// [`PersonalizationCache`] — the one place a solve is remembered; the
/// planner runs under the baked [`CostModel`] until
/// [`Self::set_cost_model`] installs another.
pub struct QueryEngine {
    core: Core,
}

impl QueryEngine {
    /// Builds one engine per spec, all sharing one `Arc` of `net` (one
    /// resident corpus however many methods are served), and publishes
    /// each method's epoch 0. The
    /// first spec is the default method.
    pub fn new(
        net: impl Into<Arc<CitationNetwork>>,
        specs: &[MethodSpec],
        policy: RerankPolicy,
    ) -> Result<Self, QueryError> {
        let net: Arc<CitationNetwork> = net.into();
        if specs.is_empty() {
            return Err(QueryError::Syntax {
                message: "QueryEngine needs at least one method spec".into(),
            });
        }
        let mut methods: Vec<Method> = Vec::with_capacity(specs.len());
        for spec in specs {
            let name = spec.method_name().to_string();
            if methods.iter().any(|m| m.name == name) {
                return Err(QueryError::DuplicateMethod { name });
            }
            let engine = RankingEngine::new(net.clone(), spec, policy)?;
            methods.push(Method::new(name, vec![Arc::new(engine)]));
        }
        Ok(Self {
            core: Core::new(methods, Arc::new([0])),
        })
    }

    /// [`Self::new`] from config strings, e.g. `["attrank", "cc"]`.
    pub fn from_configs(
        net: impl Into<Arc<CitationNetwork>>,
        configs: &[&str],
        policy: RerankPolicy,
    ) -> Result<Self, QueryError> {
        let specs = configs
            .iter()
            .map(|c| c.parse::<MethodSpec>())
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(net, &specs, policy)
    }

    /// Canonical names of the served methods, default first.
    pub fn methods(&self) -> Vec<&str> {
        self.core.methods.iter().map(|m| m.name.as_str()).collect()
    }

    /// The serving engine behind a method name (`None` = default) —
    /// for ingest policies, persistence, or direct snapshot access.
    pub fn engine(&self, method: Option<&str>) -> Result<&Arc<RankingEngine>, QueryError> {
        Ok(&self.core.parts(self.core.resolve(method)?)[0])
    }

    /// Pins the current snapshot of a method (`None` = default). Hold
    /// the `Arc` to paginate consistently across concurrent publishes.
    pub fn snapshot(&self, method: Option<&str>) -> Result<Arc<EpochSnapshot>, QueryError> {
        self.engine(method).map(|e| e.snapshot())
    }

    /// The planner cost model in effect: the baked constants, or what
    /// [`Self::set_cost_model`] installed.
    pub fn cost_model(&self) -> &CostModel {
        &self.core.read.cost
    }

    /// Replaces the planner cost model (explicit tuning; tests).
    /// Cached plans were priced under the old model, so the plan cache
    /// is dropped.
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.core.read.cost = cost;
        self.core.read.plans.clear();
    }

    /// Counters and occupancy of the plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.core.read.plans.stats()
    }

    /// Replaces the plan cache with an empty one of the given capacity
    /// (entries; clamped to at least 1). Counters restart from zero.
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.core.read.plans = PlanCache::new(capacity);
    }

    /// Counters and occupancy of the shared personalization cache.
    pub fn personalization_stats(&self) -> CacheStats {
        self.core.read.cache.stats()
    }

    /// Registers this engine's metric families (`attrank_*`, one
    /// `method` child per served method) on `registry` and wires live
    /// instruments (publish/solve latency, push-work gauges, WAL
    /// observers) into every member [`RankingEngine`]. From here on the
    /// query path records per-query latency by executed driver, planner
    /// decisions and cursor errors; sampled families (cache occupancy,
    /// admission counters, epoch lag) refresh at [`Self::render_metrics`].
    ///
    /// Pass a shared registry to co-render with a
    /// [`ShardedEngine`](crate::ShardedEngine) — the family names are
    /// disjoint.
    ///
    /// # Panics
    /// Panics if the flat-stack family names are already registered on
    /// `registry` (two `QueryEngine`s cannot share one registry).
    pub fn enable_metrics_on(&mut self, registry: Arc<MetricsRegistry>) {
        self.core.enable_metrics_on(registry, Layout::Flat)
    }

    /// [`Self::enable_metrics_on`] over a fresh registry; returns the
    /// registry so the caller can render it (or hand it to a sharded
    /// stack).
    pub fn enable_metrics(&mut self) -> Arc<MetricsRegistry> {
        self.core.enable_metrics(Layout::Flat)
    }

    /// Installs (or replaces) the admission policy guarding the query
    /// path. The default policy admits everything; a bounded policy
    /// degrades gracefully (k-clamp, scan→index fallback) before
    /// rejecting with [`QueryError::Overloaded`].
    pub fn set_admission(&mut self, policy: AdmissionPolicy) {
        self.core.set_admission(policy)
    }

    /// Counters of the admission controller, if one is installed.
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.core.admission_stats()
    }

    /// Refreshes every sampled family (cache occupancy, admission
    /// counters, per-method epoch/staged/replay gauges) and renders the
    /// registry's Prometheus exposition text. `None` until metrics are
    /// enabled. Renders *everything* on the registry — including a
    /// sharded stack registered on the same one.
    pub fn render_metrics(&self) -> Option<String> {
        self.core.render_metrics(&[])
    }

    /// Executes a query against the *current* snapshot of its method:
    /// [`Self::query_at`] on a fresh pin.
    ///
    /// A cursor minted before the last publish fails with
    /// [`QueryError::StaleCursor`]; use [`Self::query_at`] with a held
    /// snapshot to paginate across publishes.
    pub fn query(&self, q: &Query) -> Result<Page, QueryError> {
        self.query_at(&*self.snapshot(q.method.as_deref())?, q)
    }

    /// Executes a query against a caller-pinned snapshot (from
    /// [`Self::snapshot`] or a previous page's epoch) through a pooled
    /// scratch into a fresh page. The query's method resolves the
    /// label/fingerprint (and, for seeded queries, the damping factor) —
    /// the scores come from `snap`, or from a personalized solve on
    /// exactly `snap`'s epoch.
    pub fn query_at(&self, snap: &EpochSnapshot, q: &Query) -> Result<Page, QueryError> {
        let m = self.core.resolve(q.method.as_deref())?;
        self.core.page(m, snap, q, None).map(|(page, _)| page)
    }

    /// [`Self::query`] writing through caller-owned buffers instead of
    /// returning a fresh [`Page`]: once `scratch` and `out` are warm
    /// (one call), a steady-state unseeded query performs **zero heap
    /// allocations** — the contract the allocation-counting harness
    /// pins. Read the page through [`PageBuf`]'s accessors, or
    /// [`PageBuf::take_page`] (which allocates replacements).
    pub fn query_with(
        &self,
        q: &Query,
        scratch: &mut QueryScratch,
        out: &mut PageBuf,
    ) -> Result<(), QueryError> {
        self.query_with_at(&*self.snapshot(q.method.as_deref())?, q, scratch, out)
    }

    /// [`Self::query_with`] against a caller-pinned snapshot: the serve
    /// path over `snap` as one partition. Metrics, when enabled, label
    /// the latency by the *executed* plan's driver, which an admission
    /// fallback may have changed.
    pub fn query_with_at(
        &self,
        snap: &EpochSnapshot,
        q: &Query,
        scratch: &mut QueryScratch,
        out: &mut PageBuf,
    ) -> Result<(), QueryError> {
        let m = self.core.resolve(q.method.as_deref())?;
        self.core.serve(m, snap, q, None, scratch, out).map(drop)
    }

    /// Executes a batch of queries in submission order under **one
    /// snapshot per method**, pinned when that method's first member is
    /// reached: every member of a method sees the same epoch regardless
    /// of concurrent publishes, and each page is bit-identical to what
    /// [`Self::query_at`] would return against that pinned snapshot
    /// member-by-member (same pages, same cursors, same typed errors).
    ///
    /// What a batch amortizes is its pins, its buffers (one scratch and
    /// one page buffer serve every member) and its exact duplicates
    /// (`serve_batch`); a distinct member costs what it costs through
    /// [`Self::query_with`].
    pub fn query_batch(&self, queries: &[Query]) -> Vec<Result<Page, QueryError>> {
        let pins: Vec<OnceCell<Arc<EpochSnapshot>>> =
            self.core.methods.iter().map(|_| OnceCell::new()).collect();
        let route = |q: &Query| {
            let m = self.core.resolve(q.method.as_deref())?;
            Ok((
                m,
                &**pins[m].get_or_init(|| self.core.parts(m)[0].snapshot()),
            ))
        };
        self.core.batch(queries, route, |page, _| page)
    }

    /// [`Self::query_batch`] with every member pinned to one
    /// caller-held snapshot (mirrors [`Self::query_at`] — methods still
    /// resolve per member for labels and damping factors).
    pub fn query_batch_at(
        &self,
        snap: &EpochSnapshot,
        queries: &[Query],
    ) -> Vec<Result<Page, QueryError>> {
        let route = |q: &Query| Ok((self.core.resolve(q.method.as_deref())?, snap));
        self.core.batch(queries, route, |page, _| page)
    }

    /// The planner's decision for `q` against the current snapshot of
    /// its method, without executing — what `repro query` prints as its
    /// explain line.
    pub fn explain(&self, q: &Query) -> Result<QueryPlan, QueryError> {
        let snap = self.snapshot(q.method.as_deref())?;
        plan_shaped(snap.network(), q, &self.core.read.cost, false)
    }

    /// Compare mode: serves the filtered page under `q.method` like any
    /// other query (planned from the cache, priced by admission, observed
    /// by the metrics), then joins each hit's rank and score under
    /// `q.vs` — both from snapshots pinned once at entry, the paper's
    /// §4-style "AttRank vs. citation count" view in one pass. Ranks are
    /// global (1 = best): one binary search per row and ranking over each
    /// snapshot's cached rank order (`join_ranks`, shared with the
    /// sharded engine). Under `seed=` the page's *scores* are
    /// personalized while both rank columns stay global — "where do my
    /// related papers sit in each method's overall ranking".
    pub fn compare(&self, q: &Query) -> Result<Comparison, QueryError> {
        let vs = q.vs.as_deref().ok_or(QueryError::MissingCompareMethod)?;
        let a = self.core.resolve(q.method.as_deref())?;
        let b = self.core.resolve(Some(vs))?;
        let (snap_a, snap_b) = (
            self.core.parts(a)[0].snapshot(),
            self.core.parts(b)[0].snapshot(),
        );
        self.core
            .compare((a, &*snap_a), &self.core, (b, &*snap_b), q, None)
    }

    /// Stages a delta on every served method's engine. Returns one report
    /// per method, in registration order.
    ///
    /// The fan-out is all-or-nothing: with more than one method the delta
    /// is pre-validated against every member engine
    /// ([`RankingEngine::check_delta`]) before it is staged in any, so a
    /// rejection leaves all members unchanged (a lone method validates
    /// before it stages anything). A publish costs one successor network
    /// per *corpus*, not per method: each member adopts the network the
    /// previous member just published when parent and staged delta match
    /// (always, unless a member was ingested directly).
    pub fn ingest(&self, delta: &GraphDelta) -> Result<Vec<IngestReport>, EngineError> {
        self.core.ingest(0, delta)
    }

    /// Forces a re-rank + publish on every engine; returns the published
    /// epochs in registration order. Members share the successor network
    /// as in [`Self::ingest`].
    pub fn rerank(&self) -> Vec<u64> {
        self.core.rerank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citegraph::{dense_personalized, NetworkBuilder};
    use sparsela::{sort_indices_desc, BlockMaxima, KernelWorkspace};

    /// Pages `scores` — one partition whose local id 0 is global id
    /// `start` — at `k` per page under seed share `scale`, each page's
    /// run built by [`partition_run`] over a block walk of `maxima`
    /// behind the last page's frontier, and returns every pair served.
    fn page_through(
        scores: &[f64],
        maxima: &BlockMaxima,
        scale: f64,
        start: PaperId,
        k: usize,
    ) -> Vec<(u64, PaperId)> {
        let mut scratch = QueryScratch::new();
        let mut served = Vec::new();
        let mut resume: Option<(f64, PaperId)> = None;
        let all = [Segment::range(0..scores.len() as u32)];
        for _ in 0..=scores.len() {
            let frontier = resume.map(|(score, id)| Frontier {
                score,
                id,
                scale,
                base: start,
            });
            let walk = partition_run(scores, scale, start, k, &mut scratch, 0, |want, sc| {
                top_k_pruned_into(
                    scores,
                    maxima,
                    all,
                    want,
                    frontier.as_ref(),
                    None,
                    &mut sc.select,
                )
            });
            let page = &scratch.runs[0];
            served.extend(page.iter().map(|&(x, id)| (x.to_bits(), id)));
            match page.last() {
                Some(&last) if walk.matched > page.len() => resume = Some(last),
                _ => return served,
            }
        }
        panic!("pagination did not end");
    }

    #[test]
    fn scaled_runs_order_collapsed_ties_by_id_across_page_boundaries() {
        // Two adjacent doubles whose products under a one-third seed share
        // round to one value: the higher raw score sits at the higher id,
        // so the raw order and the merged order disagree on the pair.
        let scale = 1.0 / 3.0;
        let a = 1.75f64;
        let b = f64::from_bits(a.to_bits() - 1);
        assert_eq!(a * scale, b * scale, "the crafted pair collapses");
        let n = 150; // not a multiple of any block length
        let mut scores: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();
        for (i, top) in [3usize, 40, 77, 101, 130].into_iter().enumerate() {
            scores[top] = 4.0 + i as f64;
        }
        scores[20] = b;
        scores[90] = a;
        let start = 1_000;
        let mut want: Vec<(f64, PaperId)> = (0..n as u32)
            .map(|l| (scores[l as usize] * scale, start + l))
            .collect();
        want.sort_by(|&(x, i), &(y, j)| cmp_score_desc(x, i, y, j));
        let want: Vec<(u64, PaperId)> = want.iter().map(|&(x, id)| (x.to_bits(), id)).collect();
        assert_eq!(
            &want[5..7],
            &[(b * scale).to_bits(), (a * scale).to_bits()]
                .into_iter()
                .zip([start + 20, start + 90])
                .collect::<Vec<_>>()[..]
        );

        let headed = BlockMaxima::new(&scores);
        let walked = BlockMaxima::with_block_len(&scores, 4, 0, &[]);
        // k = 6 puts the boundary between the pair, k = 7 the pair inside
        // one page, k = 1 one pair per page; every page is sliced from a
        // head or walked.
        for k in [1, 2, 5, 6, 7, 10] {
            for maxima in [&headed, &walked] {
                assert_eq!(
                    page_through(&scores, maxima, scale, start, k),
                    want,
                    "k={k}"
                );
            }
        }

        // A whole share keeps the raw order and its bits.
        let whole: Vec<(u64, PaperId)> = sort_indices_desc(&scores)
            .iter()
            .map(|&l| (scores[l as usize].to_bits(), start + l))
            .collect();
        assert_eq!(page_through(&scores, &headed, 1.0, start, 6), whole);
    }

    /// 12 papers over 2000–2011 with venues, authors and enough citation
    /// ties (cc scores) to exercise deterministic tie-breaking.
    ///
    /// venue: id % 3 == 0 → 0, % 3 == 1 → 1, else none.
    /// authors: `[id % 2]`, plus author 2 on multiples of 4.
    fn corpus() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        for i in 0..12u32 {
            let mut authors = vec![i % 2];
            if i % 4 == 0 {
                authors.push(2);
            }
            let venue = match i % 3 {
                0 => Some(0),
                1 => Some(1),
                _ => None,
            };
            b.add_paper_with_metadata(2000 + i as Year, authors, venue);
        }
        for i in 1..12u32 {
            b.add_citation(i, i - 1).unwrap();
            if i >= 5 {
                b.add_citation(i, 0).unwrap();
            }
        }
        b.build().unwrap()
    }

    fn engine() -> QueryEngine {
        QueryEngine::from_configs(corpus(), &["cc", "pagerank"], RerankPolicy::EveryBatch).unwrap()
    }

    /// Brute-force reference: full descending sort, filter, truncate.
    fn reference(snap: &EpochSnapshot, q: &Query) -> Vec<PaperId> {
        reference_scored(snap, q, snap.scores().as_slice())
    }

    /// [`reference`] over an explicit score vector (the personalized
    /// paths rank by a solve, not the snapshot's global scores).
    fn reference_scored(snap: &EpochSnapshot, q: &Query, scores: &[f64]) -> Vec<PaperId> {
        let net = snap.network();
        let keep = |&id: &u32| {
            q.year_min.is_none_or(|lo| net.year(id) >= lo)
                && q.year_max.is_none_or(|hi| net.year(id) <= hi)
                && (q.venues.is_empty()
                    || net
                        .venues()
                        .unwrap()
                        .venue_of(id)
                        .is_some_and(|v| q.venues.contains(&v)))
                && (q.authors.is_empty()
                    || net
                        .authors()
                        .unwrap()
                        .authors_of(id)
                        .iter()
                        .any(|a| q.authors.contains(a)))
        };
        let mut full: Vec<u32> = sort_indices_desc(scores).into_iter().filter(keep).collect();
        full.truncate(q.k);
        full
    }

    fn ids(page: &Page) -> Vec<PaperId> {
        page.items.iter().map(|h| h.id).collect()
    }

    #[test]
    fn grammar_round_trips_canonical_forms() {
        for s in [
            "k=10",
            "method=attrank,k=5",
            "method=attrank,vs=cc,k=20",
            "k=10,year=1995..2000",
            "k=10,year=1995..",
            "k=10,year=..2000",
            "k=3,year=1995..2000,venue=3,author=42",
            "k=10,venue=3|7,author=1|2|5",
            "method=pagerank,k=5,seed=11|4",
            "k=3,seed=1|4|7,year=2000..2005,venue=0",
            "k=10,cursor=c1-3fe51eb851eb851f-2a-9e3779b97f4a7c15",
        ] {
            let q: Query = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(q.to_string(), s, "canonical form");
            let again: Query = q.to_string().parse().unwrap();
            assert_eq!(again, q, "round trip of {s}");
        }
        // Non-canonical inputs normalize: single year, spacing, defaults.
        let q: Query = " venue=3 , year=1999 ".parse().unwrap();
        assert_eq!(q.k, 10, "k defaults to 10");
        assert_eq!((q.year_min, q.year_max), (Some(1999), Some(1999)));
        assert_eq!(q.to_string(), "k=10,year=1999..1999,venue=3");
    }

    #[test]
    fn grammar_errors_name_the_offending_key() {
        assert!(matches!(
            "venue".parse::<Query>(),
            Err(QueryError::Syntax { .. })
        ));
        let err = "flavor=3".parse::<Query>().unwrap_err();
        assert!(matches!(err, QueryError::UnknownKey { ref key } if key == "flavor"));
        let err = "k=2,k=3".parse::<Query>().unwrap_err();
        assert!(matches!(err, QueryError::DuplicateKey { ref key } if key == "k"));
        let err = "year=abc".parse::<Query>().unwrap_err();
        assert!(matches!(err, QueryError::BadValue { ref key, .. } if key == "year"));
        let err = "venue=3|x".parse::<Query>().unwrap_err();
        assert!(matches!(err, QueryError::BadValue { ref key, .. } if key == "venue"));
        let err = "author=|".parse::<Query>().unwrap_err();
        assert!(matches!(err, QueryError::BadValue { ref key, .. } if key == "author"));
        let err = "k=2,cursor=zzz".parse::<Query>().unwrap_err();
        assert!(matches!(err, QueryError::BadValue { ref key, .. } if key == "cursor"));
        // Messages carry the key for operators.
        assert!(err.to_string().contains("cursor"));
    }

    #[test]
    fn cursor_token_round_trips() {
        let c = Cursor {
            epoch: 7,
            score_bits: 0.25f64.to_bits(),
            last_id: 42,
            fingerprint: 0xdead_beef,
        };
        let token = c.to_string();
        assert_eq!(token.parse::<Cursor>().unwrap(), c);
        assert!("c1-2-3".parse::<Cursor>().is_err(), "missing field");
        assert!("c1-2-3-4-5".parse::<Cursor>().is_err(), "extra field");
        assert!("1-2-3-4".parse::<Cursor>().is_err(), "missing prefix");
        assert!("c1-2-fffffffff-4".parse::<Cursor>().is_err(), "id overflow");
    }

    proptest::proptest! {
        /// The decoder contract, for whatever string reaches it: a typed
        /// `BadValue` naming the cursor key, or a cursor whose token is
        /// exactly that string — minted tokens, byte-mutated ones, and
        /// the near-miss alphabet (uppercase hex, signs, padding, stray
        /// separators, non-ASCII).
        #[test]
        fn cursor_decoder_is_total_and_canonical(
            fields in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u32..=u32::MAX, 0u64..=u64::MAX),
            shrink in 0u32..64,
            hits in proptest::collection::vec((0usize..80, 0u8..128), 0..4),
            near in "[c0-9a-fA-F+ xé-]{0,40}",
        ) {
            // `shrink` makes short fields — and zeros — common.
            let (epoch, bits, id, fp) = fields;
            let (score, id) = (f64::from_bits(bits), id >> (shrink / 2));
            let mut token = Cursor::after(epoch >> shrink, score, id, fp >> shrink).to_string().into_bytes();
            for (at, byte) in hits {
                let at = at % token.len();
                token[at] = byte;
            }
            for s in [String::from_utf8(token).expect("ascii"), near] {
                match s.parse::<Cursor>() {
                    Ok(c) => proptest::prop_assert_eq!(c.to_string(), s),
                    Err(e) => proptest::prop_assert_eq!(
                        e,
                        QueryError::BadValue { key: "cursor".into(), value: s }
                    ),
                }
            }
        }
    }

    #[test]
    fn unfiltered_query_is_the_global_top_k() {
        let qe = engine();
        let q: Query = "k=5".parse().unwrap();
        let page = qe.query(&q).unwrap();
        let snap = qe.snapshot(None).unwrap();
        assert_eq!(ids(&page), snap.top_k(5));
        assert_eq!(page.matched, 12);
        assert_eq!(page.method, "cc");
        assert!(page.next.is_some());
        assert_eq!(
            qe.explain(&q).unwrap().driver,
            QueryDriver::Unfiltered,
            "no facets, no cursor → the whole-vector stream"
        );
    }

    #[test]
    fn facet_queries_match_sort_filter_truncate() {
        let qe = engine();
        let snap = qe.snapshot(None).unwrap();
        for s in [
            "k=4,venue=0",
            "k=4,venue=1",
            "k=4,author=2",
            "k=4,author=1",
            "k=4,year=2003..2007",
            "k=4,year=2005..",
            "k=4,year=..2004",
            "k=3,year=2002..2009,venue=0",
            "k=3,year=2000..2008,author=0,venue=0",
            "k=12,venue=0,author=2",
        ] {
            let q: Query = s.parse().unwrap();
            let page = qe.query(&q).unwrap();
            assert_eq!(ids(&page), reference(&snap, &q), "{s}");
            // Hit metadata comes from the same epoch's network.
            for hit in &page.items {
                assert_eq!(hit.year, snap.network().year(hit.id));
                assert_eq!(hit.score, snap.score(hit.id).unwrap());
            }
        }
    }

    #[test]
    fn planner_picks_the_cheapest_exact_plan() {
        let qe = engine();
        // Author 2's year band {4} is the cheapest drive: one candidate,
        // venue checked as a residual, year folded into the band probe.
        let plan = qe
            .explain(&"k=5,venue=0,author=2,year=2003..2007".parse().unwrap())
            .unwrap();
        assert_eq!(
            plan.driver,
            QueryDriver::AuthorBands {
                authors: vec![2],
                len: 1
            }
        );
        assert_eq!(plan.candidates, 1);
        assert_eq!(plan.residuals, vec!["venue"]);
        assert!(plan.cost_ns > 0.0);

        // Venue 1's band inside 2001..2002 is a single candidate —
        // cheaper than scanning the 2-wide id range with a residual.
        let plan = qe
            .explain(&"k=5,venue=1,year=2001..2002".parse().unwrap())
            .unwrap();
        assert_eq!(
            plan.driver,
            QueryDriver::VenueBands {
                venues: vec![1],
                len: 1
            }
        );
        assert!(plan.residuals.is_empty(), "year folds into the band probe");

        let plan = qe.explain(&"k=5,venue=1".parse().unwrap()).unwrap();
        assert_eq!(
            plan.driver,
            QueryDriver::VenueBands {
                venues: vec![1],
                len: 4
            }
        );
        assert!(plan.residuals.is_empty());
    }

    #[test]
    fn planner_pushes_or_unions_down_to_mask_algebra() {
        // 256 papers, three disjoint-by-construction authors with 16
        // papers each: the OR union totals 48 candidates out of 256. A
        // multi-author band drive pays sort+dedup per candidate; the mask
        // union pays one bit per insert plus a word sweep — the planner
        // must pick the mask once the dedup term dominates.
        let mut b = NetworkBuilder::new();
        for i in 0..256u32 {
            let authors = if i % 16 < 3 { vec![i % 16] } else { vec![] };
            b.add_paper_with_metadata(2000, authors, None);
        }
        for i in 1..256u32 {
            b.add_citation(i, i - 1).unwrap();
        }
        let qe =
            QueryEngine::from_configs(b.build().unwrap(), &["cc"], RerankPolicy::Manual).unwrap();
        let q: Query = "k=5,author=0|1|2".parse().unwrap();
        let plan = qe.explain(&q).unwrap();
        assert_eq!(plan.driver, QueryDriver::MaskAlgebra { candidates: 48 });
        assert!(plan.residuals.is_empty(), "mask evaluates every predicate");
        let snap = qe.snapshot(None).unwrap();
        let page = qe.query(&q).unwrap();
        assert_eq!(ids(&page), reference(&snap, &q));
        assert_eq!(page.matched, 48);

        // A single selective author still takes the banded posting list.
        let plan = qe.explain(&"k=5,author=0".parse().unwrap()).unwrap();
        assert_eq!(
            plan.driver,
            QueryDriver::AuthorBands {
                authors: vec![0],
                len: 16
            }
        );
    }

    #[test]
    fn or_of_facets_matches_reference_under_every_driver() {
        let qe = engine();
        let snap = qe.snapshot(None).unwrap();
        for s in [
            "k=12,venue=0|1",
            "k=12,author=0|2",
            "k=12,author=1|2,year=2002..2009",
            "k=12,venue=0|1,author=2",
            "k=4,venue=1|0",
        ] {
            let q: Query = s.parse().unwrap();
            let page = qe.query(&q).unwrap();
            assert_eq!(ids(&page), reference(&snap, &q), "{s}");
            let full = Query { k: 12, ..q.clone() };
            assert_eq!(page.matched, reference(&snap, &full).len(), "{s}");
        }
    }

    #[test]
    fn pagination_tiles_the_filtered_ranking_exactly() {
        let qe = engine();
        let snap = qe.snapshot(None).unwrap();
        for filter in ["venue=0", "author=0", "year=2002..2010", ""] {
            let full: Query = format!("k=12,{filter}").parse().unwrap();
            let want = reference(&snap, &full);
            let mut got = Vec::new();
            let mut q: Query = format!("k=2,{filter}").parse().unwrap();
            let mut remaining = want.len();
            loop {
                let page = qe.query_at(&snap, &q).unwrap();
                assert_eq!(page.matched, remaining, "{filter}: matched tracks tail");
                got.extend(ids(&page));
                remaining -= page.items.len();
                match page.next {
                    Some(c) => q.cursor = Some(c),
                    None => break,
                }
            }
            assert_eq!(got, want, "pages tile {filter:?} without overlap or gaps");
        }
    }

    #[test]
    fn k_edge_cases() {
        let qe = engine();
        let page = qe.query(&"k=0,venue=0".parse().unwrap()).unwrap();
        assert!(page.items.is_empty());
        assert!(page.next.is_none(), "k=0 cannot mint a resume point");
        assert_eq!(page.matched, 4);

        let page = qe.query(&"k=100,venue=0".parse().unwrap()).unwrap();
        assert_eq!(page.items.len(), 4, "k past the match count returns all");
        assert!(page.next.is_none());
    }

    #[test]
    fn k0_counts_matches_under_every_driver() {
        // A k=0 query is a cheap count; the reported `matched` must not
        // depend on which driver the planner picks.
        let qe = engine();
        let snap = qe.snapshot(None).unwrap();
        for filter in ["year=2003..2007", "venue=0", "author=2", ""] {
            let q: Query = format!("k=0,{filter}").parse().unwrap();
            let want: Query = format!("k=12,{filter}").parse().unwrap();
            let page = qe.query(&q).unwrap();
            assert!(page.items.is_empty());
            assert_eq!(
                page.matched,
                reference(&snap, &want).len(),
                "driver for {filter:?}: {:?}",
                qe.explain(&q).unwrap().driver
            );
        }
    }

    #[test]
    fn duplicate_author_listing_never_duplicates_a_hit() {
        // A paper listing the same author twice (collapsed by
        // AuthorTable) must appear exactly once per page regardless of
        // whether the author posting list drives or is a residual.
        let mut b = NetworkBuilder::new();
        b.add_paper_with_metadata(2000, vec![0, 0], Some(0));
        for i in 1..6u32 {
            b.add_paper_with_metadata(2000 + i as Year, vec![1], Some(0));
            b.add_citation(i, i - 1).unwrap();
        }
        let qe = QueryEngine::from_configs(b.build().unwrap(), &["cc"], RerankPolicy::EveryBatch)
            .unwrap();
        // Author 0's posting list (1 paper) drives this plan.
        let q: Query = "k=10,author=0".parse().unwrap();
        assert_eq!(
            qe.explain(&q).unwrap().driver,
            QueryDriver::AuthorBands {
                authors: vec![0],
                len: 1
            }
        );
        let page = qe.query(&q).unwrap();
        assert_eq!(ids(&page), vec![0]);
        assert_eq!(page.matched, 1);
        // As a residual (year range drives), same answer.
        let q: Query = "k=10,author=0,year=2000..2001".parse().unwrap();
        let page = qe.query(&q).unwrap();
        assert_eq!(ids(&page), vec![0]);
        assert_eq!(page.matched, 1);
    }

    #[test]
    fn facet_query_sees_metadata_bearing_delta_immediately() {
        // The facet-staleness hole this PR closes: a paper published with
        // venue/author metadata must be visible to facet queries on the
        // very next query, through every driver.
        let qe = engine();
        let mut delta = GraphDelta::new();
        delta.add_paper_with_metadata(2012, vec![2, 7], Some(0));
        delta.add_paper_with_metadata(2013, vec![3], Some(5));
        delta.add_citation(12, 0);
        delta.add_citation(13, 12);
        qe.ingest(&delta).unwrap();

        // Existing venue 0 gains paper 12.
        let page = qe.query(&"k=12,venue=0".parse().unwrap()).unwrap();
        assert!(ids(&page).contains(&12), "new paper joins its venue");
        // Brand-new facet ids are immediately addressable.
        let page = qe.query(&"k=5,venue=5".parse().unwrap()).unwrap();
        assert_eq!(ids(&page), vec![13]);
        let page = qe.query(&"k=5,author=7".parse().unwrap()).unwrap();
        assert_eq!(ids(&page), vec![12]);
        // In-range facet ids with no papers are empty, not an error.
        let page = qe.query(&"k=5,venue=3".parse().unwrap()).unwrap();
        assert!(ids(&page).is_empty());
        assert_eq!(page.matched, 0);
        let page = qe.query(&"k=5,author=5".parse().unwrap()).unwrap();
        assert!(ids(&page).is_empty());
        // And the OR/mask path sees the delta papers too.
        let page = qe.query(&"k=14,venue=0|5".parse().unwrap()).unwrap();
        assert!(ids(&page).contains(&12) && ids(&page).contains(&13));
    }

    #[test]
    fn a_scratch_serves_each_epoch_its_own_page() {
        // A caller-owned scratch outlives publishes and is shared across
        // engines, whose epoch numbers coincide: nothing one query
        // gathered may reach another's page. First a scan under an author
        // residual, whose filter names no year range, so two epochs differ
        // in nothing but the corpus.
        let mut qe = engine();
        qe.set_cost_model(CostModel {
            scan_per_id: 1e-3,
            ..CostModel::default()
        });
        let q: Query = "k=20,author=2".parse().unwrap();
        assert!(qe.explain(&q).unwrap().is_residual_scan());
        let (mut scratch, mut out) = (QueryScratch::new(), PageBuf::new());
        qe.query_with(&q, &mut scratch, &mut out).unwrap();
        assert_eq!(out.matched(), 3);

        // Three publishes, each a new paper by author 2.
        for i in 0..3u32 {
            let mut delta = GraphDelta::new();
            delta.add_paper_with_metadata(2012 + i as Year, vec![2], None);
            delta.add_citation(12 + i, 0);
            qe.ingest(&delta).unwrap();
        }

        // Same scratch, same filter, a new epoch.
        qe.query_with(&q, &mut scratch, &mut out).unwrap();
        assert_eq!(out.to_page(), qe.query(&q).unwrap());
        assert_eq!(out.matched(), 6);

        // An author band, a mask and a venue band, likewise — and across
        // engines, whose epoch numbers coincide.
        let mut qe = engine();
        qe.set_cost_model(CostModel {
            scan_per_id: 1e3,
            ..CostModel::default()
        });
        let shapes: Vec<Query> = [
            "k=20,author=0,year=..2011",
            "k=20,author=0|2",
            "k=20,venue=0,year=..2011",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        let drivers: Vec<_> = shapes
            .iter()
            .map(|q| qe.explain(q).unwrap().driver.name())
            .collect();
        assert_eq!(drivers, ["author_bands", "mask_algebra", "venue_bands"]);
        for (q, matched) in shapes.iter().zip([6, 6, 4]) {
            qe.query_with(q, &mut scratch, &mut out).unwrap();
            assert_eq!(out.matched(), matched, "{q}");
        }
        let mut delta = GraphDelta::new();
        delta.add_paper_with_metadata(2011, vec![0], Some(0));
        qe.ingest(&delta).unwrap();
        for (q, matched) in shapes.iter().zip([7, 7, 5]) {
            qe.query_with(q, &mut scratch, &mut out).unwrap();
            assert_eq!(out.to_page(), qe.query(q).unwrap());
            assert_eq!(out.matched(), matched, "{q}");
        }
        let q = &shapes[2];
        let other = engine();
        other.query_with(q, &mut scratch, &mut out).unwrap();
        assert_eq!(
            out.matched(),
            4,
            "another engine's epoch 0 is another epoch"
        );
    }

    #[test]
    fn empty_year_range_is_empty_not_an_error() {
        let qe = engine();
        let page = qe.query(&"k=5,year=2010..2002".parse().unwrap()).unwrap();
        assert!(page.items.is_empty());
        assert_eq!(page.matched, 0);
        assert!(page.next.is_none());
    }

    #[test]
    fn missing_metadata_and_bad_ids_are_typed_errors() {
        let mut b = NetworkBuilder::new();
        b.add_paper(2000);
        b.add_paper(2001);
        b.add_citation(1, 0).unwrap();
        let bare = QueryEngine::from_configs(b.build().unwrap(), &["cc"], RerankPolicy::EveryBatch)
            .unwrap();
        assert_eq!(
            bare.query(&"k=3,venue=0".parse().unwrap()).unwrap_err(),
            QueryError::NoVenueData
        );
        assert_eq!(
            bare.query(&"k=3,author=0".parse().unwrap()).unwrap_err(),
            QueryError::NoAuthorData
        );

        let qe = engine();
        assert!(matches!(
            qe.query(&"k=3,venue=99".parse().unwrap()),
            Err(QueryError::UnknownVenue { id: 99, .. })
        ));
        assert!(matches!(
            qe.query(&"k=3,author=77".parse().unwrap()),
            Err(QueryError::UnknownAuthor { id: 77, .. })
        ));
        assert!(matches!(
            qe.query(&"method=hits,k=3".parse().unwrap()),
            Err(QueryError::UnknownMethod { .. })
        ));
    }

    #[test]
    fn stale_cursor_is_a_typed_error_pinned_snapshot_still_serves() {
        let qe = engine();
        let pinned = qe.snapshot(None).unwrap();
        let q: Query = "k=2,venue=0".parse().unwrap();
        let page = qe.query(&q).unwrap();
        let cursor = page.next.expect("more than 2 matches");

        // A publish moves the current epoch...
        let mut delta = GraphDelta::new();
        delta.add_paper(2012);
        delta.add_citation(12, 0);
        qe.ingest(&delta).unwrap();

        // ...so the cursor is stale against the *current* snapshot...
        let mut next_q = q.clone();
        next_q.cursor = Some(cursor);
        assert!(matches!(
            qe.query(&next_q),
            Err(QueryError::StaleCursor {
                cursor_epoch: 0,
                current_epoch: 1
            })
        ));
        // ...but the pinned snapshot keeps paginating its frozen epoch.
        let page2 = qe.query_at(&pinned, &next_q).unwrap();
        assert_eq!(page2.epoch, 0);
        let all = reference(&pinned, &"k=12,venue=0".parse().unwrap());
        assert_eq!(ids(&page2), all[2..4].to_vec());
    }

    #[test]
    fn fan_out_ingest_is_all_or_nothing() {
        // Regression: a delta that only *some* member engines accept must
        // be staged in none of them. Diverge the first-registered engine
        // by ingesting one paper directly, then fan out a batch citing
        // that paper — valid for the diverged engine, unknown id for the
        // other. The old fan-out staged members one by one and bailed
        // mid-loop, committing the batch to a strict subset.
        let qe = engine();
        let mut grow = GraphDelta::new();
        grow.add_paper(2012);
        qe.engine(Some("cc")).unwrap().ingest(&grow).unwrap();

        let epochs_before: Vec<u64> = ["cc", "pagerank"]
            .iter()
            .map(|m| qe.snapshot(Some(m)).unwrap().epoch())
            .collect();

        let mut delta = GraphDelta::new();
        delta.add_citation(12, 0); // paper 12 exists only on "cc"
        assert!(matches!(qe.ingest(&delta), Err(EngineError::Delta(_)),));

        // No member staged, published, or logged anything.
        for (m, before) in ["cc", "pagerank"].iter().zip(epochs_before) {
            let e = qe.engine(Some(m)).unwrap();
            assert_eq!(e.pending(), (0, 0), "{m} staged the rejected batch");
            assert_eq!(
                qe.snapshot(Some(m)).unwrap().epoch(),
                before,
                "{m} published off the rejected batch"
            );
        }
    }

    #[test]
    fn cursor_is_bound_to_its_method_and_filters() {
        let qe = engine();
        let page = qe.query(&"k=2,venue=0".parse().unwrap()).unwrap();
        let cursor = page.next.unwrap();

        // Same cursor, different filter → rejected.
        let mut q: Query = "k=2,venue=1".parse().unwrap();
        q.cursor = Some(cursor);
        assert_eq!(qe.query(&q).unwrap_err(), QueryError::CursorMismatch);

        // Widening the filter to an OR that *contains* the original
        // venue is still a different result set → rejected. (Regression:
        // a fingerprint over only the first facet would alias these.)
        let mut q: Query = "k=2,venue=0|1".parse().unwrap();
        q.cursor = Some(cursor);
        assert_eq!(qe.query(&q).unwrap_err(), QueryError::CursorMismatch);
        let mut q: Query = "k=2,venue=0,author=0|1".parse().unwrap();
        q.cursor = Some(cursor);
        assert_eq!(qe.query(&q).unwrap_err(), QueryError::CursorMismatch);

        // Same filter, different method → rejected.
        let mut q: Query = "method=pagerank,k=2,venue=0".parse().unwrap();
        q.cursor = Some(cursor);
        assert_eq!(qe.query(&q).unwrap_err(), QueryError::CursorMismatch);

        // Changing only k is allowed (page size is not part of the
        // result-set identity).
        let mut q: Query = "k=1,venue=0".parse().unwrap();
        q.cursor = Some(cursor);
        assert!(qe.query(&q).is_ok());
    }

    #[test]
    fn a_cursor_resumes_under_every_spelling_of_its_facet_set() {
        // The fingerprint hashes the normalized identity, so `venue=0|0`
        // and `venue=0` — one set — share cursors; `venue=0|1` does not.
        let qe = engine();
        let snap = qe.snapshot(None).unwrap();
        let page1 = |s: &str| qe.query_at(&snap, &s.parse().unwrap()).unwrap();
        let resume = |s: &str, cursor| {
            let mut q: Query = s.parse().unwrap();
            q.cursor = cursor;
            qe.query_at(&snap, &q)
        };
        let doubled = page1("k=2,venue=0|0")
            .next
            .expect("4 venue-0 papers at k=2");
        let single = page1("k=2,venue=0").next;
        assert_eq!(
            resume("k=2,venue=0", Some(doubled)).unwrap(),
            resume("k=2,venue=0", single).unwrap()
        );
        assert_eq!(
            resume("k=2,venue=0|1", Some(doubled)).unwrap_err(),
            QueryError::CursorMismatch
        );
    }

    #[test]
    fn rerank_shares_one_successor_network_across_methods() {
        // Methods re-rank in sequence, so the second adopts the successor
        // network the first just built off the same staged batch.
        let mut qe =
            QueryEngine::from_configs(corpus(), &["cc", "pagerank"], RerankPolicy::Manual).unwrap();
        qe.enable_metrics();
        let mut delta = GraphDelta::new();
        delta.add_paper(2012);
        delta.add_citation(12, 11);
        qe.ingest(&delta).unwrap();
        assert_eq!(qe.rerank(), vec![1, 1]);
        let text = qe.render_metrics().unwrap();
        assert!(text.contains("attrank_successor_networks_total{outcome=\"built\"} 1"));
        assert!(text.contains("attrank_successor_networks_total{outcome=\"shared\"} 1"));
        let snaps = [
            qe.snapshot(None).unwrap(),
            qe.snapshot(Some("pagerank")).unwrap(),
        ];
        assert!(Arc::ptr_eq(snaps[0].network(), snaps[1].network()));
    }

    #[test]
    fn compare_joins_ranks_from_both_snapshots() {
        let qe = engine();
        let q: Query = "method=cc,vs=pagerank,k=4,venue=0".parse().unwrap();
        let cmp = qe.compare(&q).unwrap();
        assert_eq!(cmp.method_a, "cc");
        assert_eq!(cmp.method_b, "pagerank");
        let snap_a = qe.snapshot(Some("cc")).unwrap();
        let snap_b = qe.snapshot(Some("pagerank")).unwrap();
        assert_eq!(cmp.rows.len(), ids(&cmp.page).len());
        for (row, hit) in cmp.rows.iter().zip(&cmp.page.items) {
            assert_eq!(row.id, hit.id);
            assert_eq!(row.rank_a, snap_a.rank_of(row.id).unwrap());
            assert_eq!(row.rank_b, snap_b.rank_of(row.id));
            assert_eq!(row.score_b, snap_b.score(row.id));
        }
        // Without vs= compare is a typed error.
        assert_eq!(
            qe.compare(&"k=4".parse().unwrap()).unwrap_err(),
            QueryError::MissingCompareMethod
        );
    }

    #[test]
    fn engine_set_construction_errors() {
        assert!(matches!(
            QueryEngine::from_configs(corpus(), &[], RerankPolicy::Manual),
            Err(QueryError::Syntax { .. })
        ));
        assert!(matches!(
            QueryEngine::from_configs(
                corpus(),
                &["pagerank:d=0.5", "pagerank:d=0.85"],
                RerankPolicy::Manual
            ),
            Err(QueryError::DuplicateMethod { .. })
        ));
        assert!(matches!(
            QueryEngine::from_configs(corpus(), &["nope"], RerankPolicy::Manual),
            Err(QueryError::Spec(_))
        ));
    }

    #[test]
    fn methods_are_addressable_and_default_is_first() {
        let qe = engine();
        assert_eq!(qe.methods(), vec!["cc", "pagerank"]);
        let by_name = qe.query(&"method=cc,k=3".parse().unwrap()).unwrap();
        let by_default = qe.query(&"k=3".parse().unwrap()).unwrap();
        assert_eq!(ids(&by_name), ids(&by_default));
        let pr = qe.query(&"method=pagerank,k=3".parse().unwrap()).unwrap();
        assert_eq!(pr.method, "pagerank");
    }

    #[test]
    fn seed_grammar_is_strict_where_facets_stay_lenient() {
        // A duplicate seed id is a typed error naming the id...
        let err = "seed=2|2".parse::<Query>().unwrap_err();
        assert!(
            matches!(&err, QueryError::BadValue { key, value }
                if key == "seed" && value.starts_with('2')),
            "{err:?}"
        );
        assert!(err.to_string().contains('2'));
        let err = "seed=7|3|7".parse::<Query>().unwrap_err();
        assert!(
            matches!(&err, QueryError::BadValue { key, value }
                if key == "seed" && value.starts_with('7')),
            "{err:?}"
        );
        // ...and malformed entries fail like any id list.
        assert!(matches!(
            "seed=1|x".parse::<Query>(),
            Err(QueryError::BadValue { ref key, .. }) if key == "seed"
        ));
        // Facet OR lists keep their silent dedup: a repeated id names
        // the same set, and the query serves.
        let qe = engine();
        let q: Query = "k=4,venue=0|0".parse().unwrap();
        let snap = qe.snapshot(None).unwrap();
        assert_eq!(ids(&qe.query(&q).unwrap()), reference(&snap, &q));
    }

    #[test]
    fn seeded_query_matches_dense_personalized_reference() {
        let qe = engine();
        let q: Query = "method=pagerank,k=12,seed=11".parse().unwrap();
        let page = qe.query(&q).unwrap();
        let snap = qe.snapshot(Some("pagerank")).unwrap();
        let seed = SeedPersonalization::uniform(&[11], snap.n_papers()).unwrap();
        let mut ws = KernelWorkspace::new();
        let dense = dense_personalized(snap.network(), &seed, 0.5, &mut ws);
        assert_eq!(ids(&page), reference_scored(&snap, &q, dense.as_slice()));
        for hit in &page.items {
            assert!(
                (hit.score - dense[hit.id as usize]).abs() < 1e-9,
                "paper {}: served {} vs dense {}",
                hit.id,
                hit.score,
                dense[hit.id as usize]
            );
        }
        // The second ask of the same seed set is a cache hit.
        qe.query(&q).unwrap();
        let stats = qe.personalization_stats();
        assert_eq!(stats.hits, 1);
        assert!(stats.cold_pushes >= 1);
    }

    #[test]
    fn seeded_queries_compose_with_facets_and_paginate() {
        let qe = engine();
        let snap = qe.snapshot(Some("pagerank")).unwrap();
        let seed = SeedPersonalization::uniform(&[10, 11], snap.n_papers()).unwrap();
        let mut ws = KernelWorkspace::new();
        let dense = dense_personalized(snap.network(), &seed, 0.5, &mut ws);
        for filter in ["", ",venue=0", ",year=2002..2009", ",author=0"] {
            let full: Query = format!("method=pagerank,k=12,seed=10|11{filter}")
                .parse()
                .unwrap();
            let want = reference_scored(&snap, &full, dense.as_slice());
            let mut q: Query = format!("method=pagerank,k=2,seed=10|11{filter}")
                .parse()
                .unwrap();
            let mut got = Vec::new();
            loop {
                let page = qe.query_at(&snap, &q).unwrap();
                got.extend(ids(&page));
                match page.next {
                    Some(c) => q.cursor = Some(c),
                    None => break,
                }
            }
            assert_eq!(got, want, "seeded pages tile {filter:?}");
        }
    }

    #[test]
    fn seeded_cursor_is_bound_to_the_seed_set() {
        let qe = engine();
        let page = qe
            .query(&"method=pagerank,k=2,seed=11|4".parse().unwrap())
            .unwrap();
        let cursor = page.next.expect("12 papers match the empty filter");

        // A different seed set walks a different ranking → rejected.
        let mut q: Query = "method=pagerank,k=2,seed=11".parse().unwrap();
        q.cursor = Some(cursor);
        assert_eq!(qe.query(&q).unwrap_err(), QueryError::CursorMismatch);
        // Same set in a different order is the same distribution (the
        // fingerprint covers the *sorted* seeds) → resumes.
        let mut q: Query = "method=pagerank,k=2,seed=4|11".parse().unwrap();
        q.cursor = Some(cursor);
        assert!(qe.query(&q).is_ok());
        // An unseeded cursor cannot resume a seeded walk (or vice versa).
        let unseeded = qe.query(&"method=pagerank,k=2".parse().unwrap()).unwrap();
        let mut q: Query = "method=pagerank,k=2,seed=11|4".parse().unwrap();
        q.cursor = unseeded.next;
        assert_eq!(qe.query(&q).unwrap_err(), QueryError::CursorMismatch);
    }

    #[test]
    fn seed_serve_time_errors_are_typed() {
        let qe = engine();
        // The default method (cc) has no damping factor.
        let err = qe.query(&"k=3,seed=0".parse().unwrap()).unwrap_err();
        assert!(
            matches!(err, QueryError::SeedUnsupported { ref method } if method == "cc"),
            "{err:?}"
        );
        // An out-of-range seed names the offending id.
        let err = qe
            .query(&"method=pagerank,k=3,seed=99".parse().unwrap())
            .unwrap_err();
        assert!(
            matches!(&err, QueryError::BadValue { key, value }
                if key == "seed" && value.starts_with("99")),
            "{err:?}"
        );
    }

    #[test]
    fn query_eq_compares_every_field() {
        let base: Query = "method=attrank,vs=cc,k=7,year=1990..2000,venue=1|2,author=3,seed=4|5"
            .parse()
            .unwrap();
        assert_eq!(base, base.clone());
        assert_eq!(Query::default(), Query::default());
        let cursor = Cursor::after(1, 0.5, 9, 42);
        type Tweak = (&'static str, fn(&mut Query));
        let tweaks: [Tweak; 10] = [
            ("method", |q| q.method = None),
            ("vs", |q| q.vs = Some("pagerank".into())),
            ("k", |q| q.k = 8),
            ("year_min", |q| q.year_min = Some(1991)),
            ("year_max", |q| q.year_max = None),
            ("venues", |q| q.venues = vec![2, 1]),
            ("authors", |q| q.authors.clear()),
            ("seeds", |q| q.seeds.push(6)),
            ("cursor", |q| q.cursor = Some(Cursor::after(1, 0.5, 9, 42))),
            ("authors, one longer", |q| q.authors = vec![3, 3]),
        ];
        for (field, tweak) in tweaks {
            let mut q = base.clone();
            tweak(&mut q);
            assert_ne!(q, base, "{field}");
            assert_ne!(base, q, "{field}");
        }
        // Two empty lists are equal however they were made.
        let q = Query {
            venues: Vec::with_capacity(4),
            ..Query::default()
        };
        assert_eq!(q, Query::default());
        let mut q = base.clone();
        q.cursor = Some(cursor);
        assert_eq!(q, q.clone());
    }

    #[test]
    fn serve_batch_serves_each_distinct_member_once() {
        // Members are plain numbers; an odd one fails. A served member
        // answers its later duplicates; an error is never remembered.
        let mut calls = Vec::new();
        let (a, b, err) = (2u32, 4, 7);
        let results = serve_batch(&[a, b, a, err, err, a], |&m| {
            calls.push(m);
            if m % 2 == 0 {
                Ok(m * 10)
            } else {
                Err(format!("{m} is odd"))
            }
        });
        assert_eq!(calls, [a, b, err, err]);
        let odd = || Err("7 is odd".to_string());
        assert_eq!(results, [Ok(20), Ok(40), Ok(20), odd(), odd(), Ok(20)]);
    }

    #[test]
    fn plan_cache_serves_each_identity_its_own_plan() {
        // Two queries forced onto one fingerprint (FNV-1a is collidable by
        // whoever writes the grammar string): the entry's stored identity,
        // not the hash, decides whether its plans serve.
        let (net, cost, cache) = (corpus(), CostModel::default(), PlanCache::new(8));
        let lookup = |s: &str| {
            let q: Query = s.parse().unwrap();
            let mut facets = QueryScratch::new();
            facets.set_facets(&q);
            facets.set_identity("cc", &q);
            let plan = || price_partition(&net, &q, &facets, false, &cost, false);
            let got = cache.get_or_plan((42, false), 0, &facets.identity, || Ok(vec![(0, plan())]));
            assert_eq!(got.unwrap()[..], [(0, plan())], "{s}");
        };
        lookup("k=5,venue=0");
        lookup("k=5,venue=1,author=2,year=2003..");
        lookup("k=5,venue=0");
        lookup("k=5,venue=0");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.stale, s.entries), (1, 3, 0, 1));
    }

    #[test]
    fn poisoned_serve_locks_recover() {
        let qe = engine();
        let q: Query = "k=4,venue=0|1".parse().unwrap();
        let page = qe.query(&q).unwrap();
        // Poison both locks on the serve path from panicking threads.
        std::thread::scope(|scope| {
            let pool = scope.spawn(|| {
                let _held = qe.core.read.scratches.warm.lock();
                panic!("poisoning the scratch pool");
            });
            let plans = scope.spawn(|| {
                let _held = qe.core.read.plans.inner.lock();
                panic!("poisoning the plan cache");
            });
            assert!(pool.join().is_err() && plans.join().is_err());
        });
        assert!(qe.core.read.scratches.warm.is_poisoned());
        assert!(qe.core.read.plans.inner.is_poisoned());
        assert_eq!(qe.query(&q).unwrap(), page);
        // The plan cache dropped its entries and cleared the poison.
        assert!(!qe.core.read.plans.inner.is_poisoned());
        assert_eq!(qe.plan_cache_stats().entries, 1);
        let batch = qe.query_batch(&[q.clone(), q]);
        assert_eq!(batch, [Ok(page.clone()), Ok(page)]);
    }

    #[test]
    fn a_poisoned_personalization_cache_recovers() {
        let qe = engine();
        let q: Query = "method=pagerank,k=4,seed=3|7".parse().unwrap();
        let page = qe.query(&q).unwrap();
        let solved = qe.personalization_stats();
        assert_eq!(solved.entries, 1);
        std::thread::scope(|scope| {
            let cache = scope.spawn(|| {
                let _held = qe.core.read.cache.inner.lock();
                panic!("poisoning the personalization cache");
            });
            assert!(cache.join().is_err());
        });
        assert!(qe.core.read.cache.inner.is_poisoned());
        // The next seeded page re-solves into an emptied cache: the same
        // page, one entry counted once, and the lock no longer poisoned.
        assert_eq!(qe.query(&q).unwrap(), page);
        assert!(!qe.core.read.cache.inner.is_poisoned());
        let stats = qe.personalization_stats();
        assert_eq!((stats.entries, stats.bytes), (1, solved.bytes));
        assert_eq!((stats.hits, stats.cold_pushes), (0, solved.cold_pushes + 1));
        assert_eq!(qe.query(&q).unwrap(), page);
        assert_eq!(qe.personalization_stats().hits, 1);
    }

    #[test]
    fn refit_cost_model_shifts_the_plan_crossover() {
        // The 256-paper OR fixture from the mask test: under the baked
        // model the 3-author OR pushes down to mask algebra. On a
        // machine whose scan/mask side measures 10x slower (posting
        // anchor unchanged), the banded drive is the cheaper plan — the
        // refit must flip the planner's choice.
        let mut b = NetworkBuilder::new();
        for i in 0..256u32 {
            let authors = if i % 16 < 3 { vec![i % 16] } else { vec![] };
            b.add_paper_with_metadata(2000, authors, None);
        }
        for i in 1..256u32 {
            b.add_citation(i, i - 1).unwrap();
        }
        let net = b.build().unwrap();
        let q: Query = "k=5,author=0|1|2".parse().unwrap();
        let baked = CostModel::default();
        assert!(matches!(
            plan_shaped(&net, &q, &baked, false).unwrap().driver,
            QueryDriver::MaskAlgebra { .. }
        ));
        let refit = CostModel {
            scan_per_id: 10.0 * baked.scan_per_id,
            mask_insert: 10.0 * baked.mask_insert,
            mask_per_word: 10.0 * baked.mask_per_word,
            ..baked
        };
        assert!(matches!(
            plan_shaped(&net, &q, &refit, false).unwrap().driver,
            QueryDriver::AuthorBands { .. }
        ));
        // The engine surface honors an installed model the same way.
        let mut qe = QueryEngine::from_configs(net, &["cc"], RerankPolicy::Manual).unwrap();
        qe.set_cost_model(refit);
        assert!(matches!(
            qe.explain(&q).unwrap().driver,
            QueryDriver::AuthorBands { .. }
        ));
    }
}
