//! Allocation-counting harness for the steady-state read path.
//!
//! `QueryEngine::query_with` documents a hard contract: once a
//! [`rankengine::QueryScratch`] and [`rankengine::PageBuf`] are warm,
//! an unseeded query performs **zero heap allocations** — plan-cache
//! hit, the block walk or a candidate gather into warm buffers, `_into`
//! selection kernels, cursor encode into the reused token buffer. This
//! crate swaps in a counting global allocator and pins that contract per
//! plan driver, an id range under facet residuals included. It must stay a
//! single `#[test]`: the counter is process-global, so a concurrent
//! test's allocations would bleed into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use citegraph::{CitationNetwork, NetworkBuilder, Year};
use rankengine::{CostModel, PageBuf, Query, QueryDriver, QueryEngine, QueryScratch, RerankPolicy};

/// [`System`] plus a relaxed counter on every allocating entry point.
/// Only allocations made *by the test thread* count: the libtest
/// harness's own threads allocate at unpredictable times (observed as
/// intermittent 48/96-byte pairs), and those must not bleed into the
/// measured window.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MEASURED_THREAD: AtomicU64 = const { AtomicU64::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURED_THREAD.with(|f| f.load(Ordering::Relaxed)) == 1 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if MEASURED_THREAD.with(|f| f.load(Ordering::Relaxed)) == 1 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// 300 papers with venue/author metadata and a moderate citation fan —
/// big enough that every plan driver has real candidate lists.
fn corpus() -> CitationNetwork {
    let mut b = NetworkBuilder::new();
    for i in 0..300u32 {
        let mut authors = vec![i % 7];
        if i % 4 == 0 {
            authors.push(7);
        }
        let venue = match i % 5 {
            4 => None,
            v => Some(v),
        };
        b.add_paper_with_metadata(1990 + (i / 10) as Year, authors, venue);
    }
    for i in 1..300u32 {
        let fan = 1 + i % 5;
        for d in 1..=fan {
            if d <= i {
                b.add_citation(i, i - d).unwrap();
            }
        }
    }
    b.build().unwrap()
}

#[test]
fn steady_state_queries_allocate_nothing() {
    MEASURED_THREAD.with(|f| f.store(1, Ordering::Relaxed));
    let mut qe = QueryEngine::from_configs(corpus(), &["cc"], RerankPolicy::Manual).unwrap();
    let mut scratch = QueryScratch::new();
    let mut out = PageBuf::new();

    // One shape per plan driver (seeded excluded: the personalization
    // cache probe hands back an Arc but its solve path is not part of
    // the zero-allocation contract).
    let shapes: Vec<Query> = [
        "k=10",                       // unfiltered: a slice of the head
        "k=25",                       // a deeper slice of the head
        "k=5,year=2019..",            // the current year: its cut's head
        "k=10,year=2005..2015",       // id-range scan
        "k=10,venue=0",               // venue banded postings: its head
        "k=10,venue=1|3,year=2000..", // OR-venue bands under a year bound
        "k=5,year=2010..,venue=0",    // a venue's year: its cut's head
        "k=5,year=2010..,venue=2|3",  // two venues' year cuts' heads
        "k=10,author=1,year=2000..",  // author bands under a year bound
        "k=10,venue=0,author=1",      // mask-algebra pushdown
        "k=0,venue=2",                // count-only path
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();

    let or_venues = qe.explain(&shapes[5]).unwrap().driver;
    assert!(
        matches!(or_venues, QueryDriver::VenueBands { ref venues, .. } if venues.len() == 2),
        "{or_venues:?}"
    );

    for q in &shapes {
        assert_steady_state_free(&qe, q, &mut scratch, &mut out);
    }

    // Paginated steady state: resuming through a cursor is also free
    // once warm (the token decodes into stack values, the next token
    // re-encodes into the reused buffer) — pages 2 that are slices of
    // heads: unfiltered, current-year, one venue's and two venues' since a
    // year.
    for first in [
        "k=10,venue=0",
        "k=10",
        "k=25",
        "k=5,year=2019..",
        "k=5,year=2010..,venue=0",
        "k=5,year=2010..,venue=2|3",
    ] {
        let first: Query = first.parse().unwrap();
        let resumed = second_page(&qe, &first, &mut scratch, &mut out);
        assert_steady_state_free(&qe, &resumed, &mut scratch, &mut out);
    }

    // An id range under venue and author residuals: the baked model never
    // plans one on this corpus, a model with cheap scans does. Its page 1,
    // its page 2 and its count are walked with the residual per id.
    qe.set_cost_model(CostModel {
        scan_per_id: 1e-3,
        ..CostModel::default()
    });
    let scan: Query = "k=10,venue=0,author=1,year=2000..".parse().unwrap();
    let plan = qe.explain(&scan).unwrap();
    assert!(
        matches!(plan.driver, QueryDriver::IdRange { .. }),
        "{plan:?}"
    );
    assert_eq!(plan.residuals, ["venue", "author"]);
    // Six papers match, so the page that has a second one is shallower.
    let shallow = Query {
        k: 3,
        ..scan.clone()
    };
    let resumed = second_page(&qe, &shallow, &mut scratch, &mut out);
    let count = Query {
        k: 0,
        ..scan.clone()
    };
    for q in [&scan, &resumed, &count] {
        assert_steady_state_free(&qe, q, &mut scratch, &mut out);
    }
}

/// `first` resumed at its next page, which must exist.
fn second_page(
    qe: &QueryEngine,
    first: &Query,
    scratch: &mut QueryScratch,
    out: &mut PageBuf,
) -> Query {
    qe.query_with(first, scratch, out).unwrap();
    let mut resumed = first.clone();
    resumed.cursor = out.next();
    assert!(resumed.cursor.is_some(), "{first} has a second page");
    resumed
}

/// Serves `q` twice to warm the plan cache and every buffer, then 32
/// times more, which must allocate nothing and serve the same count.
fn assert_steady_state_free(
    qe: &QueryEngine,
    q: &Query,
    scratch: &mut QueryScratch,
    out: &mut PageBuf,
) {
    qe.query_with(q, scratch, out).unwrap();
    qe.query_with(q, scratch, out).unwrap();
    let matched = out.matched();

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..32 {
        qe.query_with(q, scratch, out).unwrap();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state {q} allocated ({matched} matches)"
    );
    assert_eq!(out.matched(), matched, "reused buffers changed the page");
}
