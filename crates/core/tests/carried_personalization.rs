//! Exactness of the personalization [`IncrementalAttRank`] carries across
//! deltas: after every `update_delta` the attention window's counts equal
//! a recount of the successor network, the lane scalars stand for a full
//! solve's personalization — each lane's `scale/mass` times its per-paper
//! `b̂` equals [`jump_components`] of the successor to rounding, and a full
//! solve's own scalars are exactly `[1, β, γ]` over `[n, Σ counts,
//! Σ recency]` — and the served scores stay within 1e-9 of a from-scratch
//! [`AttRank`] solve — over chains that mix new papers, bibliography
//! corrections from old citing papers inside and outside the window,
//! duplicate edges, metadata-bearing and metadata-free batches, and year
//! rollovers that move the window start.

use attrank::{
    jump_components, recency_vector, AttRank, AttRankParams, CarriedPersonalization,
    IncrementalAttRank,
};
use citegen::{generate, publish_delta, DatasetProfile};
use citegraph::{
    window, CitationNetwork, DeltaStrategy, GraphDelta, NetworkBuilder, PaperId, PushRankConfig,
    Ranker, Year,
};
use proptest::collection::vec;
use proptest::prelude::*;
use sparsela::{KernelWorkspace, ScoreVec};

/// A work budget no fixture exhausts: on these small random graphs a
/// same-year citation cycle can cost a push several passes, and the point
/// is the push path's state.
fn ample_budget() -> PushRankConfig {
    PushRankConfig {
        budget_sweeps: 1e6,
        ..PushRankConfig::default()
    }
}

fn bits(v: &ScoreVec) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `|got − want| ≤ 1e-13·|want|`: equal to rounding.
fn assert_rounding(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() <= 1e-13 * want.abs(),
        "{what}: carried {got:e} vs a full solve's {want:e}"
    );
}

/// Everything pinned after one `update_delta` onto `new`.
fn assert_carried_exact(
    inc: &IncrementalAttRank,
    params: &AttRankParams,
    new: &CitationNetwork,
    scores: &ScoreVec,
) {
    let carried = inc
        .carried_personalization()
        .expect("a delta update leaves its push state cached");
    assert_eq!(
        carried.window_counts,
        window::recent_citation_counts(new, params.attention_years),
        "carried window counts differ from a recount"
    );
    // Each lane stands for `scale/mass · b̂`: the kernel's `1/n`, and the
    // β·A and γ·T a full solve on `new` builds.
    let weight = |k: usize| carried.scales[k] / carried.masses[k];
    assert_rounding(weight(0), 1.0 / new.n_papers() as f64, "kernel");
    let (att_full, rec_full) = jump_components(new, params, &mut KernelWorkspace::new());
    for p in 0..new.n_papers() {
        let att = weight(1) * f64::from(carried.window_counts[p]);
        assert_rounding(att, att_full[p], &format!("β·A of paper {p}"));
        let age = f64::from(carried.year0 - new.years()[p]);
        let rec = weight(2) * (params.decay_w * age).exp();
        assert_rounding(rec, rec_full[p], &format!("γ·T of paper {p}"));
    }
    let scratch = AttRank::new(*params).rank(new);
    for p in 0..new.n_papers() {
        assert!(
            (scores[p] - scratch[p]).abs() <= 1e-9,
            "paper {p}: incremental {} vs scratch {}",
            scores[p],
            scratch[p]
        );
    }
}

/// Raw material of one batch: per new paper a year bump, whether the batch
/// carries metadata (1) or not (0), and `(a, b, kind)` edge seeds resolved
/// by [`stage`].
type RawBatch = (Vec<Year>, u8, Vec<(u32, u32, u8)>);

fn batch_strategy() -> impl Strategy<Value = RawBatch> {
    let edge = (0u32..1000, 0u32..1000, 0u8..5);
    (vec(0..3, 0..4), 0u8..2, vec(edge, 0..10))
}

/// Resolves a raw batch into a valid delta onto `net`. Edge kinds: a new
/// paper citing any paper (0, 1 — inside or outside the window as `b`
/// falls), a bibliography correction from any old paper (2 — its citing
/// year decides whether the window sees it), a copy of an existing edge
/// (3), a repeat of the batch's previous edge (4).
fn stage(net: &CitationNetwork, (bumps, metadata, edges): &RawBatch) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let n_old = net.n_papers();
    let mut years = net.years().to_vec();
    let mut year = net.current_year().expect("non-empty base");
    for (i, bump) in bumps.iter().enumerate() {
        year += bump;
        if *metadata == 1 {
            delta.add_paper_with_metadata(year, vec![i as u32 % 3], Some(i as u32 % 2));
        } else {
            delta.add_paper(year);
        }
        years.push(year);
    }
    let n_new = bumps.len();
    let n_total = n_old + n_new;
    for &(a, b, kind) in edges {
        let (a, b) = (a as usize, b as usize);
        let (citing, cited) = match kind {
            0 | 1 if n_new > 0 => (n_old + a % n_new, b % n_total),
            2 => (a % n_old, b % n_total),
            3 if net.n_citations() > 0 => {
                let citing = (0..n_old)
                    .cycle()
                    .skip(a % n_old)
                    .find(|&p| net.reference_count(p as PaperId) > 0)
                    .expect("some paper cites");
                let row = net.references(citing as PaperId);
                (citing, row[b % row.len()] as usize)
            }
            4 => match delta.citations.last() {
                Some(&(citing, cited)) => (citing as usize, cited as usize),
                None => continue,
            },
            _ => continue,
        };
        if citing != cited && years[cited] <= years[citing] {
            delta.add_citation(citing as PaperId, cited as PaperId);
        }
    }
    delta
}

/// A time-sorted base of `years.len()` papers (with metadata) whose edges
/// are the temporally valid ones among `raw`.
fn base_network(years: &[Year], raw: &[(u32, u32)]) -> CitationNetwork {
    let mut sorted = years.to_vec();
    sorted.sort_unstable();
    let mut b = NetworkBuilder::new();
    for (i, &y) in sorted.iter().enumerate() {
        b.add_paper_with_metadata(y, vec![i as u32 % 4], Some(i as u32 % 3));
    }
    let n = sorted.len() as u32;
    for &(citing, cited) in raw {
        let (citing, cited) = (citing % n, cited % n);
        if citing != cited && sorted[cited as usize] <= sorted[citing as usize] {
            b.add_citation(citing, cited).unwrap();
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn carried_state_is_exact_along_random_chains(
        years in vec(2000..2006, 20..50),
        raw_edges in vec((0u32..1000, 0u32..1000), 20..160),
        batches in vec(batch_strategy(), 2..7),
        alpha in 0usize..2,
        y in 1u32..=3,
        w in 0usize..2,
    ) {
        let params = AttRankParams::new([0.2, 0.5][alpha], 0.4, y, [0.0, -0.16][w]).unwrap();
        let mut net = base_network(&years, &raw_edges);
        let mut inc = IncrementalAttRank::new(params);
        inc.set_push_config(ample_budget());
        inc.update(&net);

        // A clone taken mid-chain must continue to the same bits.
        let fork_at = batches.len() / 2;
        let mut fork: Option<IncrementalAttRank> = None;
        for (step, raw) in batches.iter().enumerate() {
            if step == fork_at {
                fork = Some(inc.clone());
            }
            let delta = stage(&net, raw);
            let new = net.with_delta(&delta).unwrap();
            let (diag, _) = inc.update_delta(&net, &delta, &new);
            assert_carried_exact(&inc, &params, &new, &diag.scores);
            if let Some(fork) = fork.as_mut() {
                let (forked, _) = fork.update_delta(&net, &delta, &new);
                prop_assert_eq!(bits(&forked.scores), bits(&diag.scores));
            }
            net = new;
        }
        let fork = fork.expect("forked mid-chain");
        assert_same_carried(
            inc.carried_personalization().unwrap(),
            fork.carried_personalization().unwrap(),
        );
    }
}

fn assert_same_carried(a: CarriedPersonalization<'_>, b: CarriedPersonalization<'_>) {
    assert_eq!(a.window_counts, b.window_counts);
    assert_eq!(a.year0, b.year0);
    assert_eq!(a.masses.map(f64::to_bits), b.masses.map(f64::to_bits));
    assert_eq!(a.scales.map(f64::to_bits), b.scales.map(f64::to_bits));
}

/// A full solve's scalars: each lane at the mass it was solved with, so
/// every scale is its personalization's weight exactly.
#[test]
fn a_full_solve_carries_unit_drift() {
    let params = AttRankParams::new(0.2, 0.4, 3, -0.16).unwrap();
    let net = generate(&DatasetProfile::hepth().scaled(1_500), 7);
    let mut inc = IncrementalAttRank::new(params);
    inc.update(&net);
    let carried = inc.carried_personalization().unwrap();
    let counted: u64 = carried.window_counts.iter().map(|&c| u64::from(c)).sum();
    assert!(counted > 0);
    assert_eq!(carried.year0, net.current_year().unwrap());
    assert_eq!(carried.masses[0], net.n_papers() as f64);
    assert_eq!(carried.masses[1], counted as f64);
    assert_eq!(
        carried.scales,
        [1.0, params.beta(), params.gamma()],
        "no drift at the solve"
    );
}

/// The scripted chain: every case the issue names, each on the push path
/// (so the counts checked are the *carried* ones, not a fallback recount).
#[test]
fn every_named_case_pushes_and_stays_exact() {
    let params = AttRankParams::new(0.2, 0.4, 3, -0.16).unwrap();
    let mut net = generate(&DatasetProfile::hepth().scaled(1_500), 7);
    let mut inc = IncrementalAttRank::new(params);
    inc.update(&net);

    let y = params.attention_years;
    let t_n = net.current_year().unwrap();
    let n0 = net.n_papers() as PaperId;
    let window_start = window::recent_window_start(&net, y) as PaperId;
    assert!(0 < window_start && window_start < n0 - 1);
    let citing_in = n0 - 1; // newest paper: inside the window
    let citing_out = window_start - 1; // last paper before the window
    let uncited_by = |net: &CitationNetwork, citing: PaperId| -> PaperId {
        (0..citing)
            .find(|&p| !net.references(citing).contains(&p) && net.year(p) <= net.year(citing))
            .expect("some older paper is not yet cited")
    };

    let steps = [
        "first publish",
        "new papers",
        "corrections",
        "duplicates",
        "metadata",
        "year rollover",
    ];
    for name in steps {
        let n = net.n_papers() as PaperId;
        let mut delta = GraphDelta::new();
        match name {
            // Pushes from the state `update` left.
            "first publish" => delta = publish_delta(&net, 10, 5, 1),
            "new papers" => {
                delta.add_paper(t_n);
                delta.add_paper(t_n);
                delta.add_citation(n, window_start + 1); // a target inside the window
                delta.add_citation(n, 0); // and one far outside it
                delta.add_citation(n + 1, n); // a same-batch citation
            }
            // Bibliography corrections from old citing papers.
            "corrections" => {
                delta.add_citation(citing_in, uncited_by(&net, citing_in));
                delta.add_citation(citing_out, uncited_by(&net, citing_out));
            }
            "duplicates" => {
                let fresh = uncited_by(&net, citing_in);
                delta.add_citation(citing_in, net.references(citing_in)[0]); // already there
                delta.add_citation(citing_in, fresh);
                delta.add_citation(citing_in, fresh); // twice in the batch
                delta.add_citation(citing_out, net.references(citing_out)[0]);
            }
            "metadata" => {
                delta.add_paper_with_metadata(t_n, vec![0, 1], Some(0));
                delta.add_citation(n, citing_in);
            }
            // The batch advances `current_year`: the window start moves.
            _ => {
                delta.add_paper(t_n + 1);
                delta.add_citation(n, citing_in);
                delta.add_citation(n, 1);
            }
        }
        let start_before = window::recent_window_start(&net, y);
        let new = net.with_delta(&delta).unwrap();
        let (diag, strategy) = inc.update_delta(&net, &delta, &new);
        assert!(
            matches!(strategy, DeltaStrategy::Push { .. }),
            "{name}: expected the push path, got {strategy:?}"
        );
        let moved = window::recent_window_start(&new, y) != start_before;
        assert_eq!(moved, name == "year rollover", "{name}");
        assert_carried_exact(&inc, &params, &new, &diag.scores);
        net = new;
    }
}

/// A fresh scorer given a live one's push state — what a restart reads
/// back from its store — carries the same personalization, resolves the
/// same kernel and pushes the next delta to the same bits.
#[test]
fn restored_push_state_continues_like_the_live_scorer() {
    let params = AttRankParams::new(0.2, 0.4, 3, -0.16).unwrap();
    let mut net = generate(&DatasetProfile::hepth().scaled(1_500), 7);
    let mut live = IncrementalAttRank::new(params);
    live.update(&net);
    // Two pushes from the state `update` left.
    for seed in 1..=2 {
        let delta = publish_delta(&net, 10, 5, seed);
        let new = net.with_delta(&delta).unwrap();
        live.update_delta(&net, &delta, &new);
        net = new;
    }

    let mut restored = IncrementalAttRank::new(params);
    assert!(!restored.restore(&net, None), "no state, no lanes");
    assert!(restored.carried_personalization().is_none());
    let (lanes, scalars) = live.push_state().unwrap();
    assert!(
        !restored.restore(&net, Some((lanes, &scalars[..6]))),
        "a scalar short"
    );
    assert!(restored.restore(&net, Some((lanes, &scalars))));
    assert_same_carried(
        live.carried_personalization().unwrap(),
        restored.carried_personalization().unwrap(),
    );
    assert_eq!(
        bits(restored.kernel().unwrap()),
        bits(live.kernel().unwrap()),
        "the restored kernel"
    );

    let delta = publish_delta(&net, 10, 5, 3);
    let new = net.with_delta(&delta).unwrap();
    let (want, want_strategy) = live.update_delta(&net, &delta, &new);
    let (got, got_strategy) = restored.update_delta(&net, &delta, &new);
    assert!(
        matches!(got_strategy, DeltaStrategy::Push { .. }),
        "{got_strategy:?}"
    );
    assert_eq!(got_strategy, want_strategy);
    assert_eq!(bits(&got.scores), bits(&want.scores));
}

/// `recency_vector` as it was before the per-year `exp`: one `exp` per
/// paper, then the same normalization.
fn recency_per_paper(net: &CitationNetwork, w: f64) -> ScoreVec {
    let Some(t_n) = net.current_year() else {
        return ScoreVec::zeros(0);
    };
    let mut v = ScoreVec::zeros(net.n_papers());
    for p in 0..net.n_papers() {
        v[p] = (w * (t_n - net.years()[p]) as f64).exp();
    }
    v.normalize_l1();
    v
}

#[test]
fn recency_vector_is_bit_identical_to_the_per_paper_form() {
    let corpora = [
        generate(&DatasetProfile::dblp().scaled(3_000), 7),
        generate(&DatasetProfile::hepth().scaled(2_000), 3),
        NetworkBuilder::new().build().unwrap(),
    ];
    for net in &corpora {
        for w in [0.0, -0.16] {
            assert_eq!(
                bits(&recency_vector(net, w)),
                bits(&recency_per_paper(net, w)),
                "n = {}, w = {w}",
                net.n_papers()
            );
        }
    }
}
