//! Seed-set personalized ranking: per-query solves of `x = α·S·x + b`
//! where `b` concentrates teleport mass on a validated seed set.
//!
//! The damped fixed point every method in this workspace iterates is
//! exactly personalized PageRank when `b` is a seed distribution — the
//! local push of Andersen, Chung & Lang ("Local Graph Partitioning using
//! PageRank Vectors", FOCS 2006). The residual starts sparse (the seed
//! entries only), citations always point backwards in time, and the push
//! of [`sparsela::push`] runs in descending id order, the triangular order
//! of Langville & Meyer ("A Reordering for the PageRank Problem", SIAM J.
//! Sci. Comput. 27(6), 2006): mass flows strictly toward older papers, so
//! one pass settles every paper of the seeds' reference cone once, at
//! most `E + n` edge work and usually a small fraction of it. The only
//! cycle in the system is the dangling rank-1 part, and resolving it
//! against the uniform kernel ([`crate::pushrank::uniform_kernel`]) keeps
//! it out of the push entirely. A cold solve therefore needs no work
//! budget and no fallback: it is the same one-pass push as the scorer's
//! full solve.
//!
//! Three entry points:
//!
//! * [`personalize`] — cold push solve from a zero start, one unbudgeted
//!   pass over the seeds' cone,
//! * [`dense_personalized`] — the power-iteration reference the push is
//!   pinned against (≤ 1e-9, proptest-enforced); no serving path calls it,
//! * [`repersonalize`] — warm re-push of a previously solved vector
//!   across a [`GraphDelta`]. Every solve keeps its *unresolved* form
//!   ([`WarmStart`]): the pure-citation part `y = (I − α·N)⁻¹·b` (dangling
//!   columns spread nothing in `N`) plus the scalar dangling mass `dᵀy`.
//!   The teleport never renormalizes and the `1/n`-uniform dangling
//!   redistribution lives entirely in the closed-form resolution
//!   `x = y + α·(dᵀy)·u`, so a publish is one lane of the one delta
//!   seeding ([`crate::pushrank::push_delta`], with no personalization
//!   change) plus one kernel AXPY: `O(affected + n)`. No delta is too
//!   large: the push settles each paper of the rewired columns' cone
//!   once, at most one pass, so it declines only on a missing kernel or
//!   an exhausted work budget, and the caller then solves cold.

use sparsela::{
    push, KernelWorkspace, LanesOutcome, PowerEngine, PowerOptions, PushConfig, ScoreVec,
};

use crate::delta::GraphDelta;
use crate::network::{CitationNetwork, PaperId};
use crate::pushrank::{push_delta, uniform_kernel, PushRankConfig};

/// A seed-set validation failure. Every variant names the offending id,
/// so query layers can surface a precise, typed `BadValue`.
#[derive(Debug, Clone, PartialEq)]
pub enum SeedError {
    /// The seed set was empty.
    Empty,
    /// The same paper id appeared more than once. Duplicates are rejected
    /// (not deduped): a canonical seed set is what makes personalization
    /// cache keys unambiguous.
    Duplicate(PaperId),
    /// A seed id is not a paper of the network it was validated against.
    OutOfRange {
        /// The offending seed id.
        id: PaperId,
        /// Papers in the validating network.
        n_papers: usize,
    },
    /// A weight was non-finite or not strictly positive.
    BadWeight {
        /// The seed id the weight belonged to.
        id: PaperId,
        /// The rejected weight.
        weight: f64,
    },
    /// `seeds` and `weights` had different lengths.
    LengthMismatch {
        /// Number of seed ids given.
        seeds: usize,
        /// Number of weights given.
        weights: usize,
    },
}

impl std::fmt::Display for SeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeedError::Empty => write!(f, "seed set is empty"),
            SeedError::Duplicate(id) => write!(f, "duplicate seed id {id}"),
            SeedError::OutOfRange { id, n_papers } => {
                write!(
                    f,
                    "seed id {id} out of range (network has {n_papers} papers)"
                )
            }
            SeedError::BadWeight { id, weight } => {
                write!(f, "seed id {id} has invalid weight {weight}")
            }
            SeedError::LengthMismatch { seeds, weights } => {
                write!(f, "{seeds} seed id(s) but {weights} weight(s)")
            }
        }
    }
}

impl std::error::Error for SeedError {}

/// A validated, canonicalized seed distribution: ids sorted ascending and
/// unique, weights aligned and normalized to sum 1.
///
/// Canonical form is load-bearing: two queries naming the same seeds in a
/// different order (or with rescaled weights) build *equal* values, which
/// is what lets a personalization cache key on the seed set directly.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedPersonalization {
    seeds: Vec<PaperId>,
    weights: Vec<f64>,
}

impl SeedPersonalization {
    /// Uniform mass over the seed set: weight `1/|seeds|` each.
    pub fn uniform(seeds: &[PaperId], n_papers: usize) -> Result<Self, SeedError> {
        let w = 1.0 / seeds.len().max(1) as f64;
        Self::weighted(seeds, &vec![w; seeds.len()], n_papers)
    }

    /// Arbitrary positive weights over the seed set, normalized to sum 1.
    pub fn weighted(
        seeds: &[PaperId],
        weights: &[f64],
        n_papers: usize,
    ) -> Result<Self, SeedError> {
        if seeds.is_empty() {
            return Err(SeedError::Empty);
        }
        if seeds.len() != weights.len() {
            return Err(SeedError::LengthMismatch {
                seeds: seeds.len(),
                weights: weights.len(),
            });
        }
        for (&id, &w) in seeds.iter().zip(weights) {
            if (id as usize) >= n_papers {
                return Err(SeedError::OutOfRange { id, n_papers });
            }
            if !w.is_finite() || w <= 0.0 {
                return Err(SeedError::BadWeight { id, weight: w });
            }
        }
        let mut pairs: Vec<(PaperId, f64)> =
            seeds.iter().copied().zip(weights.iter().copied()).collect();
        pairs.sort_unstable_by_key(|&(id, _)| id);
        for w in pairs.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(SeedError::Duplicate(w[0].0));
            }
        }
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
        Ok(Self {
            seeds: pairs.iter().map(|&(id, _)| id).collect(),
            weights: pairs.iter().map(|&(_, w)| w / total).collect(),
        })
    }

    /// The canonical (sorted, unique) seed ids.
    pub fn seeds(&self) -> &[PaperId] {
        &self.seeds
    }

    /// Normalized weights, aligned with [`Self::seeds`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Materializes the teleport vector `b` of length `n`: `(1−α)·wᵢ` at
    /// each seed, zero elsewhere. Independent of `n` beyond zero-padding —
    /// the property that makes cached vectors warm-startable across graph
    /// growth ([`repersonalize`]).
    ///
    /// # Panics
    /// When a seed id is ≥ `n` (the set was validated against a larger
    /// network than it is being solved on — a caller bug).
    pub fn teleport(&self, alpha: f64, n: usize, workspace: &mut KernelWorkspace) -> ScoreVec {
        let mut b = workspace.take_zeros(n);
        let slice = b.as_mut_slice();
        for (&id, &w) in self.seeds.iter().zip(&self.weights) {
            slice[id as usize] = (1.0 - alpha) * w;
        }
        b
    }
}

/// Result of a [`personalize`] or [`repersonalize`] solve.
#[derive(Debug)]
pub struct PersonalizedScores {
    /// The personalized score vector (fixed point of `x = α·S·x + b`).
    pub scores: ScoreVec,
    /// Push diagnostics; the edge work includes the `n`-entry resolution.
    pub outcome: LanesOutcome<1>,
    /// The unresolved pure-citation part `y` (`scores` minus the
    /// `α·(dᵀy)·u` dangling term). This is what [`repersonalize`]
    /// warm-starts from.
    pub raw: ScoreVec,
    /// Total pure-citation mass sitting on dangling papers, `dᵀy`.
    pub dangling_mass: f64,
    /// The kernel's scale in the resolution: `scores[i]` is exactly
    /// `raw[i] + g * u[i]` for the kernel `u` the solve was given, so a
    /// reader holding `raw`, `g` and `u` reads every score bit for bit.
    pub g: f64,
}

impl PersonalizedScores {
    /// The warm-start form consumed by [`repersonalize`]. Every solve
    /// keeps it, so this is always `Some`; the `Option` stays for callers
    /// written against solves that could not.
    pub fn warm_start(&self) -> Option<WarmStart<'_>> {
        Some(WarmStart {
            raw: &self.raw,
            dangling_mass: self.dangling_mass,
        })
    }
}

/// Borrowed warm-start form of a completed personalization: the
/// unresolved pure-citation vector `y` plus its dangling mass `dᵀy`.
/// Obtained from [`PersonalizedScores::warm_start`]; consumed by
/// [`repersonalize`].
#[derive(Debug, Clone, Copy)]
pub struct WarmStart<'a> {
    /// The pure-citation part `y = (I − α·N)⁻¹·b` on the old network.
    pub raw: &'a ScoreVec,
    /// `dᵀy` — total `y` mass on the old network's dangling papers.
    pub dangling_mass: f64,
}

/// Cold push solve of the personalized fixed point from a zero start.
///
/// One [`push::solve_lanes`] run from `x = 0, r = b` at `cfg.epsilon`
/// with no work budget: on a citation DAG the descending-id cursor pushes
/// each paper of the seeds' reference cone once (a same-year citation to
/// a higher id costs it another pass, never a wrong answer). The deferred
/// dangling mass `g` resolves as `x = y + g·u` against `kernel`, which
/// must be the uniform kernel `u = (I − α·S)⁻¹·(1/n)·1` of `net` (see
/// [`crate::pushrank::uniform_kernel`]); a missing or mis-sized kernel is
/// built here. `cfg`'s budget is not read: it bounds warm pushes, whose
/// fallback is a cold solve.
///
/// # Panics
/// Panics unless `0 ≤ α < 1`.
pub fn personalize(
    net: &CitationNetwork,
    seed: &SeedPersonalization,
    alpha: f64,
    kernel: Option<&[f64]>,
    cfg: &PushRankConfig,
    workspace: &mut KernelWorkspace,
) -> PersonalizedScores {
    let n = net.n_papers();
    assert!(
        (0.0..1.0).contains(&alpha),
        "personalize: alpha {alpha} outside [0, 1)"
    );
    let built;
    let u = match kernel {
        Some(u) if u.len() == n => u,
        _ => {
            built = uniform_kernel(net, alpha, workspace);
            built.as_slice()
        }
    };
    let mut y = workspace.take_zeros(n);
    let mut r = seed.teleport(alpha, n, workspace);
    let push_cfg = PushConfig {
        alpha,
        epsilon: cfg.epsilon,
        max_edge_work: u64::MAX,
    };
    let mut outcome = push::solve_lanes(net.refs_csr(), &push_cfg, [&mut y], &mut r, [0.0]);
    workspace.recycle(r);
    // The deferred scalar is `α·(dᵀy)` by construction: every push at a
    // dangling row deferred exactly `α` times the mass it settled there.
    let g = outcome.deferred[0];
    let scores = resolve(&y, g, u, workspace);
    outcome.edge_work += n as u64;
    PersonalizedScores {
        scores,
        outcome,
        raw: y,
        dangling_mass: if alpha > 0.0 { g / alpha } else { 0.0 },
        g,
    }
}

/// The closed-form dangling resolution `x = y + g·u`, into a fresh vector
/// so `y` survives as the warm-start form. `sparsela::Cone` reads the same
/// expression per id, so a cached cone serves these scores bit for bit.
fn resolve(y: &ScoreVec, g: f64, u: &[f64], workspace: &mut KernelWorkspace) -> ScoreVec {
    let mut scores = workspace.take_zeros(y.len());
    for ((s, &yi), &ui) in scores.iter_mut().zip(y.iter()).zip(u) {
        *s = yi + g * ui;
    }
    scores
}

/// The dense reference: a full power-iteration solve of the personalized
/// fixed point — the oracle the push paths are pinned against (≤ 1e-9).
/// No serving path calls it.
pub fn dense_personalized(
    net: &CitationNetwork,
    seed: &SeedPersonalization,
    alpha: f64,
    workspace: &mut KernelWorkspace,
) -> ScoreVec {
    let n = net.n_papers();
    if n == 0 {
        return ScoreVec::zeros(0);
    }
    let b = seed.teleport(alpha, n, workspace);
    let op = net.stochastic_operator();
    let initial = workspace.take_uniform(n);
    let outcome =
        PowerEngine::new(PowerOptions::default()).run_with(workspace, initial, |cur, next| {
            op.apply_damped(alpha, cur.as_slice(), b.as_slice(), next.as_mut_slice());
        });
    workspace.recycle(b);
    outcome.scores
}

/// Warm re-push of a previously personalized vector across a delta.
///
/// `previous` is the warm-start form of the personalized fixed point of
/// `seed` on `old` ([`PersonalizedScores::warm_start`]), and `new` must
/// be `old.with_delta(delta)`. The pure-citation part `y` is one
/// unresolved lane whose personalization — the teleport — never changes:
/// appended papers carry no `y` mass (nothing cites them in `y`'s system
/// and they hold no teleport), and the `1/n`-uniform dangling
/// redistribution, the only operator term that shifts when papers are
/// appended, is resolved in closed form as `x = y + α·(dᵀy)·u` against
/// `kernel`, the uniform kernel of the **new** state. A publish is
/// therefore one [`push_delta`] lane with no personalization change:
///
/// * a residual push seeded only at delta-rewired *old* columns
///   (`O(affected)` — *zero* pushes for a pure tail publish, where every
///   new edge originates at an appended paper), and
/// * one dense AXPY resolving the dangling part (`O(n)`).
///
/// Returns `None` when the kernel is missing or mis-sized, the seed set
/// reaches outside `old`, or the push exhausts its budget
/// ([`PushRankConfig::budget_sweeps`]); the caller then re-solves cold
/// ([`personalize`]). The delta's size is no reason to decline: the push
/// settles each paper of the rewired columns' cone once, at most one pass
/// over `new`.
#[allow(clippy::too_many_arguments)] // mirrors personalize; the arguments are the coupling
pub fn repersonalize(
    old: &CitationNetwork,
    delta: &GraphDelta,
    new: &CitationNetwork,
    previous: WarmStart<'_>,
    seed: &SeedPersonalization,
    alpha: f64,
    kernel: Option<&[f64]>,
    cfg: &PushRankConfig,
    workspace: &mut KernelWorkspace,
) -> Option<PersonalizedScores> {
    let n_new = new.n_papers();
    if seed
        .seeds
        .last()
        .is_some_and(|&id| (id as usize) >= old.n_papers())
    {
        return None;
    }
    let u = kernel.filter(|u| u.len() == n_new)?;
    assert!(
        (0.0..1.0).contains(&alpha),
        "repersonalize: alpha {alpha} outside [0, 1)"
    );
    let mut y = workspace.take_copy(previous.raw);
    let mut g = [alpha * previous.dangling_mass];
    let mut r = workspace.take_zeros(0).into_vec();
    let pushed = push_delta(old, delta, new, [&mut y], &mut g, &[], alpha, cfg, &mut r);
    workspace.recycle(r.into());
    let Some(mut outcome) = pushed else {
        workspace.recycle(y);
        return None;
    };
    let scores = resolve(&y, g[0], u, workspace);
    outcome.edge_work += n_new as u64;
    Some(PersonalizedScores {
        scores,
        outcome,
        raw: y,
        dangling_mass: if alpha > 0.0 { g[0] / alpha } else { 0.0 },
        g: g[0],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::pushrank::uniform_kernel;

    fn base() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        let ids: Vec<_> = (1990..2002).map(|y| b.add_paper(y)).collect();
        for (i, &citing) in ids.iter().enumerate().skip(1) {
            b.add_citation(citing, ids[i - 1]).unwrap();
            if i >= 4 {
                b.add_citation(citing, ids[0]).unwrap();
            }
            if i >= 7 {
                b.add_citation(citing, ids[2]).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn builder_canonicalizes_and_validates() {
        let s = SeedPersonalization::uniform(&[7, 3, 5], 12).unwrap();
        assert_eq!(s.seeds(), &[3, 5, 7]);
        assert!(s.weights().iter().all(|&w| (w - 1.0 / 3.0).abs() < 1e-15));
        // Order-insensitive canonical form.
        assert_eq!(s, SeedPersonalization::uniform(&[5, 7, 3], 12).unwrap());

        assert_eq!(SeedPersonalization::uniform(&[], 12), Err(SeedError::Empty));
        assert_eq!(
            SeedPersonalization::uniform(&[3, 5, 3], 12),
            Err(SeedError::Duplicate(3))
        );
        assert_eq!(
            SeedPersonalization::uniform(&[3, 99], 12),
            Err(SeedError::OutOfRange {
                id: 99,
                n_papers: 12
            })
        );
        assert_eq!(
            SeedPersonalization::weighted(&[1, 2], &[1.0], 12),
            Err(SeedError::LengthMismatch {
                seeds: 2,
                weights: 1
            })
        );
        assert_eq!(
            SeedPersonalization::weighted(&[1, 2], &[1.0, -0.5], 12),
            Err(SeedError::BadWeight {
                id: 2,
                weight: -0.5
            })
        );
    }

    #[test]
    fn weighted_normalizes_after_sorting() {
        let s = SeedPersonalization::weighted(&[9, 4], &[3.0, 1.0], 12).unwrap();
        assert_eq!(s.seeds(), &[4, 9]);
        assert!((s.weights()[0] - 0.25).abs() < 1e-15);
        assert!((s.weights()[1] - 0.75).abs() < 1e-15);
        // Rescaled weights canonicalize to the same distribution.
        let t = SeedPersonalization::weighted(&[9, 4], &[6.0, 2.0], 12).unwrap();
        assert_eq!(s, t);
    }

    #[test]
    fn cold_push_matches_dense_reference() {
        let net = base();
        let alpha = 0.6;
        let mut ws = KernelWorkspace::new();
        let u = uniform_kernel(&net, alpha, &mut ws);
        let cfg = PushRankConfig::default();
        for seeds in [vec![11], vec![0, 7], vec![2, 5, 9]] {
            let seed = SeedPersonalization::uniform(&seeds, net.n_papers()).unwrap();
            let dense = dense_personalized(&net, &seed, alpha, &mut ws);
            for kernel in [Some(u.as_slice()), None] {
                let got = personalize(&net, &seed, alpha, kernel, &cfg, &mut ws);
                for i in 0..net.n_papers() {
                    assert!(
                        (got.scores[i] - dense[i]).abs() < 1e-9,
                        "seeds {seeds:?} paper {i}: push {} vs dense {}",
                        got.scores[i],
                        dense[i]
                    );
                }
            }
        }
    }

    #[test]
    fn warm_repush_across_delta_matches_dense() {
        let net = base();
        let alpha = 0.6;
        let mut ws = KernelWorkspace::new();
        let seed = SeedPersonalization::uniform(&[1, 8], net.n_papers()).unwrap();
        let u_old = uniform_kernel(&net, alpha, &mut ws);
        let prev = personalize(
            &net,
            &seed,
            alpha,
            Some(u_old.as_slice()),
            &PushRankConfig::default(),
            &mut ws,
        );

        // Mixed delta: a tail paper plus a rewired old column — seed 8's
        // own bibliography grows, so its pure-citation mass redistributes
        // and the changed-column residual path does real work.
        let mut d = GraphDelta::new();
        let p = (net.n_papers() + d.add_paper(2003)) as PaperId;
        d.add_citation(p, 8);
        d.add_citation(p, 11);
        d.add_citation(8, 4);
        let new = net.with_delta(&d).unwrap();
        let u_new = uniform_kernel(&new, alpha, &mut ws);

        let warm = repersonalize(
            &net,
            &d,
            &new,
            prev.warm_start().expect("kernel solve keeps warm form"),
            &seed,
            alpha,
            Some(u_new.as_slice()),
            &PushRankConfig::default(),
            &mut ws,
        )
        .expect("small delta warm re-push");
        assert!(warm.outcome.pushes > 0, "rewired column must seed pushes");
        let dense = dense_personalized(&new, &seed, alpha, &mut ws);
        for i in 0..new.n_papers() {
            assert!(
                (warm.scores[i] - dense[i]).abs() < 1e-9,
                "paper {i}: warm {} vs dense {}",
                warm.scores[i],
                dense[i]
            );
        }
    }

    #[test]
    fn pure_tail_publish_repushes_with_zero_pushes() {
        // Every new edge originates at an appended paper, so the
        // pure-citation part is untouched: the warm re-push is exactly
        // one kernel AXPY — zero pushes — and still matches dense.
        let net = base();
        let alpha = 0.6;
        let mut ws = KernelWorkspace::new();
        let seed = SeedPersonalization::uniform(&[1, 8], net.n_papers()).unwrap();
        let u_old = uniform_kernel(&net, alpha, &mut ws);
        let prev = personalize(
            &net,
            &seed,
            alpha,
            Some(u_old.as_slice()),
            &PushRankConfig::default(),
            &mut ws,
        );

        let mut d = GraphDelta::new();
        let p = (net.n_papers() + d.add_paper(2003)) as PaperId;
        d.add_citation(p, 8);
        d.add_citation(p, 2);
        let q = (net.n_papers() + d.add_paper(2003)) as PaperId;
        d.add_citation(q, 11);
        let new = net.with_delta(&d).unwrap();
        let u_new = uniform_kernel(&new, alpha, &mut ws);

        let warm = repersonalize(
            &net,
            &d,
            &new,
            prev.warm_start().unwrap(),
            &seed,
            alpha,
            Some(u_new.as_slice()),
            &PushRankConfig::default(),
            &mut ws,
        )
        .expect("tail delta warm re-push");
        assert_eq!(warm.outcome.pushes, 0, "tail publish seeds no residuals");
        let dense = dense_personalized(&new, &seed, alpha, &mut ws);
        for i in 0..new.n_papers() {
            assert!(
                (warm.scores[i] - dense[i]).abs() < 1e-9,
                "paper {i}: warm {} vs dense {}",
                warm.scores[i],
                dense[i]
            );
        }
    }

    #[test]
    fn oversized_delta_repushes_and_matches_dense() {
        // A 200-paper chain over 20 years; every tenth paper also cites 0.
        let mut b = NetworkBuilder::new();
        for i in 0..200u32 {
            b.add_paper(1990 + i as i32 / 10);
            if i > 0 {
                b.add_citation(i, i - 1).unwrap();
            }
            if i % 10 == 9 {
                b.add_citation(i, 0).unwrap();
            }
        }
        let net = b.build().unwrap();
        let alpha = 0.5;
        let mut ws = KernelWorkspace::new();
        let seed = SeedPersonalization::uniform(&[150, 199], net.n_papers()).unwrap();
        let u_old = uniform_kernel(&net, alpha, &mut ws);
        let cfg = PushRankConfig::default();
        let prev = personalize(&net, &seed, alpha, Some(u_old.as_slice()), &cfg, &mut ws);

        // 30 tail papers citing three papers each, and 12 old papers whose
        // bibliographies grow: 132 items on a 419-item graph.
        let mut d = GraphDelta::new();
        for t in 0..30u32 {
            let p = (net.n_papers() + d.add_paper(2010)) as PaperId;
            for k in 0..3 {
                d.add_citation(p, (t * 7 + k * 61) % 200);
            }
        }
        for j in (110..200u32).step_by(9).chain([151, 197]) {
            d.add_citation(j, j / 3);
        }
        let size = net.n_citations() + net.n_papers();
        assert!(d.n_papers() + d.n_citations() > size / 5);
        let new = net.with_delta(&d).unwrap();
        let u_new = uniform_kernel(&new, alpha, &mut ws);

        let warm = repersonalize(
            &net,
            &d,
            &new,
            prev.warm_start().unwrap(),
            &seed,
            alpha,
            Some(u_new.as_slice()),
            &cfg,
            &mut ws,
        )
        .expect("a delta of any size re-pushes");
        assert!(warm.outcome.pushes > 0, "rewired columns seed pushes");
        let dense = dense_personalized(&new, &seed, alpha, &mut ws);
        for i in 0..new.n_papers() {
            assert!(
                (warm.scores[i] - dense[i]).abs() < 1e-9,
                "paper {i}: warm {} vs dense {}",
                warm.scores[i],
                dense[i]
            );
        }
    }

    #[test]
    fn repersonalize_requires_kernel_and_warm_form() {
        let net = base();
        let alpha = 0.5;
        let mut ws = KernelWorkspace::new();
        let seed = SeedPersonalization::uniform(&[8], net.n_papers()).unwrap();

        // A solve without a kernel builds one and keeps its warm form.
        let unkerneled = personalize(
            &net,
            &seed,
            alpha,
            None,
            &PushRankConfig::default(),
            &mut ws,
        );
        assert!(unkerneled.warm_start().is_some());

        // A warm re-push without the new kernel declines.
        let u_old = uniform_kernel(&net, alpha, &mut ws);
        let prev = personalize(
            &net,
            &seed,
            alpha,
            Some(u_old.as_slice()),
            &PushRankConfig::default(),
            &mut ws,
        );
        let mut d = GraphDelta::new();
        let p = (net.n_papers() + d.add_paper(2003)) as PaperId;
        d.add_citation(p, 8);
        let new = net.with_delta(&d).unwrap();
        assert!(repersonalize(
            &net,
            &d,
            &new,
            prev.warm_start().unwrap(),
            &seed,
            alpha,
            None,
            &PushRankConfig::default(),
            &mut ws
        )
        .is_none());
    }

    #[test]
    fn repersonalize_declines_seeds_outside_old_network() {
        let net = base();
        let mut ws = KernelWorkspace::new();
        let mut d = GraphDelta::new();
        let p = (net.n_papers() + d.add_paper(2003)) as PaperId;
        d.add_citation(p, 0);
        let new = net.with_delta(&d).unwrap();
        // Seed validated against the *new* state: no previous vector on
        // the old state can exist for it.
        let seed = SeedPersonalization::uniform(&[p], new.n_papers()).unwrap();
        let raw = ScoreVec::uniform(net.n_papers());
        let u_new = uniform_kernel(&new, 0.5, &mut ws);
        assert!(repersonalize(
            &net,
            &d,
            &new,
            WarmStart {
                raw: &raw,
                dangling_mass: 0.0
            },
            &seed,
            0.5,
            Some(u_new.as_slice()),
            &PushRankConfig::default(),
            &mut ws
        )
        .is_none());
    }
}
