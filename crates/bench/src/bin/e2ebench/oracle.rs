//! The correctness oracle: what a page *should* contain, computed the
//! slow obvious way — full sort, filter, cursor-skip, truncate — and
//! compared with what the engines served, ids and score bits.
//!
//! It shares no selection code with the engines: its own comparator, its
//! own predicate evaluation against the network's metadata tables.

use std::collections::HashMap;

use citegraph::{CitationNetwork, PaperId};
use rankengine::Query;

use crate::gen::Request;
use crate::stack::{Client, Reply, Stack};

/// Ids ordered by descending score, ties by ascending id. Ids whose score
/// is NaN are not candidates at all (the sharded engine never scores the
/// shards a seeded query prunes; see [`Oracle::ranking`]).
pub fn full_sort(scores: &[f64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..scores.len() as u32)
        .filter(|&i| !scores[i as usize].is_nan())
        .collect();
    order.sort_by(|&a, &b| {
        scores[b as usize]
            .total_cmp(&scores[a as usize])
            .then(a.cmp(&b))
    });
    order
}

/// The page the reference procedure yields.
#[derive(Debug, PartialEq)]
pub struct Expected {
    /// `(id, score bits)` of the hits, best first.
    pub hits: Vec<(PaperId, u64)>,
    /// Matches at and after the cursor position.
    pub matched: usize,
}

impl Expected {
    pub fn has_next(&self) -> bool {
        self.matched > self.hits.len() && !self.hits.is_empty()
    }
}

/// Filter → cursor-skip → truncate over a fully sorted order. `after` is
/// the id of the last hit of the previous page.
pub fn reference_page(
    order: &[u32],
    scores: &[f64],
    k: usize,
    after: Option<PaperId>,
    pred: impl Fn(PaperId) -> bool,
) -> Expected {
    let start = match after {
        None => 0,
        Some(id) => order
            .iter()
            .position(|&o| o == id)
            .map_or(order.len(), |p| p + 1),
    };
    let mut hits = Vec::with_capacity(k);
    let mut matched = 0;
    for &id in order[start..].iter().filter(|&&id| pred(id)) {
        matched += 1;
        if hits.len() < k {
            hits.push((id, scores[id as usize].to_bits()));
        }
    }
    Expected { hits, matched }
}

/// The query's predicate, evaluated per paper against the metadata
/// tables.
pub fn matches(net: &CitationNetwork, q: &Query, id: PaperId) -> bool {
    let year = net.year(id);
    q.year_min.is_none_or(|lo| year >= lo)
        && q.year_max.is_none_or(|hi| year <= hi)
        && (q.venues.is_empty()
            || net
                .venues()
                .and_then(|t| t.venue_of(id))
                .is_some_and(|v| q.venues.contains(&v)))
        && (q.authors.is_empty()
            || net
                .authors()
                .is_some_and(|t| t.authors_of(id).iter().any(|a| q.authors.contains(a))))
}

struct Ranking {
    scores: Vec<f64>,
    order: Vec<u32>,
}

/// Reference rankings of one pinned state of a stack, sorted once per
/// (method, seed set) and reused across the checked requests.
pub struct Oracle<'a> {
    stack: &'a Stack,
    /// Metadata of exactly the state `stack` currently publishes.
    net: &'a CitationNetwork,
    rankings: HashMap<String, Ranking>,
}

impl<'a> Oracle<'a> {
    pub fn new(stack: &'a Stack, net: &'a CitationNetwork) -> Self {
        Oracle {
            stack,
            net,
            rankings: HashMap::new(),
        }
    }

    /// The score vector a query ranks by. Global vectors are read off the
    /// published snapshots. A personalized vector has no public accessor,
    /// so it is read back through an unfiltered `k = n` page of the same
    /// seed set — which pins filter, cursor and truncation logic against
    /// the vector, while the vector itself is pinned by the repository's
    /// own 1e-9 tests. Papers such a page does not list (shards a seeded
    /// query prunes) score NaN: not candidates.
    fn ranking(&mut self, q: &Query) -> Result<&Ranking, String> {
        let key = format!("{:?}|{:?}", q.method, q.seeds);
        if !self.rankings.contains_key(&key) {
            let n = self.net.n_papers();
            let scores = if q.seeds.is_empty() {
                match self.stack {
                    Stack::Flat(qe) => qe
                        .snapshot(q.method.as_deref())
                        .map_err(|e| e.to_string())?
                        .scores()
                        .as_slice()
                        .to_vec(),
                    Stack::Sharded(se) => {
                        let snaps = se.snapshots();
                        (0..snaps.n_shards())
                            .flat_map(|s| snaps.snapshot(s).scores().as_slice().to_vec())
                            .collect()
                    }
                }
            } else {
                let all = Query {
                    method: q.method.clone(),
                    seeds: q.seeds.clone(),
                    k: n,
                    ..Query::default()
                };
                let mut client = Client::new(self.stack);
                client.serve(&Request {
                    text: all.to_string(),
                    cursor: None,
                    after: None,
                    kind: crate::gen::Kind::Seeded,
                })?;
                let mut scores = vec![f64::NAN; n];
                for hit in &client.reply.items {
                    scores[hit.id as usize] = hit.score;
                }
                scores
            };
            if scores.len() != n {
                return Err(format!("{} scores for {n} papers", scores.len()));
            }
            let order = full_sort(&scores);
            self.rankings.insert(key.clone(), Ranking { scores, order });
        }
        Ok(&self.rankings[&key])
    }

    /// Checks one served reply against the reference page.
    pub fn check(&mut self, req: &Request, reply: &Reply) -> Result<(), String> {
        let q: Query = req.text.parse().map_err(|e| format!("{e}"))?;
        let net = self.net;
        let ranking = self.ranking(&q)?;
        let want = reference_page(&ranking.order, &ranking.scores, q.k, req.after, |id| {
            matches(net, &q, id)
        });
        let got: Vec<(PaperId, u64)> = reply
            .items
            .iter()
            .map(|h| (h.id, h.score.to_bits()))
            .collect();
        if got != want.hits {
            return Err(format!(
                "{}: served {:?}, reference {:?}",
                req.text,
                &got[..got.len().min(3)],
                &want.hits[..want.hits.len().min(3)]
            ));
        }
        if reply.matched != want.matched {
            return Err(format!(
                "{}: matched {} vs reference {}",
                req.text, reply.matched, want.matched
            ));
        }
        if reply.token.is_empty() == want.has_next() {
            return Err(format!("{}: next-page token presence is wrong", req.text));
        }
        if let Some(hit) = reply.items.iter().find(|h| h.year != net.year(h.id)) {
            return Err(format!(
                "{}: hit {} carries the wrong year",
                req.text, hit.id
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sort_breaks_ties_by_id_and_drops_nan() {
        let scores = [0.5, 0.9, 0.5, f64::NAN, 0.9, 0.0];
        assert_eq!(full_sort(&scores), vec![1, 4, 0, 2, 5]);
    }

    #[test]
    fn reference_page_filters_skips_and_truncates() {
        let scores = [0.5, 0.9, 0.5, 0.1, 0.9, 0.0];
        let order = full_sort(&scores);
        // Unfiltered first page of 2, then the page after id 4.
        let p1 = reference_page(&order, &scores, 2, None, |_| true);
        assert_eq!(p1.hits, vec![(1, 0.9f64.to_bits()), (4, 0.9f64.to_bits())]);
        assert_eq!(p1.matched, 6);
        assert!(p1.has_next());
        let p2 = reference_page(&order, &scores, 2, Some(4), |_| true);
        assert_eq!(p2.hits, vec![(0, 0.5f64.to_bits()), (2, 0.5f64.to_bits())]);
        assert_eq!(p2.matched, 4);
        // Filtered to even ids: 4, 0, 2 — a page of 5 exhausts them.
        let even = reference_page(&order, &scores, 5, None, |id| id % 2 == 0);
        assert_eq!(even.hits.iter().map(|h| h.0).collect::<Vec<_>>(), [4, 0, 2]);
        assert_eq!(even.matched, 3);
        assert!(!even.has_next());
        // A cursor at the last match leaves an empty page.
        let end = reference_page(&order, &scores, 5, Some(2), |id| id % 2 == 0);
        assert!(end.hits.is_empty() && end.matched == 0 && !end.has_next());
        // k = 0 counts but returns nothing and mints no cursor.
        let count = reference_page(&order, &scores, 0, None, |_| true);
        assert!(count.hits.is_empty() && count.matched == 6 && !count.has_next());
    }
}
