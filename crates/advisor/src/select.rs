//! Benefit-per-byte view selection: greedy with recomputation, plus an
//! exhaustive oracle for small candidate sets.

use crate::{AdvisorOpts, Candidate, Workload};
use smv_core::best_rewriting_cost;
use smv_summary::Summary;
use smv_views::{DefCards, View};

/// Minimum marginal benefit worth a pick (guards float noise).
const MIN_GAIN: f64 = 1e-9;

/// The estimated cost of answering a query with *no* helpful view: one
/// unit of work per document node — a full navigation of the store, the
/// same unit scale as [`smv_algebra::CostModel`]'s row-work estimates.
pub fn navigation_cost(s: &Summary) -> f64 {
    s.doc_node_count() as f64
}

/// One selected view in an [`Advice`].
#[derive(Clone, Debug)]
pub struct AdvisedView {
    /// The proposed view definition (named `adv<candidate index>`).
    pub view: View,
    /// Index into the mined candidate list.
    pub candidate: usize,
    /// Estimated stored bytes charged against the budget.
    pub est_bytes: f64,
    /// Weighted marginal benefit at pick time (0 for the exhaustive
    /// oracle, which selects a set, not a sequence).
    pub gain: f64,
}

/// Per-query outcome of an advised set.
#[derive(Clone, Debug)]
pub struct PerQuery {
    /// Workload query index.
    pub query: usize,
    /// Navigation baseline cost (no views).
    pub baseline: f64,
    /// Best rewriting cost over the advised set (== `baseline` when the
    /// set serves nothing better than navigation).
    pub advised: f64,
    /// Whether the advised set rewrites the query at all.
    pub rewritten: bool,
}

/// The advisor's output: a budgeted, ranked materialization plan.
#[derive(Clone, Debug, Default)]
pub struct Advice {
    /// Selected views, in pick order (greedy) or candidate order
    /// (exhaustive).
    pub chosen: Vec<AdvisedView>,
    /// Total estimated bytes of the selection.
    pub total_bytes: f64,
    /// Total weighted benefit over the navigation baseline.
    pub total_benefit: f64,
    /// Per-query costs under the selection.
    pub per_query: Vec<PerQuery>,
}

impl Advice {
    /// The selected view definitions.
    pub fn views(&self) -> Vec<View> {
        self.chosen.iter().map(|c| c.view.clone()).collect()
    }
}

/// One definition per candidate (named `adv<candidate index>`), built
/// once per selection run: every probe set clones from these, so the
/// rewriter's per-view preparation ([`View::derived`]) is built once per
/// candidate, not once per probe, and travels with the advised views.
fn candidate_views(cands: &[Candidate], opts: &AdvisorOpts) -> Vec<View> {
    cands
        .iter()
        .enumerate()
        .map(|(i, c)| c.to_view(&format!("adv{i}"), opts))
        .collect()
}

fn views_of(all: &[View], sel: &[usize]) -> Vec<View> {
    sel.iter().map(|&i| all[i].clone()).collect()
}

/// Best-rewriting cost per workload query over `views`, clamped by the
/// navigation baseline (a plan worse than re-navigating is never run).
fn workload_costs(w: &Workload, s: &Summary, views: &[View], opts: &AdvisorOpts) -> Vec<f64> {
    let baseline = navigation_cost(s);
    if views.is_empty() {
        return vec![baseline; w.queries.len()];
    }
    let cards = DefCards::new(views, s);
    w.queries
        .iter()
        .map(|q| {
            best_rewriting_cost(&q.pattern, views, s, &opts.rewrite, &cards)
                .map_or(baseline, |c| c.min(baseline))
        })
        .collect()
}

fn finish(
    w: &Workload,
    s: &Summary,
    cands: &[Candidate],
    sel: &[usize],
    chosen: Vec<AdvisedView>,
    costs: &[f64],
) -> Advice {
    let baseline = navigation_cost(s);
    let total_bytes = sel.iter().map(|&i| cands[i].est_bytes).sum();
    let total_benefit = w
        .queries
        .iter()
        .zip(costs)
        .map(|(q, &c)| q.weight * (baseline - c))
        .sum();
    let per_query = costs
        .iter()
        .enumerate()
        .map(|(qi, &c)| PerQuery {
            query: qi,
            baseline,
            advised: c,
            rewritten: c < baseline,
        })
        .collect();
    Advice {
        chosen,
        total_bytes,
        total_benefit,
        per_query,
    }
}

/// Greedy benefit-per-byte selection under `opts.budget_bytes`.
///
/// Each round scores every unselected, still-affordable candidate by its
/// *marginal* weighted benefit — the workload cost drop of adding it to
/// the already-picked set, recomputed from scratch because picked views
/// shift every best-rewriting baseline — divided by its estimated bytes,
/// and commits the best positive pick. Stops when nothing affordable
/// helps.
///
/// ```
/// use smv_advisor::{advise, mine_candidates, AdvisorOpts, Workload};
/// use smv_pattern::parse_pattern;
/// use smv_summary::Summary;
/// use smv_xml::Document;
///
/// // items carry bulky descriptions, so scanning a small name view beats
/// // re-navigating the whole document (the no-view baseline)
/// let items: Vec<String> = (0..50)
///     .map(|i| format!(r#"item(name="n{i}" description(parlist(listitem(text))))"#))
///     .collect();
/// let doc = Document::from_parens(&format!("site({})", items.join(" ")));
/// let summary = Summary::of(&doc);
/// let workload = Workload::weighted([
///     (parse_pattern("site(//name{id,v})").unwrap(), 3.0),
///     (parse_pattern("site(//item{id})").unwrap(), 1.0),
/// ]);
/// let opts = AdvisorOpts::default(); // unbounded byte budget
/// let candidates = mine_candidates(&workload, &summary, &opts);
/// let advice = advise(&workload, &summary, &candidates, &opts);
/// assert!(!advice.chosen.is_empty(), "some view is worth materializing");
/// ```
pub fn advise(w: &Workload, s: &Summary, cands: &[Candidate], opts: &AdvisorOpts) -> Advice {
    let all = candidate_views(cands, opts);
    let mut sel: Vec<usize> = Vec::new();
    let mut chosen: Vec<AdvisedView> = Vec::new();
    let mut cur = workload_costs(w, s, &[], opts);
    let mut spent = 0.0;
    loop {
        let mut best: Option<(usize, f64, f64, Vec<f64>)> = None; // (cand, gain, score, costs)
        for (ci, c) in cands.iter().enumerate() {
            if sel.contains(&ci) || spent + c.est_bytes > opts.budget_bytes {
                continue;
            }
            let mut probe = sel.clone();
            probe.push(ci);
            let costs = workload_costs(w, s, &views_of(&all, &probe), opts);
            let gain: f64 = w
                .queries
                .iter()
                .zip(cur.iter().zip(&costs))
                .map(|(q, (&before, &after))| q.weight * (before - after))
                .sum();
            if gain <= MIN_GAIN {
                continue;
            }
            let score = gain / c.est_bytes.max(1.0);
            let better = match &best {
                None => true,
                Some((bi, _, bscore, _)) => {
                    score > *bscore || (score == *bscore && c.est_bytes < cands[*bi].est_bytes)
                }
            };
            if better {
                best = Some((ci, gain, score, costs));
            }
        }
        let Some((ci, gain, _, costs)) = best else {
            break;
        };
        spent += cands[ci].est_bytes;
        chosen.push(AdvisedView {
            view: all[ci].clone(),
            candidate: ci,
            est_bytes: cands[ci].est_bytes,
            gain,
        });
        sel.push(ci);
        cur = costs;
    }
    finish(w, s, cands, &sel, chosen, &cur)
}

/// Exhaustive selection over every candidate subset within budget — the
/// test oracle for greedy. Ties on benefit break toward fewer bytes,
/// then fewer views, then earlier subsets. Panics beyond 16 candidates.
pub fn advise_exhaustive(
    w: &Workload,
    s: &Summary,
    cands: &[Candidate],
    opts: &AdvisorOpts,
) -> Advice {
    assert!(
        cands.len() <= 16,
        "exhaustive selection is an oracle for small candidate sets"
    );
    let baseline = navigation_cost(s);
    let all = candidate_views(cands, opts);
    let mut best: Option<(Vec<usize>, f64, f64, Vec<f64>)> = None; // (sel, benefit, bytes, costs)
    for mask in 0u32..(1 << cands.len()) {
        let sel: Vec<usize> = (0..cands.len()).filter(|i| mask >> i & 1 == 1).collect();
        let bytes: f64 = sel.iter().map(|&i| cands[i].est_bytes).sum();
        if bytes > opts.budget_bytes {
            continue;
        }
        let costs = workload_costs(w, s, &views_of(&all, &sel), opts);
        let benefit: f64 = w
            .queries
            .iter()
            .zip(&costs)
            .map(|(q, &c)| q.weight * (baseline - c))
            .sum();
        let better = match &best {
            None => true,
            Some((bsel, bben, bbytes, _)) => {
                benefit > bben + MIN_GAIN
                    || ((benefit - bben).abs() <= MIN_GAIN
                        && (bytes < *bbytes || (bytes == *bbytes && sel.len() < bsel.len())))
            }
        };
        if better {
            best = Some((sel, benefit, bytes, costs));
        }
    }
    let (sel, _, _, costs) = best.expect("the empty subset is always within budget");
    let chosen = sel
        .iter()
        .map(|&ci| AdvisedView {
            view: all[ci].clone(),
            candidate: ci,
            est_bytes: cands[ci].est_bytes,
            gain: 0.0,
        })
        .collect();
    finish(w, s, cands, &sel, chosen, &costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine_candidates;
    use smv_pattern::parse_pattern;
    use smv_xml::Document;

    fn fixture() -> Summary {
        Summary::of(&Document::from_parens(
            r#"site(auctions(auction(initial="1" current="5")
                             auction(initial="3" current="7")
                             auction(initial="4" current="9")))"#,
        ))
    }

    fn wl() -> Workload {
        Workload::weighted([
            (
                parse_pattern("site(/auctions(/auction{id}(/initial{v})))").unwrap(),
                3.0,
            ),
            (
                parse_pattern("site(/auctions(/auction{id}(/current{v})))").unwrap(),
                2.0,
            ),
        ])
    }

    #[test]
    fn unbounded_budget_serves_every_query() {
        let s = fixture();
        let w = wl();
        let opts = AdvisorOpts::default();
        let cands = mine_candidates(&w, &s, &opts);
        let advice = advise(&w, &s, &cands, &opts);
        assert!(!advice.chosen.is_empty());
        assert!(advice.total_benefit > 0.0);
        for pq in &advice.per_query {
            assert!(pq.rewritten, "query {} not served", pq.query);
            assert!(pq.advised < pq.baseline);
        }
    }

    #[test]
    fn tight_budget_prefers_the_shared_merged_view() {
        let s = fixture();
        let w = wl();
        let mut opts = AdvisorOpts::default();
        let cands = mine_candidates(&w, &s, &opts);
        let merged = cands
            .iter()
            .position(|c| c.kind == crate::CandidateKind::Merged)
            .expect("merged candidate mined");
        // budget fits the merged view but not both singletons
        let singleton_total: f64 = cands
            .iter()
            .filter(|c| c.kind == crate::CandidateKind::Singleton)
            .map(|c| c.est_bytes)
            .sum();
        opts.budget_bytes = singleton_total - 1.0;
        assert!(cands[merged].est_bytes <= opts.budget_bytes);
        let advice = advise(&w, &s, &cands, &opts);
        assert!(advice.total_bytes <= opts.budget_bytes);
        assert!(
            advice.chosen.iter().any(|c| c.candidate == merged),
            "merged view is the benefit-per-byte winner under the tight budget"
        );
        for pq in &advice.per_query {
            assert!(pq.rewritten, "merged view serves both queries");
        }
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let s = fixture();
        let w = wl();
        let opts = AdvisorOpts {
            budget_bytes: 0.0,
            ..Default::default()
        };
        let cands = mine_candidates(&w, &s, &opts);
        let advice = advise(&w, &s, &cands, &opts);
        assert!(advice.chosen.is_empty());
        assert_eq!(advice.total_benefit, 0.0);
        let oracle = advise_exhaustive(&w, &s, &cands, &opts);
        assert!(oracle.chosen.is_empty());
    }

    #[test]
    fn greedy_matches_oracle_on_the_fixture() {
        let s = fixture();
        let w = wl();
        let opts = AdvisorOpts::default();
        let cands = mine_candidates(&w, &s, &opts);
        let greedy = advise(&w, &s, &cands, &opts);
        let oracle = advise_exhaustive(&w, &s, &cands, &opts);
        assert!(
            (greedy.total_benefit - oracle.total_benefit).abs() <= 1e-6,
            "greedy {} vs oracle {}",
            greedy.total_benefit,
            oracle.total_benefit
        );
    }
}
