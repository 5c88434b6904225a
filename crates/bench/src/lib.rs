//! # smv-bench — experiment harness
//!
//! The fixtures behind the `experiments` binary, which regenerates every
//! table and figure of the paper's §5:
//!
//! * **Table 1** — dataset / summary statistics;
//! * **Figure 13** — XMark query-pattern canonical-model sizes and
//!   containment times, plus synthetic containment scaling (n = 3..13,
//!   r = 1..3, positive vs negative);
//! * **Figure 14** — the same on the DBLP summary, plus the
//!   optional-edge ablation (0% vs 50%);
//! * **Figure 15** — rewriting the 20 XMark queries against the §5 view
//!   set (setup/prune time, time to first rewriting, total time).

#![deny(clippy::print_stdout, clippy::print_stderr)]
use smv_core::{contained, ContainOpts, Decision};
use smv_datagen::{
    random_patterns, random_views, seed_views, xmark, xmark_query_patterns, SynthConfig,
    ViewGenConfig, XmarkConfig,
};
use smv_pattern::{canonical_model, CanonOpts, Pattern};
use smv_summary::Summary;
use smv_views::View;
use smv_xml::IdScheme;
use std::time::{Duration, Instant};

/// The default XMark summary fixture (hundreds of paths).
pub fn xmark_summary() -> Summary {
    Summary::of(&xmark(&XmarkConfig::default()))
}

/// The default DBLP'05 summary fixture.
pub fn dblp_summary() -> Summary {
    Summary::of(&smv_datagen::dblp(
        smv_datagen::DblpSnapshot::Y2005,
        2000,
        7,
    ))
}

/// Containment options used across experiments (plain summaries, like the
/// paper's base configuration).
fn contain_opts() -> ContainOpts {
    ContainOpts {
        canon: CanonOpts {
            use_strong: false,
            max_trees: 500_000,
        },
    }
}

/// Figure 13 (top): per-XMark-query canonical model size and
/// self-containment time.
pub fn fig13_xmark_queries(s: &Summary) -> Vec<(usize, usize, Duration)> {
    let opts = contain_opts();
    xmark_query_patterns()
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let model = canonical_model(q, s, &opts.canon);
            let t = Instant::now();
            let d = contained(q, q, s, &opts);
            assert_eq!(d, Decision::Contained, "Q{} must contain itself", i + 1);
            (i + 1, model.size(), t.elapsed())
        })
        .collect()
}

/// One synthetic containment measurement point.
pub struct ContainmentPoint {
    /// Pattern size n.
    pub nodes: usize,
    /// Return arity r.
    pub returns: usize,
    /// Mean time of positive (contained) tests.
    pub positive: Duration,
    /// Mean time of negative tests.
    pub negative: Duration,
    /// Number of positive outcomes.
    pub n_positive: usize,
    /// Number of negative outcomes.
    pub n_negative: usize,
}

/// Figure 13 (bottom) / Figure 14: pairwise synthetic containment, `p_i ⊆
/// p_j` for `j = i..count`, averaged separately over positive and
/// negative outcomes (the paper's protocol).
pub fn synthetic_containment(
    s: &Summary,
    nodes: usize,
    returns: usize,
    count: usize,
    p_opt: f64,
    return_labels: &[&str],
    seed: u64,
) -> ContainmentPoint {
    let cfg = SynthConfig {
        nodes,
        returns,
        p_opt,
        return_labels: return_labels.iter().map(|s| s.to_string()).collect(),
        seed,
        ..Default::default()
    };
    let pats: Vec<Pattern> = random_patterns(s, &cfg, count);
    let opts = contain_opts();
    let (mut tp, mut tn) = (Duration::ZERO, Duration::ZERO);
    let (mut np, mut nn) = (0usize, 0usize);
    for i in 0..pats.len() {
        for j in i..pats.len() {
            let t = Instant::now();
            let d = contained(&pats[i], &pats[j], s, &opts);
            let dt = t.elapsed();
            match d {
                Decision::Contained => {
                    tp += dt;
                    np += 1;
                }
                _ => {
                    tn += dt;
                    nn += 1;
                }
            }
        }
    }
    ContainmentPoint {
        nodes,
        returns,
        positive: tp.checked_div(np.max(1) as u32).unwrap_or_default(),
        negative: tn.checked_div(nn.max(1) as u32).unwrap_or_default(),
        n_positive: np,
        n_negative: nn,
    }
}

/// The §5 view set for Figure 15: seed views + `extra` random 3-node
/// views.
pub fn fig15_views(s: &Summary, extra: usize) -> Vec<View> {
    let mut vs = seed_views(s, IdScheme::OrdPath);
    vs.extend(random_views(
        s,
        &ViewGenConfig {
            count: extra,
            ..Default::default()
        },
    ));
    vs
}

/// One Figure 15 row.
pub struct RewritingPoint {
    /// Query number (1-based).
    pub query: usize,
    /// Setup + pruning time.
    pub setup: Duration,
    /// Time until the first rewriting (None = no rewriting found).
    pub first: Option<Duration>,
    /// Total time.
    pub total: Duration,
    /// Views kept after Prop 3.4 pruning.
    pub views_kept: usize,
    /// Total views offered.
    pub views_total: usize,
    /// Number of rewritings found.
    pub rewritings: usize,
}

/// Rewriting options tuned for the Figure 15 sweep (bounded search).
pub fn fig15_opts() -> smv_core::RewriteOpts {
    smv_core::RewriteOpts {
        max_scans: 2,
        max_members: 32,
        max_pairs: 300,
        max_rewritings: 2,
        enable_content_navigation: false,
        ..Default::default()
    }
}

/// Figure 15: rewriting every XMark query pattern over the view set.
pub fn fig15_rewriting(s: &Summary, views: &[View]) -> Vec<RewritingPoint> {
    xmark_query_patterns()
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let r = smv_core::rewrite(q, views, s, &fig15_opts());
            RewritingPoint {
                query: i + 1,
                setup: r.stats.setup,
                first: r.stats.first_rewriting,
                total: r.stats.total,
                views_kept: r.stats.views_kept,
                views_total: r.stats.views_total,
                rewritings: r.rewritings.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let s = xmark_summary();
        assert!(s.len() > 100);
        let d = dblp_summary();
        assert!(d.len() > 20);
    }

    #[test]
    fn synthetic_point_runs() {
        let s = dblp_summary();
        let pt = synthetic_containment(&s, 4, 1, 6, 0.5, &["author"], 3);
        assert_eq!(pt.n_positive + pt.n_negative, 21);
        assert!(pt.n_positive >= 6, "self-tests are positive");
    }
}
