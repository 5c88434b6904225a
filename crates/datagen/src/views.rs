//! The §5 view-set generator for the rewriting experiment (Figure 15).
//!
//! "The view pattern set is initialized with 2-node views, one node
//! labeled with the XMark root tag, and the other labeled with each XMark
//! tag, and storing ID, V [...] we generated 100 random 3-nodes view
//! patterns based on the XMark233 summary, with 50% optional edges, such
//! that a node stores a (structural) ID and V with a probability 0.75."

use crate::synthetic::{random_patterns, SynthConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smv_pattern::{Axis, Pattern};
use smv_summary::Summary;
use smv_views::View;
use smv_xml::{IdScheme, Label};

/// Parameters for the random 3-node views.
#[derive(Clone, Debug)]
pub struct ViewGenConfig {
    /// How many random views.
    pub count: usize,
    /// P(optional edge).
    pub p_opt: f64,
    /// P(a node stores ID and V).
    pub p_attrs: f64,
    /// Nodes per view.
    pub nodes: usize,
    /// ID scheme stored by the views.
    pub scheme: IdScheme,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ViewGenConfig {
    fn default() -> Self {
        ViewGenConfig {
            count: 100,
            p_opt: 0.5,
            p_attrs: 0.75,
            nodes: 3,
            scheme: IdScheme::OrdPath,
            seed: 1,
        }
    }
}

/// The 2-node seed views: `root(//tag{id,v})` for every distinct summary
/// label.
pub fn seed_views(s: &Summary, scheme: IdScheme) -> Vec<View> {
    let mut labels: Vec<Label> = s.iter().skip(1).map(|n| s.label(n)).collect();
    labels.sort();
    labels.dedup();
    labels
        .into_iter()
        .enumerate()
        .map(|(i, tag)| {
            let mut p = Pattern::new(Some(s.label(s.root())));
            let n = p.add_child(p.root(), Axis::Descendant, Some(tag));
            let nd = p.node_mut(n);
            nd.attrs.id = true;
            nd.attrs.value = true;
            View::new(&format!("seed{i}_{tag}"), p, scheme)
        })
        .collect()
}

/// Random `nodes`-node views with the §5 attribute/optionality mix.
pub fn random_views(s: &Summary, cfg: &ViewGenConfig) -> Vec<View> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
    let synth = SynthConfig {
        nodes: cfg.nodes,
        returns: 0,
        return_labels: vec![],
        p_opt: cfg.p_opt,
        p_pred: 0.0,
        p_star: 0.05,
        seed: cfg.seed,
        ..Default::default()
    };
    let mut pats = random_patterns(s, &synth, cfg.count);
    for p in &mut pats {
        for i in 0..p.len() {
            let n = smv_pattern::PNodeId(i as u32);
            if i > 0 && rng.random_bool(cfg.p_attrs) {
                let nd = p.node_mut(n);
                nd.attrs.id = true;
                nd.attrs.value = true;
            }
        }
    }
    pats.into_iter()
        .enumerate()
        .filter(|(_, p)| p.arity() > 0)
        .map(|(i, p)| View::new(&format!("rv{i}"), p, cfg.scheme))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xmark::{xmark, XmarkConfig};

    #[test]
    fn seed_views_cover_all_tags() {
        let s = Summary::of(&xmark(&XmarkConfig::default()));
        let vs = seed_views(&s, IdScheme::OrdPath);
        assert!(vs.len() > 30, "one view per distinct tag: {}", vs.len());
        for v in &vs {
            assert_eq!(v.pattern.len(), 2);
            assert_eq!(v.pattern.arity(), 1);
        }
    }

    #[test]
    fn random_views_have_requested_mix() {
        let s = Summary::of(&xmark(&XmarkConfig::default()));
        let vs = random_views(
            &s,
            &ViewGenConfig {
                count: 50,
                ..Default::default()
            },
        );
        assert!(vs.len() >= 30, "most views store something: {}", vs.len());
        let with_opt = vs
            .iter()
            .filter(|v| !v.pattern.optional_edges().is_empty())
            .count();
        assert!(with_opt > 0);
        for v in &vs {
            assert!(v.pattern.len() <= 3);
        }
    }
}
