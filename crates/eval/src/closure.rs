//! Transitive-closure (clustering) evaluation and threshold sweep.
//!
//! Entity resolution's output is a clustering: records matched directly
//! *or through a chain of matches* belong to one entity (the clique
//! semantics of `G_r^opt`, §VI-A). Pairwise F1 over the induced clusters
//! therefore credits a method for pairs it connects transitively — and
//! punishes it doubly for false bridges, which merge whole clusters.
//!
//! [`sweep_threshold_closure`] finds the threshold maximizing closure F1.
//! It exploits monotonicity: lowering the threshold only ever adds edges,
//! so clusters grow by union operations. Each merge of clusters `A`, `B`
//! changes the closure counts by `|A|·|B|` predicted pairs, of which
//! `Σ_e cntA[e]·cntB[e]` are true — maintainable with small-to-large
//! merging of per-cluster entity histograms in `O(E log E + E log² n)`.

use std::collections::HashMap;

use er_graph::UnionFind;

use crate::confusion::ConfusionCounts;
use crate::threshold::ScoredPair;

/// Ground truth as per-record entity labels (`labels[record] = entity`).
#[derive(Debug, Clone)]
pub struct EntityLabels {
    labels: Vec<u32>,
    total_true_pairs: usize,
}

impl EntityLabels {
    /// Builds from a label vector. `total_true_pairs` counts all
    /// within-entity pairs; for candidate-restricted universes (e.g.
    /// cross-source only) use [`EntityLabels::with_total`].
    pub fn new(labels: Vec<u32>) -> Self {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for &l in &labels {
            *counts.entry(l).or_default() += 1;
        }
        let total = counts.values().map(|&c| c * (c - 1) / 2).sum();
        Self {
            labels,
            total_true_pairs: total,
        }
    }

    /// Builds with an explicit ground-truth pair total (used when the
    /// candidate policy excludes some within-entity pairs, e.g. same-
    /// source pairs in a two-source dataset).
    pub fn with_total(labels: Vec<u32>, total_true_pairs: usize) -> Self {
        Self {
            labels,
            total_true_pairs,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when there are no records.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Entity label of a record.
    pub fn label(&self, record: u32) -> u32 {
        self.labels[record as usize]
    }

    /// Ground-truth matching-pair total used as the recall denominator.
    pub fn total_true_pairs(&self) -> usize {
        self.total_true_pairs
    }
}

/// Closure confusion counts for a fixed predicted match set.
pub fn evaluate_closure(
    matches: impl IntoIterator<Item = (u32, u32)>,
    labels: &EntityLabels,
) -> ConfusionCounts {
    let mut state = ClosureState::new(labels);
    for (a, b) in matches {
        state.union(a, b);
    }
    state.counts()
}

/// Result of a closure-aware threshold sweep.
#[derive(Debug, Clone, Copy)]
pub struct ClosureSweepResult {
    /// The threshold achieving the best closure F1 (`score >= threshold`
    /// edges are accepted).
    pub threshold: f64,
    /// Closure confusion counts at that threshold.
    pub counts: ConfusionCounts,
    /// Best closure F1.
    pub f1: f64,
}

/// Sweeps `quanta` equally spaced thresholds over `[0, max score]`,
/// evaluating each by transitive-closure pairwise F1, incrementally.
pub fn sweep_threshold_closure(
    pairs: &[ScoredPair],
    labels: &EntityLabels,
    quanta: usize,
) -> ClosureSweepResult {
    assert!(quanta >= 1, "need at least one quantum");
    let mut sorted: Vec<&ScoredPair> = pairs.iter().collect();
    for p in &sorted {
        assert!(
            p.score.is_finite(),
            "non-finite score for pair ({}, {})",
            p.a,
            p.b
        );
    }
    sorted.sort_by(|x, y| y.score.partial_cmp(&x.score).expect("finite scores"));
    let max_score = sorted.first().map_or(0.0, |p| p.score.max(0.0));

    let mut state = ClosureState::new(labels);
    let mut best = ClosureSweepResult {
        threshold: f64::INFINITY,
        counts: ConfusionCounts::new(0, 0, labels.total_true_pairs()),
        f1: 0.0,
    };
    let mut next_edge = 0usize;
    // Walk thresholds from high to low, adding edges as they qualify.
    for q in (0..=quanta).rev() {
        let threshold = max_score * q as f64 / quanta as f64;
        while next_edge < sorted.len() && sorted[next_edge].score >= threshold {
            state.union(sorted[next_edge].a, sorted[next_edge].b);
            next_edge += 1;
        }
        let counts = state.counts();
        let f1 = counts.f1();
        if f1 > best.f1 {
            best = ClosureSweepResult {
                threshold,
                counts,
                f1,
            };
        }
    }
    best
}

/// Incremental union-find tracking closure TP/FP via per-cluster entity
/// histograms (small-to-large merging).
struct ClosureState<'a> {
    labels: &'a EntityLabels,
    clusters: UnionFind,
    /// Entity histogram per root.
    hist: Vec<HashMap<u32, usize>>,
    tp: usize,
    predicted: usize,
}

impl<'a> ClosureState<'a> {
    fn new(labels: &'a EntityLabels) -> Self {
        let n = labels.len();
        let hist = (0..n)
            .map(|r| {
                let mut m = HashMap::with_capacity(1);
                m.insert(labels.label(r as u32), 1usize);
                m
            })
            .collect();
        Self {
            labels,
            clusters: UnionFind::new(n),
            hist,
            tp: 0,
            predicted: 0,
        }
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.clusters.find(a), self.clusters.find(b));
        let pairs_added = self.clusters.set_size(ra) as usize * self.clusters.set_size(rb) as usize;
        if !self.clusters.union(ra, rb) {
            return;
        }
        // Union by size keeps the larger root: merge the smaller
        // histogram into it.
        let big = self.clusters.find(ra);
        let small = if big == ra { rb } else { ra };
        let small_hist = std::mem::take(&mut self.hist[small as usize]);
        let mut tp_delta = 0usize;
        {
            let big_hist = &mut self.hist[big as usize];
            for (&entity, &count) in &small_hist {
                if let Some(&big_count) = big_hist.get(&entity) {
                    tp_delta += big_count * count;
                }
            }
            for (entity, count) in small_hist {
                *big_hist.entry(entity).or_default() += count;
            }
        }
        self.tp += tp_delta;
        self.predicted += pairs_added;
    }

    fn counts(&self) -> ConfusionCounts {
        ConfusionCounts::new(
            self.tp,
            self.predicted - self.tp,
            self.labels.total_true_pairs() - self.tp,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: u32, b: u32, score: f64) -> ScoredPair {
        ScoredPair { a, b, score }
    }

    /// Entities: {0,1,2}, {3,4}, {5}.
    fn labels() -> EntityLabels {
        EntityLabels::new(vec![10, 10, 10, 20, 20, 30])
    }

    #[test]
    fn total_true_pairs_counted() {
        assert_eq!(labels().total_true_pairs(), 4); // C(3,2) + C(2,2)
    }

    #[test]
    fn closure_credits_transitive_pairs() {
        // Only a spanning chain of the 3-cluster is predicted; closure
        // credits all 3 pairs.
        let c = evaluate_closure([(0, 1), (1, 2), (3, 4)], &labels());
        assert_eq!(c, ConfusionCounts::new(4, 0, 0));
        assert_eq!(c.f1(), 1.0);
    }

    #[test]
    fn false_bridge_is_punished_quadratically() {
        // The bridge (2, 3) merges both clusters: closure predicts all
        // C(5,2) = 10 pairs, only 4 true.
        let c = evaluate_closure([(0, 1), (1, 2), (3, 4), (2, 3)], &labels());
        assert_eq!(c.tp, 4);
        assert_eq!(c.fp, 6);
    }

    #[test]
    fn sweep_prefers_threshold_above_the_bridge() {
        let pairs = vec![
            pair(0, 1, 0.9),
            pair(1, 2, 0.85),
            pair(3, 4, 0.8),
            pair(2, 3, 0.5), // false bridge
        ];
        let r = sweep_threshold_closure(&pairs, &labels(), 1000);
        assert_eq!(r.f1, 1.0);
        assert!(r.threshold > 0.5 && r.threshold <= 0.8, "{}", r.threshold);
    }

    #[test]
    fn sweep_accepts_bridge_when_it_helps() {
        // Without the middle edge the chain is split; the sweep must take
        // the lower threshold that connects the true cluster.
        let pairs = vec![pair(0, 1, 0.9), pair(1, 2, 0.3), pair(3, 4, 0.8)];
        let r = sweep_threshold_closure(&pairs, &labels(), 1000);
        assert_eq!(r.counts.tp, 4);
        assert!(r.threshold <= 0.3);
    }

    #[test]
    fn incremental_matches_direct_evaluation() {
        let pairs = vec![
            pair(0, 1, 0.9),
            pair(2, 3, 0.7),
            pair(1, 2, 0.6),
            pair(4, 5, 0.4),
        ];
        let labels = labels();
        let r = sweep_threshold_closure(&pairs, &labels, 100);
        // Recompute directly at the chosen threshold.
        let direct = evaluate_closure(
            pairs
                .iter()
                .filter(|p| p.score >= r.threshold)
                .map(|p| (p.a, p.b)),
            &labels,
        );
        assert_eq!(r.counts, direct);
    }

    #[test]
    fn with_total_overrides_denominator() {
        let l = EntityLabels::with_total(vec![1, 1, 2, 2], 1);
        let c = evaluate_closure([(0, 1)], &l);
        assert_eq!(c, ConfusionCounts::new(1, 0, 0));
    }

    #[test]
    fn empty_inputs() {
        let l = EntityLabels::new(vec![]);
        assert!(l.is_empty());
        let r = sweep_threshold_closure(&[], &l, 10);
        assert_eq!(r.f1, 0.0);
    }
}
