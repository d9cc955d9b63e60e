//! TransM-style transitivity-aware crowd querying.
//!
//! TransM \[10\] ("leveraging transitive relations for crowdsourced
//! joins") asks the crowd about candidate pairs in descending machine-
//! similarity order and skips any pair whose answer is already deducible:
//!
//! * **positive transitivity**: `a ~ c` and `c ~ b` ⇒ `a ~ b`;
//! * **negative transitivity**: `a ~ c` and `c ≁ b` ⇒ `a ≁ b`.
//!
//! Deduction is tracked with a union-find over confirmed matches plus a
//! set of non-match constraints between match-components.

use crate::oracle::NoisyOracle;
use crate::transitivity::Deductions;

/// TransM configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransMConfig {
    /// Pairs below this machine score are assumed non-matching without
    /// asking (same coarse filter as CrowdER; 0 disables).
    pub machine_threshold: f64,
}

/// Runs TransM; returns the confirmed matches and question count.
pub fn transm_resolve<F: Fn(u32, u32) -> bool>(
    n_records: usize,
    scored_pairs: &[(u32, u32, f64)],
    config: &TransMConfig,
    oracle: &mut NoisyOracle<F>,
) -> crate::crowder::CrowdOutcome {
    let mut order: Vec<usize> = (0..scored_pairs.len()).collect();
    order.sort_by(|&x, &y| {
        scored_pairs[y]
            .2
            .partial_cmp(&scored_pairs[x].2)
            .expect("finite scores")
    });

    let mut deductions = Deductions::new(n_records);
    let before = oracle.questions_asked();
    let mut matches = Vec::new();
    let mut filtered_out = 0usize;
    for &i in &order {
        let (a, b, score) = scored_pairs[i];
        if score < config.machine_threshold {
            filtered_out += 1;
            continue;
        }
        // Positive or negative transitivity, else the crowd.
        let answer = deductions.deduce(a, b).unwrap_or_else(|| oracle.ask(a, b));
        if answer {
            matches.push((a, b));
        }
        deductions.record(a, b, answer);
    }
    crate::crowder::CrowdOutcome {
        matches,
        questions: oracle.questions_asked() - before,
        filtered_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoisyOracle;

    fn truth(a: u32, b: u32) -> bool {
        // Entities: {0,1,2}, {3,4}.
        let cluster = |x: u32| if x <= 2 { 0 } else { 1 };
        cluster(a) == cluster(b)
    }

    #[test]
    fn transitivity_saves_questions() {
        // A triangle of true matches: after confirming (0,1) and (1,2),
        // (0,2) is deduced for free.
        let pairs = vec![(0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.7)];
        let mut oracle = NoisyOracle::new(truth, 1.0, 1);
        let out = transm_resolve(3, &pairs, &TransMConfig::default(), &mut oracle);
        assert_eq!(out.questions, 2, "third answer deduced");
        assert_eq!(out.matches.len(), 3, "all three pairs resolved as matches");
    }

    #[test]
    fn negative_transitivity_deduces_non_matches() {
        // (0,1) match; (1,3) non-match asked; then (0,3) is deducible as
        // a non-match without asking.
        let pairs = vec![(0, 1, 0.9), (1, 3, 0.8), (0, 3, 0.7)];
        let mut oracle = NoisyOracle::new(truth, 1.0, 1);
        let out = transm_resolve(4, &pairs, &TransMConfig::default(), &mut oracle);
        assert_eq!(out.questions, 2);
        assert_eq!(out.matches, vec![(0, 1)]);
    }

    #[test]
    fn big_cliques_save_most() {
        // A complete clique over k nodes needs only k − 1 questions.
        let k = 8u32;
        let mut pairs = Vec::new();
        for i in 0..k {
            for j in i + 1..k {
                pairs.push((i, j, 1.0 - (i + j) as f64 / 100.0));
            }
        }
        let mut oracle = NoisyOracle::new(|_, _| true, 1.0, 1);
        let out = transm_resolve(k as usize, &pairs, &TransMConfig::default(), &mut oracle);
        assert_eq!(out.questions, (k - 1) as usize);
        assert_eq!(out.matches.len(), pairs.len());
    }

    #[test]
    fn machine_filter_applies() {
        let pairs = vec![(0, 1, 0.9), (3, 4, 0.01)];
        let mut oracle = NoisyOracle::new(truth, 1.0, 1);
        let out = transm_resolve(
            5,
            &pairs,
            &TransMConfig {
                machine_threshold: 0.3,
            },
            &mut oracle,
        );
        assert_eq!(out.filtered_out, 1);
        assert_eq!(out.questions, 1);
        assert_eq!(
            out.matches,
            vec![(0, 1)],
            "true pair (3,4) lost to the filter"
        );
    }

    #[test]
    fn empty_input() {
        let mut oracle = NoisyOracle::new(truth, 1.0, 1);
        let out = transm_resolve(0, &[], &TransMConfig::default(), &mut oracle);
        assert_eq!(out.questions, 0);
        assert!(out.matches.is_empty());
    }
}
