//! GCER-style budget-limited question selection.
//!
//! GCER \[9\] ("question selection for crowd entity resolution") assumes a
//! fixed question budget and selects the candidate pairs whose answers
//! are expected to improve the resolution most. This implementation uses
//! the standard greedy strategy on scalar machine scores:
//!
//! 1. normalize machine scores to `[0, 1]` as match-probability proxies;
//! 2. spend the budget on the pairs with the highest *expected benefit* —
//!    probable matches first (they create transitive inferences), skipping
//!    pairs whose answer is already deducible from transitivity;
//! 3. after the budget is exhausted, decide the remaining pairs by the
//!    machine proxy alone (threshold 0.5 of the normalized score).
//!
//! The paper's Table II row shows GCER slightly below CrowdER/ACD — the
//! budget cap costs accuracy, which this implementation reproduces when
//! given fewer questions than candidates above the filter.

use crate::crowder::CrowdOutcome;
use crate::oracle::NoisyOracle;
use crate::transitivity::Deductions;

/// GCER configuration.
#[derive(Debug, Clone, Copy)]
pub struct GcerConfig {
    /// Maximum number of crowd questions.
    pub budget: usize,
    /// Pairs with normalized machine score below this are discarded
    /// without asking or predicting (the coarse filter).
    pub machine_threshold: f64,
}

impl Default for GcerConfig {
    fn default() -> Self {
        Self {
            budget: 1000,
            machine_threshold: 0.15,
        }
    }
}

/// Runs GCER; returns confirmed + machine-inferred matches and the bill.
pub fn gcer_resolve<F: Fn(u32, u32) -> bool>(
    n_records: usize,
    scored_pairs: &[(u32, u32, f64)],
    config: &GcerConfig,
    oracle: &mut NoisyOracle<F>,
) -> CrowdOutcome {
    let max_score = scored_pairs
        .iter()
        .map(|&(_, _, s)| s)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    // Candidates above the filter, most-promising first.
    let mut order: Vec<usize> = (0..scored_pairs.len())
        .filter(|&i| scored_pairs[i].2 / max_score >= config.machine_threshold)
        .collect();
    let filtered_out = scored_pairs.len() - order.len();
    order.sort_by(|&x, &y| {
        scored_pairs[y]
            .2
            .partial_cmp(&scored_pairs[x].2)
            .expect("finite scores")
    });

    let mut deductions = Deductions::new(n_records);
    let before = oracle.questions_asked();
    let mut matches = Vec::new();
    let mut asked = 0usize;
    let mut undecided = Vec::new();
    for &i in &order {
        let (a, b, _) = scored_pairs[i];
        match deductions.deduce(a, b) {
            Some(true) => {
                matches.push((a, b)); // deduced positive — free
                continue;
            }
            Some(false) => continue, // deduced negative — free
            None => {}
        }
        if asked >= config.budget {
            undecided.push(i);
            continue;
        }
        asked += 1;
        let answer = oracle.ask(a, b);
        if answer {
            matches.push((a, b));
        }
        deductions.record(a, b, answer);
    }
    // Budget exhausted: fall back to the machine proxy for the rest.
    for i in undecided {
        let (a, b, s) = scored_pairs[i];
        if s / max_score >= 0.5 {
            matches.push((a, b));
        }
    }
    CrowdOutcome {
        matches,
        questions: oracle.questions_asked() - before,
        filtered_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(a: u32, b: u32) -> bool {
        // Entities {0,1,2}, {3,4}.
        let c = |x: u32| if x <= 2 { 0 } else { 1 };
        c(a) == c(b)
    }

    fn scored() -> Vec<(u32, u32, f64)> {
        vec![
            (0, 1, 0.95),
            (1, 2, 0.9),
            (0, 2, 0.85),
            (3, 4, 0.8),
            (2, 3, 0.4),
            (0, 4, 0.05), // filtered out
        ]
    }

    #[test]
    fn unlimited_budget_recovers_truth() {
        let mut o = NoisyOracle::new(truth, 1.0, 1);
        let out = gcer_resolve(5, &scored(), &GcerConfig::default(), &mut o);
        let mut m = out.matches.clone();
        m.sort_unstable();
        assert_eq!(m, vec![(0, 1), (0, 2), (1, 2), (3, 4)]);
        assert_eq!(out.filtered_out, 1);
        // Transitivity: (0,2) deduced after (0,1) and (1,2).
        assert_eq!(out.questions, 4);
    }

    #[test]
    fn budget_respected_with_machine_fallback() {
        let mut o = NoisyOracle::new(truth, 1.0, 1);
        let out = gcer_resolve(
            5,
            &scored(),
            &GcerConfig {
                budget: 2,
                ..Default::default()
            },
            &mut o,
        );
        assert_eq!(out.questions, 2);
        // (0,1) and (1,2) asked; (0,2) deduced; (3,4) and (2,3) fall to
        // the machine proxy: normalized (3,4)=0.84 >= 0.5 predicted match,
        // (2,3)=0.42 < 0.5 predicted non-match.
        let mut m = out.matches.clone();
        m.sort_unstable();
        assert_eq!(m, vec![(0, 1), (0, 2), (1, 2), (3, 4)]);
    }

    #[test]
    fn zero_budget_is_pure_machine() {
        let mut o = NoisyOracle::new(truth, 1.0, 1);
        let out = gcer_resolve(
            5,
            &scored(),
            &GcerConfig {
                budget: 0,
                ..Default::default()
            },
            &mut o,
        );
        assert_eq!(out.questions, 0);
        assert!(out.matches.contains(&(0, 1)));
        assert!(!out.matches.contains(&(2, 3)));
    }

    #[test]
    fn empty_input() {
        let mut o = NoisyOracle::new(truth, 1.0, 1);
        let out = gcer_resolve(0, &[], &GcerConfig::default(), &mut o);
        assert!(out.matches.is_empty());
        assert_eq!(out.questions, 0);
    }
}
