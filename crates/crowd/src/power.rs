//! Power+-style partial-order question pruning.
//!
//! Power+ \[13\] ("cost-effective crowdsourced entity resolution: a
//! partial-order approach") observes that candidate pairs form a partial
//! order under their similarity evidence: once the crowd answers NO for a
//! pair, every pair *dominated* by it (weaker evidence on every
//! dimension) must also be NO; a YES propagates upward symmetrically.
//! With a scalar machine score the order is total, so the optimal
//! strategy degenerates to a noise-tolerant **boundary search** over the
//! score-sorted pair list: probe pairs, narrow the boundary between the
//! YES-region and the NO-region, and decide everything outside the probed
//! window for free. Transitive closure then adds deduced positives.
//!
//! This captures exactly why the paper reports Power+ matching ACD's
//! accuracy at a fraction of the cost on Restaurant-like data.

use er_graph::UnionFind;

use crate::crowder::CrowdOutcome;
use crate::oracle::NoisyOracle;

/// Power+ configuration.
#[derive(Debug, Clone, Copy)]
pub struct PowerConfig {
    /// Pairs below this normalized machine score are discarded unasked.
    pub machine_threshold: f64,
    /// Votes per probe (odd; majority decides) — the boundary probe is
    /// the single point where a worker error is maximally harmful.
    pub votes: usize,
    /// Half-width of the verification band around the boundary: pairs
    /// this close to the boundary are asked individually, since score
    /// noise interleaves YES and NO pairs there (0 = pure boundary
    /// search).
    pub verify_band: usize,
}

impl Default for PowerConfig {
    fn default() -> Self {
        Self {
            machine_threshold: 0.15,
            votes: 3,
            verify_band: 24,
        }
    }
}

/// Runs Power+; returns matches and the bill.
pub fn power_resolve<F: Fn(u32, u32) -> bool>(
    n_records: usize,
    scored_pairs: &[(u32, u32, f64)],
    config: &PowerConfig,
    oracle: &mut NoisyOracle<F>,
) -> CrowdOutcome {
    assert!(config.votes % 2 == 1, "votes must be odd for a majority");
    let max_score = scored_pairs
        .iter()
        .map(|&(_, _, s)| s)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let mut order: Vec<usize> = (0..scored_pairs.len())
        .filter(|&i| scored_pairs[i].2 / max_score >= config.machine_threshold)
        .collect();
    let filtered_out = scored_pairs.len() - order.len();
    // Descending by score: prefix = strong evidence, suffix = weak.
    order.sort_by(|&x, &y| {
        scored_pairs[y]
            .2
            .partial_cmp(&scored_pairs[x].2)
            .expect("finite scores")
    });

    let before = oracle.questions_asked();
    let mut majority = |i: usize| -> bool {
        let (a, b, _) = scored_pairs[order[i]];
        let mut yes = 0usize;
        let mut no = 0usize;
        for _ in 0..config.votes {
            if oracle.ask(a, b) {
                yes += 1;
            } else {
                no += 1;
            }
            if yes > config.votes / 2 || no > config.votes / 2 {
                break;
            }
        }
        yes > no
    };

    // Binary search for the YES/NO boundary index: the first index whose
    // answer is NO. Invariant: everything before `lo` is YES-region,
    // everything from `hi` on is NO-region.
    let mut boundary = order.len();
    if !order.is_empty() {
        let (mut lo, mut hi) = (0usize, order.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if majority(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        boundary = lo;
    }
    // Verification band: real score orderings are noisy near the
    // boundary (true and false pairs interleave), so pairs within the
    // band are asked individually; outside it the partial order decides.
    let band_lo = boundary.saturating_sub(config.verify_band);
    let band_hi = (boundary + config.verify_band).min(order.len());
    let mut verified: Vec<(usize, bool)> = Vec::new();
    for idx in band_lo..band_hi {
        let answer = majority(idx);
        verified.push((idx, answer));
    }

    // Decide each candidate: verified answers inside the band, the
    // partial order outside it; then add transitive closure.
    let verdict_of = |idx: usize| -> bool {
        if let Some(&(_, answer)) = verified.iter().find(|&&(i, _)| i == idx) {
            answer
        } else {
            idx < boundary
        }
    };
    let mut components = UnionFind::new(n_records);
    let mut matches = Vec::new();
    let mut negatives = Vec::new();
    for idx in 0..order.len() {
        let (a, b, _) = scored_pairs[order[idx]];
        if verdict_of(idx) {
            matches.push(if a < b { (a, b) } else { (b, a) });
            components.union(a, b);
        } else {
            negatives.push((a, b));
        }
    }
    // Deduce positives among the negatives connected transitively.
    for (a, b) in negatives {
        if components.connected(a, b) {
            matches.push(if a < b { (a, b) } else { (b, a) });
        }
    }
    matches.sort_unstable();
    matches.dedup();
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
        let c = |x: u32| if x <= 2 { 0 } else { 1 };
        a != b && c(a) == c(b)
    }

    /// Scores perfectly ordered: all true pairs above all false pairs.
    fn separable() -> Vec<(u32, u32, f64)> {
        vec![
            (0, 1, 0.95),
            (1, 2, 0.9),
            (0, 2, 0.88),
            (3, 4, 0.82),
            (2, 3, 0.45),
            (1, 3, 0.4),
            (0, 4, 0.35),
        ]
    }

    #[test]
    fn boundary_search_is_logarithmic() {
        let mut o = NoisyOracle::new(truth, 1.0, 1);
        let out = power_resolve(5, &separable(), &PowerConfig::default(), &mut o);
        let mut m = out.matches.clone();
        m.sort_unstable();
        assert_eq!(m, vec![(0, 1), (0, 2), (1, 2), (3, 4)]);
        // With a small band on 7 candidates everything gets verified; on
        // large inputs the band is a vanishing fraction (see
        // band_is_sublinear below).
        assert!(out.questions <= 7 * 3, "{}", out.questions);
    }

    #[test]
    fn band_is_sublinear_on_large_inputs() {
        // 600 separable candidates: questions must stay near
        // votes * (log2(600) + 2 * band), far below 600.
        let mut pairs = Vec::new();
        for i in 0..300u32 {
            pairs.push((2 * i, 2 * i + 1, 1.0 - i as f64 * 0.001)); // true
        }
        for i in 0..300u32 {
            pairs.push((2 * i, (2 * i + 3) % 600, 0.5 - i as f64 * 0.001)); // false
        }
        let truth = |a: u32, b: u32| a / 2 == b / 2;
        let mut o = NoisyOracle::new(truth, 1.0, 9);
        let out = power_resolve(600, &pairs, &PowerConfig::default(), &mut o);
        assert!(
            out.questions < 200,
            "sublinear bill expected: {}",
            out.questions
        );
        assert_eq!(out.matches.len(), 300, "all true pairs found");
    }

    #[test]
    fn noisy_probes_survive_majority_voting() {
        let mut wins = 0;
        for seed in 0..20 {
            let mut o = NoisyOracle::new(truth, 0.8, seed);
            let out = power_resolve(5, &separable(), &PowerConfig::default(), &mut o);
            let want: std::collections::HashSet<(u32, u32)> =
                [(0, 1), (0, 2), (1, 2), (3, 4)].into_iter().collect();
            let got: std::collections::HashSet<(u32, u32)> = out.matches.iter().copied().collect();
            if got == want {
                wins += 1;
            }
        }
        assert!(wins >= 12, "majority-voted search too fragile: {wins}/20");
    }

    #[test]
    fn all_false_pairs_yield_nothing() {
        let pairs = vec![(0, 3, 0.9), (1, 4, 0.8), (2, 3, 0.7)];
        let mut o = NoisyOracle::new(truth, 1.0, 1);
        let out = power_resolve(5, &pairs, &PowerConfig::default(), &mut o);
        assert!(out.matches.is_empty(), "{:?}", out.matches);
    }

    #[test]
    fn all_true_pairs_all_match() {
        let pairs = vec![(0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.7)];
        let mut o = NoisyOracle::new(truth, 1.0, 1);
        let out = power_resolve(3, &pairs, &PowerConfig::default(), &mut o);
        assert_eq!(out.matches.len(), 3);
    }

    #[test]
    fn empty_input() {
        let mut o = NoisyOracle::new(truth, 1.0, 1);
        let out = power_resolve(0, &[], &PowerConfig::default(), &mut o);
        assert!(out.matches.is_empty());
        assert_eq!(out.questions, 0);
    }
}
