//! The serving reader's query mix, a small seeded generator, and the
//! structural checks every resolution must pass.

/// SplitMix64: a seeded stream of 64-bit values. The benchmark derives
/// every random choice from the workload seed through it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded from `seed` and a per-use `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: bias below 2^-32 for the sizes used here.
        ((self.next_u64() >> 32) * n) >> 32
    }
}

/// Queries per timed batch.
pub const BATCH: usize = 256;

/// One query of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Matching probability of a pair.
    Probability(u32, u32),
    /// Whether a pair is a match.
    IsMatch(u32, u32),
    /// The cluster holding a record.
    ClusterOf(u32),
}

/// An answer, comparable bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// `match_probability`, as `f64` bits.
    Probability(Option<u64>),
    /// `is_match`.
    IsMatch(bool),
    /// `cluster_of`.
    ClusterOf(Option<Vec<u32>>),
}

/// Fills `out` with one batch of the mix over `records` resolved
/// records: 45 % probabilities of candidate pairs drawn from `pairs`,
/// 45 % `is_match` on random record pairs, 10 % `cluster_of`.
pub fn fill_batch(rng: &mut Rng, records: u32, pairs: &[(u32, u32)], out: &mut Vec<Query>) {
    out.clear();
    let records = u64::from(records.max(1));
    let record = |rng: &mut Rng| rng.below(records) as u32;
    for _ in 0..BATCH {
        let roll = rng.below(100);
        let q = if roll < 45 && !pairs.is_empty() {
            let (a, b) = pairs[rng.below(pairs.len() as u64) as usize];
            Query::Probability(a, b)
        } else if roll < 90 {
            Query::IsMatch(record(rng), record(rng))
        } else {
            Query::ClusterOf(record(rng))
        };
        out.push(q);
    }
}

/// Checks a resolution's internal consistency: candidate pairs strictly
/// ascending with `a < b < records`, one probability per pair, matches
/// exactly the candidate pairs with probability ≥ `eta`, and clusters
/// partitioning the records with every match inside one cluster.
pub fn check_resolution(
    records: usize,
    pairs: &[(u32, u32)],
    probabilities: &[f64],
    matches: &[(u32, u32)],
    clusters: &[Vec<u32>],
    eta: f64,
) -> Result<(), String> {
    if pairs.windows(2).any(|w| w[0] >= w[1]) {
        return Err("candidate pairs are not strictly ascending".into());
    }
    if pairs.iter().any(|&(a, b)| a >= b || b as usize >= records) {
        return Err("a candidate pair is out of range".into());
    }
    if probabilities.len() != pairs.len() {
        return Err("probabilities are not aligned with the pairs".into());
    }
    let expected: Vec<(u32, u32)> = pairs
        .iter()
        .zip(probabilities)
        .filter(|(_, &p)| p >= eta)
        .map(|(&pair, _)| pair)
        .collect();
    if expected != matches {
        return Err("matches are not the pairs with p >= eta".into());
    }
    let mut cluster_of = vec![u32::MAX; records];
    for (c, members) in clusters.iter().enumerate() {
        for &r in members {
            let slot = cluster_of
                .get_mut(r as usize)
                .ok_or("a cluster member is out of range")?;
            if *slot != u32::MAX {
                return Err(format!("record {r} is in two clusters"));
            }
            *slot = c as u32;
        }
    }
    if cluster_of.contains(&u32::MAX) {
        return Err("a record is in no cluster".into());
    }
    if matches
        .iter()
        .any(|&(a, b)| cluster_of[a as usize] != cluster_of[b as usize])
    {
        return Err("a match spans two clusters".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_bounded() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(8, 1);
        let xs: Vec<u64> = (0..100).map(|_| a.below(10)).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.below(10)).collect();
        let zs: Vec<u64> = (0..100).map(|_| c.below(10)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert!(xs.iter().all(|&x| x < 10));
    }

    #[test]
    fn the_mix_follows_its_shares() {
        let mut rng = Rng::new(1, 2);
        let mut batch = Vec::new();
        let (mut p, mut m, mut c) = (0, 0, 0);
        for _ in 0..200 {
            fill_batch(&mut rng, 1000, &[(1, 2), (3, 4)], &mut batch);
            assert_eq!(batch.len(), BATCH);
            for q in &batch {
                match q {
                    Query::Probability(..) => p += 1,
                    Query::IsMatch(..) => m += 1,
                    Query::ClusterOf(..) => c += 1,
                }
            }
        }
        let total = f64::from(p + m + c);
        assert!((f64::from(p) / total - 0.45).abs() < 0.01);
        assert!((f64::from(m) / total - 0.45).abs() < 0.01);
        assert!((f64::from(c) / total - 0.10).abs() < 0.01);
    }

    #[test]
    fn resolution_checks_catch_inconsistencies() {
        let pairs = [(0, 1), (1, 2)];
        let probs = [0.99, 0.5];
        let clusters = vec![vec![0, 1], vec![2]];
        assert!(check_resolution(3, &pairs, &probs, &[(0, 1)], &clusters, 0.98).is_ok());
        assert!(check_resolution(3, &pairs, &probs, &[], &clusters, 0.98).is_err());
        let split = vec![vec![0], vec![1], vec![2]];
        assert!(check_resolution(3, &pairs, &probs, &[(0, 1)], &split, 0.98).is_err());
        let missing = vec![vec![0, 1]];
        assert!(check_resolution(3, &pairs, &probs, &[(0, 1)], &missing, 0.98).is_err());
    }
}
