//! The term ↔ record-pair bipartite graph of §V-B (Figure 3).
//!
//! One side holds **term nodes**, the other **pair nodes** — each pair
//! node is an unordered pair of records that share at least one term.
//! Term `t` connects to pair `(ri, rj)` iff `t ∈ ri ∧ t ∈ rj`. Pairs
//! sharing no term are excluded entirely (the paper treats them as
//! non-matching by construction).
//!
//! Two constructions produce the same dual-CSR form:
//!
//! * [`BipartiteGraphBuilder`] consumes postings lists (term → sorted
//!   records) — exactly what `er_text::Corpus` produces — and
//!   enumerates, per term, all record pairs in its postings that the
//!   candidate policy accepts (e.g. only cross-source pairs for the
//!   two-source Product dataset). Cost O(Σ_t N_t²).
//! * [`BipartiteGraph::from_pair_side`] takes the pair side ready-made
//!   (each pair's sorted term row, e.g. the intersection of its two
//!   records' term sets) and derives the term side with one counting
//!   sort. Cost O(edges + terms) — the path for an explicit candidate
//!   list.
//!
//! The builder is sort-based rather than hash-based: terms enumerate
//! `(term, pair)` edges independently (parallelizable over term chunks on
//! a shared [`er_pool::WorkerPool`]), pair ids come from a sort + dedup of
//! the pair keys, and both CSR sides fill in one term-major pass. The
//! result is canonical — byte-identical regardless of thread count or
//! chunking — because edges are concatenated back in term order and ids
//! come from the sorted pair universe.

use er_pool::WorkerPool;

use crate::invariant::{check_offsets, debug_validate, InvariantViolation};

/// A pair node: an unordered record pair with `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairNode {
    /// Smaller record id.
    pub a: u32,
    /// Larger record id.
    pub b: u32,
}

impl PairNode {
    /// Creates a pair node, normalizing the order.
    pub fn new(x: u32, y: u32) -> Self {
        assert!(x != y, "pair node of a record with itself");
        if x < y {
            Self { a: x, b: y }
        } else {
            Self { a: y, b: x }
        }
    }
}

/// Immutable bipartite graph in dual-CSR form.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    n_records: usize,
    n_terms: usize,
    pairs: Vec<PairNode>,
    // pair -> terms
    pair_offsets: Vec<usize>,
    pair_terms: Vec<u32>,
    // term -> pairs
    term_offsets: Vec<usize>,
    term_pairs: Vec<u32>,
    // P_t per term: number of pair nodes incident to the term.
    pt: Vec<u32>,
}

impl BipartiteGraph {
    /// Number of records in the underlying universe.
    pub fn record_count(&self) -> usize {
        self.n_records
    }

    /// Size of the term universe (including terms with no edges).
    pub fn term_count(&self) -> usize {
        self.n_terms
    }

    /// Number of pair nodes.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Number of term–pair edges.
    pub fn edge_count(&self) -> usize {
        self.pair_terms.len()
    }

    /// The pair node with id `p`.
    pub fn pair(&self, p: u32) -> PairNode {
        self.pairs[p as usize]
    }

    /// All pair nodes, indexed by pair id.
    pub fn pairs(&self) -> &[PairNode] {
        &self.pairs
    }

    /// Term ids incident to pair `p` (the shared terms of the two records).
    pub fn terms_of_pair(&self, p: u32) -> &[u32] {
        &self.pair_terms[self.pair_offsets[p as usize]..self.pair_offsets[p as usize + 1]]
    }

    /// Pair ids incident to term `t`.
    pub fn pairs_of_term(&self, t: u32) -> &[u32] {
        &self.term_pairs[self.term_offsets[t as usize]..self.term_offsets[t as usize + 1]]
    }

    /// `P_t`: the number of pair nodes connected to term `t` (§V-A). In a
    /// single-source dataset with no candidate filtering this equals
    /// `N_t (N_t − 1) / 2`; with a candidate policy (e.g. cross-source
    /// only) it is the filtered pair count, the natural generalization.
    pub fn pt(&self, t: u32) -> u32 {
        self.pt[t as usize]
    }

    /// Looks up the pair id of records `(x, y)` if they form a pair node.
    pub fn pair_id(&self, x: u32, y: u32) -> Option<u32> {
        let key = PairNode::new(x, y);
        self.pairs.binary_search(&key).ok().map(|i| i as u32)
    }

    /// Builds a graph from its pair side: `pairs` (the pair universe)
    /// and, for pair id `p`, its term row
    /// `pair_terms[pair_offsets[p]..pair_offsets[p + 1]]`.
    ///
    /// The caller guarantees what [`Self::validate`] checks of the pair
    /// side: `pairs` strictly ascending with `a < b < n_records`, every
    /// row non-empty, strictly ascending and below `n_terms`. The term →
    /// pair side and `P_t` come from one counting sort over the rows;
    /// pairs are visited in id order, so every term row comes out
    /// ascending. The result equals what [`BipartiteGraphBuilder`] builds
    /// from postings whose `(term, pair)` edges are exactly these rows.
    pub fn from_pair_side(
        n_records: usize,
        n_terms: usize,
        pairs: Vec<PairNode>,
        pair_offsets: Vec<usize>,
        pair_terms: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(pair_offsets.len(), pairs.len() + 1);
        let mut term_deg = vec![0usize; n_terms];
        for &t in &pair_terms {
            term_deg[t as usize] += 1;
        }
        let term_offsets = offsets_from_degrees(&term_deg);
        let mut term_pairs = vec![0u32; pair_terms.len()];
        let mut cursor = term_offsets.clone();
        for (p, row) in pair_offsets.windows(2).enumerate() {
            for &t in &pair_terms[row[0]..row[1]] {
                term_pairs[cursor[t as usize]] = p as u32;
                cursor[t as usize] += 1;
            }
        }
        let graph = Self {
            n_records,
            n_terms,
            pairs,
            pair_offsets,
            pair_terms,
            term_offsets,
            term_pairs,
            pt: term_deg.iter().map(|&d| d as u32).collect(),
        };
        debug_validate("BipartiteGraph::from_pair_side", || graph.validate());
        graph
    }

    /// Checks every structural invariant of the dual-CSR form:
    ///
    /// * `pairs` is strictly ascending with `a < b < n_records` — the
    ///   canonical binary-searchable pair universe;
    /// * every pair shares at least one term (non-empty pair row);
    /// * both offset arrays are monotone from 0 and consistent with one
    ///   shared edge count (each term–pair edge appears once per side);
    /// * adjacency rows are strictly ascending and in bounds on both
    ///   sides (a consequence of the term-major construction);
    /// * the two sides agree edge-for-edge: `p ∈ pairs_of_term(t)` iff
    ///   `t ∈ terms_of_pair(p)`;
    /// * `pt[t]` equals term `t`'s degree.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        let err = |detail: String| Err(InvariantViolation::new("BipartiteGraph", detail));
        if let Some(w) = self.pairs.windows(2).find(|w| w[0] >= w[1]) {
            return err(format!(
                "pair universe not strictly ascending: {:?} then {:?}",
                w[0], w[1]
            ));
        }
        if let Some(p) = self
            .pairs
            .iter()
            .find(|p| p.a >= p.b || p.b as usize >= self.n_records)
        {
            return err(format!(
                "malformed pair node {p:?} (want a < b < {})",
                self.n_records
            ));
        }
        let n_edges = self.pair_terms.len();
        if self.term_pairs.len() != n_edges {
            return err(format!(
                "side edge counts disagree: {} pair->term vs {} term->pair",
                n_edges,
                self.term_pairs.len()
            ));
        }
        check_offsets(
            "BipartiteGraph",
            "pair->term",
            &self.pair_offsets,
            self.pairs.len(),
            n_edges,
        )?;
        check_offsets(
            "BipartiteGraph",
            "term->pair",
            &self.term_offsets,
            self.n_terms,
            n_edges,
        )?;
        if self.pt.len() != self.n_terms {
            return err(format!(
                "{} pt entries for {} terms",
                self.pt.len(),
                self.n_terms
            ));
        }
        for p in 0..self.pairs.len() {
            let row = &self.pair_terms[self.pair_offsets[p]..self.pair_offsets[p + 1]];
            if row.is_empty() {
                return err(format!("pair {p} shares no term"));
            }
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return err(format!("terms of pair {p} not strictly ascending"));
            }
            if let Some(&t) = row.last().filter(|&&t| t as usize >= self.n_terms) {
                return err(format!("pair {p} lists out-of-bounds term {t}"));
            }
        }
        for t in 0..self.n_terms {
            let row = &self.term_pairs[self.term_offsets[t]..self.term_offsets[t + 1]];
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return err(format!("pairs of term {t} not strictly ascending"));
            }
            if self.pt[t] as usize != row.len() {
                return err(format!(
                    "pt[{t}] = {} but term degree is {}",
                    self.pt[t],
                    row.len()
                ));
            }
            for &p in row {
                if p as usize >= self.pairs.len() {
                    return err(format!("term {t} lists out-of-bounds pair {p}"));
                }
                // Dual consistency (both rows sorted → binary search).
                let terms = &self.pair_terms
                    [self.pair_offsets[p as usize]..self.pair_offsets[p as usize + 1]];
                if terms.binary_search(&(t as u32)).is_err() {
                    return err(format!(
                        "edge (term {t}, pair {p}) missing from the pair side"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`BipartiteGraph`].
pub struct BipartiteGraphBuilder<'a> {
    n_records: usize,
    n_terms: usize,
    postings: Vec<&'a [u32]>,
    max_postings: Option<usize>,
    pair_filter: Option<Box<dyn Fn(u32, u32) -> bool + Sync + 'a>>,
    pool: Option<&'a WorkerPool>,
}

impl std::fmt::Debug for BipartiteGraphBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BipartiteGraphBuilder")
            .field("n_records", &self.n_records)
            .field("n_terms", &self.n_terms)
            .field("max_postings", &self.max_postings)
            .field("has_pair_filter", &self.pair_filter.is_some())
            .field("pooled", &self.pool.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a> BipartiteGraphBuilder<'a> {
    /// Starts a builder over `n_records` records and `n_terms` terms.
    pub fn new(n_records: usize, n_terms: usize) -> Self {
        Self {
            n_records,
            n_terms,
            postings: vec![&[]; n_terms],
            max_postings: None,
            pair_filter: None,
            pool: None,
        }
    }

    /// Enumerates pair edges on this worker pool (term chunks become
    /// jobs). The built graph is identical with or without a pool.
    pub fn pool(mut self, pool: &'a WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Sets the postings (sorted record ids) of term `t`.
    pub fn postings(mut self, t: u32, records: &'a [u32]) -> Self {
        debug_assert!(
            records.windows(2).all(|w| w[0] < w[1]),
            "postings must be sorted"
        );
        self.postings[t as usize] = records;
        self
    }

    /// Skips terms with more than `cap` postings. This is a safety valve on
    /// top of the corpus-level frequent-term filter: a term with `N_t`
    /// postings creates `O(N_t²)` pair edges.
    pub fn max_postings(mut self, cap: usize) -> Self {
        self.max_postings = Some(cap);
        self
    }

    /// Restricts which record pairs become pair nodes (candidate policy).
    /// For the two-source Product dataset this is "records from different
    /// sources only". `Sync` because the parallel build evaluates the
    /// policy from several workers at once.
    pub fn pair_filter(mut self, f: impl Fn(u32, u32) -> bool + Sync + 'a) -> Self {
        self.pair_filter = Some(Box::new(f));
        self
    }

    /// Enumerates `(term, pair)` edges for the term range `lo..hi`, in
    /// term-major order.
    fn enumerate_terms(&self, lo: usize, hi: usize, cap: usize) -> Vec<(u32, PairNode)> {
        let mut edges = Vec::new();
        for t in lo..hi {
            let recs = self.postings[t];
            if recs.len() < 2 || recs.len() > cap {
                continue;
            }
            for (i, &ra) in recs.iter().enumerate() {
                for &rb in &recs[i + 1..] {
                    if let Some(f) = &self.pair_filter {
                        if !f(ra, rb) {
                            continue;
                        }
                    }
                    edges.push((t as u32, PairNode::new(ra, rb)));
                }
            }
        }
        edges
    }

    /// Enumerates pair nodes and builds the dual-CSR structure.
    pub fn build(self) -> BipartiteGraph {
        let cap = self.max_postings.unwrap_or(usize::MAX);
        // Phase 1: enumerate raw (term, pair) edges, term-major. With a
        // pool, term chunks enumerate independently and concatenate back
        // in term order, so the edge list is the same either way.
        const MIN_TERMS_PER_JOB: usize = 64;
        // Per-term enumeration cost is quadratic in posting length;
        // estimate ~16 ops per term as a flat proxy and let the pool's
        // dispatch policy decide (tiny vocabularies enumerate inline).
        let edges: Vec<(u32, PairNode)> = match self.pool {
            Some(pool)
                if self.n_terms >= 2 * MIN_TERMS_PER_JOB
                    && pool.dispatch(self.n_terms.saturating_mul(16)).is_parallel() =>
            {
                let ranges =
                    er_pool::chunk_ranges(self.n_terms, pool.threads() * 4, MIN_TERMS_PER_JOB);
                let mut parts: Vec<Vec<(u32, PairNode)>> =
                    ranges.iter().map(|_| Vec::new()).collect();
                let this = &self;
                pool.scope(|s| {
                    for (range, part) in ranges.iter().cloned().zip(parts.iter_mut()) {
                        s.submit(move || *part = this.enumerate_terms(range.start, range.end, cap));
                    }
                });
                parts.concat()
            }
            _ => self.enumerate_terms(0, self.n_terms, cap),
        };

        // Phase 2: canonical pair universe — sorted, deduplicated pair
        // keys. Ids are positions in this sorted list, so `pairs` is
        // binary-searchable and iteration order is independent of the
        // postings order (the old hash-discovery + remap gave the same
        // ids at higher cost).
        let mut sorted_pairs: Vec<PairNode> = edges.iter().map(|&(_, p)| p).collect();
        sorted_pairs.sort_unstable();
        sorted_pairs.dedup();

        // Phase 3: resolve each edge's pair id (disjoint output chunks,
        // so this parallelizes too).
        let mut edge_pair_ids = vec![0u32; edges.len()];
        let resolve = |edge_chunk: &[(u32, PairNode)], out: &mut [u32]| {
            for (&(_, p), slot) in edge_chunk.iter().zip(out) {
                // er-lint: allow(panic) -- sorted_pairs was built from these same edges
                *slot = sorted_pairs.binary_search(&p).expect("id from universe") as u32;
            }
        };
        // Each edge resolves by binary search (~log₂ |pairs| ≈ 16 ops).
        match self.pool {
            Some(pool)
                if edges.len() >= 2 * 1024
                    && pool.dispatch(edges.len().saturating_mul(16)).is_parallel() =>
            {
                let ranges = er_pool::chunk_ranges(edges.len(), pool.threads() * 4, 1024);
                pool.scope(|s| {
                    let mut rest: &mut [u32] = &mut edge_pair_ids;
                    for range in ranges {
                        let (chunk, tail) = rest.split_at_mut(range.len());
                        rest = tail;
                        let edge_chunk = &edges[range];
                        let resolve = &resolve;
                        s.submit(move || resolve(edge_chunk, chunk));
                    }
                });
            }
            _ => resolve(&edges, &mut edge_pair_ids),
        }
        let edges: Vec<(u32, u32)> = edges
            .iter()
            .zip(&edge_pair_ids)
            .map(|(&(t, _), &p)| (t, p))
            .collect();

        // CSR for term -> pairs.
        let mut term_deg = vec![0usize; self.n_terms];
        let mut pair_deg = vec![0usize; sorted_pairs.len()];
        for &(t, p) in &edges {
            term_deg[t as usize] += 1;
            pair_deg[p as usize] += 1;
        }
        let term_offsets = offsets_from_degrees(&term_deg);
        let pair_offsets = offsets_from_degrees(&pair_deg);
        let mut term_pairs = vec![0u32; edges.len()];
        let mut pair_terms = vec![0u32; edges.len()];
        let mut tcur = term_offsets.clone();
        let mut pcur = pair_offsets.clone();
        for &(t, p) in &edges {
            term_pairs[tcur[t as usize]] = p;
            tcur[t as usize] += 1;
            pair_terms[pcur[p as usize]] = t;
            pcur[p as usize] += 1;
        }
        let pt = term_deg.iter().map(|&d| d as u32).collect();
        let graph = BipartiteGraph {
            n_records: self.n_records,
            n_terms: self.n_terms,
            pairs: sorted_pairs,
            pair_offsets,
            pair_terms,
            term_offsets,
            term_pairs,
            pt,
        };
        debug_validate("BipartiteGraphBuilder::build", || graph.validate());
        graph
    }
}

/// CSR row offsets (exclusive prefix sums, `deg.len() + 1` entries) of
/// per-row degrees.
fn offsets_from_degrees(deg: &[usize]) -> Vec<usize> {
    let mut off = Vec::with_capacity(deg.len() + 1);
    let mut total = 0usize;
    off.push(0usize);
    for &d in deg {
        total += d;
        off.push(total);
    }
    off
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records: 0 = {a, b}, 1 = {a, b, c}, 2 = {c, d}, 3 = {e}.
    /// Postings: a→{0,1}, b→{0,1}, c→{1,2}, d→{2}, e→{3}.
    fn sample() -> BipartiteGraph {
        BipartiteGraphBuilder::new(4, 5)
            .postings(0, &[0, 1])
            .postings(1, &[0, 1])
            .postings(2, &[1, 2])
            .postings(3, &[2])
            .postings(4, &[3])
            .build()
    }

    #[test]
    fn pair_nodes_are_pairs_sharing_terms() {
        let g = sample();
        assert_eq!(g.pair_count(), 2);
        assert_eq!(g.pair(0), PairNode::new(0, 1));
        assert_eq!(g.pair(1), PairNode::new(1, 2));
        assert!(g.pair_id(0, 2).is_none(), "no shared term → no pair node");
        assert!(g.pair_id(0, 3).is_none());
    }

    #[test]
    fn edges_follow_shared_terms() {
        let g = sample();
        let p01 = g.pair_id(0, 1).unwrap();
        let mut terms: Vec<u32> = g.terms_of_pair(p01).to_vec();
        terms.sort_unstable();
        assert_eq!(terms, vec![0, 1], "records 0,1 share terms a and b");
        let p12 = g.pair_id(1, 2).unwrap();
        assert_eq!(g.terms_of_pair(p12), &[2]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn pt_counts_incident_pairs() {
        let g = sample();
        assert_eq!(g.pt(0), 1);
        assert_eq!(g.pt(2), 1);
        assert_eq!(g.pt(3), 0, "singleton postings create no pairs");
        assert_eq!(g.pt(4), 0);
    }

    #[test]
    fn pt_is_nt_choose_2_without_filter() {
        let g = BipartiteGraphBuilder::new(4, 1)
            .postings(0, &[0, 1, 2, 3])
            .build();
        assert_eq!(g.pt(0), 6); // 4*3/2
        assert_eq!(g.pair_count(), 6);
    }

    #[test]
    fn pair_filter_restricts_candidates() {
        // Cross-source policy: records 0,1 in source A; 2,3 in source B.
        let source = [0u8, 0, 1, 1];
        let g = BipartiteGraphBuilder::new(4, 1)
            .postings(0, &[0, 1, 2, 3])
            .pair_filter(move |a, b| source[a as usize] != source[b as usize])
            .build();
        assert_eq!(g.pair_count(), 4); // 0-2, 0-3, 1-2, 1-3
        assert!(g.pair_id(0, 1).is_none());
        assert!(g.pair_id(2, 3).is_none());
        assert!(g.pair_id(0, 2).is_some());
        assert_eq!(g.pt(0), 4);
    }

    #[test]
    fn max_postings_skips_heavy_terms() {
        let g = BipartiteGraphBuilder::new(5, 2)
            .postings(0, &[0, 1, 2, 3, 4])
            .postings(1, &[0, 1])
            .max_postings(3)
            .build();
        assert_eq!(g.pt(0), 0, "term 0 skipped: 5 postings > cap 3");
        assert_eq!(g.pair_count(), 1);
    }

    #[test]
    fn pairs_sorted_and_binary_searchable() {
        let g = sample();
        let ps = g.pairs();
        assert!(ps.windows(2).all(|w| w[0] < w[1]));
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(g.pair_id(p.a, p.b), Some(i as u32));
            assert_eq!(
                g.pair_id(p.b, p.a),
                Some(i as u32),
                "order-insensitive lookup"
            );
        }
    }

    #[test]
    fn pooled_build_is_identical() {
        // Enough terms to cross the parallel enumeration threshold.
        let n_terms = 200usize;
        let n_records = 30u32;
        let mut state = 0xb19a_u64;
        let posting_store: Vec<Vec<u32>> = (0..n_terms)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = ((state >> 33) % n_records as u64) as u32;
                let b = (a + 1 + ((state >> 13) % (n_records as u64 - 1)) as u32) % n_records;
                let c = (a + 2 + ((state >> 3) % (n_records as u64 - 2)) as u32) % n_records;
                let mut v = vec![a, b, c];
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let build = |pool: Option<&WorkerPool>| {
            let mut b = BipartiteGraphBuilder::new(n_records as usize, n_terms);
            for (t, post) in posting_store.iter().enumerate() {
                b = b.postings(t as u32, post);
            }
            if let Some(p) = pool {
                b = b.pool(p);
            }
            b.build()
        };
        let serial = build(None);
        for threads in [2, 4] {
            let pool = WorkerPool::new(threads);
            let pooled = build(Some(&pool));
            assert_eq!(serial.pairs(), pooled.pairs(), "threads={threads}");
            assert_eq!(serial.edge_count(), pooled.edge_count());
            for t in 0..n_terms as u32 {
                assert_eq!(serial.pairs_of_term(t), pooled.pairs_of_term(t));
            }
            for p in 0..serial.pair_count() as u32 {
                assert_eq!(serial.terms_of_pair(p), pooled.terms_of_pair(p));
            }
        }
    }

    #[test]
    fn pair_side_construction_matches_builder() {
        let built = sample();
        let rows: Vec<u32> = (0..built.pair_count() as u32)
            .flat_map(|p| built.terms_of_pair(p).to_vec())
            .collect();
        let g = BipartiteGraph::from_pair_side(
            4,
            5,
            built.pairs().to_vec(),
            built.pair_offsets.clone(),
            rows,
        );
        assert_eq!(g.pairs(), built.pairs());
        assert_eq!(g.term_offsets, built.term_offsets);
        assert_eq!(g.term_pairs, built.term_pairs);
        assert_eq!(g.pt, built.pt);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn validate_rejects_pair_sharing_no_term() {
        let mut g = sample();
        // Pair 0's row becomes empty; pair 1's absorbs its terms.
        g.pair_offsets[1] = 0;
        let e = g.validate().unwrap_err();
        assert!(e.detail.contains("shares no term"), "{e}");
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraphBuilder::new(0, 0).build();
        assert_eq!(g.pair_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "record with itself")]
    fn pair_node_rejects_self() {
        PairNode::new(3, 3);
    }
}
