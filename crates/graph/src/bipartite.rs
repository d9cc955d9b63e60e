//! The term ↔ record-pair bipartite graph of §V-B (Figure 3).
//!
//! One side holds **term nodes**, the other **pair nodes** — each pair
//! node is an unordered pair of records that share at least one term.
//! Term `t` connects to pair `(ri, rj)` iff `t ∈ ri ∧ t ∈ rj`. Pairs
//! sharing no term are excluded entirely (the paper treats them as
//! non-matching by construction).
//!
//! Every graph is built from its pair side by
//! [`BipartiteGraph::from_pair_side`]: the pair universe (sorted, so
//! pair ids are binary-searchable and independent of any construction
//! order) and each pair's sorted term row. The term side and `P_t`
//! follow from one counting sort, O(edges + terms). The pipeline's
//! pair side comes from a candidate list (`er_text::candidate_graph`
//! intersects each listed pair's two term sets);
//! [`BipartiteGraph::from_postings`] derives it from posting lists for
//! tests and examples that write small graphs by hand.

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

    /// Builds the graph of `postings.len()` terms over `n_records`
    /// records from posting lists (term `t` → its records, strictly
    /// ascending): every record pair sharing a term is a pair node, with
    /// all the terms it shares as its row. Serial, O(Σ_t N_t²) — for
    /// small hand-written graphs; the pipeline builds from a candidate
    /// list instead.
    pub fn from_postings<P: AsRef<[u32]>>(n_records: usize, postings: &[P]) -> Self {
        let mut edges: Vec<(PairNode, u32)> = Vec::new();
        for (t, recs) in postings.iter().enumerate() {
            let recs = recs.as_ref();
            debug_assert!(
                recs.windows(2).all(|w| w[0] < w[1]),
                "postings must be strictly ascending"
            );
            for (i, &a) in recs.iter().enumerate() {
                for &b in &recs[i + 1..] {
                    edges.push((PairNode { a, b }, t as u32));
                }
            }
        }
        // Pair-major order: each pair's edges form one ascending row.
        edges.sort_unstable();
        let mut pairs: Vec<PairNode> = Vec::new();
        let mut offsets: Vec<usize> = Vec::new();
        for (k, &(p, _)) in edges.iter().enumerate() {
            if pairs.last() != Some(&p) {
                pairs.push(p);
                offsets.push(k);
            }
        }
        offsets.push(edges.len());
        let terms = edges.iter().map(|&(_, t)| t).collect();
        Self::from_pair_side(n_records, postings.len(), pairs, offsets, terms)
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
    /// ascending.
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
        let mut term_offsets = vec![0usize; n_terms + 1];
        for (t, &d) in term_deg.iter().enumerate() {
            term_offsets[t + 1] = term_offsets[t] + d;
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Records: 0 = {a, b}, 1 = {a, b, c}, 2 = {c, d}, 3 = {e}.
    /// Postings: a→{0,1}, b→{0,1}, c→{1,2}, d→{2}, e→{3}.
    fn sample() -> BipartiteGraph {
        BipartiteGraph::from_postings(4, &[&[0, 1][..], &[0, 1], &[1, 2], &[2], &[3]])
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
        let g = BipartiteGraph::from_postings(4, &[[0, 1, 2, 3]]);
        assert_eq!(g.pt(0), 6); // 4*3/2
        assert_eq!(g.pair_count(), 6);
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
    fn term_side_is_the_transpose_of_the_pair_side() {
        let g = sample();
        let term_rows: Vec<&[u32]> = (0..5).map(|t| g.pairs_of_term(t)).collect();
        assert_eq!(term_rows, [&[0][..], &[0], &[1], &[], &[]]);
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
        let g = BipartiteGraph::from_postings::<[u32; 0]>(0, &[]);
        assert_eq!(g.pair_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "record with itself")]
    fn pair_node_rejects_self() {
        PairNode::new(3, 3);
    }
}
