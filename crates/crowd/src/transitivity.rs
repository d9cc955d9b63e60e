//! Transitive deduction over crowd answers, shared by TransM and GCER.
//!
//! Confirmed matches merge records into components (a union-find);
//! confirmed non-matches become constraints between two components.
//! A pair inside one component is a deduced match (positive
//! transitivity); a pair whose components are constrained apart is a
//! deduced non-match (negative transitivity).

use std::collections::BTreeSet;

use er_graph::UnionFind;

/// The deduction state: match components and the non-match constraints
/// between their roots.
pub(crate) struct Deductions {
    components: UnionFind,
    /// Non-match constraints as `(min root, max root)`.
    non_match: BTreeSet<(u32, u32)>,
}

fn key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

impl Deductions {
    /// No answers yet over `n_records` records.
    pub(crate) fn new(n_records: usize) -> Self {
        Self {
            components: UnionFind::new(n_records),
            non_match: BTreeSet::new(),
        }
    }

    /// The answer for `(a, b)` if earlier answers imply it.
    pub(crate) fn deduce(&mut self, a: u32, b: u32) -> Option<bool> {
        let (ra, rb) = (self.components.find(a), self.components.find(b));
        if ra == rb {
            Some(true)
        } else if self.non_match.contains(&key(ra, rb)) {
            Some(false)
        } else {
            None
        }
    }

    /// Records the answer for `(a, b)`. A match merges the two
    /// components and moves the absorbed root's constraints onto the
    /// surviving root.
    pub(crate) fn record(&mut self, a: u32, b: u32, is_match: bool) {
        let (ra, rb) = (self.components.find(a), self.components.find(b));
        if !is_match {
            if ra != rb {
                self.non_match.insert(key(ra, rb));
            }
            return;
        }
        if !self.components.union(ra, rb) {
            return;
        }
        let root = self.components.find(ra);
        let gone = if root == ra { rb } else { ra };
        let moved: Vec<(u32, u32)> = self
            .non_match
            .iter()
            .filter(|&&(x, y)| x == gone || y == gone)
            .copied()
            .collect();
        for (x, y) in moved {
            self.non_match.remove(&(x, y));
            let other = if x == gone { y } else { x };
            self.non_match.insert(key(root, other));
        }
    }
}
