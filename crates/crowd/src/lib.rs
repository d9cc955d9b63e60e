//! # er-crowd
//!
//! Simulated crowd-sourcing baselines standing in for the paper's
//! "crowd-sourcing based approaches" rows of Table II (CrowdER \[8\],
//! TransM \[10\], GCER \[9\], ACD \[12\], Power+ \[13\]), whose numbers the
//! paper quotes from prior publications. DESIGN.md §4 records the
//! substitution: real crowd workers are replaced by a **noisy oracle**
//! with configurable accuracy, so the harness can reproduce the paper's
//! cost argument — near-perfect F1 bought with a budget of human
//! questions — without Mechanical Turk.
//!
//! * [`oracle`] — the simulated worker: answers ground truth with
//!   probability `accuracy`, and counts every question asked.
//! * [`crowder`] — CrowdER-style hybrid: a machine-side similarity
//!   filter (the paper's cited threshold, Jaccard ≥ 0.3) prunes the
//!   candidate set, the crowd verifies every survivor.
//! * [`transm`] — TransM-style transitivity-aware querying: candidates
//!   are asked in descending similarity order and answers are propagated
//!   through positive/negative transitive closure so deducible pairs are
//!   never sent to the crowd.
//! * [`gcer`] — GCER-style budget-limited question selection: spend a
//!   fixed budget on the most valuable questions, decide the rest with
//!   the machine proxy.
//! * [`acd`] — ACD-style adaptive cluster-based deduplication with
//!   representative queries and majority voting.
//! * [`power`] — Power+-style partial-order pruning: a noise-tolerant
//!   boundary search over the score-ordered candidates.

#![deny(unsafe_code)]

pub mod acd;
pub mod crowder;
pub mod gcer;
pub mod oracle;
pub mod power;
mod transitivity;
pub mod transm;

pub use acd::{acd_resolve, AcdConfig};
pub use crowder::{crowder_resolve, CrowdErConfig, CrowdOutcome};
pub use gcer::{gcer_resolve, GcerConfig};
pub use oracle::NoisyOracle;
pub use power::{power_resolve, PowerConfig};
pub use transm::{transm_resolve, TransMConfig};
