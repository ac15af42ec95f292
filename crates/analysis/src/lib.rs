//! # dxh-analysis — closed forms, tail bounds, statistics
//!
//! The quantitative backbone of the experiment suite:
//!
//! * [`knuth`] — expected lookup/insert costs of the standard external
//!   hash table under the Poisson bucket model (the numbers the paper
//!   cites from Knuth §6.4: `tq = 1 + 1/2^Ω(b)`).
//! * [`bounds`] — the paper's tradeoff curves (Theorem 1 lower bounds,
//!   Lemma 5 and Theorem 2 upper bounds) and the proofs' parameter
//!   choices, used to overlay theory on measurements in Figure 1.
//! * [`carry`] — the logarithmic method's level migrations as an exact
//!   I/O census: Lemma 5 with its constant, held equal to the measured
//!   `IoStats` by `dxh_core`'s tests.
//! * [`tails`] — Chernoff/Poisson/binomial tail bounds (Lemmas 1–4 use
//!   these shapes).
//! * [`stats`] — Welford summaries and confidence intervals for
//!   multi-trial experiments.
//! * [`table`] — aligned text tables + CSV emission for experiment
//!   binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod carry;
pub mod knuth;
pub mod stats;
pub mod table;
pub mod tails;

pub use bounds::{
    boundary_tu_upper, lemma5_tq, lemma5_tu, params_in_paper_range, theorem1_tu_lower,
    theorem2_tq_upper, theorem2_tu_upper,
};
pub use carry::{carry_census, CarryCensus};
pub use knuth::{chaining_costs, chaining_insert_amortized, overflow_tail, ChainingCosts};
pub use stats::{ci95_halfwidth, RunningStats};
pub use table::TextTable;
pub use tails::{binomial_tail_ge, chernoff_below_mean, poisson_pmf, poisson_tail_gt};
