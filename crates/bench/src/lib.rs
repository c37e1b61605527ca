//! Experiment harness regenerating every table and figure of §6 of the
//! Mnemosyne paper.
//!
//! Each experiment lives in [`exp`] as a `run(scale)` function that
//! prints the same rows/series the paper reports, annotated with the
//! paper's own numbers for comparison. One binary per table/figure wraps
//! each function; the `repro_all` binary runs the whole suite.
//!
//! Absolute numbers are not expected to match the paper (different host,
//! software PCM emulation); the *shape* — who wins, by roughly what
//! factor, where crossovers fall — is what the harness validates and what
//! `EXPERIMENTS.md` records.

#![warn(missing_docs)]

pub mod exp;
pub mod util;

pub use util::{Scale, TestRig};
