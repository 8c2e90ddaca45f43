//! The per-table / per-figure experiment implementations.
//!
//! Every function takes a [`Scale`] choosing between quick defaults and
//! the paper's full parameters, and returns a rendered [`crate::Table`]
//! (plus structured data where tests need it).
//!
//! An experiment that backs a claim the docs make holds it itself: one
//! pure `check` over its typed report, called before the experiment
//! returns, so a broken claim panics the run. Experiments only render
//! their output files ([`OutFile`]); the `experiments` binary writes them.

/// Fails the enclosing `check` with the formatted message unless `cond`
/// holds (a NaN comparison does not) — `assert!` for a function returning
/// `Result<(), String>`.
macro_rules! claim {
    ($cond:expr, $($fmt:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($fmt)+));
        }
    };
}

pub mod ablate;
pub mod coldstart;
pub mod consistency;
pub mod elastic;
pub mod kernelbench;
pub mod micro;
pub mod ml;
pub mod recovery;
pub mod state;
pub mod sync;
pub mod traced;

/// A file an experiment rendered: path relative to the working directory,
/// and contents.
pub type OutFile = (String, String);

/// Experiment scale.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Slimmed parameters: the whole suite finishes in minutes.
    Quick,
    /// The paper's parameters (slow; hours for the full suite).
    Paper,
}

impl Scale {
    /// The `scale` field of the `BENCH_*.json` reports.
    fn label(self) -> &'static str {
        self.pick("quick", "paper")
    }

    /// Picks `q` under `Quick`, `p` under `Paper`.
    pub fn pick<T>(self, q: T, p: T) -> T {
        match self {
            Scale::Quick => q,
            Scale::Paper => p,
        }
    }
}
