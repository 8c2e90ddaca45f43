//! # crucial-apps — the paper's application studies
//!
//! * [`pi`] — Listing 1's Monte Carlo π (Fig. 2b),
//! * [`santa`] — the Santa Claus coordination problem in three flavours
//!   (Fig. 7c),
//! * [`mapsync`] — five ways to synchronize a map phase (Fig. 6),
//! * [`stages`] — multi-stage vs. barrier-synchronized iterative tasks
//!   (Fig. 7b),
//! * [`table4`] — the lines-changed portability measurement (Table 4).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod mapsync;
pub mod pi;
pub mod santa;
pub mod stages;
pub mod table4;
