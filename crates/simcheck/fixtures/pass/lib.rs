//! Cases that must lint clean under the determinism bans, test code
//! included: what the bans leave legal, and deliberate uses that carry a
//! reasoned `#[expect]`.

pub mod expected;
pub mod globals;
pub mod hashed;
pub mod no_panic;
pub mod virtual_time;
