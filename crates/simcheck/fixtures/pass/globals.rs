//! Statics that hold nothing mutable, and one deliberate shared table.

pub static LABEL: &str = "tier";
pub static LIMITS: [u64; 2] = [1, 2];

#[expect(
    clippy::disallowed_types,
    reason = "a content-addressed cache: which copy a caller gets is not observable"
)]
pub static CACHE: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
