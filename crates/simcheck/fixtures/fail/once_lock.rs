// fails: clippy::disallowed_types
// A lazily built process-wide table behind a std lock.

use std::sync::{Mutex, OnceLock};

static NAMES: OnceLock<Mutex<Vec<String>>> = OnceLock::new();

pub fn remember(name: &str) {
    let names = NAMES.get_or_init(|| Mutex::new(Vec::new()));
    names.lock().unwrap_or_else(|e| e.into_inner()).push(name.to_string());
}
