//! The one hashed-table alias: its definition takes an `#[expect]`, its
//! uses are not flagged.

use std::collections::BTreeMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

#[expect(clippy::disallowed_types, reason = "the one definition, under a fixed hasher")]
pub type FixedMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

pub struct Tables {
    pub by_id: FixedMap<u64, String>,
    pub ordered: BTreeMap<String, u64>,
}

pub fn tables() -> Tables {
    Tables { by_id: FixedMap::default(), ordered: BTreeMap::new() }
}
