//! Global method-name interning.
//!
//! Method names are drawn from a tiny, static vocabulary (`"get"`,
//! `"addAndGet"`, …) yet used to travel the hot invocation path as a fresh
//! `String` per request — and per *retry*. A [`MethodName`] is an
//! `Arc<str>` deduplicated in a process-wide table: constructing one for an
//! already-seen name is a lock + map hit, and cloning one (per retry, per
//! batch item) is a reference-count bump.

use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

use simcore::codec::{CodecError, Wire};

/// An interned method name: cheap to clone, compares by content.
#[derive(Clone, Eq, PartialOrd, Ord)]
pub struct MethodName(Arc<str>);

fn table() -> &'static Mutex<HashSet<Arc<str>>> {
    static TABLE: OnceLock<Mutex<HashSet<Arc<str>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Interns `name`, returning the canonical [`MethodName`] for it.
pub fn intern(name: &str) -> MethodName {
    let mut t = table().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(existing) = t.get(name) {
        return MethodName(existing.clone());
    }
    let arc: Arc<str> = Arc::from(name);
    t.insert(arc.clone());
    MethodName(arc)
}

impl MethodName {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for MethodName {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for MethodName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq for MethodName {
    fn eq(&self, other: &MethodName) -> bool {
        // Interned names are unique per content, so pointer equality is
        // exact; keep the content fallback for names built across tables
        // (there is only one table today, but correctness must not depend
        // on that).
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl PartialEq<str> for MethodName {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for MethodName {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl std::hash::Hash for MethodName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Content hashing keeps MethodName and &str interchangeable as
        // lookup keys.
        self.0.hash(state);
    }
}

impl From<&str> for MethodName {
    fn from(s: &str) -> MethodName {
        intern(s)
    }
}

/// Encoded as its string; [`WalRecord`](crate::protocol::WalRecord)s carry
/// one into the durability store.
impl Wire for MethodName {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }

    fn get(input: &mut &[u8]) -> Result<MethodName, CodecError> {
        // Decoding re-interns, so names stay deduplicated even after a
        // round-trip through the wire codec.
        String::get(input).map(|s| intern(&s))
    }
}

impl fmt::Debug for MethodName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for MethodName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes() {
        let a = intern("addAndGet");
        let b = intern("addAndGet");
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        assert_eq!(a, "addAndGet");
        assert_ne!(intern("get"), intern("set"));
    }

    #[test]
    fn wire_round_trip_reinterns() {
        let m = intern("compareAndSet");
        let bytes = simcore::codec::to_bytes(&m).expect("encodes");
        let back: MethodName = simcore::codec::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, m);
        assert!(Arc::ptr_eq(&back.0, &m.0), "decoding re-interns");
    }

    #[test]
    fn behaves_like_a_str() {
        let m = intern("get");
        assert_eq!(m.as_str(), "get");
        assert_eq!(m.len(), 3);
        assert_eq!(m.to_string(), "get");
        assert_eq!(format!("{m:?}"), "\"get\"");
    }
}
