//! A `u32` string interner for hot-path names.
//!
//! Span names, categories, process names, metric names, and annotation
//! keys come from a small fixed vocabulary (`"dso.call"`, `"dso"`, …) yet
//! were stored as a fresh `String` per record — three allocations per span
//! on the tracing hot path. A [`SymbolTable`] stores each distinct string
//! once and hands out copyable [`Sym`] handles; records store the handle
//! and exports resolve it back with no per-record allocation. A table is
//! scoped to one [`crate::Tracer`], never global, so simulations stay
//! independent and deterministic.
//!
//! Interning order is first-appearance order, which under a deterministic
//! schedule is itself deterministic — resolved output is byte-identical
//! across identically-seeded runs.

use std::sync::Arc;

use crate::hash::FxHashMap;

/// Handle to an interned string (index into its [`SymbolTable`]).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Sym(u32);

/// An append-only string interner: `&str` in, [`Sym`] out, resolve back.
#[derive(Default, Debug)]
pub struct SymbolTable {
    /// Sym index → string. `Arc<str>` so the lookup map shares storage.
    strings: Vec<Arc<str>>,
    /// String → sym index.
    lookup: FxHashMap<Arc<str>, u32>,
}

impl SymbolTable {
    /// Interns `s`, allocating only on first appearance.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&idx) = self.lookup.get(s) {
            return Sym(idx);
        }
        let idx = u32::try_from(self.strings.len()).expect("symbol table exhausted");
        let owned: Arc<str> = Arc::from(s);
        self.strings.push(owned.clone());
        self.lookup.insert(owned, idx);
        Sym(idx)
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from a different table.
    pub fn get(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes_and_resolves() {
        let mut t = SymbolTable::default();
        let a = t.intern("dso.call");
        let b = t.intern("dso");
        let a2 = t.intern("dso.call");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.get(a), "dso.call");
        assert_eq!(t.get(b), "dso");
        assert_eq!(t.strings.len(), 2);
    }

    #[test]
    fn syms_allocate_in_first_appearance_order() {
        let mut t = SymbolTable::default();
        let syms: Vec<Sym> = ["c", "a", "b", "a", "c"].iter().map(|s| t.intern(s)).collect();
        assert_eq!(syms[0], syms[4]);
        assert_eq!(syms[1], syms[3]);
        assert_eq!(t.strings.len(), 3);
        assert_eq!(t.get(syms[2]), "b");
    }
}
