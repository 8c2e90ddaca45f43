//! A slab arena with free-list recycling for kernel event nodes and
//! mailboxes.
//!
//! The event queue allocates one node per scheduled event. Routing those
//! through the global allocator puts a malloc/free pair on the hottest
//! path of the simulator; the [`Slab`] instead keeps every node in one
//! growable `Vec` and recycles removed slots through an intrusive free
//! list, so steady-state scheduling performs **zero heap allocations** —
//! the arena only grows when the number of simultaneously pending items
//! exceeds every previous high-water mark.
//!
//! Indices are `u32` handles: half the size of a pointer, trivially
//! copyable into slot lists and overflow heaps, and dense enough that a
//! future parallel-shard kernel can ship them across shard boundaries
//! (each shard owns its own arena; see DESIGN.md, "Kernel internals").
//!
//! Accounting is first-class — [`Slab::allocated`] / [`Slab::recycled`]
//! feed the zero-allocation assertions in the kernel bench and tests.
//!
//! A value can also be named by a `u64` key ([`Slab::insert_keyed`]): its
//! index tagged with the slot's `u32` generation, `generation << 32 |
//! index`, which each removal bumps. The keyed lookups ([`Slab::get_key`]
//! and friends) find nothing through a key whose value has been removed,
//! so a handle that outlives its value is detected instead of reaching the
//! slot's next occupant. Only slots a key was issued for keep a generation,
//! in a side table, so a slab used by index alone (the wheel's) pays
//! nothing for it.

/// Sentinel index meaning "no node" (list terminator / empty slot).
pub const NIL: u32 = u32::MAX;

enum Entry<T> {
    Occupied(T),
    Free { next: u32 },
}

/// A growable arena of `T` with O(1) insert/remove and free-list reuse.
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// Each slot's generation, by index, up to the last slot a key was
    /// issued for: no key can name a slot past its end.
    generations: Vec<u32>,
    free_head: u32,
    free_len: usize,
    allocated: u64,
    recycled: u64,
}

impl<T> Slab<T> {
    /// An empty slab (no allocation until the first insert).
    pub fn new() -> Slab<T> {
        Slab {
            entries: Vec::new(),
            generations: Vec::new(),
            free_head: NIL,
            free_len: 0,
            allocated: 0,
            recycled: 0,
        }
    }

    /// Inserts `value`, returning its index. Reuses a freed slot when one
    /// is available; only grows the backing `Vec` otherwise.
    ///
    /// Always inlined: called out of line, it builds the entry in a stack
    /// temporary and copies it into the slot with loads that wait on the
    /// temporary's stores, which made it the costliest step of a wheel push.
    #[inline(always)]
    pub fn insert(&mut self, value: T) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.entries[idx as usize];
            match *slot {
                Entry::Free { next } => self.free_head = next,
                Entry::Occupied(_) => unreachable!("free list points at an occupied slot"),
            }
            *slot = Entry::Occupied(value);
            self.free_len -= 1;
            self.recycled += 1;
            idx
        } else {
            assert!(self.entries.len() < NIL as usize, "slab index space exhausted");
            self.allocated += 1;
            self.entries.push(Entry::Occupied(value));
            (self.entries.len() - 1) as u32
        }
    }

    /// Inserts `value` and returns its key (see the module docs).
    pub fn insert_keyed(&mut self, value: T) -> u64 {
        let idx = self.insert(value);
        if self.generations.len() <= idx as usize {
            self.generations.resize(idx as usize + 1, 0);
        }
        u64::from(self.generations[idx as usize]) << 32 | u64::from(idx)
    }

    /// Removes and returns the value at `idx`, recycling the slot and
    /// bumping its generation if it has one.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not an occupied slot.
    pub fn remove(&mut self, idx: u32) -> T {
        let slot = &mut self.entries[idx as usize];
        let prev = std::mem::replace(slot, Entry::Free { next: self.free_head });
        match prev {
            Entry::Occupied(v) => {
                if let Some(generation) = self.generations.get_mut(idx as usize) {
                    *generation = generation.wrapping_add(1);
                }
                self.free_head = idx;
                self.free_len += 1;
                v
            }
            Entry::Free { .. } => panic!("slab remove of a free slot {idx}"),
        }
    }

    /// A shared reference to the value at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not an occupied slot.
    pub fn get(&self, idx: u32) -> &T {
        match &self.entries[idx as usize] {
            Entry::Occupied(v) => v,
            Entry::Free { .. } => panic!("slab get of a free slot {idx}"),
        }
    }

    /// A mutable reference to the value at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not an occupied slot.
    pub fn get_mut(&mut self, idx: u32) -> &mut T {
        match &mut self.entries[idx as usize] {
            Entry::Occupied(v) => v,
            Entry::Free { .. } => panic!("slab get_mut of a free slot {idx}"),
        }
    }

    /// The index `key` names, if its slot's generation is still the key's.
    fn current(&self, key: u64) -> Option<usize> {
        let idx = key as u32 as usize;
        (u64::from(*self.generations.get(idx)?) == key >> 32).then_some(idx)
    }

    /// The value `key` was issued for, unless it has been removed.
    pub fn get_key(&self, key: u64) -> Option<&T> {
        match &self.entries[self.current(key)?] {
            Entry::Occupied(v) => Some(v),
            Entry::Free { .. } => None,
        }
    }

    /// Mutable [`Slab::get_key`].
    pub fn get_key_mut(&mut self, key: u64) -> Option<&mut T> {
        let idx = self.current(key)?;
        match &mut self.entries[idx] {
            Entry::Occupied(v) => Some(v),
            Entry::Free { .. } => None,
        }
    }

    /// Removes the value `key` was issued for, unless it already has been.
    pub fn remove_key(&mut self, key: u64) -> Option<T> {
        self.get_key(key)?;
        Some(self.remove(key as u32))
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.entries.len() - self.free_len
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever created (occupied + free): the high-water mark of
    /// simultaneously pending items.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Fresh nodes created since construction. Stops growing once the
    /// arena reaches its steady-state working set — the zero-allocation
    /// property the kernel bench asserts.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Inserts served from the free list (no heap traffic).
    pub fn recycled(&self) -> u64 {
        self.recycled
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> std::fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slab")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("allocated", &self.allocated)
            .field("recycled", &self.recycled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut s: Slab<String> = Slab::new();
        let a = s.insert("a".into());
        let b = s.insert("b".into());
        assert_eq!(s.get(a), "a");
        assert_eq!(s.get(b), "b");
        s.get_mut(a).push('!');
        assert_eq!(s.remove(a), "a!");
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove(b), "b");
        assert!(s.is_empty());
    }

    #[test]
    fn freed_slots_are_recycled_lifo() {
        let mut s: Slab<u32> = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        s.remove(a);
        s.remove(b);
        // LIFO: the most recently freed slot is reused first.
        assert_eq!(s.insert(3), b);
        assert_eq!(s.insert(4), a);
        assert_eq!(s.allocated(), 2);
        assert_eq!(s.recycled(), 2);
        assert_eq!(s.capacity(), 2);
    }

    #[test]
    fn steady_state_stops_allocating() {
        let mut s: Slab<u64> = Slab::new();
        // Warm up to a working set of 8.
        let mut live: Vec<u32> = (0..8).map(|i| s.insert(i)).collect();
        let high_water = s.allocated();
        for round in 0..1000u64 {
            let idx = live.remove((round % 8) as usize);
            s.remove(idx);
            live.push(s.insert(round));
        }
        assert_eq!(s.allocated(), high_water, "steady state must not allocate");
        assert_eq!(s.recycled(), 1000);
    }

    #[test]
    fn a_key_stops_resolving_once_its_value_is_removed() {
        let mut s: Slab<&str> = Slab::new();
        let a = s.insert_keyed("a");
        assert_eq!(a, 0, "a slot's first key is its index");
        assert_eq!(s.get_key(a), Some(&"a"));
        assert_eq!(s.remove_key(a), Some("a"));
        assert_eq!(s.get_key(a), None, "freed");
        let b = s.insert_keyed("b");
        assert_eq!(b, 1 << 32, "same slot, next generation");
        assert_eq!(s.get_key(a), None, "reused");
        assert_eq!(s.remove_key(a), None);
        *s.get_key_mut(b).expect("live") = "b!";
        assert_eq!(s.get_key(b), Some(&"b!"));
        assert_eq!(s.get_key(7), None, "never issued");
    }

    #[test]
    fn a_slab_used_by_index_keeps_no_generations() {
        let mut s: Slab<u8> = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        s.insert(2);
        assert!(s.generations.is_empty());
        assert_eq!(s.get_key(u64::from(a)), None, "no key was issued for it");
    }

    #[test]
    #[should_panic(expected = "free slot")]
    fn double_remove_panics() {
        let mut s: Slab<u8> = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        s.remove(a);
    }
}
