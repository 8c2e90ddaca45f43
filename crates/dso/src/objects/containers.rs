//! Shared containers: a list and a string-keyed map over opaque
//! (codec-encoded) element bytes. Their typed, element-generic handles
//! ([`crate::api::SharedList`], [`crate::api::SharedMap`]) encode and
//! decode elements over the calls declared here.

use std::collections::BTreeMap;

use simcore::codec::Wire;

use crate::error::ObjectError as ObjErr;
use crate::object::Effects;
use crate::shared_object;

shared_object! {
    /// A shared append-mostly list of opaque elements.
    #[derive(Debug, Default, Clone, PartialEq, Eq, Wire)]
    pub struct ListObject {
        items: Vec<Vec<u8>>,
    }

    type "List";
    create(items: Vec<Vec<u8>> = Vec::new()) { Ok(ListObject { items }) }

    methods(self, call) {
        /// The element at `i`, if any.
        Read get = "get"(i: u64) -> Option<Vec<u8>> {
            Effects::value(&self.items.get(i as usize).cloned())
        }
        /// Number of elements.
        Read size = "size"() -> u64 { Effects::value(&(self.items.len() as u64)) }
        /// The whole list.
        Read to_vec = "toVec"() -> Vec<Vec<u8>> { Effects::value(&self.items) }
        /// Appends an element; returns the new length.
        Write add = "add"(item: Vec<u8>) -> u64 {
            self.items.push(item);
            Effects::value(&(self.items.len() as u64))
        }
        /// Replaces the element at `i`; fails out of bounds.
        Write set = "set"(i: u64, item: Vec<u8>) -> () {
            let len = self.items.len();
            let Some(slot) = self.items.get_mut(i as usize) else {
                return Err(ObjErr::App(format!("index {i} out of bounds (len {len})")));
            };
            *slot = item;
            Effects::value(&())
        }
        /// Removes all elements.
        Write clear = "clear"() -> () {
            self.items.clear();
            Effects::value(&())
        }
    }

    fns list;
}

shared_object! {
    /// A shared map with string keys and opaque values.
    #[derive(Debug, Default, Clone, PartialEq, Eq, Wire)]
    pub struct MapObject {
        entries: BTreeMap<String, Vec<u8>>,
    }

    type "Map";
    create(entries: BTreeMap<String, Vec<u8>> = BTreeMap::new()) { Ok(MapObject { entries }) }

    methods(self, call) {
        /// The value under `k`, if any.
        Read get = "get"(k: String) -> Option<Vec<u8>> {
            Effects::value(&self.entries.get(&k).cloned())
        }
        /// Whether `k` has a value.
        Read contains_key = "containsKey"(k: String) -> bool {
            Effects::value(&self.entries.contains_key(&k))
        }
        /// Number of entries.
        Read size = "size"() -> u64 { Effects::value(&(self.entries.len() as u64)) }
        /// All keys, sorted.
        Read keys = "keys"() -> Vec<String> {
            Effects::value(&self.entries.keys().cloned().collect::<Vec<String>>())
        }
        /// Inserts a value; returns the previous one.
        Write put = "put"(k: String, v: Vec<u8>) -> Option<Vec<u8>> {
            Effects::value(&self.entries.insert(k, v))
        }
        /// Removes and returns the value under `k`.
        Write remove = "remove"(k: String) -> Option<Vec<u8>> {
            Effects::value(&self.entries.remove(&k))
        }
        /// Removes all entries.
        Write clear = "clear"() -> () {
            self.entries.clear();
            Effects::value(&())
        }
    }

    fns map;
}

#[cfg(test)]
mod tests {
    use super::super::testutil::call;
    use super::*;
    use crate::object::SharedObject;

    #[test]
    fn list_basic_flow() {
        let mut o = ListObject::default();
        assert_eq!(call::<u64>(&mut o, "size", &()), 0);
        assert_eq!(call::<u64>(&mut o, "add", &vec![1u8]), 1);
        assert_eq!(call::<u64>(&mut o, "add", &vec![2u8]), 2);
        assert_eq!(call::<Option<Vec<u8>>>(&mut o, "get", &0u64), Some(vec![1]));
        assert_eq!(call::<Option<Vec<u8>>>(&mut o, "get", &5u64), None);
        let _: () = call(&mut o, "set", &(1u64, vec![9u8]));
        assert_eq!(call::<Vec<Vec<u8>>>(&mut o, "toVec", &()), vec![vec![1u8], vec![9u8]]);
        let _: () = call(&mut o, "clear", &());
        assert_eq!(call::<u64>(&mut o, "size", &()), 0);
    }

    #[test]
    fn list_set_out_of_bounds() {
        let mut o = ListObject::default();
        let cc = crate::object::CallCtx { ticket: crate::object::Ticket(0), replicated: false };
        let args = simcore::codec::to_bytes(&(0u64, vec![1u8])).expect("encode");
        assert!(o.invoke(&cc, "set", &args).is_err());
    }

    #[test]
    fn map_basic_flow() {
        let mut o = MapObject::default();
        assert_eq!(call::<Option<Vec<u8>>>(&mut o, "put", &("a".to_string(), vec![1u8])), None);
        assert_eq!(
            call::<Option<Vec<u8>>>(&mut o, "put", &("a".to_string(), vec![2u8])),
            Some(vec![1])
        );
        assert!(call::<bool>(&mut o, "containsKey", &"a".to_string()));
        assert!(!call::<bool>(&mut o, "containsKey", &"b".to_string()));
        assert_eq!(call::<u64>(&mut o, "size", &()), 1);
        assert_eq!(call::<Vec<String>>(&mut o, "keys", &()), vec!["a".to_string()]);
        assert_eq!(call::<Option<Vec<u8>>>(&mut o, "remove", &"a".to_string()), Some(vec![2]));
        assert_eq!(call::<u64>(&mut o, "size", &()), 0);
    }

    #[test]
    fn save_restore_round_trip() {
        let mut o = MapObject::default();
        let _: Option<Vec<u8>> = call(&mut o, "put", &("k".to_string(), vec![7u8]));
        let mut o2 = MapObject::default();
        o2.restore(&o.save()).expect("restore");
        assert_eq!(o, o2);
        let mut l = ListObject::default();
        let _: u64 = call(&mut l, "add", &vec![3u8]);
        let mut l2 = ListObject::default();
        l2.restore(&l.save()).expect("restore");
        assert_eq!(l, l2);
    }
}
