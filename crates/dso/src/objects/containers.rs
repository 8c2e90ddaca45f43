//! Shared containers: a list and a string-keyed map over opaque
//! (codec-encoded) element bytes. Typed views live in [`crate::api`].

use std::collections::BTreeMap;

use super::{dec, dec_create};
use crate::error::ObjectError as ObjErr;
use crate::object::{CallCtx, Effects, SharedObject};

/// A shared append-mostly list of opaque elements.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ListObject {
    items: Vec<Vec<u8>>,
}

impl ListObject {
    /// Registry type name.
    pub const TYPE: &'static str = "List";

    /// Factory: creation args are optional initial elements.
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjErr> {
        let items = dec_create(args, Vec::new())?;
        Ok(Box::new(ListObject { items }))
    }
}

impl SharedObject for ListObject {
    fn invoke(&mut self, _call: &CallCtx, method: &str, args: &[u8]) -> Result<Effects, ObjErr> {
        match method {
            "add" => {
                let item: Vec<u8> = dec(args)?;
                self.items.push(item);
                Effects::value(&(self.items.len() as u64))
            }
            "set" => {
                let (i, item): (u64, Vec<u8>) = dec(args)?;
                let i = i as usize;
                if i >= self.items.len() {
                    return Err(ObjErr::App(format!(
                        "index {i} out of bounds (len {})",
                        self.items.len()
                    )));
                }
                self.items[i] = item;
                Effects::value(&())
            }
            "clear" => {
                self.items.clear();
                Effects::value(&())
            }
            other => Err(ObjErr::MethodNotFound(other.to_string())),
        }
    }

    fn read(&self, method: &str, args: &[u8]) -> Option<Result<Effects, ObjErr>> {
        Some(match method {
            "get" => {
                dec(args).and_then(|i: u64| Effects::value(&self.items.get(i as usize).cloned()))
            }
            "size" => Effects::value(&(self.items.len() as u64)),
            "toVec" => Effects::value(&self.items),
            _ => return None,
        })
    }

    fn save(&self) -> Vec<u8> {
        // invariant: a Vec of byte vectors always encodes.
        simcore::codec::to_bytes(&self.items).expect("list encodes")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjErr> {
        self.items =
            simcore::codec::from_bytes(state).map_err(|e| ObjErr::BadState(e.to_string()))?;
        Ok(())
    }
}

/// A shared map with string keys and opaque values.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MapObject {
    entries: BTreeMap<String, Vec<u8>>,
}

impl MapObject {
    /// Registry type name.
    pub const TYPE: &'static str = "Map";

    /// Factory: creation args are optional initial entries.
    pub fn factory(args: &[u8]) -> Result<Box<dyn SharedObject>, ObjErr> {
        let entries = dec_create(args, BTreeMap::new())?;
        Ok(Box::new(MapObject { entries }))
    }
}

impl SharedObject for MapObject {
    fn invoke(&mut self, _call: &CallCtx, method: &str, args: &[u8]) -> Result<Effects, ObjErr> {
        match method {
            "put" => {
                let (k, v): (String, Vec<u8>) = dec(args)?;
                Effects::value(&self.entries.insert(k, v))
            }
            "remove" => {
                let k: String = dec(args)?;
                Effects::value(&self.entries.remove(&k))
            }
            "clear" => {
                self.entries.clear();
                Effects::value(&())
            }
            other => Err(ObjErr::MethodNotFound(other.to_string())),
        }
    }

    fn read(&self, method: &str, args: &[u8]) -> Option<Result<Effects, ObjErr>> {
        Some(match method {
            "get" => dec(args).and_then(|k: String| Effects::value(&self.entries.get(&k).cloned())),
            "containsKey" => {
                dec(args).and_then(|k: String| Effects::value(&self.entries.contains_key(&k)))
            }
            "size" => Effects::value(&(self.entries.len() as u64)),
            "keys" => Effects::value(&self.entries.keys().cloned().collect::<Vec<String>>()),
            _ => return None,
        })
    }

    fn save(&self) -> Vec<u8> {
        // invariant: the entry map always encodes.
        simcore::codec::to_bytes(&self.entries).expect("map encodes")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjErr> {
        self.entries =
            simcore::codec::from_bytes(state).map_err(|e| ObjErr::BadState(e.to_string()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::call;
    use super::*;

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
