// fails: E0015
// A `parking_lot` static. The lock type is not banned, but its `new` is not
// `const`, so no static can hold one.

pub static NAMES: parking_lot::Mutex<Vec<String>> = parking_lot::Mutex::new(Vec::new());
