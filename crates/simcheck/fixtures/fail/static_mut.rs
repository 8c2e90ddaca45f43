// fails: unsafe_code
// A `static mut`: every access is `unsafe`, which simulated crates forbid.

#![forbid(unsafe_code)]

static mut HITS: u64 = 0;

pub fn hit() -> u64 {
    unsafe {
        HITS += 1;
        HITS
    }
}
