//! The DSO path's panic bans: an invariant states its reason to the
//! compiler, and test code may panic.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

#[expect(clippy::expect_used, reason = "invariant: the caller inserted x just above")]
pub fn checked(x: Option<u8>) -> u8 {
    x.expect("documented")
}

pub fn handle(x: Option<u8>) -> Result<u8, String> {
    x.ok_or_else(|| "missing".to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic() {
        assert_eq!(super::checked(Some(1)), 1);
        assert_eq!(super::handle(Some(2)).unwrap(), 2);
        let _ = super::handle(None).expect_err("missing");
        if super::handle(None).is_ok() {
            panic!("fine here");
        }
    }
}
