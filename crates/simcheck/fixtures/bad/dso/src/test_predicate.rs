// Fixture: only an exact `#[cfg(test)]` or `#[test]` makes test code.
// Expected findings: no-panic at the unwrap in `real`, which sits between
// a test fn and a `mod` block; wall-clock at the clock read and
// determinism-taint at the `ctx.send` in `stamp`, which
// `cfg(not(test))` keeps out of test builds only.

#[cfg(test)]
fn helper() -> u8 {
    None::<u8>.unwrap()
}

fn real(x: Option<u8>) -> u8 {
    x.unwrap()
}

mod inner {}

#[cfg(not(test))]
pub fn stamp(ctx: &mut Ctx, peer: Addr) {
    let t = std::time::Instant::now();
    ctx.send(peer, t);
}
