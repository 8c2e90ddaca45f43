// Fixture: a function explicitly marked as a nondeterminism source (the
// same marker `simcore::sync` uses for ASLR-dependent resource ids) whose
// value reaches a kernel messaging sink. Expected finding:
// determinism-taint at the `ctx.send` call in `leak`.

// simlint: nondet_source
fn host_entropy() -> u64 {
    0x5eed
}

pub fn leak(ctx: &mut Ctx, peer: Addr) {
    let seed = host_entropy();
    ctx.send(peer, seed);
}
