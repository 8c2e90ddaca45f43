//! Smoke tests of the experiment harness: the cheap experiments run at
//! quick scale and their headline invariants hold.

// The determinism bans, off for the package for the `benchmark` binary's sake.
#![warn(clippy::disallowed_macros, clippy::disallowed_methods, clippy::disallowed_types)]

use bench::experiments::{ablate, state, sync, Scale};

#[test]
fn fig7b_single_stage_beats_multi_stage() {
    let t = sync::fig7b(Scale::Quick);
    let rendered = t.render();
    assert!(rendered.contains("stage per iteration"));
    assert!(rendered.contains("one stage + barrier"));
}

#[test]
fn fig7c_orders_the_three_solutions() {
    let (_, [local, dso, cloud]) = sync::fig7c(Scale::Quick);
    assert!(local <= dso * 2, "local {local:?} vs dso {dso:?}");
    assert!(dso <= cloud * 2, "dso {dso:?} vs cloud {cloud:?}");
    // The DSO overhead is small, not an order of magnitude.
    let ratio = dso.as_secs_f64() / local.as_secs_f64();
    assert!((0.95..1.5).contains(&ratio), "dso/local = {ratio}");
}

#[test]
fn ablate_barrier_push_beats_poll() {
    let (_, (push, poll)) = ablate::ablate_barrier(Scale::Quick);
    assert!(
        poll > push * 5,
        "polling ({poll:?}) must be far slower than the parked-call barrier ({push:?})"
    );
}

#[test]
fn table4_renders_all_four_apps() {
    let t = state::table4();
    let rendered = t.render();
    for app in ["Monte Carlo", "Logistic Regression", "k-means", "Santa Claus"] {
        assert!(rendered.contains(app), "missing {app} in:\n{rendered}");
    }
}
