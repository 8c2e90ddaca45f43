//! Trace-propagation tests: the causality token must survive every hop of
//! the stack — client call → per-attempt request → server-side execution
//! and replication rounds — and the exports must be deterministic.

use std::time::Duration;

use simcore::FxHashMap;

use crucial::{
    AtomicLong, DsoCluster, DsoConfig, MetricsRegistry, ObjectRegistry, Sim, SimTime, SpanId,
    Tracer,
};

/// Child adjacency over a span snapshot: parent id → child span indexes.
fn children_of(spans: &[simcore::SpanRecord]) -> FxHashMap<SpanId, Vec<usize>> {
    let mut map: FxHashMap<SpanId, Vec<usize>> = FxHashMap::default();
    for (i, s) in spans.iter().enumerate() {
        if !s.parent.is_none() {
            map.entry(s.parent).or_default().push(i);
        }
    }
    map
}

/// Whether any descendant of `root` (exclusive) is named `name`.
fn has_descendant(
    spans: &[simcore::SpanRecord],
    kids: &FxHashMap<SpanId, Vec<usize>>,
    root: SpanId,
    name: &str,
) -> bool {
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        for &i in kids.get(&id).map(Vec::as_slice).unwrap_or_default() {
            if spans[i].name == name {
                return true;
            }
            stack.push(spans[i].id);
        }
    }
    false
}

/// A small replicated workload with the observability subsystem installed.
fn traced_counter_run(seed: u64) -> (Tracer, MetricsRegistry) {
    let mut sim = Sim::new(seed);
    let tracer = Tracer::new();
    let reg = MetricsRegistry::new();
    sim.set_tracer(&tracer);
    sim.set_metrics(&reg);
    let cluster = DsoCluster::start(&sim, 3, DsoConfig::default(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    for t in 0..4 {
        let handle = handle.clone();
        sim.spawn(&format!("w{t}"), move |ctx| {
            let mut cli = handle.connect();
            let c = AtomicLong::persistent(&format!("c{t}"), 0, 2);
            for _ in 0..5 {
                c.add_and_get(ctx, &mut cli, 1).expect("dso");
            }
        });
    }
    sim.run_until_idle().expect_quiescent();
    (tracer, reg)
}

#[test]
fn every_client_call_reaches_a_server_exec_span() {
    let (tracer, reg) = traced_counter_run(71);
    let spans = tracer.spans();
    let kids = children_of(&spans);
    let calls: Vec<_> = spans.iter().filter(|s| s.name == "dso.call").collect();
    assert_eq!(calls.len() as u64, reg.counter_value("dso.invokes"));
    assert!(!calls.is_empty());
    for call in &calls {
        assert!(
            has_descendant(&spans, &kids, call.id, "dso.exec"),
            "dso.call {:?} ({:?}) has no server-side dso.exec descendant",
            call.id,
            call.args,
        );
    }
    // Replicated writes additionally run an SMR round under the execution.
    assert!(reg.counter_value("dso.smr_rounds") > 0);
    let round = spans.iter().find(|s| s.name == "dso.smr_round").expect("rf=2 writes ran SMR");
    let parent = spans.iter().find(|s| s.id == round.parent).expect("round has a parent");
    assert_eq!(parent.name, "dso.attempt", "SMR rounds hang under the client attempt");
}

#[test]
fn retries_are_sibling_attempts_under_one_call() {
    let mut sim = Sim::new(72);
    let tracer = Tracer::new();
    let reg = MetricsRegistry::new();
    sim.set_tracer(&tracer);
    sim.set_metrics(&reg);
    let cluster = DsoCluster::start(&sim, 3, DsoConfig::default(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let servers: Vec<_> = cluster.servers().to_vec();
    // Warm the view, then crash a node and immediately call objects spread
    // over all three primaries: calls routed at the dead node time out and
    // retry, and each retry must be a *sibling* attempt under the same
    // logical dso.call span.
    sim.spawn("app", move |ctx| {
        let mut cli = handle.connect();
        for i in 0..6 {
            let c = AtomicLong::persistent(&format!("o{i}"), 0, 2);
            c.add_and_get(ctx, &mut cli, 1).expect("dso");
        }
        servers[0].crash_from(ctx);
        for i in 0..6 {
            let c = AtomicLong::persistent(&format!("o{i}"), 0, 2);
            c.add_and_get(ctx, &mut cli, 1).expect("survives one crash at rf=2");
        }
    });
    sim.run_until_idle().expect_quiescent();
    assert!(reg.counter_value("dso.retries") > 0, "no call ever hit the crashed node");
    let spans = tracer.spans();
    let kids = children_of(&spans);
    let retried = spans
        .iter()
        .filter(|s| s.name == "dso.call")
        .filter(|call| {
            let attempts = kids
                .get(&call.id)
                .map(|v| v.iter().filter(|&&i| spans[i].name == "dso.attempt").count())
                .unwrap_or(0);
            attempts >= 2
        })
        .count();
    assert!(retried > 0, "expected at least one dso.call with >= 2 sibling dso.attempt children");
}

#[test]
fn identically_seeded_runs_export_identical_traces() {
    let (a, ra) = traced_counter_run(99);
    let (b, rb) = traced_counter_run(99);
    assert_eq!(a.export_chrome_json(), b.export_chrome_json());
    assert_eq!(a.export_jsonl(), b.export_jsonl());
    assert_eq!(ra.summary(), rb.summary());
    // And the timestamps inside are virtual: the run is seconds of sim
    // time regardless of how fast the host executed it.
    let last_end = a.spans().iter().filter_map(|s| s.end).max().unwrap_or(SimTime::ZERO);
    assert!(last_end >= SimTime::ZERO + Duration::from_micros(1));
}
