//! `app_kmeans` — the paper's flagship application end to end (Fig. 5,
//! k = 25): cold-started cloud threads, the S3 load, 20 KB centroid and
//! partial-sum payloads through the codec, server-side aggregation and a
//! `CyclicBarrier` per iteration. Host time here is mostly real
//! object-method math.

use crucial_ml::kmeans::{run_crucial_kmeans_with, KMeansConfig};
use faas::Pricing;

use super::{Observe, Rep, Scale, Stopwatch, WHOLE_RUN};

fn config(seed: u64, scale: Scale) -> KMeansConfig {
    // The defaults are the Fig. 5 configuration: 80 workers, k = 25, 10
    // iterations, 200 sample points of 100 dimensions per worker, 695 000
    // paper-scale points per partition, load included, one DSO node. The
    // whole run stays under 60 s of virtual time: a cloud-thread body
    // running longer trips the kernel's stall limit (see README).
    let cfg = KMeansConfig { seed, ..KMeansConfig::default() };
    match scale {
        Scale::Full => cfg,
        Scale::Smoke => KMeansConfig { workers: 8, iterations: 2, sample_points: 40, ..cfg },
    }
}

pub fn run(seed: u64, scale: Scale, obs: &Observe) -> Rep {
    let cfg = config(seed, scale);
    let mut watch = Stopwatch::start();
    // The application builds and owns its simulation, so there is no
    // virtual warm-up to run before timing. Set-up is one untimed pass at
    // smoke size, which takes lazy host-side initialisation (thread
    // stacks, allocator arenas, intern tables) out of the timed region.
    run_crucial_kmeans_with(&config(seed, Scale::Smoke), |_| {});
    watch.begin_timed(obs);
    let report = run_crucial_kmeans_with(&cfg, |sim| obs.install(sim));
    let host = watch.end_timed();

    let ops = u64::from(cfg.workers * cfg.iterations);
    let phase = report.iteration_phase.as_secs_f64();
    let mut rep = Rep {
        host,
        attempted: ops,
        ops,
        sim_ops_per_s: ops as f64 / phase,
        sim_makespan_s: report.total.as_secs_f64(),
        sim_cost_usd: report.cost_dollars,
        window_ns: WHOLE_RUN,
        root_span: "cloud.thread",
        ..Rep::default()
    };
    let sse = &report.sse_per_iteration;
    rep.check(sse.len() == cfg.iterations as usize, || {
        format!("{} SSE values for {} iterations", sse.len(), cfg.iterations)
    });
    rep.check(sse.windows(2).all(|w| w[1] <= w[0] * (1.0 + 1e-9)), || {
        format!("SSE rose between iterations: {sse:?}")
    });
    // The report carries the Lambda bill only as dollars; one request per
    // worker at list price is the rest of it.
    let pricing = Pricing::default();
    let gb_seconds = (report.cost_dollars - f64::from(cfg.workers) * pricing.per_request)
        / pricing.per_gb_second;
    rep.extra.push(("faas.billing.gb_seconds", gb_seconds));
    rep.extra.push(("ml.kmeans.iteration_s", phase / f64::from(cfg.iterations)));
    rep.extra.push(("ml.kmeans.sse_final", sse.last().copied().unwrap_or(0.0)));
    rep
}
