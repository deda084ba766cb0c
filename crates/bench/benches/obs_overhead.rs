//! Observability overhead pin: the instrumented engine must be free.
//!
//! Runs the `engine_1m_reports` workload three times — tracing
//! disabled (every instrumented site costs one relaxed atomic load,
//! the shipping default), tracing enabled (spans and instants
//! recording into the per-thread rings), and tracing enabled **with
//! causal context propagation** (an ambient root context entered, so
//! every span derives deterministic child ids and records its parent
//! edge — the distributed-tracing hot path) — and pins two facts:
//!
//! 1. **Determinism**: the weights digests of all three arms are
//!    bit-identical. Turning observability on, with or without
//!    propagation, must never perturb results.
//! 2. **Overhead**: both traced arms' throughput is within 3% of
//!    baseline (best-of-N wall clock, to damp scheduler noise). The
//!    bound is only asserted in full runs; `DPTD_BENCH_SMOKE=1` runs a
//!    small load where fixed costs dominate and the ratio is noise.
//!
//! Writes `obs_overhead.json` (archived by CI as a bench artifact) with
//! `baseline_rps` / `instrumented_rps` / `overhead_pct` plus
//! `propagated_rps` / `propagation_overhead_pct` extras.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use dptd_bench::summary::{keys, BenchSummary};
use dptd_engine::{ArrivalProcess, Engine, EngineConfig, EngineMetrics, LoadGen, LoadGenConfig};
use dptd_stats::digest::fnv1a_f64s;
use dptd_truth::streaming::StreamingCrh;

fn smoke() -> bool {
    std::env::var_os("DPTD_BENCH_SMOKE").is_some_and(|v| v != "0")
}

struct Arm {
    elapsed_s: f64,
    reports: u64,
    p50_ns: u64,
    p99_ns: u64,
    digest: u64,
}

/// Run the workload once and reduce it to the numbers the pin needs.
/// With `propagate`, an ambient root context wraps the run, so every
/// span pays the full child-id derivation and parent-edge store.
fn run_once(eng: &Engine, gen: &LoadGen, propagate: bool) -> Arm {
    let _root =
        propagate.then(|| dptd_obs::trace::enter(dptd_obs::SpanContext::root("obs-overhead", 0)));
    let cfg = eng.config();
    let mut state = StreamingCrh::new(cfg.num_users, cfg.loss).expect("valid estimator");
    let mut metrics = EngineMetrics::default();
    let t0 = Instant::now();
    for epoch in 0..gen.config().epochs {
        let (report, next) = eng
            .run_with_state(state, gen.epoch_reports(epoch))
            .expect("engine round succeeds");
        state = next;
        metrics.absorb(&report.metrics);
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let ns = |d: Option<std::time::Duration>| d.map_or(0, |d| d.as_nanos() as u64);
    Arm {
        elapsed_s,
        reports: metrics.reports_submitted,
        p50_ns: ns(metrics.ingest_latency.p50()),
        p99_ns: ns(metrics.ingest_latency.p99()),
        digest: fnv1a_f64s(state.weights()),
    }
}

/// Best-of-`iters` for one tracing state (rings reset between runs so
/// the enabled arm pays steady-state recording, not ring allocation).
fn run_arm(eng: &Engine, gen: &LoadGen, traced: bool, propagate: bool, iters: usize) -> Arm {
    dptd_obs::trace::set_enabled(traced);
    dptd_obs::trace::reset();
    let mut best: Option<Arm> = None;
    for _ in 0..iters {
        let arm = run_once(eng, gen, propagate);
        match &best {
            Some(b) if b.elapsed_s <= arm.elapsed_s => {}
            _ => best = Some(arm),
        }
    }
    dptd_obs::trace::set_enabled(false);
    best.expect("at least one iteration")
}

fn bench_obs_overhead(_c: &mut Criterion) {
    let (users, epochs, iters) = if smoke() {
        (10_000, 2, 1)
    } else {
        (200_000, 5, 3)
    };
    let gen = LoadGen::new(LoadGenConfig {
        num_users: users,
        num_objects: 8,
        epochs,
        duplicate_probability: 0.01,
        straggler_fraction: 0.01,
        arrival: ArrivalProcess::Poisson,
        seed: 7,
        ..LoadGenConfig::default()
    })
    .expect("valid load config");
    let eng = Engine::new(EngineConfig {
        num_users: users,
        num_objects: 8,
        num_shards: 16,
        workers: 0,
        queue_capacity: 8_192,
        epoch_deadline_us: 1_000_000,
        ..EngineConfig::default()
    })
    .expect("valid engine config");

    let baseline = run_arm(&eng, &gen, false, false, iters);
    let instrumented = run_arm(&eng, &gen, true, false, iters);
    let propagated = run_arm(&eng, &gen, true, true, iters);

    assert_eq!(
        baseline.digest, instrumented.digest,
        "enabling tracing must not perturb the weights digest"
    );
    assert_eq!(
        baseline.digest, propagated.digest,
        "context propagation must not perturb the weights digest"
    );
    assert_eq!(
        baseline.reports, instrumented.reports,
        "both arms drive the identical report stream"
    );
    assert_eq!(
        baseline.reports, propagated.reports,
        "the propagated arm drives the identical report stream"
    );

    let baseline_rps = baseline.reports as f64 / baseline.elapsed_s.max(1e-9);
    let instrumented_rps = instrumented.reports as f64 / instrumented.elapsed_s.max(1e-9);
    let propagated_rps = propagated.reports as f64 / propagated.elapsed_s.max(1e-9);
    let overhead_pct = (baseline_rps - instrumented_rps) / baseline_rps * 100.0;
    let propagation_overhead_pct = (baseline_rps - propagated_rps) / baseline_rps * 100.0;
    println!(
        "obs_overhead: baseline {baseline_rps:.0} reports/s, traced {instrumented_rps:.0} \
         reports/s → overhead {overhead_pct:.2}%, traced+propagated {propagated_rps:.0} \
         reports/s → overhead {propagation_overhead_pct:.2}% (digest {:016x})",
        baseline.digest
    );
    if !smoke() {
        assert!(
            overhead_pct <= 3.0,
            "observability overhead {overhead_pct:.2}% exceeds the 3% budget \
             (baseline {baseline_rps:.0} rps, instrumented {instrumented_rps:.0} rps)"
        );
        assert!(
            propagation_overhead_pct <= 3.0,
            "context-propagation overhead {propagation_overhead_pct:.2}% exceeds the 3% \
             budget (baseline {baseline_rps:.0} rps, propagated {propagated_rps:.0} rps)"
        );
    }

    let summary = BenchSummary {
        bench: "obs_overhead".to_string(),
        reports: instrumented.reports,
        elapsed_s: instrumented.elapsed_s,
        p50_ns: instrumented.p50_ns,
        p99_ns: instrumented.p99_ns,
        weights_digest: instrumented.digest,
        extras: vec![
            (keys::BASELINE_RPS.to_string(), baseline_rps),
            (keys::INSTRUMENTED_RPS.to_string(), instrumented_rps),
            (keys::OVERHEAD_PCT.to_string(), overhead_pct),
            (keys::PROPAGATED_RPS.to_string(), propagated_rps),
            (
                keys::PROPAGATION_OVERHEAD_PCT.to_string(),
                propagation_overhead_pct,
            ),
        ],
    };
    match summary.write() {
        Ok(path) => println!("obs_overhead: summary → {}", path.display()),
        Err(e) => eprintln!("obs_overhead: summary write failed: {e}"),
    }
    let _ = baseline.p50_ns + baseline.p99_ns;
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
