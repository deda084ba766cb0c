//! Shared builders for the umbrella integration tests: deterministic
//! load-generator streams and engines sized to match them. Used by
//! `engine_e2e.rs` (one engine round per epoch) and `campaign_e2e.rs`
//! (multi-round campaigns).

// Each test binary compiles this module independently and uses a
// different subset of the builders.
#![allow(dead_code)]

use dptd::engine::{
    ArrivalProcess, Engine, EngineConfig, EngineMetrics, EpochOutcome, LoadGen, LoadGenConfig,
};
use dptd::truth::streaming::StreamingCrh;

/// A bursty, stressy stream: duplicates and stragglers on flash-crowd
/// arrivals.
pub fn bursty_load(
    users: usize,
    objects: usize,
    epochs: u64,
    dup: f64,
    straggler: f64,
    seed: u64,
) -> LoadGen {
    LoadGen::new(LoadGenConfig {
        num_users: users,
        num_objects: objects,
        epochs,
        duplicate_probability: dup,
        straggler_fraction: straggler,
        arrival: ArrivalProcess::Bursty {
            burst_size: 32,
            idle_gap_us: 20_000,
        },
        seed,
        ..LoadGenConfig::default()
    })
    .expect("valid load config")
}

/// A Poisson stream with per-round participation churn — the multi-round
/// campaign workload.
pub fn churny_load(
    users: usize,
    objects: usize,
    epochs: u64,
    churn: f64,
    dup: f64,
    straggler: f64,
    seed: u64,
) -> LoadGen {
    LoadGen::new(LoadGenConfig {
        num_users: users,
        num_objects: objects,
        epochs,
        churn,
        duplicate_probability: dup,
        straggler_fraction: straggler,
        seed,
        ..LoadGenConfig::default()
    })
    .expect("valid load config")
}

/// An engine sized to consume `load`'s stream: population, objects and
/// epoch deadline are derived so the two cannot drift apart.
pub fn engine_for(load: &LoadGen, shards: usize) -> Engine {
    Engine::new(EngineConfig {
        num_users: load.config().num_users,
        num_objects: load.config().num_objects,
        num_shards: shards,
        epoch_deadline_us: load.config().epoch_len_us,
        ..EngineConfig::default()
    })
    .expect("valid engine config")
}

/// Every epoch of `load` through `engine`, one `run_with_state` call
/// each with the estimator carried: the epochs' outcomes, the final
/// weights and the rounds' metrics summed.
pub fn run_epochs(engine: &Engine, load: &LoadGen) -> (Vec<EpochOutcome>, Vec<f64>, EngineMetrics) {
    let cfg = engine.config();
    let mut state = StreamingCrh::new(cfg.num_users, cfg.loss).expect("valid estimator");
    let mut metrics = EngineMetrics::default();
    let mut epochs = Vec::new();
    for epoch in 0..load.config().epochs {
        let (report, next) = engine
            .run_with_state(state, load.epoch_reports(epoch))
            .expect("engine round succeeds");
        state = next;
        metrics.absorb(&report.metrics);
        epochs.extend(report.epoch);
    }
    (epochs, state.weights().to_vec(), metrics)
}
