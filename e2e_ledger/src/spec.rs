//! What the benchmark declares: its workloads and the name, unit,
//! direction and regression bound of every metric. `BENCHMARK.json` at
//! the repo root is rendered from these tables.

use dptd_engine::{ArrivalProcess, LoadGenConfig, StoreConfig};

use crate::worlds::{Shape, SubmitMode};

/// Default `--seconds`: how long the timed rounds of one untraced run
/// take at the seed commit on the 2-core reference box. Round counts
/// scale with `--seconds / RUN_SECONDS`, so a given `--seconds` is
/// always the same fixed work.
pub const RUN_SECONDS: u64 = 20;

/// Fresh worlds built per run; `setup_s` is the median of their
/// cold-start times and the last one carries on into the rounds.
pub const SETUP_WORLDS: usize = 5;

/// Rounds run but not sampled before the timed rounds.
pub const WARMUP_ROUNDS: u64 = 4;

/// Timed rounds per rung in a traced run.
pub const TRACE_ROUNDS: u64 = 12;

/// Largest mean absolute error allowed between a round's truths and the
/// generator's ground truths (which span 15–25).
pub const MAE_BOUND: f64 = 0.5;

/// Which deployment a workload drives.
#[derive(Debug, Clone, Copy)]
pub enum Deployment {
    /// In-process `CampaignDriver<EngineBackend>`, no log.
    Engine,
    /// `Server` on loopback; durable campaigns compact every
    /// `compact_every` records.
    Served {
        durable: bool,
        mode: SubmitMode,
        compact_every: u64,
    },
    /// `ClusterCampaign` over three durable nodes with followers.
    Cluster { chunk: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub deployment: Deployment,
    /// Timed rounds of an untraced run at the default `--seconds`.
    pub rounds: u64,
    full: Population,
    smoke: Population,
}

#[derive(Debug, Clone, Copy)]
struct Population {
    users: usize,
    churn: f64,
    coverage: f64,
    bursty: bool,
}

impl Workload {
    /// The load generator's configuration for `seed`, covering `epochs`
    /// rounds.
    pub fn load(&self, smoke: bool, seed: u64, epochs: u64) -> LoadGenConfig {
        let p = if smoke { self.smoke } else { self.full };
        LoadGenConfig {
            num_users: p.users,
            num_objects: 8,
            epochs,
            coverage: p.coverage,
            duplicate_probability: 0.01,
            straggler_fraction: 0.01,
            churn: p.churn,
            arrival: if p.bursty {
                ArrivalProcess::Bursty {
                    burst_size: 256,
                    idle_gap_us: 20_000,
                }
            } else {
                ArrivalProcess::Poisson
            },
            seed,
            ..LoadGenConfig::default()
        }
    }

    /// Campaign sizing able to run `rounds` rounds without `Busy`
    /// pushback or budget exhaustion.
    pub fn shape(&self, smoke: bool, rounds: u64) -> Shape {
        let p = if smoke { self.smoke } else { self.full };
        Shape {
            users: p.users,
            objects: 8,
            shards: 16,
            capacity: 1 << 18,
            budget_rounds: u32::try_from(rounds + 8).expect("round counts are small"),
        }
    }

    /// Timed rounds for a run of `seconds`.
    pub fn timed_rounds(&self, smoke: bool, seconds: u64) -> u64 {
        if smoke {
            6
        } else {
            (self.rounds * seconds).div_ceil(RUN_SECONDS).max(1)
        }
    }

    /// Store thresholds of the workload's durable campaigns (defaults
    /// where the workload does not set them).
    pub fn store(&self) -> StoreConfig {
        match self.deployment {
            Deployment::Served {
                durable: true,
                compact_every,
                ..
            } => StoreConfig {
                compact_every,
                ..StoreConfig::default()
            },
            _ => StoreConfig::default(),
        }
    }
}

const DENSE: Population = Population {
    users: 200_000,
    churn: 0.1,
    coverage: 1.0,
    bursty: false,
};

const DENSE_SMOKE: Population = Population {
    users: 2_000,
    ..DENSE
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "engine_dense",
        why: "in-process engine campaign, no log: route, filter and merge are all there is, so it is the ceiling a wire, WAL or cluster change must leave flat",
        deployment: Deployment::Engine,
        rounds: 64,
        full: DENSE,
        smoke: DENSE_SMOKE,
    },
    Workload {
        name: "served_dense",
        why: "the same stream through one loopback server, pipelined submit, volatile campaign: socket, frame decode, wire decode and queue make up the gap to engine_dense",
        deployment: Deployment::Served {
            durable: false,
            mode: SubmitMode::Pipelined {
                batch: 512,
                window: 8,
            },
            compact_every: 0,
        },
        rounds: 48,
        full: DENSE,
        smoke: DENSE_SMOKE,
    },
    Workload {
        name: "served_sparse",
        why: "1M users at 2% participation, durable with compaction, request/reply submit: cost that follows the population (record encode, fsync, empty merge leaves) dominates cost that follows the reports",
        deployment: Deployment::Served {
            durable: true,
            mode: SubmitMode::RequestReply { batch: 128 },
            compact_every: 16,
        },
        rounds: 100,
        full: Population {
            users: 1_000_000,
            churn: 0.98,
            coverage: 0.5,
            bursty: true,
        },
        smoke: Population {
            users: 50_000,
            churn: 0.98,
            coverage: 0.5,
            bursty: true,
        },
    },
    Workload {
        name: "cluster_dense",
        why: "the engine_dense stream over 3 durable nodes, each with a follower: partition fan-out, two-phase barrier, commit fsync and replication ack are on the blocking path only here",
        deployment: Deployment::Cluster { chunk: 512 },
        rounds: 40,
        full: DENSE,
        smoke: DENSE_SMOKE,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Workloads that share the dense stream and must therefore hold the
/// same weights digest after the same round for a given seed.
pub const SAME_DIGEST: [&str; 3] = ["engine_dense", "served_dense", "cluster_dense"];

/// The round after which a workload's reported digest is taken: its
/// last, or for the dense workloads — which run different numbers of
/// rounds in the same time — the last round all of them reach.
pub fn digest_epoch(workload: &Workload, smoke: bool, seconds: u64) -> u64 {
    let rounds = if SAME_DIGEST.contains(&workload.name) {
        WORKLOADS
            .iter()
            .filter(|w| SAME_DIGEST.contains(&w.name))
            .map(|w| w.timed_rounds(smoke, seconds))
            .min()
            .expect("SAME_DIGEST names declared workloads")
    } else {
        workload.timed_rounds(smoke, seconds)
    };
    WARMUP_ROUNDS + rounds
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The bounds are taken from `NOISE.md` under the rule of the benchmark
/// driver that accepts or rejects this benchmark: over ten runs of
/// unchanged code the interquartile range of a metric (except `setup_s`)
/// must stay within its bound — a third of it is the target — and the
/// median of a second ten may not be worse than the first by more than
/// the bound; no bound may exceed 25 %. ISSUE 12 first asked for ≤ 10 %
/// (5 % for memory) and was amended: on the shared 2-core box the
/// machine itself moves every timing of identical runs by 5–30 %
/// (phases of minutes, visible in `host.calib_ms_p50`) and the resident
/// set by up to 14 %, and PR 11 was rejected for bounds its own noise
/// broke. The time metrics sit at the driver's ceiling, memory a step
/// below it.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "close_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ns_per_report",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 70] = [
    layer("loadgen.gen_ns_per_report", "ns", Lower),
    layer("core.respond_ns_per_report", "ns", Lower),
    layer("shard.ingest_ns_per_report", "ns", Lower),
    layer("shard.finish_epoch_ms_p50", "ms", Lower),
    layer("truth.load_shards_ms_p50", "ms", Lower),
    layer("truth.merge_ms_p50", "ms", Lower),
    layer("truth.merge_leaves", "count", Lower),
    layer("truth.merge_claims", "count", Lower),
    layer("truth.leaf_occupancy", "ratio", Higher),
    layer("engine.run_ms_p50", "ms", Lower),
    layer("engine.route_s", "s", Lower),
    layer("engine.filter_s", "s", Lower),
    layer("engine.merge_s", "s", Lower),
    layer("engine.accept_ratio", "ratio", Higher),
    layer("engine.duplicates_discarded", "count", Lower),
    layer("engine.late_dropped", "count", Lower),
    layer("engine.backpressure_stalls", "count", Lower),
    layer("engine.max_queue_depth", "count", Lower),
    layer("campaign.round_overhead_ms_p50", "ms", Lower),
    layer("budget.debits", "count", Lower),
    layer("budget.exhausted_users", "count", Lower),
    layer("wal.encode_ms_p50", "ms", Lower),
    layer("wal.record_bytes_p50", "B", Lower),
    layer("wal.append_mem_ms_p50", "ms", Lower),
    layer("wal.append_fsync_ms_p50", "ms", Lower),
    layer("store.append_ms_p50", "ms", Lower),
    layer("store.append_ms_max", "ms", Lower),
    layer("store.bytes_written_per_round", "B", Lower),
    layer("store.writes_per_round", "count", Lower),
    layer("store.compactions", "count", Lower),
    layer("store.rotations", "count", Lower),
    layer("store.bytes_on_disk", "B", Lower),
    layer("store.reclaimable_bytes", "B", Lower),
    layer("recovery.replay_ms_p50", "ms", Lower),
    layer("recovery.records_replayed", "count", Lower),
    layer("wire.encode_ns_per_report", "ns", Lower),
    layer("wire.decode_ns_per_report", "ns", Lower),
    layer("wire.bytes_per_report", "B", Lower),
    layer("decode.ns_per_frame", "ns", Lower),
    layer("registry.submit_ns_per_report", "ns", Lower),
    layer("registry.close_ms_p50", "ms", Lower),
    layer("frontend.noop_rtt_us_p50", "us", Lower),
    layer("frontend.io_threads", "count", Lower),
    layer("frontend.conn_refused", "count", Lower),
    layer("client.submit_rtt_us_p50", "us", Lower),
    layer("client.submit_rtt_us_p99", "us", Lower),
    layer("client.close_ms_hi", "ms", Lower),
    layer("client.close_hi_pct", "%", Higher),
    layer("client.busy_refusals", "count", Lower),
    layer("partitioner.map_ms", "ms", Lower),
    layer("partitioner.skew", "ratio", Lower),
    layer("coordinator.submit_ms_p50", "ms", Lower),
    layer("coordinator.close_ms_p50", "ms", Lower),
    layer("node.prepare_ms_p50", "ms", Lower),
    layer("node.commit_ms_p50", "ms", Lower),
    layer("replication.apply_ns_per_byte", "ns", Lower),
    layer("replication.bytes_per_round", "B", Lower),
    layer("replication.close_overhead_ms_p50", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("ledger.truth_s", "s", Lower),
    layer("ledger.engine_s", "s", Lower),
    layer("ledger.campaign_s", "s", Lower),
    layer("ledger.wal_s", "s", Lower),
    layer("ledger.registry_s", "s", Lower),
    layer("ledger.net_s", "s", Lower),
    layer("ledger.cluster_s", "s", Lower),
    layer("ledger.total_s", "s", Lower),
    layer("ledger.unexplained_pct", "%", Lower),
    layer("host.nproc", "count", Higher),
    layer("host.calib_ms_p50", "ms", Lower),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    use crate::json::string;
    let list = |items: Vec<String>| items.join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"e2e_ledger/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"e2e_ledger\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        list(
            WORKLOADS
                .iter()
                .map(|w| format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    string(w.name),
                    string(w.why)
                ))
                .collect()
        ),
        list(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    string(m.name),
                    string(m.unit),
                    string(m.better.as_str()),
                    m.bound
                ))
                .collect()
        ),
        list(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    string(m.name),
                    string(m.unit),
                    string(m.better.as_str())
                ))
                .collect()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn declared_names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "bad name {name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    /// The driver refuses a bound above 25 % and wants `setup_s`, whose
    /// spread it does not check, to carry the largest.
    #[test]
    fn bounds_stay_within_the_drivers_limits() {
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert_eq!(setup.unit, "s");
        assert_eq!(setup.better, Better::Lower);
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `e2e_ledger --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn round_counts_scale_with_seconds_and_stay_fixed_work() {
        for w in &WORKLOADS {
            assert_eq!(w.timed_rounds(false, RUN_SECONDS), w.rounds);
            assert!(w.rounds >= 40, "{} has too few timed rounds", w.name);
            assert_eq!(w.timed_rounds(false, 2 * RUN_SECONDS), 2 * w.rounds);
            assert_eq!(w.timed_rounds(true, RUN_SECONDS), 6);
        }
    }
}
