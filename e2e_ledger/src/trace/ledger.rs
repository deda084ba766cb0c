//! From a traced run's samples to the declared per-layer metrics and
//! the ledger rows.

use super::spans::Samples;
use super::TRACE_WARMUP;
use crate::host;
use crate::json::Metric;
use crate::spec::{Deployment, Workload, PER_LAYER};
use crate::stats;

/// Run-level facts that are not per-round samples.
pub(super) struct Facts {
    pub(super) rounds: u64,
    /// Whether the workload's own served rung is the pipelined one.
    pub(super) pipelined: bool,
    /// The campaign rung's budget ledger: debits made, users spent out.
    pub(super) debits: u64,
    pub(super) exhausted_users: usize,
    pub(super) respond_ns: f64,
    pub(super) map_ms: f64,
    pub(super) skew: f64,
    pub(super) busy_refusals: u64,
    pub(super) io_threads: usize,
    pub(super) conn_refused: u64,
    pub(super) replica_bytes: u64,
    pub(super) calib_ms: f64,
}

/// One ledger row per layer, in seconds per round; they sum to the
/// workload's top rung by construction (each is a difference of
/// adjacent rung medians).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    pub truth_s: f64,
    pub engine_s: f64,
    pub campaign_s: f64,
    pub wal_s: f64,
    pub registry_s: f64,
    pub net_s: f64,
    pub cluster_s: f64,
}

impl Ledger {
    pub fn total_s(&self) -> f64 {
        self.truth_s
            + self.engine_s
            + self.campaign_s
            + self.wal_s
            + self.registry_s
            + self.net_s
            + self.cluster_s
    }
}

/// Median seconds per round of every rung.
#[derive(Debug, Clone, Copy)]
pub struct RungMedians {
    pub truth: f64,
    pub engine: f64,
    pub campaign: f64,
    pub campaign_store: f64,
    pub registry: f64,
    /// The served rung in the workload's own submit mode.
    pub served: f64,
    pub cluster_followed: f64,
}

/// Stack the rungs the workload's deployment actually goes through.
pub fn ledger(deployment: Deployment, m: &RungMedians) -> Ledger {
    let engine_rows = Ledger {
        truth_s: m.truth,
        engine_s: m.engine - m.truth,
        campaign_s: m.campaign - m.engine,
        ..Ledger::default()
    };
    match deployment {
        Deployment::Engine => engine_rows,
        Deployment::Served { durable, .. } => {
            let below_registry = if durable {
                m.campaign_store
            } else {
                m.campaign
            };
            Ledger {
                wal_s: below_registry - m.campaign,
                registry_s: m.registry - below_registry,
                net_s: m.served - m.registry,
                ..engine_rows
            }
        }
        // A cluster runs no engine: nodes filter, the coordinator
        // merges. Only the merge is shared with the rungs below.
        Deployment::Cluster { .. } => Ledger {
            truth_s: m.truth,
            cluster_s: m.cluster_followed - m.truth,
            ..Ledger::default()
        },
    }
}

pub(super) fn metrics(workload: &Workload, s: &Samples, f: &Facts) -> Result<Vec<Metric>, String> {
    let served_key = if f.pipelined {
        "D.pipe.round_s"
    } else {
        "D.served.round_s"
    };
    let medians = RungMedians {
        truth: s.median("A.truth_s"),
        engine: s.median("B.round_s"),
        campaign: s.median("C.round_s"),
        campaign_store: s.median("C.store.round_s"),
        registry: s.median("registry.round_s"),
        served: s.median(served_key),
        cluster_followed: s.median("coordinator.round_s"),
    };
    let rows = ledger(workload.deployment, &medians);
    let top_key = match workload.deployment {
        Deployment::Engine => "C.round_s",
        Deployment::Served { .. } => served_key,
        Deployment::Cluster { .. } => "coordinator.round_s",
    };

    // Share of the net / cluster rows that directly timed calls cover.
    let reports_per_round = s.median("engine.submitted");
    let frames_per_round = s.median("wire.frames");
    let codec_s = (s.median("wire.encode_ns_per_report") + s.median("wire.decode_ns_per_report"))
        * reports_per_round
        / 1e9
        + s.median("decode.ns_per_frame") * frames_per_round / 1e9;
    let unexplained_pct = match workload.deployment {
        Deployment::Engine => 0.0,
        Deployment::Served { .. } => {
            let round_trips = if f.pipelined { 0.0 } else { frames_per_round };
            let explained = codec_s + round_trips * s.median("frontend.noop_rtt_us") / 1e6;
            100.0 * (rows.net_s - explained) / rows.net_s
        }
        Deployment::Cluster { .. } => {
            let explained = codec_s
                + (s.median("node.prepare_ms") + s.median("node.commit_ms")) / 1e3
                + (s.median("coordinator.close_ms") - s.median("E.close_ms")) / 1e3;
            100.0 * (rows.cluster_s - explained) / rows.cluster_s
        }
    };

    // Paired per round: the traced twin against the untraced one.
    let overhead: Vec<f64> = s
        .get("T.on.round_s")
        .iter()
        .zip(s.get("T.off.round_s"))
        .map(|(on, off)| 100.0 * (on - off) / off)
        .collect();
    let campaign_overhead: Vec<f64> = s
        .get("C.round_s")
        .iter()
        .zip(s.get("B.round_s"))
        .map(|(c, b)| (c - b) * 1e3)
        .collect();
    // The close-latency tail of the top rung; with too few rounds for a
    // percentile above the median to repeat, the median itself.
    let close_key = match workload.deployment {
        Deployment::Engine => "C.close_ms",
        Deployment::Served { .. } if f.pipelined => "D.pipe.close_ms",
        Deployment::Served { .. } => "D.served.close_ms",
        Deployment::Cluster { .. } => "coordinator.close_ms",
    };
    let (close_hi, close_hi_pct) = stats::highest_supported_percentile(s.get(close_key))
        .unwrap_or((s.median(close_key), 50.0));
    let rounds = f.rounds as f64;

    let values: Vec<(&str, f64)> = vec![
        (
            "loadgen.gen_ns_per_report",
            s.median("loadgen.gen_ns_per_report"),
        ),
        ("core.respond_ns_per_report", f.respond_ns),
        (
            "shard.ingest_ns_per_report",
            s.median("shard.ingest_ns_per_report"),
        ),
        (
            "shard.finish_epoch_ms_p50",
            s.median("shard.finish_epoch_ms"),
        ),
        ("truth.load_shards_ms_p50", s.median("truth.load_shards_ms")),
        ("truth.merge_ms_p50", s.median("truth.merge_ms")),
        ("truth.merge_leaves", s.median("truth.merge_leaves")),
        ("truth.merge_claims", s.median("truth.merge_claims")),
        ("truth.leaf_occupancy", s.median("truth.leaf_occupancy")),
        ("engine.run_ms_p50", medians.engine * 1e3),
        ("engine.route_s", s.sum("engine.route_s") / rounds),
        ("engine.filter_s", s.sum("engine.filter_s") / rounds),
        ("engine.merge_s", s.sum("engine.merge_s") / rounds),
        (
            "engine.accept_ratio",
            s.sum("engine.accepted") / s.sum("engine.submitted"),
        ),
        ("engine.duplicates_discarded", s.sum("engine.duplicates")),
        ("engine.late_dropped", s.sum("engine.late")),
        ("engine.backpressure_stalls", s.sum("engine.stalls")),
        ("engine.max_queue_depth", s.max("engine.queue_depth")),
        (
            "campaign.round_overhead_ms_p50",
            stats::median(&campaign_overhead),
        ),
        ("budget.debits", f.debits as f64),
        ("budget.exhausted_users", f.exhausted_users as f64),
        ("wal.encode_ms_p50", s.median("wal.encode_ms")),
        ("wal.record_bytes_p50", s.median("wal.record_bytes")),
        ("wal.append_mem_ms_p50", s.median("wal.append_mem_ms")),
        ("wal.append_fsync_ms_p50", s.median("wal.append_fsync_ms")),
        ("store.append_ms_p50", s.median("store.append_ms")),
        ("store.append_ms_max", s.max("store.append_ms")),
        (
            "store.bytes_written_per_round",
            s.sum("store.bytes_written") / rounds,
        ),
        ("store.writes_per_round", s.sum("store.writes") / rounds),
        ("store.compactions", s.sum("store.compactions")),
        ("store.rotations", s.sum("store.rotations")),
        ("store.bytes_on_disk", s.median("store.bytes_on_disk")),
        (
            "store.reclaimable_bytes",
            s.median("store.reclaimable_bytes"),
        ),
        ("recovery.replay_ms_p50", s.median("recovery.replay_ms")),
        ("recovery.records_replayed", s.median("recovery.records")),
        (
            "wire.encode_ns_per_report",
            s.median("wire.encode_ns_per_report"),
        ),
        (
            "wire.decode_ns_per_report",
            s.median("wire.decode_ns_per_report"),
        ),
        ("wire.bytes_per_report", s.median("wire.bytes_per_report")),
        ("decode.ns_per_frame", s.median("decode.ns_per_frame")),
        (
            "registry.submit_ns_per_report",
            s.median("registry.submit_ms") * 1e6 / reports_per_round,
        ),
        ("registry.close_ms_p50", s.median("registry.close_ms")),
        ("frontend.noop_rtt_us_p50", s.median("frontend.noop_rtt_us")),
        ("frontend.io_threads", f.io_threads as f64),
        ("frontend.conn_refused", f.conn_refused as f64),
        ("client.submit_rtt_us_p50", s.median("client.submit_rtt_us")),
        (
            "client.submit_rtt_us_p99",
            stats::quantile(s.get("client.submit_rtt_us"), 0.99),
        ),
        ("client.close_ms_hi", close_hi),
        ("client.close_hi_pct", close_hi_pct),
        ("client.busy_refusals", f.busy_refusals as f64),
        ("partitioner.map_ms", f.map_ms),
        ("partitioner.skew", f.skew),
        (
            "coordinator.submit_ms_p50",
            s.median("coordinator.submit_ms"),
        ),
        ("coordinator.close_ms_p50", s.median("coordinator.close_ms")),
        ("node.prepare_ms_p50", s.median("node.prepare_ms")),
        ("node.commit_ms_p50", s.median("node.commit_ms")),
        (
            "replication.apply_ns_per_byte",
            s.median("replication.apply_ns_per_byte"),
        ),
        (
            "replication.bytes_per_round",
            f.replica_bytes as f64 / (rounds + TRACE_WARMUP as f64),
        ),
        (
            "replication.close_overhead_ms_p50",
            s.median("coordinator.close_ms") - s.median("E.close_ms"),
        ),
        ("trace.overhead_pct", stats::median(&overhead)),
        ("ledger.truth_s", rows.truth_s),
        ("ledger.engine_s", rows.engine_s),
        ("ledger.campaign_s", rows.campaign_s),
        ("ledger.wal_s", rows.wal_s),
        ("ledger.registry_s", rows.registry_s),
        ("ledger.net_s", rows.net_s),
        ("ledger.cluster_s", rows.cluster_s),
        ("ledger.total_s", s.median(top_key)),
        ("ledger.unexplained_pct", unexplained_pct),
        ("host.nproc", host::nproc() as f64),
        ("host.calib_ms_p50", f.calib_ms),
    ];

    // Report exactly the declared metrics, in declared order.
    if values.len() != PER_LAYER.len() {
        return Err(format!(
            "{} per-layer values computed, {} declared",
            values.len(),
            PER_LAYER.len()
        ));
    }
    let total = rows.total_s();
    let top = s.median(top_key);
    if (total - top).abs() > 0.01 * top {
        return Err(format!(
            "ledger rows sum to {total:.6} s, the top rung takes {top:.6} s"
        ));
    }
    PER_LAYER
        .iter()
        .map(|declared| {
            values
                .iter()
                .find(|(name, _)| *name == declared.name)
                .map(|(_, value)| Metric {
                    name: declared.name,
                    value: *value,
                    unit: declared.unit,
                })
                .ok_or_else(|| format!("declared metric {} was not measured", declared.name))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn ledger_rows_sum_to_the_top_rung_for_every_deployment() {
        let m = RungMedians {
            truth: 0.05,
            engine: 0.20,
            campaign: 0.21,
            campaign_store: 0.26,
            registry: 0.29,
            served: 0.40,
            cluster_followed: 0.55,
        };
        for w in &WORKLOADS {
            let rows = ledger(w.deployment, &m);
            let top = match w.deployment {
                Deployment::Engine => m.campaign,
                Deployment::Served { .. } => m.served,
                Deployment::Cluster { .. } => m.cluster_followed,
            };
            assert!((rows.total_s() - top).abs() < 1e-12, "{}", w.name);
        }
        // A volatile campaign writes no log: its WAL row is empty.
        let volatile = ledger(WORKLOADS[1].deployment, &m);
        assert_eq!(volatile.wal_s, 0.0);
        assert!((volatile.registry_s - 0.08).abs() < 1e-12);
        let durable = ledger(WORKLOADS[2].deployment, &m);
        assert!((durable.wal_s - 0.05).abs() < 1e-12);
    }
}
