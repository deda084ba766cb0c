//! The rungs of a traced run: what each calls, and what it samples.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dptd_cluster::{NodeConfig, NodeServer, ReplicaApplier};
use dptd_core::roles::{HyperParameter, User};
use dptd_engine::shard::ShardState;
use dptd_engine::store::{read_dir, DirFs, ObservedFs};
use dptd_engine::{
    recovery::recover_replay, Engine, EpochRecord, FileWal, MemWal, RecordKind, RecordLog,
    SegmentStore, StoreObserver, WalPolicy, WalWriter,
};
use dptd_protocol::message::StampedReport;
use dptd_server::{Client, FrameDecoder, Request, StoreOp};
use dptd_stats::digest::fnv1a_f64s;
use dptd_truth::columnar::{ColumnarBatch, LEAF_SPAN};
use dptd_truth::streaming::{ShardClaims, StreamingCrh};
use dptd_truth::Loss;

use super::spans::{Samples, Tracer};
use crate::scratch::Scratch;
use crate::spec::Workload;
use crate::worlds::{err, RoundSummary, ServedWorld, Shape, World, RETRY};

/// Cheapest-request round trips probed per round.
const NOOP_PROBES: usize = 16;

/// `User::respond` calls timed for `core.respond_ns_per_report`.
const RESPOND_CALLS: usize = 20_000;

/// Rung A: the engine's pipeline assembled by hand from its parts, on
/// one thread.
pub(super) struct ShardTruthRung {
    lane: usize,
    shards: Vec<ShardState>,
    arena: ColumnarBatch,
    crh: StreamingCrh,
}

impl ShardTruthRung {
    pub(super) fn start(shape: &Shape, lane: usize) -> Result<Self, String> {
        let cfg = shape.engine_config();
        Ok(Self {
            lane,
            shards: (0..cfg.num_shards)
                .map(|s| {
                    ShardState::new(
                        s,
                        cfg.num_shards,
                        cfg.num_users,
                        cfg.num_objects,
                        cfg.epoch_deadline_us,
                        cfg.loss,
                    )
                })
                .collect(),
            arena: ColumnarBatch::new(cfg.num_users, cfg.num_objects),
            crh: StreamingCrh::new(cfg.num_users, cfg.loss).map_err(err("estimator"))?,
        })
    }

    /// Returns the round's weights digest.
    pub(super) fn round(
        &mut self,
        tracer: &mut Tracer,
        samples: Option<&mut Samples>,
        epoch: u64,
        reports: Vec<StampedReport>,
    ) -> Result<u64, String> {
        let submitted = reports.len() as f64;
        let num_shards = self.shards.len();
        let round = tracer.open("A.round", self.lane, epoch, None);
        let shards = &mut self.shards;
        let ((), ingest_s) = tracer.time("shard.ingest", self.lane, epoch, Some(round), || {
            for stamped in reports {
                let shard = stamped.report.user % num_shards;
                shards[shard].ingest(stamped);
            }
        });
        let (claims, finish_s) =
            tracer.time("shard.finish_epoch", self.lane, epoch, Some(round), || {
                shards
                    .iter_mut()
                    .map(|s| s.finish_epoch().0)
                    .collect::<Vec<ShardClaims>>()
            });
        let arena = &mut self.arena;
        let (loaded, load_s) =
            tracer.time("truth.load_shards", self.lane, epoch, Some(round), || {
                arena.load_shards(&claims)
            });
        loaded.map_err(err("load_shards"))?;
        let crh = &mut self.crh;
        let (merged, merge_s) = tracer.time("truth.merge", self.lane, epoch, Some(round), || {
            crh.ingest_columnar_with_workers(arena, 0)
        });
        merged.map_err(err("merge"))?;
        let total_s = tracer.close(round);
        if let Some(samples) = samples {
            let occupied = {
                let mut leaves: Vec<usize> =
                    self.arena.users().iter().map(|u| u / LEAF_SPAN).collect();
                leaves.dedup();
                leaves.len()
            };
            samples.push("A.round_s", total_s);
            samples.push("A.truth_s", load_s + merge_s);
            samples.push("shard.ingest_ns_per_report", ingest_s * 1e9 / submitted);
            samples.push("shard.finish_epoch_ms", finish_s * 1e3);
            samples.push("truth.load_shards_ms", load_s * 1e3);
            samples.push("truth.merge_ms", merge_s * 1e3);
            samples.push("truth.merge_leaves", self.arena.num_leaves() as f64);
            samples.push("truth.merge_claims", self.arena.num_claims() as f64);
            samples.push(
                "truth.leaf_occupancy",
                occupied as f64 / self.arena.num_leaves() as f64,
            );
        }
        Ok(fnv1a_f64s(self.crh.weights()))
    }
}

/// Rung B: `Engine::run_with_state`, the estimator carried by hand.
pub(super) struct EngineRung {
    lane: usize,
    engine: Engine,
    crh: Option<StreamingCrh>,
}

impl EngineRung {
    pub(super) fn start(shape: &Shape, lane: usize) -> Result<Self, String> {
        let cfg = shape.engine_config();
        Ok(Self {
            lane,
            engine: Engine::new(cfg).map_err(err("engine"))?,
            crh: Some(StreamingCrh::new(cfg.num_users, cfg.loss).map_err(err("estimator"))?),
        })
    }

    pub(super) fn round(
        &mut self,
        tracer: &mut Tracer,
        samples: Option<&mut Samples>,
        epoch: u64,
        reports: Vec<StampedReport>,
    ) -> Result<u64, String> {
        let state = self.crh.take().expect("estimator is put back every round");
        let engine = &self.engine;
        let (out, run_s) = tracer.time("engine.run_with_state", self.lane, epoch, None, || {
            engine.run_with_state(state, reports)
        });
        let (report, state) = out.map_err(err("run_with_state"))?;
        self.crh = Some(state);
        if let Some(samples) = samples {
            let m = &report.metrics;
            samples.push("B.round_s", run_s);
            samples.push("engine.route_s", m.stage.route.as_secs_f64());
            samples.push("engine.filter_s", m.stage.filter.as_secs_f64());
            samples.push("engine.merge_s", m.stage.merge.as_secs_f64());
            samples.push("engine.submitted", m.reports_submitted as f64);
            samples.push("engine.accepted", m.reports_accepted as f64);
            samples.push("engine.duplicates", m.duplicates_discarded as f64);
            samples.push("engine.late", m.late_dropped as f64);
            samples.push("engine.stalls", m.backpressure_stalls as f64);
            samples.push("engine.queue_depth", m.max_queue_depth as f64);
        }
        Ok(fnv1a_f64s(&report.final_weights))
    }
}

/// One durable node driven directly: the benchmark plays coordinator of
/// a one-node cluster so that prepare and commit can be timed apart.
pub(super) struct NodeRung {
    lane: usize,
    node: NodeServer,
    client: Client,
    campaign: String,
    crh: StreamingCrh,
    debits: Vec<u32>,
    objects: usize,
    chunk: usize,
}

impl NodeRung {
    pub(super) fn start(
        shape: &Shape,
        campaign: &str,
        root: &Path,
        chunk: usize,
        lane: usize,
    ) -> Result<Self, String> {
        let node = NodeServer::start(NodeConfig {
            wal_root: Some(root.to_path_buf()),
            ..NodeConfig::default()
        })
        .map_err(err("start node"))?;
        let mut client = Client::connect(node.local_addr()).map_err(err("connect node"))?;
        client.node_hello(0, 1).map_err(err("node hello"))?;
        let resumed = client
            .create_campaign(campaign, shape.node_spec(shape.users))
            .map_err(err("create partition"))?;
        if resumed != 0 {
            return Err(format!("partition `{campaign}` resumed {resumed} rounds"));
        }
        Ok(Self {
            lane,
            node,
            client,
            campaign: campaign.to_string(),
            crh: StreamingCrh::new(shape.users, Loss::Squared).map_err(err("estimator"))?,
            debits: vec![0; shape.users],
            objects: shape.objects,
            chunk,
        })
    }

    pub(super) fn round(
        &mut self,
        tracer: &mut Tracer,
        samples: Option<&mut Samples>,
        epoch: u64,
        reports: &[StampedReport],
    ) -> Result<u64, String> {
        let round = tracer.open("N.round", self.lane, epoch, None);
        let (client, campaign, chunk) = (&mut self.client, &self.campaign, self.chunk);
        let (sent, _) = tracer.time("node.submit", self.lane, epoch, Some(round), || {
            client.submit_chunked_with_retry(campaign, reports, chunk, RETRY)
        });
        sent.map_err(err("node submit"))?;
        let (prepared, prepare_s) =
            tracer.time("node.prepare", self.lane, epoch, Some(round), || {
                client.close_round_prepare(campaign, epoch, Vec::new())
            });
        let prepared = prepared.map_err(err("node prepare"))?;
        // With one node, local ids are global ids.
        let mut accepted: Vec<u64> = Vec::with_capacity(prepared.claims.len());
        let mut shard = ShardClaims::new();
        for claim in prepared.claims {
            accepted.push(claim.user as u64);
            shard.push(claim.user, claim.values);
        }
        accepted.sort_unstable();
        self.crh
            .ingest_sharded(self.objects, vec![shard])
            .map_err(err("node merge"))?;
        for &user in &accepted {
            self.debits[user as usize] += 1;
        }
        let (batches, losses, debits) = (
            self.crh.batches_seen() as u64,
            self.crh.cumulative_losses().to_vec(),
            self.debits.clone(),
        );
        let (committed, commit_s) =
            tracer.time("node.commit", self.lane, epoch, Some(round), || {
                client.close_round_commit(campaign, epoch, batches, accepted, losses, debits)
            });
        if !committed.map_err(err("node commit"))? {
            return Err(format!("node commit of epoch {epoch} appended nothing"));
        }
        tracer.close(round);
        if let Some(samples) = samples {
            samples.push("node.prepare_ms", prepare_s * 1e3);
            samples.push("node.commit_ms", commit_s * 1e3);
        }
        Ok(fnv1a_f64s(self.crh.weights()))
    }

    pub(super) fn finish(self) {
        drop(self.client);
        self.node.shutdown();
    }
}

/// Counts what a store writes.
#[derive(Debug, Default)]
struct WriteCounter {
    writes: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

impl StoreObserver for WriteCounter {
    fn on_append(&mut self, _name: &str, bytes: &[u8]) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }
    fn on_write_atomic(&mut self, _name: &str, bytes: &[u8]) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }
    fn on_truncate(&mut self, _name: &str, _len: u64) {}
    fn on_remove(&mut self, _name: &str) {}
}

/// The durability layers called directly with the round's own record:
/// encode, a memory log, an fsynced single-segment log, the segment
/// store, and a follower's replica applier.
pub(super) struct StoreRung {
    lane: usize,
    policy: WalPolicy,
    debits: Vec<u32>,
    mem: WalWriter,
    file: WalWriter,
    store: SegmentStore,
    store_dir: PathBuf,
    writes: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
    replica: ReplicaApplier,
    users: usize,
}

impl StoreRung {
    pub(super) fn start(
        workload: &Workload,
        shape: &Shape,
        scratch: &Scratch,
        lane: usize,
    ) -> Result<Self, String> {
        let (mem, _) = WalWriter::open(Box::new(MemWal::new())).map_err(err("memory log"))?;
        let file_dir = scratch.fresh("S-filewal")?;
        let (file, _) =
            WalWriter::open(Box::new(FileWal::open(&file_dir).map_err(err("file log"))?))
                .map_err(err("file log"))?;
        let store_dir = scratch.fresh("S-store")?;
        let counter = WriteCounter::default();
        let (writes, bytes) = (Arc::clone(&counter.writes), Arc::clone(&counter.bytes));
        let fs = ObservedFs::new(
            Box::new(DirFs::open(&store_dir).map_err(err("store dir"))?),
            Box::new(counter),
        );
        let (store, _) =
            SegmentStore::open(Box::new(fs), workload.store()).map_err(err("open store"))?;
        let replica_dir = scratch.fresh("S-replica")?;
        let replica = ReplicaApplier::new(Box::new(
            DirFs::open(&replica_dir).map_err(err("replica dir"))?,
        ));
        Ok(Self {
            lane,
            policy: WalPolicy::from_campaign(&shape.campaign_config()),
            debits: vec![0; shape.users],
            mem,
            file,
            store,
            store_dir,
            writes,
            bytes,
            replica,
            users: shape.users,
        })
    }

    /// Log the round rung A just merged.
    pub(super) fn round(
        &mut self,
        tracer: &mut Tracer,
        samples: Option<&mut Samples>,
        epoch: u64,
        merged: &ShardTruthRung,
    ) -> Result<(), String> {
        let accepted = merged.arena.users().to_vec();
        for &user in &accepted {
            self.debits[user] += 1;
        }
        let record = EpochRecord {
            kind: RecordKind::Epoch,
            epoch,
            batches_seen: merged.crh.batches_seen() as u64,
            loss: Loss::Squared,
            policy: self.policy,
            accepted_users: accepted,
            cumulative_losses: merged.crh.cumulative_losses().to_vec(),
            rounds_debited: self.debits.clone(),
        };
        let lane = self.lane;
        let round = tracer.open("S.round", lane, epoch, None);
        let (frame, encode_s) =
            tracer.time("wal.encode", lane, epoch, Some(round), || record.encode());
        let (mem, file, store, replica) = (
            &mut self.mem,
            &mut self.file,
            &mut self.store,
            &mut self.replica,
        );
        let (r, mem_s) = tracer.time("wal.append_mem", lane, epoch, Some(round), || {
            mem.append(&record)
        });
        r.map_err(err("memory append"))?;
        let (r, fsync_s) = tracer.time("wal.append_fsync", lane, epoch, Some(round), || {
            file.append(&record)
        });
        r.map_err(err("file append"))?;
        let (since_snapshot, active) = (store.records_since_snapshot(), store.manifest().active());
        let (writes0, bytes0) = (
            self.writes.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        );
        let (r, store_s) = tracer.time("store.append", lane, epoch, Some(round), || {
            store.append_record(&record)
        });
        r.map_err(err("store append"))?;
        let compacted = store.records_since_snapshot() <= since_snapshot;
        let rotated = store.manifest().active() != active;
        let seq = replica.next_seq();
        let (r, apply_s) = tracer.time("replication.apply", lane, epoch, Some(round), || {
            replica.apply(seq, StoreOp::Append, "segment-000.wal", 0, &frame)
        });
        r.map_err(err("replica apply"))?;
        tracer.close(round);
        // Compactions and rotations are counted over every round, the
        // timings only over sampled ones.
        if let Some(samples) = samples {
            samples.push("wal.encode_ms", encode_s * 1e3);
            samples.push("wal.record_bytes", frame.len() as f64);
            samples.push("wal.append_mem_ms", mem_s * 1e3);
            samples.push("wal.append_fsync_ms", fsync_s * 1e3);
            samples.push("store.append_ms", store_s * 1e3);
            samples.push(
                "store.bytes_written",
                (self.bytes.load(Ordering::Relaxed) - bytes0) as f64,
            );
            samples.push(
                "store.writes",
                (self.writes.load(Ordering::Relaxed) - writes0) as f64,
            );
            samples.push("store.compactions", f64::from(u8::from(compacted)));
            samples.push("store.rotations", f64::from(u8::from(rotated)));
            samples.push(
                "replication.apply_ns_per_byte",
                apply_s * 1e9 / frame.len() as f64,
            );
        }
        Ok(())
    }

    /// Close the store, then time read-only recovery of its directory
    /// and check it lands on the state rung A holds.
    pub(super) fn finish(
        self,
        tracer: &mut Tracer,
        samples: &mut Samples,
        merged: &ShardTruthRung,
    ) -> Result<(), String> {
        let Self {
            lane,
            mut store,
            store_dir,
            debits,
            users,
            ..
        } = self;
        store.sync().map_err(err("sync store"))?;
        drop(store);
        for attempt in 0..5 {
            let (recovered, replay_s) = tracer.time("recovery.replay", lane, attempt, None, || {
                read_dir(&store_dir)
                    .map_err(err("reopen store"))
                    .and_then(|stored| {
                        recover_replay(&stored.replay, users, Loss::Squared, None)
                            .map(|state| (stored, state))
                            .map_err(err("recover"))
                    })
            });
            let (stored, state) = recovered?;
            if fnv1a_f64s(state.crh.weights()) != fnv1a_f64s(merged.crh.weights())
                || state.rounds_debited != debits
            {
                return Err("the directly driven store did not recover its live state".to_string());
            }
            samples.push("recovery.replay_ms", replay_s * 1e3);
            samples.push("recovery.records", stored.replay.records.len() as f64);
            samples.push("store.bytes_on_disk", stored.total_bytes() as f64);
            samples.push("store.reclaimable_bytes", stored.reclaimable_bytes() as f64);
        }
        Ok(())
    }
}

/// The wire codec and the frame decoder on the round's own batches.
pub(super) fn wire_round(
    tracer: &mut Tracer,
    samples: Option<&mut Samples>,
    lane: usize,
    epoch: u64,
    reports: &[StampedReport],
    batch: usize,
) -> Result<(), String> {
    let requests: Vec<Request> = reports
        .chunks(batch)
        .map(|chunk| Request::SubmitReports {
            campaign: "wire".to_string(),
            reports: chunk.to_vec(),
            ctx: None,
        })
        .collect();
    let round = tracer.open("W.round", lane, epoch, None);
    let (frames, encode_s) = tracer.time("wire.encode", lane, epoch, Some(round), || {
        requests.iter().map(Request::encode).collect::<Vec<_>>()
    });
    let stream: Vec<u8> = frames.concat();
    let (bodies, frame_s) = tracer.time("decode.frames", lane, epoch, Some(round), || {
        let mut decoder = FrameDecoder::new();
        let mut bodies = Vec::with_capacity(frames.len());
        // The reactor reads sockets in 64 KiB slices.
        for slice in stream.chunks(64 << 10) {
            decoder.extend(slice);
            while let Some(body) = decoder.next_frame()? {
                bodies.push(body);
            }
        }
        Ok::<_, dptd_server::WireError>(bodies)
    });
    let bodies = bodies.map_err(err("frame decode"))?;
    let (decoded, decode_s) = tracer.time("wire.decode", lane, epoch, Some(round), || {
        bodies
            .iter()
            .map(|body| Request::decode(body))
            .collect::<Result<Vec<_>, _>>()
    });
    tracer.close(round);
    if decoded.map_err(err("wire decode"))? != requests {
        return Err("wire round trip changed a request".to_string());
    }
    if let Some(samples) = samples {
        let n = reports.len() as f64;
        samples.push("wire.encode_ns_per_report", encode_s * 1e9 / n);
        samples.push("wire.decode_ns_per_report", decode_s * 1e9 / n);
        samples.push("wire.bytes_per_report", stream.len() as f64 / n);
        samples.push("decode.ns_per_frame", frame_s * 1e9 / frames.len() as f64);
        samples.push("wire.frames", frames.len() as f64);
    }
    Ok(())
}

/// `core.respond_ns_per_report`: the client-side perturbation, which
/// the generator runs once per report.
pub(super) fn respond_ns_per_report(objects: usize) -> Result<f64, String> {
    let mut rng = dptd_stats::seeded_rng(7);
    let measurements: Vec<(usize, f64)> = (0..objects).map(|n| (n, 20.0 + n as f64)).collect();
    let hyper = HyperParameter { lambda2: 4.0 };
    let t0 = Instant::now();
    for user in 0..RESPOND_CALLS {
        let report = User::new(user)
            .respond(&measurements, hyper, &mut rng)
            .map_err(err("respond"))?;
        std::hint::black_box(report);
    }
    Ok(t0.elapsed().as_secs_f64() * 1e9 / RESPOND_CALLS as f64)
}

/// A rung that is a whole [`World`]. Its spans are `<prefix>.round`,
/// `.submit` and `.close`; its samples `<prefix>.round_s`, `.submit_ms`
/// and `.close_ms`.
pub(super) struct WorldRung {
    pub(super) lane: usize,
    pub(super) prefix: &'static str,
    pub(super) world: Box<dyn World>,
}

impl WorldRung {
    pub(super) fn round(
        &mut self,
        tracer: &mut Tracer,
        samples: Option<&mut Samples>,
        epoch: u64,
        mut reports: Vec<StampedReport>,
    ) -> Result<(u64, RoundSummary), String> {
        let (lane, prefix) = (self.lane, self.prefix);
        let world = self.world.as_mut();
        let frames = world.frames(&reports);
        let round = tracer.open(&format!("{prefix}.round"), lane, epoch, None);
        let (sent, submit_s) = tracer.time(
            &format!("{prefix}.submit"),
            lane,
            epoch,
            Some(round),
            || world.submit(&mut reports),
        );
        sent?;
        let (summary, close_s) =
            tracer.time(&format!("{prefix}.close"), lane, epoch, Some(round), || {
                world.close(epoch)
            });
        let summary = summary?;
        tracer.close(round);
        if let Some(samples) = samples {
            samples.push(&format!("{prefix}.round_s"), submit_s + close_s);
            samples.push(&format!("{prefix}.submit_ms"), submit_s * 1e3);
            samples.push(&format!("{prefix}.close_ms"), close_s * 1e3);
        }
        Ok((frames, summary))
    }
}

/// The request/reply TCP rung, submitting batch by batch so that every
/// round trip is timed, and probing the cheapest request afterwards.
pub(super) struct ServedRung {
    pub(super) lane: usize,
    pub(super) world: ServedWorld,
    pub(super) batch: usize,
}

impl ServedRung {
    pub(super) fn round(
        &mut self,
        tracer: &mut Tracer,
        mut samples: Option<&mut Samples>,
        epoch: u64,
        reports: &[StampedReport],
    ) -> Result<(u64, RoundSummary), String> {
        let lane = self.lane;
        let round = tracer.open("D.served.round", lane, epoch, None);
        let submit = tracer.open("D.served.submit", lane, epoch, Some(round));
        let mut frames = 0;
        for batch in reports.chunks(self.batch) {
            let world = &mut self.world;
            let (sent, rtt_s) = tracer.time("client.submit", lane, epoch, Some(submit), || {
                world.submit_batch(batch)
            });
            sent?;
            frames += 1;
            if let Some(samples) = samples.as_deref_mut() {
                samples.push("client.submit_rtt_us", rtt_s * 1e6);
            }
        }
        let submit_s = tracer.close(submit);
        let world = &mut self.world;
        let (summary, close_s) = tracer.time("D.served.close", lane, epoch, Some(round), || {
            world.close(epoch)
        });
        let summary = summary?;
        tracer.close(round);
        // The cheapest request the front end answers: an empty submit.
        for _ in 0..NOOP_PROBES {
            let world = &mut self.world;
            let (sent, rtt_s) = tracer.time("frontend.noop", lane, epoch, None, || {
                world.submit_batch(&[])
            });
            sent?;
            if let Some(samples) = samples.as_deref_mut() {
                samples.push("frontend.noop_rtt_us", rtt_s * 1e6);
            }
        }
        if let Some(samples) = samples {
            samples.push("D.served.round_s", submit_s + close_s);
            samples.push("D.served.close_ms", close_s * 1e3);
        }
        Ok((frames, summary))
    }
}
