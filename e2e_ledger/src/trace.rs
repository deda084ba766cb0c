//! The traced run: the per-layer ledger.
//!
//! Every round of the workload's own stream is generated once and fed to
//! a ladder of *rungs*, each one layer taller than the last:
//!
//! ```text
//! A  ShardState::ingest/finish_epoch + ColumnarBatch::load_shards
//!    + StreamingCrh::ingest_columnar_with_workers      (shard, truth)
//! B  Engine::run_with_state                             (engine)
//! C  CampaignDriver::run_round, no log / MemWal / store (campaign, wal)
//! D  CampaignRegistry::handle in process, then over TCP (registry, net)
//! E  ClusterCampaign without / with followers           (cluster)
//! ```
//!
//! plus direct calls into the layers no rung isolates (WAL encode and
//! append, the segment store, recovery, the wire codec, the frame
//! decoder, one node's prepare/commit, the replica applier). A layer's
//! self time is its rung minus the rung below on the same reports. All
//! timing is done here, around calls into public functions: a span per
//! call (name, start, end, parent, round) is kept in memory and written
//! out as a chrome trace when the run ends. No span is added inside the
//! program.

mod ledger;
mod rungs;
mod spans;

use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

use dptd_cluster::rendezvous_map;
use dptd_engine::LoadGen;

use crate::host::Calibration;
use crate::run::{check_round, RunOptions, RunReport};
use crate::scratch::Scratch;
use crate::spec::{Deployment, Workload, TRACE_ROUNDS};
use crate::worlds::{
    err, ClusterWorld, EngineLog, EngineWorld, RegistryWorld, ServedWorld, SubmitMode, World,
    CLUSTER_NODES,
};
use ledger::{metrics, Facts};
use rungs::{
    respond_ns_per_report, wire_round, EngineRung, NodeRung, ServedRung, ShardTruthRung, StoreRung,
    WorldRung,
};
use spans::{Samples, Tracer};

/// Rounds every rung runs before its samples count.
const TRACE_WARMUP: u64 = 2;

pub fn run(workload: &Workload, opts: RunOptions, scratch: &Scratch, results: &Path) -> RunReport {
    let mut report = RunReport::default();
    let mut tracer = Tracer::new();
    if let Err(e) = drive(workload, opts, scratch, &mut tracer, &mut report) {
        report.failed += 1;
        report.errors.push(e);
    }
    let path = results.join(format!("{}-trace.json", workload.name));
    match std::fs::write(&path, tracer.chrome_json()) {
        Ok(()) => report
            .notes
            .push(("trace_file", path.display().to_string())),
        Err(e) => report
            .errors
            .push(format!("write `{}`: {e}", path.display())),
    }
    report.attempted = report.attempted.max(1);
    report
}

fn drive(
    workload: &Workload,
    opts: RunOptions,
    scratch: &Scratch,
    tracer: &mut Tracer,
    report: &mut RunReport,
) -> Result<(), String> {
    let rounds = if opts.smoke { 3 } else { TRACE_ROUNDS };
    let last_epoch = TRACE_WARMUP + rounds - 1;
    let shape = workload.shape(opts.smoke, last_epoch + 1);
    let gen = LoadGen::new(workload.load(opts.smoke, opts.seed, last_epoch + 1))
        .map_err(err("load generator"))?;
    let pid = std::process::id();
    let id = |tag: &str| format!("{}-{pid}-{tag}", workload.name);

    // What the workload itself does, mirrored by the rungs that can:
    // durability of the serving rungs, batch size, and which of the two
    // served rungs (request/reply, pipelined) is the workload's own.
    let (durable, batch, pipelined) = match workload.deployment {
        Deployment::Engine => (false, 512, false),
        Deployment::Served { durable, mode, .. } => match mode {
            SubmitMode::RequestReply { batch } => (durable, batch, false),
            SubmitMode::Pipelined { batch, .. } => (durable, batch, true),
        },
        Deployment::Cluster { chunk } => (true, chunk, false),
    };
    let store = workload.store();
    let durable_dir = |tag: &str| -> Result<Option<_>, String> {
        durable
            .then(|| scratch.fresh(tag).map(|dir| (dir, store)))
            .transpose()
    };

    let mut rung_a = ShardTruthRung::start(&shape, tracer.lane("A shard+truth"))?;
    let mut rung_b = EngineRung::start(&shape, tracer.lane("B engine"))?;
    let mut rung_c = WorldRung {
        lane: tracer.lane("C campaign"),
        prefix: "C",
        world: Box::new(EngineWorld::start(&shape, EngineLog::None)?),
    };
    let mut rung_c_mem = WorldRung {
        lane: tracer.lane("C campaign+memwal"),
        prefix: "C.mem",
        world: Box::new(EngineWorld::start(&shape, EngineLog::Memory)?),
    };
    let mut rung_c_store = WorldRung {
        lane: tracer.lane("C campaign+store"),
        prefix: "C.store",
        world: Box::new(EngineWorld::start(
            &shape,
            EngineLog::Store(scratch.fresh("C-store")?, store),
        )?),
    };
    let mut rung_d = WorldRung {
        lane: tracer.lane("D registry"),
        prefix: "registry",
        world: Box::new(RegistryWorld::start(
            &shape,
            &id("registry"),
            durable_dir("D-registry")?,
            batch,
        )?),
    };
    let mut rung_d_tcp = ServedRung {
        lane: tracer.lane("D served"),
        world: ServedWorld::start(
            &shape,
            &id("served"),
            durable_dir("D-served")?,
            SubmitMode::RequestReply { batch },
        )?,
        batch,
    };
    let mut rung_d_pipe = WorldRung {
        lane: tracer.lane("D served pipelined"),
        prefix: "D.pipe",
        world: Box::new(ServedWorld::start(
            &shape,
            &id("pipe"),
            durable_dir("D-pipe")?,
            SubmitMode::Pipelined { batch, window: 8 },
        )?),
    };
    let mut rung_e = WorldRung {
        lane: tracer.lane("E cluster"),
        prefix: "E",
        world: Box::new(ClusterWorld::start(
            &shape,
            &id("cluster"),
            &scratch.fresh("E-cluster")?,
            false,
            batch,
        )?),
    };
    let mut rung_e_followed = WorldRung {
        lane: tracer.lane("E cluster+followers"),
        prefix: "coordinator",
        world: Box::new(ClusterWorld::start(
            &shape,
            &id("followed"),
            &scratch.fresh("E-followed")?,
            true,
            batch,
        )?),
    };
    let mut rung_n = NodeRung::start(
        &shape,
        &id("node"),
        &scratch.fresh("N-node")?,
        batch,
        tracer.lane("N one node, driven directly"),
    )?;
    let mut rung_s = StoreRung::start(workload, &shape, scratch, tracer.lane("S wal+store"))?;
    let lane_w = tracer.lane("W wire+decode");
    // The workload's own deployment twice more, one twin driven with
    // the program's own tracing switched on, for `trace.overhead_pct`.
    let mut rung_t_off = WorldRung {
        lane: tracer.lane("T top rung, dptd_obs tracing off"),
        prefix: "T.off",
        world: crate::run::build_world(workload, &shape, scratch, 0)?,
    };
    let mut rung_t_on = WorldRung {
        lane: tracer.lane("T top rung, dptd_obs tracing on"),
        prefix: "T.on",
        world: crate::run::build_world(workload, &shape, scratch, 1)?,
    };

    let (map, map_s) = {
        let t0 = Instant::now();
        let map = rendezvous_map(shape.users, CLUSTER_NODES as usize).map_err(err("partition"))?;
        (map, t0.elapsed().as_secs_f64())
    };
    let largest = (0..map.num_nodes())
        .map(|n| map.population(n))
        .max()
        .unwrap_or(0);
    let skew = largest as f64 * map.num_nodes() as f64 / shape.users as f64;
    drop(map);
    let respond_ns = respond_ns_per_report(shape.objects)?;

    let mut samples = Samples::default();
    let mut calib = Calibration::new();
    for epoch in 0..=last_epoch {
        let sampled = epoch >= TRACE_WARMUP;
        let gen_t0 = Instant::now();
        let reports = gen.epoch_reports(epoch);
        let gen_s = gen_t0.elapsed().as_secs_f64();
        let submitted = reports.len();
        calib.probe();
        macro_rules! sink {
            () => {
                sampled.then_some(&mut samples)
            };
        }
        if let Some(samples) = sink!() {
            samples.push("loadgen.gen_ns_per_report", gen_s * 1e9 / submitted as f64);
        }

        // Every rung gets its own copy, made outside its spans.
        let mut digests: Vec<(&'static str, u64)> = Vec::new();
        digests.push(("A", rung_a.round(tracer, sink!(), epoch, reports.clone())?));
        rung_s.round(tracer, sink!(), epoch, &rung_a)?;
        digests.push(("B", rung_b.round(tracer, sink!(), epoch, reports.clone())?));
        for rung in [&mut rung_c, &mut rung_c_mem, &mut rung_c_store, &mut rung_d] {
            let (_, summary) = rung.round(tracer, sink!(), epoch, reports.clone())?;
            check_round(&gen, epoch, submitted, &summary)?;
            digests.push((rung.prefix, summary.weights_digest));
        }
        let (_, summary) = rung_d_tcp.round(tracer, sink!(), epoch, &reports)?;
        check_round(&gen, epoch, submitted, &summary)?;
        digests.push(("D.served", summary.weights_digest));
        for rung in [&mut rung_d_pipe, &mut rung_e, &mut rung_e_followed] {
            let (_, summary) = rung.round(tracer, sink!(), epoch, reports.clone())?;
            check_round(&gen, epoch, submitted, &summary)?;
            digests.push((rung.prefix, summary.weights_digest));
        }
        digests.push(("N", rung_n.round(tracer, sink!(), epoch, &reports)?));
        wire_round(tracer, sink!(), lane_w, epoch, &reports, batch)?;

        // The twins run back to back on the same reports; which goes
        // first alternates, so order effects cancel.
        let mut twins = [(false, &mut rung_t_off), (true, &mut rung_t_on)];
        if epoch % 2 == 1 {
            twins.reverse();
        }
        for (traced, rung) in twins {
            dptd_obs::trace::set_enabled(traced);
            let out = rung.round(tracer, sink!(), epoch, reports.clone());
            dptd_obs::trace::set_enabled(false);
            let (frames, summary) = out?;
            check_round(&gen, epoch, submitted, &summary)?;
            digests.push((rung.prefix, summary.weights_digest));
            if sampled && !traced {
                report.attempted += frames + 1;
            }
        }

        if let Some((name, digest)) = digests.iter().find(|(_, d)| *d != digests[0].1) {
            return Err(format!(
                "round {epoch}: rung {name} holds digest {digest:016x}, rung A {:016x}",
                digests[0].1
            ));
        }
        report.weights_digest = digests[0].1;
    }

    // Tear every world down; durable ones check their own recovery.
    let served = rung_d_tcp.world;
    let busy_refusals = served.busy_refusals;
    let io_threads = served.server().frontend().io_threads();
    let conn_refused = served
        .server()
        .frontend()
        .stats()
        .refused
        .load(Ordering::Relaxed);
    Box::new(served).finish()?;
    let ledger_of_c = rung_c.world.finish()?;
    for rung in [
        rung_c_mem,
        rung_c_store,
        rung_d,
        rung_d_pipe,
        rung_e,
        rung_e_followed,
        rung_t_off,
        rung_t_on,
    ] {
        rung.world.finish()?;
    }
    rung_n.finish();
    let replica_bytes = dir_bytes(&scratch.path().join("E-followed"), "replica-");
    rung_s.finish(tracer, &mut samples, &rung_a)?;

    report.metrics = metrics(
        workload,
        &samples,
        &Facts {
            rounds,
            pipelined,
            debits: ledger_of_c.debits.iter().map(|&d| u64::from(d)).sum(),
            exhausted_users: ledger_of_c
                .debits
                .iter()
                .filter(|&&d| d >= shape.budget_rounds)
                .count(),
            respond_ns,
            map_ms: map_s * 1e3,
            skew,
            busy_refusals,
            io_threads,
            conn_refused,
            replica_bytes,
            calib_ms: calib.median_ms(),
        },
    )?;
    // The raw rung medians the ledger rows are differences of.
    report.notes.push((
        "rung_ms_p50",
        [
            ("A", "A.round_s"),
            ("B", "B.round_s"),
            ("C", "C.round_s"),
            ("C.mem", "C.mem.round_s"),
            ("C.store", "C.store.round_s"),
            ("D.registry", "registry.round_s"),
            ("D.served", "D.served.round_s"),
            ("D.pipe", "D.pipe.round_s"),
            ("E", "E.round_s"),
            ("E.followed", "coordinator.round_s"),
        ]
        .map(|(rung, key)| format!("{rung} {:.3}", samples.median(key) * 1e3))
        .join(", "),
    ));
    report.notes.push(("traced_rounds", rounds.to_string()));
    report
        .notes
        .push(("warmup_rounds", TRACE_WARMUP.to_string()));
    Ok(())
}

/// Bytes held by the files of every `<prefix>*` directory under `root`.
fn dir_bytes(root: &Path, prefix: &str) -> u64 {
    fn walk(dir: &Path) -> u64 {
        std::fs::read_dir(dir).map_or(0, |entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
    }
    std::fs::read_dir(root).map_or(0, |entries| {
        entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
            .map(|e| walk(&e.path()))
            .sum()
    })
}
