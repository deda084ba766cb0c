//! The deployments the benchmark drives — an in-process engine
//! campaign, a served campaign over loopback TCP, and a partitioned
//! cluster with followers — behind one closed-loop interface: hand a
//! round's reports over, then close the round.
//!
//! Every world is built fresh (own directories, own campaign id) by its
//! `start`, which is what `setup_s` times, and torn down by `finish`,
//! which also reopens whatever the world made durable and checks that
//! recovery lands on the live state.

use std::path::{Path, PathBuf};

use dptd_cluster::{rendezvous_map, ClusterCampaign, ClusterSpec, NodeConfig, NodeServer};
use dptd_engine::store::read_dir;
use dptd_engine::{
    recovery::recover_replay, Engine, EngineBackend, EngineConfig, MemWal, SegmentStore,
    StoreConfig, WalPolicy,
};
use dptd_ldp::PrivacyLoss;
use dptd_protocol::campaign::{CampaignConfig, CampaignDriver};
use dptd_protocol::message::StampedReport;
use dptd_server::client::SubmitOutcome;
use dptd_server::{
    CampaignRegistry, CampaignSpec, Client, RegistryConfig, Request, Response, RetryPolicy, Server,
    ServerConfig,
};
use dptd_stats::digest::fnv1a_f64s;
use dptd_truth::streaming::StreamingCrh;
use dptd_truth::Loss;

/// Virtual per-round deadline; the load generator's stragglers are
/// stamped past it.
pub const DEADLINE_US: u64 = 1_000_000;

/// Campaign sizing shared by every world of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub users: usize,
    pub objects: usize,
    pub shards: usize,
    /// Reports a campaign buffers between submit and close; sized so
    /// `Busy` pushback never occurs.
    pub capacity: u64,
    /// Rounds the privacy budget must afford; sized so no user is ever
    /// exhausted.
    pub budget_rounds: u32,
}

impl Shape {
    fn per_round() -> PrivacyLoss {
        PrivacyLoss::new(0.5, 1e-4).expect("constant loss is valid")
    }

    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            num_objects: self.objects,
            deadline_us: DEADLINE_US,
            per_round_loss: Self::per_round(),
            budget: Self::per_round().compose_k(self.budget_rounds),
        }
    }

    /// The engine an operator gets: `dptd`'s default queue depth, auto
    /// drain and merge workers.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            num_users: self.users,
            num_objects: self.objects,
            num_shards: self.shards,
            workers: 0,
            queue_capacity: 4_096,
            epoch_deadline_us: DEADLINE_US,
            loss: Loss::Squared,
            merge_workers: 0,
        }
    }

    fn campaign_spec(&self, durable: bool) -> CampaignSpec {
        let cfg = self.campaign_config();
        let engine = self.engine_config();
        CampaignSpec {
            num_users: self.users as u64,
            num_objects: self.objects as u64,
            num_shards: self.shards as u64,
            workers: engine.workers as u64,
            engine_queue: engine.queue_capacity as u64,
            deadline_us: DEADLINE_US,
            submission_capacity: self.capacity,
            per_round_epsilon: cfg.per_round_loss.epsilon(),
            per_round_delta: cfg.per_round_loss.delta(),
            budget_epsilon: cfg.budget.epsilon(),
            budget_delta: cfg.budget.delta(),
            stream_tag: 0,
            durable,
        }
    }

    /// The spec a coordinator hands a node for a partition of
    /// `local_users`: a node runs no engine, so the engine sizing fields
    /// are minimal.
    pub fn node_spec(&self, local_users: usize) -> CampaignSpec {
        CampaignSpec {
            num_users: local_users as u64,
            num_shards: 1,
            workers: 1,
            engine_queue: 1,
            ..self.campaign_spec(true)
        }
    }

    fn cluster_spec(&self) -> ClusterSpec {
        let cfg = self.campaign_config();
        ClusterSpec {
            num_users: self.users,
            num_objects: self.objects,
            deadline_us: DEADLINE_US,
            per_round_loss: cfg.per_round_loss,
            budget: cfg.budget,
            submission_capacity: self.capacity,
            stream_tag: 0,
            durable: true,
        }
    }
}

/// What closing one round reported.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    pub truths: Vec<f64>,
    pub accepted: u64,
    pub duplicates: u64,
    pub late: u64,
    pub refused: u64,
    pub weights_digest: u64,
}

/// The state a world ends on, live and (where durable) as recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct FinalState {
    pub weights_digest: u64,
    pub debits: Vec<u32>,
}

/// `Busy` is retried a few times before it counts as a failed operation;
/// capacities are sized so it never fires at all.
pub const RETRY: RetryPolicy = RetryPolicy {
    busy_retries: 8,
    busy_backoff_ms: 5,
};

/// One deployment under closed-loop load.
pub trait World {
    /// Operations (frames) a submit of `reports` takes. Asked before the
    /// clock starts, so the counting is not timed.
    fn frames(&self, reports: &[StampedReport]) -> u64;
    /// Hand one round's reports to the system, returning when the last
    /// one is acknowledged. A world that needs to own them takes them out
    /// of `reports`; whatever is left is the caller's to free, after the
    /// clock has stopped.
    fn submit(&mut self, reports: &mut Vec<StampedReport>) -> Result<(), String>;
    /// Close the round and return its truths and digest.
    fn close(&mut self, epoch: u64) -> Result<RoundSummary, String>;
    /// Tear the deployment down; reopen what it made durable and check
    /// recovery reproduces the live state.
    fn finish(self: Box<Self>) -> Result<FinalState, String>;
}

/// `map_err` adapter: prefix an error with what was being done.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Reopen a store directory read-only and rebuild the campaign from it.
fn recover_dir(dir: &Path, users: usize) -> Result<dptd_engine::RecoveredState, String> {
    let stored = read_dir(dir).map_err(err("reopen store"))?;
    recover_replay(&stored.replay, users, Loss::Squared, None).map_err(err("recover"))
}

fn check_recovered(live: &FinalState, recovered: &FinalState, what: &str) -> Result<(), String> {
    if live == recovered {
        Ok(())
    } else {
        Err(format!(
            "{what} recovered digest {:016x}, live digest {:016x} (ledgers equal: {})",
            recovered.weights_digest,
            live.weights_digest,
            recovered.debits == live.debits
        ))
    }
}

// ---------------------------------------------------------------------
// In-process engine campaign
// ---------------------------------------------------------------------

/// Where an [`EngineWorld`] logs its rounds.
#[derive(Debug, Clone)]
pub enum EngineLog {
    None,
    Memory,
    Store(PathBuf, StoreConfig),
}

/// `CampaignDriver<EngineBackend>` called directly.
pub struct EngineWorld {
    driver: CampaignDriver<EngineBackend>,
    users: usize,
    store_dir: Option<PathBuf>,
    pending: Vec<StampedReport>,
}

impl EngineWorld {
    pub fn start(shape: &Shape, log: EngineLog) -> Result<Self, String> {
        let engine = Engine::new(shape.engine_config()).map_err(err("engine config"))?;
        let config = shape.campaign_config();
        let policy = WalPolicy::from_campaign(&config);
        let mut store_dir = None;
        let driver = match log {
            EngineLog::None => CampaignDriver::new(
                EngineBackend::new(engine).map_err(err("engine backend"))?,
                config,
            ),
            EngineLog::Memory => {
                let (backend, _) = EngineBackend::with_wal(engine, Box::new(MemWal::new()), policy)
                    .map_err(err("memory log"))?;
                CampaignDriver::new(backend, config)
            }
            EngineLog::Store(dir, store) => {
                let (log, replay) =
                    SegmentStore::open_dir(&dir, store).map_err(err("open store"))?;
                let (backend, recovered) =
                    EngineBackend::with_log(engine, Box::new(log), &replay, policy)
                        .map_err(err("store-backed backend"))?;
                if recovered.records_applied != 0 {
                    return Err(format!(
                        "store `{}` resumed {} rounds; a fresh world must be created, not resumed",
                        dir.display(),
                        recovered.records_applied
                    ));
                }
                store_dir = Some(dir);
                CampaignDriver::new(backend, config)
            }
        }
        .map_err(err("campaign driver"))?;
        Ok(Self {
            driver,
            users: shape.users,
            store_dir,
            pending: Vec::new(),
        })
    }
}

impl World for EngineWorld {
    fn frames(&self, _reports: &[StampedReport]) -> u64 {
        0
    }

    fn submit(&mut self, reports: &mut Vec<StampedReport>) -> Result<(), String> {
        self.pending = std::mem::take(reports);
        Ok(())
    }

    fn close(&mut self, epoch: u64) -> Result<RoundSummary, String> {
        let round = self
            .driver
            .run_round(epoch, std::mem::take(&mut self.pending))
            .map_err(err("run_round"))?;
        Ok(RoundSummary {
            weights_digest: fnv1a_f64s(&round.weights),
            truths: round.truths,
            accepted: round.accepted as u64,
            duplicates: round.duplicates_discarded,
            late: round.late_dropped,
            refused: round.refused_users as u64,
        })
    }

    fn finish(mut self: Box<Self>) -> Result<FinalState, String> {
        let live = FinalState {
            weights_digest: fnv1a_f64s(self.driver.backend().current_weights()),
            debits: self.driver.accountant().debits_by_user().to_vec(),
        };
        self.driver
            .backend_mut()
            .sync_log()
            .map_err(err("sync log"))?;
        if let Some(dir) = self.store_dir.take() {
            let users = self.users;
            drop(self);
            let recovered = recover_dir(&dir, users)?;
            check_recovered(
                &live,
                &FinalState {
                    weights_digest: fnv1a_f64s(recovered.crh.weights()),
                    debits: recovered.rounds_debited,
                },
                "engine store",
            )?;
        }
        Ok(live)
    }
}

// ---------------------------------------------------------------------
// Campaign registry, in process and over TCP
// ---------------------------------------------------------------------

fn registry_config(durable: Option<&(PathBuf, StoreConfig)>) -> RegistryConfig {
    RegistryConfig {
        wal_root: durable.map(|(root, _)| root.clone()),
        store: durable.map_or_else(StoreConfig::default, |(_, store)| *store),
        ..RegistryConfig::default()
    }
}

fn summary_of(response: Response) -> Result<RoundSummary, String> {
    match response {
        Response::RoundClosed {
            accepted,
            refused,
            duplicates,
            late,
            truths,
            weights_digest,
            ..
        } => Ok(RoundSummary {
            truths,
            accepted,
            duplicates,
            late,
            refused,
            weights_digest,
        }),
        other => Err(format!("close answered {other:?}")),
    }
}

/// `CampaignRegistry::handle` called directly: the serving layer without
/// sockets, frames or the reactor.
pub struct RegistryWorld {
    registry: CampaignRegistry,
    campaign: String,
    chunk: usize,
}

impl RegistryWorld {
    pub fn start(
        shape: &Shape,
        campaign: &str,
        durable: Option<(PathBuf, StoreConfig)>,
        chunk: usize,
    ) -> Result<Self, String> {
        let registry = CampaignRegistry::new(registry_config(durable.as_ref()));
        match registry.handle(Request::CreateCampaign {
            campaign: campaign.to_string(),
            spec: shape.campaign_spec(durable.is_some()),
        }) {
            Response::Created { resumed_rounds: 0 } => {}
            other => return Err(format!("registry create answered {other:?}")),
        }
        Ok(Self {
            registry,
            campaign: campaign.to_string(),
            chunk,
        })
    }
}

impl World for RegistryWorld {
    fn frames(&self, reports: &[StampedReport]) -> u64 {
        reports.len().div_ceil(self.chunk) as u64
    }

    fn submit(&mut self, reports: &mut Vec<StampedReport>) -> Result<(), String> {
        for batch in reports.chunks(self.chunk) {
            match self.registry.handle(Request::SubmitReports {
                campaign: self.campaign.clone(),
                reports: batch.to_vec(),
                ctx: None,
            }) {
                Response::Submitted { .. } => {}
                other => return Err(format!("registry submit answered {other:?}")),
            }
        }
        Ok(())
    }

    fn close(&mut self, epoch: u64) -> Result<RoundSummary, String> {
        summary_of(self.registry.handle(Request::CloseRound {
            campaign: self.campaign.clone(),
            epoch,
        }))
    }

    fn finish(self: Box<Self>) -> Result<FinalState, String> {
        let weights_digest = match self.registry.handle(Request::QueryTruths {
            campaign: self.campaign.clone(),
        }) {
            Response::Truths { weights_digest, .. } => weights_digest,
            other => return Err(format!("registry truths answered {other:?}")),
        };
        let debits = match self.registry.handle(Request::QueryBudget {
            campaign: self.campaign.clone(),
        }) {
            Response::Budget { debits, .. } => debits,
            other => return Err(format!("registry budget answered {other:?}")),
        };
        self.registry.finalize();
        Ok(FinalState {
            weights_digest,
            debits,
        })
    }
}

/// How a served world's client submits a round.
#[derive(Debug, Clone, Copy)]
pub enum SubmitMode {
    /// One `SubmitReports` frame per batch, each waiting for its reply —
    /// the `dptd submit` default.
    RequestReply { batch: usize },
    /// `SubmitReportsStream` frames, `window` in flight, cumulative acks.
    Pipelined { batch: usize, window: usize },
}

/// `Server::start` on loopback with one `Client` connection.
pub struct ServedWorld {
    server: Server,
    client: Client,
    campaign: String,
    users: usize,
    mode: SubmitMode,
    wal_root: Option<PathBuf>,
    /// `Busy` answers seen (and retried) by request/reply submits.
    pub busy_refusals: u64,
}

impl ServedWorld {
    pub fn start(
        shape: &Shape,
        campaign: &str,
        durable: Option<(PathBuf, StoreConfig)>,
        mode: SubmitMode,
    ) -> Result<Self, String> {
        let server = Server::start(ServerConfig {
            registry: registry_config(durable.as_ref()),
            ..ServerConfig::default()
        })
        .map_err(err("start server"))?;
        let mut client = Client::connect(server.local_addr()).map_err(err("connect"))?;
        let resumed = client
            .create_campaign(campaign, shape.campaign_spec(durable.is_some()))
            .map_err(err("create campaign"))?;
        if resumed != 0 {
            return Err(format!(
                "campaign `{campaign}` resumed {resumed} rounds; a fresh world must be created"
            ));
        }
        Ok(Self {
            server,
            client,
            campaign: campaign.to_string(),
            users: shape.users,
            mode,
            wal_root: durable.map(|(root, _)| root),
            busy_refusals: 0,
        })
    }

    pub fn server(&self) -> &Server {
        &self.server
    }

    /// One request/reply batch under [`RETRY`], counting every `Busy`
    /// answer — what `Client::submit_chunked_with_retry` does per batch,
    /// kept apart so a traced run can time each round trip.
    pub fn submit_batch(&mut self, batch: &[StampedReport]) -> Result<(), String> {
        for attempt in 0..=RETRY.busy_retries {
            match self
                .client
                .submit(&self.campaign, batch.to_vec())
                .map_err(err("submit"))?
            {
                SubmitOutcome::Queued(_) => return Ok(()),
                SubmitOutcome::Busy { .. } => {
                    self.busy_refusals += 1;
                    std::thread::sleep(std::time::Duration::from_millis(
                        RETRY.busy_backoff_ms << attempt.min(6),
                    ));
                }
            }
        }
        Err("submit refused: Busy after every retry".to_string())
    }
}

impl World for ServedWorld {
    fn frames(&self, reports: &[StampedReport]) -> u64 {
        let (SubmitMode::RequestReply { batch } | SubmitMode::Pipelined { batch, .. }) = self.mode;
        reports.len().div_ceil(batch) as u64
    }

    fn submit(&mut self, reports: &mut Vec<StampedReport>) -> Result<(), String> {
        match self.mode {
            SubmitMode::RequestReply { batch } => {
                self.client
                    .submit_chunked_with_retry(&self.campaign, reports, batch, RETRY)
            }
            SubmitMode::Pipelined { batch, window } => {
                self.client
                    .submit_stream_with_retry(&self.campaign, reports, batch, window, RETRY)
            }
        }
        .map(|_queued| ())
        .map_err(err("submit"))
    }

    fn close(&mut self, epoch: u64) -> Result<RoundSummary, String> {
        let round = self
            .client
            .close_round(&self.campaign, epoch)
            .map_err(err("close round"))?;
        Ok(RoundSummary {
            truths: round.truths,
            accepted: round.accepted,
            duplicates: round.duplicates,
            late: round.late,
            refused: round.refused,
            weights_digest: round.weights_digest,
        })
    }

    fn finish(mut self: Box<Self>) -> Result<FinalState, String> {
        let live = FinalState {
            weights_digest: self
                .client
                .query_truths(&self.campaign)
                .map_err(err("query truths"))?
                .weights_digest,
            debits: self
                .client
                .query_budget(&self.campaign)
                .map_err(err("query budget"))?
                .debits,
        };
        let this = *self;
        drop(this.client);
        let stats = this.server.shutdown();
        if stats.sync_failures != 0 {
            return Err(format!(
                "{} campaigns failed to sync at shutdown",
                stats.sync_failures
            ));
        }
        if let Some(root) = this.wal_root {
            let recovered = recover_dir(&root.join(&this.campaign), this.users)?;
            check_recovered(
                &live,
                &FinalState {
                    weights_digest: fnv1a_f64s(recovered.crh.weights()),
                    debits: recovered.rounds_debited,
                },
                "served store",
            )?;
        }
        Ok(live)
    }
}

// ---------------------------------------------------------------------
// Partitioned cluster
// ---------------------------------------------------------------------

/// Nodes in the cluster workloads.
pub const CLUSTER_NODES: u32 = 3;

/// `ClusterCampaign` over durable loopback `NodeServer`s, each
/// optionally replicating to a follower of its own.
pub struct ClusterWorld {
    cluster: ClusterCampaign,
    nodes: Vec<NodeServer>,
    followers: Vec<NodeServer>,
    campaign: String,
    users: usize,
    root: PathBuf,
    chunk: usize,
}

impl ClusterWorld {
    /// `root` receives `node-<i>/` WAL roots and `replica-<i>/` replica
    /// roots.
    pub fn start(
        shape: &Shape,
        campaign: &str,
        root: &Path,
        with_followers: bool,
        chunk: usize,
    ) -> Result<Self, String> {
        let mut followers = Vec::new();
        let mut nodes = Vec::new();
        for id in 0..CLUSTER_NODES {
            let replicate_to = if with_followers {
                let follower = NodeServer::start(NodeConfig {
                    replica_root: Some(root.join(format!("replica-{id}"))),
                    ..NodeConfig::default()
                })
                .map_err(err("start follower"))?;
                let addr = follower.local_addr().to_string();
                followers.push(follower);
                Some(addr)
            } else {
                None
            };
            nodes.push(
                NodeServer::start(NodeConfig {
                    node_id: id,
                    num_nodes: CLUSTER_NODES,
                    wal_root: Some(root.join(format!("node-{id}"))),
                    replicate_to,
                    ..NodeConfig::default()
                })
                .map_err(err("start node"))?,
            );
        }
        let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
        // `create` itself refuses a campaign that resumed durable rounds.
        let mut cluster = ClusterCampaign::create(&addrs, campaign, shape.cluster_spec())
            .map_err(err("create cluster campaign"))?;
        cluster.set_retry(RETRY);
        Ok(Self {
            cluster,
            nodes,
            followers,
            campaign: campaign.to_string(),
            users: shape.users,
            root: root.to_path_buf(),
            chunk,
        })
    }

    /// Rebuild the global state from one directory per node.
    fn recover(&self, prefix: &str) -> Result<FinalState, String> {
        let partition =
            rendezvous_map(self.users, CLUSTER_NODES as usize).map_err(err("partition map"))?;
        let mut losses = vec![0.0f64; self.users];
        let mut debits = vec![0u32; self.users];
        let mut batches_seen = 0;
        for id in 0..CLUSTER_NODES as usize {
            let dir = self
                .root
                .join(format!("{prefix}-{id}"))
                .join(&self.campaign);
            let locals = partition.locals(id);
            let recovered = recover_dir(&dir, locals.len())?;
            batches_seen = recovered.crh.batches_seen();
            for (local, &global) in locals.iter().enumerate() {
                losses[global] = recovered.crh.cumulative_losses()[local];
                debits[global] = recovered.rounds_debited[local];
            }
        }
        let crh = StreamingCrh::from_parts(Loss::Squared, losses, batches_seen)
            .map_err(err("rebuild estimator"))?;
        Ok(FinalState {
            weights_digest: fnv1a_f64s(crh.weights()),
            debits,
        })
    }
}

impl World for ClusterWorld {
    /// Frames are per node; the coordinator does not report them, so
    /// count what its fan-out will produce.
    fn frames(&self, reports: &[StampedReport]) -> u64 {
        let partition = self.cluster.partition();
        let mut per_node = vec![0usize; partition.num_nodes()];
        for r in reports {
            per_node[partition.node_of(r.report.user)] += 1;
        }
        per_node.iter().map(|n| n.div_ceil(self.chunk) as u64).sum()
    }

    fn submit(&mut self, reports: &mut Vec<StampedReport>) -> Result<(), String> {
        self.cluster
            .submit(reports, self.chunk)
            .map(|_queued| ())
            .map_err(err("cluster submit"))
    }

    fn close(&mut self, epoch: u64) -> Result<RoundSummary, String> {
        let round = self
            .cluster
            .close_round(epoch)
            .map_err(err("cluster close"))?;
        Ok(RoundSummary {
            truths: round.truths,
            accepted: round.accepted as u64,
            duplicates: round.duplicates_discarded,
            late: round.late_dropped,
            refused: round.refused_users as u64,
            weights_digest: round.weights_digest,
        })
    }

    fn finish(mut self: Box<Self>) -> Result<FinalState, String> {
        let live = FinalState {
            weights_digest: self.cluster.weights_digest(),
            debits: self.cluster.accountant().debits_by_user().to_vec(),
        };
        for node in &self.nodes {
            if let Some(why) = node.replication_failure(&self.campaign) {
                return Err(format!("replication failed: {why}"));
            }
        }
        for node in std::mem::take(&mut self.nodes) {
            node.shutdown();
        }
        let replicated = !self.followers.is_empty();
        for follower in std::mem::take(&mut self.followers) {
            follower.shutdown();
        }
        check_recovered(&live, &self.recover("node")?, "cluster nodes")?;
        if replicated {
            check_recovered(&live, &self.recover("replica")?, "cluster followers")?;
        }
        Ok(live)
    }
}
