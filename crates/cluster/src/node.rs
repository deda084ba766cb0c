//! The cluster node: one partition of a campaign behind the v1 wire
//! protocol.
//!
//! A node is deliberately dumb. It owns a **local** slice of the
//! population (dense local ids `0..local_users`), hosts it on the same
//! [`dptd_server::host`] a campaign server uses — slot map and
//! quarantine, bounded [`SubmissionQueue`] with one round of lookahead,
//! spec admission, durable open, request envelope — and adds what only
//! a node does, the two-phase barrier:
//!
//! 1. `CloseRoundPrepare` drains the queue through an
//!    [`EpochLane`](dptd_protocol::partition::EpochLane) — refusal
//!    withhold, then deadline, then first-wins dedup, the exact
//!    single-node order — and returns the surviving claims **without**
//!    touching durable state. Prepare is cumulative and repeatable: the
//!    lane persists until commit, so a re-driven barrier (after a
//!    coordinator restart, or more submissions on a failed round) sees
//!    the whole stream's result.
//! 2. `CloseRoundCommit` durably appends the node's slice of the merged
//!    round — the coordinator computed it; the node just persists an
//!    [`EpochRecord`] to its segmented store and acks. Re-committing
//!    the previous epoch is acknowledged idempotently iff the record is
//!    byte-identical to the durable one, which is what lets a
//!    coordinator that died between commit fan-out and its own state
//!    advance re-drive the barrier safely.
//!
//! The node never sees another node's users and never computes truths:
//! global state lives in the coordinator's merge and comes back to rest
//! here, sliced, in the commit. `QueryLedger` serves those slices back
//! (current, or one epoch back while a barrier may still be re-driven)
//! for coordinator failover, and `ReplicateSegment` makes the node a
//! **follower**: it applies a primary's replicated store stream under
//! its own replica root, ready to take over via ordinary crash
//! recovery.

use std::collections::{btree_map::Entry, BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use dptd_engine::store::{DirFs, StoreConfig, StoreObserver};
use dptd_engine::wal::{RecordKind, RecordLog, WalLock, WalPolicy};
use dptd_engine::{recovery::recover_replay, EpochRecord};
use dptd_obs::{names, MetricValue};
use dptd_protocol::campaign::CampaignConfig;
use dptd_protocol::partition::EpochLane;
use dptd_server::host::{
    admit, open_durable, refuse, Host, Hosted, SubmissionQueue, MAX_USERS_PER_CAMPAIGN,
};
use dptd_server::{
    CampaignSpec, ErrorCode, Frontend, FrontendConfig, IoConfig, Request, RequestHandler, Response,
};
use dptd_truth::Loss;

use crate::replication::{replication_refusal, ReplicaApplier, ReplicationSender};
use crate::ClusterError;

/// What this host calls a slot in refusal messages.
const NOUN: &str = "campaign partition";

/// Node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub listen: String,
    /// This node's index in the cluster's partition map.
    pub node_id: u32,
    /// Total nodes in the cluster (validated against `NodeHello`).
    pub num_nodes: u32,
    /// Connection budget.
    pub max_connections: usize,
    /// I/O model and connection deadlines for the shared front end.
    pub io: IoConfig,
    /// Root directory for durable campaign partitions (`None` keeps
    /// partitions in memory only).
    pub wal_root: Option<PathBuf>,
    /// Follower address to replicate every durable store mutation to.
    pub replicate_to: Option<String>,
    /// Root directory under which this node accepts `ReplicateSegment`
    /// streams (the follower role). `None` refuses them.
    pub replica_root: Option<PathBuf>,
    /// Segment rotation/compaction thresholds for durable partitions.
    pub store: StoreConfig,
    /// Campaign-partition cap.
    pub max_campaigns: usize,
}

impl Default for NodeConfig {
    /// A single-node loopback topology, in-memory, follower disabled.
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            node_id: 0,
            num_nodes: 1,
            max_connections: 32,
            io: IoConfig::default(),
            wal_root: None,
            replicate_to: None,
            replica_root: None,
            store: StoreConfig::default(),
            max_campaigns: 16,
        }
    }
}

/// A round staged by `CloseRoundPrepare`, alive until its commit.
#[derive(Debug)]
struct StagedRound {
    epoch: u64,
    /// The refusal set the barrier was driven with, sorted — a re-drive
    /// with a different set is a coordinator bug and is refused.
    refused: Vec<u64>,
    /// Which refused users actually had a report withheld (distinct
    /// users, mirroring the driver's `refused_users` count).
    refused_seen: Vec<bool>,
    lane: EpochLane,
}

/// The frozen prepare result of the last **committed** epoch, retained
/// so a re-driven barrier can replay phase one without the queue.
#[derive(Debug)]
struct CommittedPrepare {
    epoch: u64,
    refused: Vec<u64>,
    refused_seen_count: u64,
    lane: EpochLane,
}

/// One campaign partition on this node.
#[derive(Debug)]
struct NodeCampaign {
    local_users: usize,
    config: CampaignConfig,
    policy: WalPolicy,
    queue: SubmissionQueue,
    staged: Option<StagedRound>,
    last_prepared: Option<CommittedPrepare>,
    /// Committed records, newest last — enough history to serve
    /// `QueryLedger` one epoch back during barrier re-drives.
    history: VecDeque<EpochRecord>,
    log: Option<Box<dyn RecordLog>>,
    _wal_lock: Option<WalLock>,
    replication_failure: Option<crate::replication::FailureSlot>,
}

/// The `Prepared` reply for a lane as it stands: its survivors cloned
/// once, in slot order, straight into the reply (a report's `user` is
/// its slot — both are the node-local id).
fn prepared(epoch: u64, lane: &EpochLane, refused_seen: u64) -> Response {
    let mut claims = Vec::with_capacity(lane.accepted());
    claims.extend(lane.survivors().cloned());
    Response::Prepared {
        epoch,
        duplicates: lane.duplicates_discarded(),
        late: lane.late_dropped(),
        refused_seen,
        claims,
    }
}

/// How many committed records a node keeps in memory for ledger
/// queries. Two covers every legal barrier state: the live epoch's
/// predecessor plus one more while a commit fan-out is in flight.
const LEDGER_HISTORY: usize = 2;

impl NodeCampaign {
    fn ledger_at(&self, upto: u64) -> Response {
        let next_epoch = self.queue.next_epoch();
        let resolved = if upto == u64::MAX { next_epoch } else { upto };
        let record = if resolved == next_epoch {
            self.history.back()
        } else if resolved == 0 {
            // The virgin (pre-first-round) state is always known.
            None
        } else {
            let retained = self.history.iter().find(|r| r.epoch + 1 == resolved);
            if retained.is_none() {
                return refuse(
                    ErrorCode::InvalidRequest,
                    format!(
                        "ledger as of epoch {resolved} is no longer retained \
                         (node is at epoch {next_epoch})"
                    ),
                );
            }
            retained
        };
        match record {
            Some(record) => Response::Ledger {
                next_epoch: record.epoch + 1,
                batches_seen: record.batches_seen,
                rounds_debited: record.rounds_debited.clone(),
                cumulative_losses: record.cumulative_losses.clone(),
            },
            None => Response::Ledger {
                next_epoch: 0,
                batches_seen: 0,
                rounds_debited: vec![0; self.local_users],
                cumulative_losses: vec![0.0; self.local_users],
            },
        }
    }

    /// Reports that survived the staged lane so far.
    fn staged_accepted(&self) -> u64 {
        self.staged.as_ref().map_or(0, |s| s.lane.accepted() as u64)
    }

    fn metrics(
        &self,
        (conn_live, conn_accepted, conn_refused, io_threads): (u64, u64, u64, u64),
    ) -> Response {
        Response::Metrics {
            metrics: Box::new(dptd_server::MetricsReport {
                reports_submitted: self.queue.taken(),
                reports_accepted: self.staged_accepted(),
                duplicates_discarded: 0,
                late_dropped: 0,
                out_of_order_dropped: 0,
                backpressure_stalls: 0,
                epochs_merged: self.queue.next_epoch(),
                max_queue_depth: self.queue.capacity() as u64,
                queue_depth: self.queue.depth(),
                throughput_rps: 0.0,
                ingest_p50_ns: 0,
                ingest_p99_ns: 0,
                conn_live,
                conn_accepted,
                conn_refused,
                io_threads,
            }),
        }
    }

    fn prepare(&mut self, epoch: u64, refused: Vec<u64>) -> Response {
        let local_users = self.local_users;
        if refused.iter().any(|&u| u as usize >= local_users) {
            return refuse(
                ErrorCode::InvalidRequest,
                "a refused user id is outside this node's partition",
            );
        }
        let mut refused_sorted = refused;
        refused_sorted.sort_unstable();
        refused_sorted.dedup();

        // A barrier re-drive for the epoch this node already committed:
        // replay the frozen prepare (the queue was drained into it and
        // the commit sealed it).
        if epoch + 1 == self.queue.next_epoch() {
            let Some(last) = self.last_prepared.as_ref().filter(|p| p.epoch == epoch) else {
                return refuse(
                    ErrorCode::InvalidRequest,
                    format!("epoch {epoch} is already committed and its prepare expired"),
                );
            };
            if last.refused != refused_sorted {
                return refuse(
                    ErrorCode::InvalidRequest,
                    "barrier re-driven with a different refusal set",
                );
            }
            return prepared(epoch, &last.lane, last.refused_seen_count);
        }
        if epoch != self.queue.next_epoch() {
            return refuse(
                ErrorCode::InvalidRequest,
                format!(
                    "cannot prepare epoch {epoch}: the partition is on round {}",
                    self.queue.next_epoch()
                ),
            );
        }
        if let Some(staged) = &self.staged {
            if staged.refused != refused_sorted {
                return refuse(
                    ErrorCode::InvalidRequest,
                    "barrier re-driven with a different refusal set",
                );
            }
        }
        // Drain everything queued for this epoch through the staged
        // lane: refusal withhold first, then the lane's deadline + dedup
        // — the exact driver order.
        let pending = self.queue.drain();
        let deadline_us = self.config.deadline_us;
        let staged = self.staged.get_or_insert_with(|| StagedRound {
            epoch,
            refused: refused_sorted,
            refused_seen: vec![false; local_users],
            lane: EpochLane::new(local_users, deadline_us),
        });
        let refused_set = staged.refused.clone();
        for stamped in pending {
            let user = stamped.report.user;
            if refused_set.binary_search(&(user as u64)).is_ok() {
                staged.refused_seen[user] = true;
                continue;
            }
            staged.lane.offer(user, stamped);
        }
        let refused_seen = staged.refused_seen.iter().filter(|&&b| b).count() as u64;
        prepared(epoch, &staged.lane, refused_seen)
    }

    fn commit(
        &mut self,
        epoch: u64,
        batches_seen: u64,
        accepted_users: &[u64],
        cumulative_losses: Vec<f64>,
        rounds_debited: Vec<u32>,
    ) -> Response {
        let local_users = self.local_users;
        if cumulative_losses.len() != local_users || rounds_debited.len() != local_users {
            return refuse(
                ErrorCode::InvalidRequest,
                "commit slices must cover exactly this node's partition",
            );
        }
        if accepted_users.windows(2).any(|w| w[0] >= w[1])
            || accepted_users.iter().any(|&u| u as usize >= local_users)
        {
            return refuse(
                ErrorCode::InvalidRequest,
                "accepted users must be ascending local ids inside the partition",
            );
        }
        let record = EpochRecord {
            kind: RecordKind::Epoch,
            epoch,
            batches_seen,
            loss: Loss::Squared,
            policy: self.policy,
            accepted_users: accepted_users.iter().map(|&u| u as usize).collect(),
            cumulative_losses,
            rounds_debited,
        };

        // Idempotent re-commit: the previous epoch, byte-identical.
        if epoch + 1 == self.queue.next_epoch() {
            let Some(last) = self.history.back() else {
                return refuse(
                    ErrorCode::InvalidRequest,
                    format!("epoch {epoch} predates this node's retained history"),
                );
            };
            if last.epoch == epoch && last.encode() == record.encode() {
                return Response::Committed {
                    epoch,
                    appended: false,
                };
            }
            return refuse(
                ErrorCode::InvalidRequest,
                format!(
                    "re-committed epoch {epoch} differs from the durable record — \
                     the barrier was re-driven against a diverged stream"
                ),
            );
        }
        if epoch != self.queue.next_epoch() {
            return refuse(
                ErrorCode::InvalidRequest,
                format!(
                    "cannot commit epoch {epoch}: the partition is on round {}",
                    self.queue.next_epoch()
                ),
            );
        }
        let Some(staged) = self.staged.take() else {
            return refuse(
                ErrorCode::InvalidRequest,
                format!("commit for epoch {epoch} without a prepared round"),
            );
        };
        debug_assert_eq!(staged.epoch, epoch, "stage/commit epoch mismatch");
        if let Some(log) = self.log.as_mut() {
            if let Err(e) = log.append_record(&record) {
                // The append failed atomically; restore the stage so the
                // barrier can be re-driven.
                self.staged = Some(staged);
                return refuse(ErrorCode::WalRefused, e.to_string());
            }
        }
        self.last_prepared = Some(CommittedPrepare {
            epoch,
            refused: staged.refused,
            refused_seen_count: staged.refused_seen.iter().filter(|&&b| b).count() as u64,
            lane: staged.lane,
        });
        self.history.push_back(record);
        while self.history.len() > LEDGER_HISTORY {
            self.history.pop_front();
        }
        self.queue.advance();
        Response::Committed {
            epoch,
            appended: true,
        }
    }
}

impl Hosted for NodeCampaign {
    /// Queue occupancy and ingest counters; the coordinator absorbs
    /// these snapshots fleet-wide for `dptd cluster status`.
    fn status(&self) -> Vec<(&'static str, MetricValue)> {
        vec![
            (names::QUEUE_DEPTH, MetricValue::Gauge(self.queue.depth())),
            (names::SUBMITTED, MetricValue::Counter(self.queue.taken())),
            (
                names::ACCEPTED,
                MetricValue::Counter(self.staged_accepted()),
            ),
            (names::ROUNDS, MetricValue::Counter(self.queue.next_epoch())),
        ]
    }
}

struct NodeState {
    node_id: u32,
    num_nodes: u32,
    wal_root: Option<PathBuf>,
    replicate_to: Option<String>,
    replica_root: Option<PathBuf>,
    store: StoreConfig,
    host: Host<NodeCampaign>,
    replicas: Mutex<BTreeMap<String, ReplicaApplier>>,
}

impl std::fmt::Debug for NodeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeState")
            .field("node_id", &self.node_id)
            .field("num_nodes", &self.num_nodes)
            .finish_non_exhaustive()
    }
}

impl NodeState {
    fn dispatch(&self, request: Request) -> Response {
        match request {
            Request::NodeHello { node_id, num_nodes } => {
                if node_id != self.node_id || num_nodes != self.num_nodes {
                    return refuse(
                        ErrorCode::InvalidRequest,
                        format!(
                            "topology mismatch: this is node {}/{}, coordinator expected {}/{}",
                            self.node_id, self.num_nodes, node_id, num_nodes
                        ),
                    );
                }
                Response::NodeWelcome {
                    node_id: self.node_id,
                }
            }
            Request::CreateCampaign { campaign, spec } => self
                .create(&campaign, &spec)
                .unwrap_or_else(|refusal| refusal),
            Request::SubmitReports {
                campaign, reports, ..
            } => self.host.with(&campaign, |part| {
                part.queue
                    .offer(reports, part.local_users, part.config.num_objects, NOUN)
            }),
            Request::CloseRoundPrepare {
                campaign,
                epoch,
                refused,
                ..
            } => {
                // Under the coordinator's barrier-prepare span (adopted
                // by the envelope), the node's drain shows up as its
                // child in a merged timeline.
                let _span = dptd_obs::TraceScope::begin(dptd_obs::codes::NODE_DRAIN, epoch);
                self.host
                    .with(&campaign, |part| part.prepare(epoch, refused))
            }
            Request::CloseRoundCommit {
                campaign,
                epoch,
                batches_seen,
                accepted_users,
                cumulative_losses,
                rounds_debited,
                ..
            } => {
                let _span = dptd_obs::TraceScope::begin(dptd_obs::codes::NODE_COMMIT, epoch);
                self.host.with(&campaign, |part| {
                    part.commit(
                        epoch,
                        batches_seen,
                        &accepted_users,
                        cumulative_losses,
                        rounds_debited,
                    )
                })
            }
            Request::QueryLedger { campaign, upto } => {
                self.host.with(&campaign, |part| part.ledger_at(upto))
            }
            Request::ReplicateSegment {
                campaign,
                seq,
                op,
                name,
                arg,
                bytes,
            } => self.replicate(&campaign, seq, op, &name, arg, &bytes),
            Request::CloseRound { .. } => refuse(
                ErrorCode::InvalidRequest,
                "cluster nodes close rounds through the coordinator's two-phase barrier, \
                 not `CloseRound`",
            ),
            Request::QueryTruths { .. } | Request::QueryBudget { .. } => refuse(
                ErrorCode::InvalidRequest,
                "a cluster node holds one partition and no global state; query the coordinator",
            ),
            Request::QueryMetrics { campaign } => {
                let conn = self.host.conn_counts();
                self.host.with(&campaign, |part| part.metrics(conn))
            }
            request @ (Request::QueryStatus
            | Request::QueryTrace
            | Request::SubmitReportsStream { .. }) => self.host.answer(request),
        }
    }

    fn create(&self, campaign: &str, spec: &CampaignSpec) -> Result<Response, Response> {
        let (config, policy) = admit(spec, MAX_USERS_PER_CAMPAIGN)?;
        let local_users = spec.num_users as usize;
        let capacity = spec.submission_capacity as usize;
        // A crashed coordinator resumes by re-creating the campaign on
        // nodes that never died: an identical spec acks idempotently
        // with the live epoch, anything else is a conflicting writer.
        let recreated = self.host.try_with(campaign, |part| {
            if part.local_users == local_users
                && part.queue.capacity() == capacity
                && part.policy == policy
            {
                return Response::Created {
                    resumed_rounds: part.queue.next_epoch(),
                };
            }
            refuse(
                ErrorCode::CampaignExists,
                format!("{NOUN} `{campaign}` is already live with a different spec"),
            )
        });
        if let Some(response) = recreated {
            return Ok(response);
        }
        self.host.vacancy(campaign)?;

        let mut next_epoch = 0u64;
        let mut resumed_rounds = 0u64;
        let mut history = VecDeque::new();
        let mut log: Option<Box<dyn RecordLog>> = None;
        let mut wal_lock = None;
        let mut replication_failure = None;
        if spec.durable {
            let (lock, store, replay) = open_durable(
                self.wal_root.as_deref(),
                campaign,
                self.store,
                NOUN,
                // The observer, when this node has a follower, is the
                // replication stream to it.
                || {
                    let Some(addr) = &self.replicate_to else {
                        return Ok(None);
                    };
                    let (sender, failure) = ReplicationSender::connect(addr, campaign)
                        .map_err(|e| refuse(ErrorCode::WalRefused, e.to_string()))?;
                    replication_failure = Some(failure);
                    Ok(Some(Box::new(sender) as Box<dyn StoreObserver>))
                },
            )?;
            let recovered = recover_replay(&replay, local_users, Loss::Squared, Some(&policy))
                .map_err(|e| refuse(ErrorCode::WalRefused, e.to_string()))?;
            next_epoch = recovered.next_epoch();
            resumed_rounds = recovered.records_applied;
            for record in replay
                .records
                .iter()
                .rev()
                .take(LEDGER_HISTORY)
                .rev()
                .cloned()
            {
                history.push_back(record);
            }
            log = Some(Box::new(store));
            wal_lock = Some(lock);
        }

        self.host.insert(
            campaign,
            NodeCampaign {
                local_users,
                config,
                policy,
                queue: SubmissionQueue::new(capacity, next_epoch),
                staged: None,
                last_prepared: None,
                history,
                log,
                _wal_lock: wal_lock,
                replication_failure,
            },
        )?;
        Ok(Response::Created { resumed_rounds })
    }

    fn replicate(
        &self,
        campaign: &str,
        seq: u64,
        op: dptd_server::StoreOp,
        name: &str,
        arg: u64,
        bytes: &[u8],
    ) -> Response {
        let Some(root) = &self.replica_root else {
            return refuse(
                ErrorCode::InvalidRequest,
                "this node does not accept replication (start it with `--replica-root`)",
            );
        };
        // A replica directory is crash-consistent by construction (the
        // whole point of replication is that failover runs ordinary
        // recovery over it), so a poisoned map lock is recoverable: the
        // applier's sequence check refuses any stream the panic tore.
        let mut replicas = self.replicas.lock().unwrap_or_else(PoisonError::into_inner);
        let applier = match replicas.entry(campaign.to_string()) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                let dir = root.join(campaign);
                let fs = match DirFs::open(&dir) {
                    Ok(f) => f,
                    Err(e) => return refuse(ErrorCode::WalRefused, e.to_string()),
                };
                entry.insert(ReplicaApplier::new(Box::new(fs)))
            }
        };
        match applier.apply(seq, op, name, arg, bytes) {
            Ok(()) => Response::Replicated { seq },
            Err(e) => {
                let (code, message) = replication_refusal(&e);
                refuse(code, message)
            }
        }
    }

    /// Flush every durable partition — the orderly shutdown path.
    fn finalize(&self) -> usize {
        let mut flushed = 0;
        self.host.shutdown(|part| {
            if let Some(log) = part.log.as_mut() {
                if log.sync().is_ok() {
                    flushed += 1;
                }
            }
        });
        flushed
    }
}

impl RequestHandler for NodeState {
    fn handle(&self, request: Request) -> Response {
        self.host.handle(request, |request| self.dispatch(request))
    }
}

/// A running cluster node. Dropping (or [`NodeServer::shutdown`]) stops
/// the shared connection front end, closes live connections, joins I/O
/// threads, and flushes durable partitions.
#[derive(Debug)]
pub struct NodeServer {
    state: Arc<NodeState>,
    frontend: Frontend,
}

impl NodeServer {
    /// Bind `config.listen` and start accepting under the configured
    /// I/O model, on the same connection front end the campaign server
    /// uses (reactor by default; `IoModel::Threads` on request).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Server`] when the address cannot be bound and
    /// [`ClusterError::Topology`] for inconsistent node geometry.
    pub fn start(config: NodeConfig) -> Result<Self, ClusterError> {
        if config.num_nodes == 0 || config.node_id >= config.num_nodes {
            return Err(ClusterError::Topology(format!(
                "node id {} is outside a {}-node cluster",
                config.node_id, config.num_nodes
            )));
        }
        let state = Arc::new(NodeState {
            node_id: config.node_id,
            num_nodes: config.num_nodes,
            wal_root: config.wal_root,
            replicate_to: config.replicate_to,
            replica_root: config.replica_root,
            store: config.store,
            host: Host::new(NOUN, config.max_campaigns.max(1)),
            replicas: Mutex::new(BTreeMap::new()),
        });
        let frontend = Frontend::start(
            FrontendConfig {
                listen: config.listen,
                max_connections: config.max_connections,
                io: config.io,
                thread_name: "dptd-node",
            },
            Arc::clone(&state) as Arc<dyn RequestHandler>,
        )
        .map_err(ClusterError::Server)?;
        state
            .host
            .set_conn_stats(frontend.stats(), frontend.io_threads());
        Ok(Self { state, frontend })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.frontend.local_addr()
    }

    /// The first replication failure latched for `campaign`, if its WAL
    /// is replicated and the follower has gone away. Replication never
    /// blocks the primary, so operators poll this (the CLI surfaces it
    /// on shutdown).
    pub fn replication_failure(&self, campaign: &str) -> Option<String> {
        // A latched diagnostic string: there is no partial state a
        // panic could have left in a plain `Option<String>` read, so
        // poisoned guards are recovered all the way down.
        self.state.host.peek(campaign, |part| {
            let failure = part.replication_failure.as_ref()?;
            failure
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
        })?
    }

    /// Stop accepting, close every connection, join the I/O threads,
    /// flush durable partitions, and return how many were flushed.
    pub fn shutdown(mut self) -> usize {
        self.frontend.stop();
        self.state.finalize()
    }

    /// Force-quarantine a partition — see [`Host::poison`].
    #[doc(hidden)]
    pub fn poison_partition(&self, campaign: &str) -> bool {
        self.state.host.poison(campaign)
    }
}

/// A log whose next append fails (atomically, as the [`RecordLog`]
/// contract demands) and whose later ones go through — the transient
/// `WalRefused` a commit fan-out must survive.
#[cfg(test)]
#[derive(Debug)]
struct FailNextAppend {
    inner: Option<Box<dyn RecordLog>>,
    armed: bool,
}

#[cfg(test)]
impl RecordLog for FailNextAppend {
    fn append_record(&mut self, record: &EpochRecord) -> Result<(), dptd_engine::wal::WalError> {
        if std::mem::take(&mut self.armed) {
            return Err(dptd_engine::wal::WalError::Io {
                op: "append",
                message: "injected transient failure".to_string(),
            });
        }
        self.inner
            .as_mut()
            .map_or(Ok(()), |log| log.append_record(record))
    }
}

#[cfg(test)]
impl NodeServer {
    /// Make `campaign`'s next durable append on this node fail once.
    pub(crate) fn fail_next_append(&self, campaign: &str) {
        // `with` is the one mutable door to slot state; its reply is
        // of no interest here.
        self.state.host.with(campaign, |part| {
            let inner = part.log.take();
            part.log = Some(Box::new(FailNextAppend { inner, armed: true }));
            Response::Created { resumed_rounds: 0 }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_core::roles::PerturbedReport;
    use dptd_protocol::message::StampedReport;
    use dptd_server::Client;

    fn spec(local_users: u64) -> CampaignSpec {
        CampaignSpec {
            num_users: local_users,
            num_objects: 2,
            num_shards: 1,
            workers: 1,
            engine_queue: 64,
            deadline_us: 1_000,
            submission_capacity: 64,
            per_round_epsilon: 0.5,
            per_round_delta: 0.0,
            budget_epsilon: 4.0,
            budget_delta: 0.0,
            stream_tag: 0,
            durable: false,
        }
    }

    fn stamped(user: usize, epoch: u64, sent_at_us: u64, value: f64) -> StampedReport {
        StampedReport {
            epoch,
            sent_at_us,
            report: PerturbedReport {
                user,
                values: vec![(0, value), (1, value + 1.0)],
            },
        }
    }

    #[test]
    fn node_drives_a_prepare_commit_round_over_tcp() {
        let node = NodeServer::start(NodeConfig::default()).unwrap();
        let mut client = Client::connect(node.local_addr()).unwrap();
        assert_eq!(client.node_hello(0, 1).unwrap(), 0);
        assert!(client.node_hello(1, 3).is_err());
        client.create_campaign("part", spec(3)).unwrap();
        client
            .submit_chunked(
                "part",
                &[
                    stamped(0, 0, 10, 1.0),
                    stamped(1, 0, 20, 2.0),
                    stamped(1, 0, 30, 9.0),    // duplicate, first wins
                    stamped(2, 0, 2_000, 5.0), // late
                ],
                8,
            )
            .unwrap();
        let prepared = client.close_round_prepare("part", 0, vec![]).unwrap();
        assert_eq!(prepared.epoch, 0);
        assert_eq!(prepared.duplicates, 1);
        assert_eq!(prepared.late, 1);
        assert_eq!(prepared.refused_seen, 0);
        assert_eq!(prepared.claims.len(), 2);
        // Prepare is repeatable while the round is staged.
        let again = client.close_round_prepare("part", 0, vec![]).unwrap();
        assert_eq!(again.claims, prepared.claims);
        // Commit the coordinator's (here: synthetic) merged slice.
        let appended = client
            .close_round_commit(
                "part",
                0,
                1,
                vec![0, 1],
                vec![0.25, 0.5, 0.0],
                vec![1, 1, 0],
            )
            .unwrap();
        assert!(appended);
        // Idempotent re-commit of the identical record.
        let again = client
            .close_round_commit(
                "part",
                0,
                1,
                vec![0, 1],
                vec![0.25, 0.5, 0.0],
                vec![1, 1, 0],
            )
            .unwrap();
        assert!(!again);
        // A diverged re-commit is refused.
        assert!(client
            .close_round_commit(
                "part",
                0,
                1,
                vec![0, 1],
                vec![0.25, 0.75, 0.0],
                vec![1, 1, 0]
            )
            .is_err());
        // The ledger serves the committed slice back, current and
        // one epoch back.
        let ledger = client.query_ledger("part", u64::MAX).unwrap();
        assert_eq!(ledger.next_epoch, 1);
        assert_eq!(ledger.rounds_debited, vec![1, 1, 0]);
        let virgin = client.query_ledger("part", 0).unwrap();
        assert_eq!(virgin.next_epoch, 0);
        assert_eq!(virgin.rounds_debited, vec![0, 0, 0]);
        node.shutdown();
    }

    #[test]
    fn refused_users_are_withheld_before_the_lane() {
        let node = NodeServer::start(NodeConfig::default()).unwrap();
        let mut client = Client::connect(node.local_addr()).unwrap();
        client.create_campaign("part", spec(3)).unwrap();
        client
            .submit_chunked(
                "part",
                &[
                    stamped(0, 0, 10, 1.0),
                    stamped(1, 0, 2_000, 2.0), // late — but refused first
                    stamped(2, 0, 20, 3.0),
                ],
                8,
            )
            .unwrap();
        // User 1 is refused: its late report is withheld before the
        // deadline cut, so it counts as refused, not late.
        let prepared = client.close_round_prepare("part", 0, vec![1]).unwrap();
        assert_eq!(prepared.refused_seen, 1);
        assert_eq!(prepared.late, 0);
        assert_eq!(prepared.claims.len(), 2);
        // Re-driving with a different refusal set is refused.
        assert!(client.close_round_prepare("part", 0, vec![2]).is_err());
        node.shutdown();
    }

    #[test]
    fn commit_without_prepare_and_wrong_epochs_are_refused() {
        let node = NodeServer::start(NodeConfig::default()).unwrap();
        let mut client = Client::connect(node.local_addr()).unwrap();
        client.create_campaign("part", spec(2)).unwrap();
        assert!(client
            .close_round_commit("part", 0, 1, vec![0], vec![0.1, 0.0], vec![1, 0])
            .is_err());
        assert!(client.close_round_prepare("part", 5, vec![]).is_err());
        assert!(client.query_ledger("part", 7).is_err());
        node.shutdown();
    }
}
