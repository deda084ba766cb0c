//! The cluster node: one partition of a campaign behind the v3 wire
//! protocol.
//!
//! A node is deliberately dumb. It owns a **local** slice of the
//! population (dense local ids `0..local_users`), hosts it on the same
//! [`dptd_server::host`] a campaign server uses — slot map and
//! quarantine, bounded [`SubmissionQueue`] with one round of lookahead,
//! spec admission, durable open, request envelope — and filters it with
//! the engine's round filter: one [`ShardState`] over the whole
//! partition, kept for the campaign's life. Each admitted batch of the
//! open round is filtered into it as it arrives, on the thread that
//! decoded it: users the node's own committed ledger has spent out are
//! withheld and counted first, every other report goes into the shard
//! (deadline, then first-wins) — the exact single-node order. The paper
//! budgets each user independently, so the node that owns a user can
//! decide that user's refusal alone. What only a node adds is the
//! two-phase barrier:
//!
//! 1. `CloseRoundPrepare` checks that the coordinator's refusal set is
//!    the one the node's ledger implies (anything else means the two
//!    ledgers diverged, and is refused with nothing moved) and returns
//!    the shard's survivors so far, copied out of its non-resetting
//!    view into the claim columns the reply carries, **without**
//!    touching durable state. Prepare is cumulative and repeatable: the
//!    shard's epoch stays open until commit, so a re-driven barrier
//!    (after a coordinator restart, or more submissions on a failed
//!    round) sees the whole stream's result.
//! 2. `CloseRoundCommit` durably appends the node's slice of the merged
//!    round — the coordinator computed it; the node just persists an
//!    [`EpochRecord`] to its segmented store and acks — then closes the
//!    shard's epoch. A batch staged after the last prepare is discarded
//!    with it, unless a re-driven prepare included it: the commit seals
//!    the prepared reply. The claims the last prepare replied with (shared
//!    with that reply, never copied again) and the counts are kept so a
//!    re-driven prepare of that epoch replays them, and the reset shard
//!    serves the next round with its allocations kept. The record's
//!    debits rebuild the refusal set before the queue stages the next
//!    round's lookahead under it. Re-committing the previous epoch is
//!    acknowledged idempotently iff the record is byte-identical to the
//!    durable one, which is what lets a coordinator that died between
//!    commit fan-out and its own state advance re-drive the barrier
//!    safely — unless this node restarted since: the kept claims are
//!    never durable, so it refuses the re-drive.
//!
//! The node never sees another node's users and never computes truths:
//! global state lives in the coordinator's merge and comes back to rest
//! here, sliced, in the commit. `QueryLedger` serves those slices back
//! (current, or one epoch back while a barrier may still be re-driven)
//! for coordinator failover, and `ReplicateSegment` makes the node a
//! **follower**: it applies a primary's replicated store stream under
//! its own replica root, ready to take over via ordinary crash
//! recovery. All of it is one `Request → Response` handler, `NodeState`:
//! [`NodeServer`] serves it over TCP, and the coordinator's barrier
//! simulator calls it in-process.

use std::collections::{btree_map::Entry, BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use dptd_engine::shard::ShardState;
use dptd_engine::store::{DirFs, StoreConfig, StoreObserver};
use dptd_engine::wal::{RecordKind, RecordLog, WalLock, WalPolicy};
use dptd_engine::{recovery::recover_replay, EpochRecord};
use dptd_obs::{names, MetricValue};
use dptd_protocol::budget::BudgetAccountant;
use dptd_protocol::campaign::CampaignConfig;
use dptd_protocol::message::StampedReport;
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
    /// Reactor sizing and connection deadlines for the shared front end.
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

/// The open round's bookkeeping beside the shard: opened by the first
/// batch staged into the round (or by its first prepare), alive until
/// its commit.
#[derive(Debug)]
struct StagedRound {
    epoch: u64,
    /// Per spent-out user ([`NodeCampaign::exhausted`]), whether a
    /// report of theirs was withheld.
    withheld: Vec<bool>,
    /// The last prepare's `Prepared` reply, `None` until one was sent:
    /// the commit keeps it, claims (the shard's rows) shared, instead of
    /// copying the rows again.
    prepared: Option<Response>,
}

impl StagedRound {
    /// Distinct refused users with a report withheld, mirroring the
    /// driver's `refused_users` count.
    fn refused_seen(&self) -> u64 {
        self.withheld.iter().filter(|&&seen| seen).count() as u64
    }
}

/// The frozen prepare result of the last **committed** epoch, retained
/// so a re-driven barrier can replay phase one without the queue.
#[derive(Debug)]
struct CommittedPrepare {
    epoch: u64,
    /// The refusal set the epoch was filtered and prepared under.
    refused: Vec<u64>,
    reply: Response,
}

/// One campaign partition on this node.
#[derive(Debug)]
struct NodeCampaign {
    local_users: usize,
    config: CampaignConfig,
    policy: WalPolicy,
    queue: SubmissionQueue,
    /// Rounds a user can afford under the spec's per-round loss and
    /// budget.
    affordable: u32,
    /// The local users this node's committed ledger has spent out
    /// (`rounds_debited >= affordable`), ascending: withheld from every
    /// batch staged into the open round, and the refusal set a prepare
    /// must arrive with. Rebuilt at each commit, before the lookahead
    /// is staged.
    exhausted: Vec<u64>,
    /// The round filter, for the campaign's whole life: the open
    /// round's survivors so far, each batch filtered into it as it
    /// arrives.
    shard: ShardState,
    staged: Option<StagedRound>,
    last_prepared: Option<CommittedPrepare>,
    /// Reports accepted by every round this process committed.
    committed_accepted: u64,
    /// Committed records, newest last — enough history to serve
    /// `QueryLedger` one epoch back during barrier re-drives.
    history: VecDeque<EpochRecord>,
    log: Option<Box<dyn RecordLog>>,
    _wal_lock: Option<WalLock>,
    replication_failure: Option<crate::replication::FailureSlot>,
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
                // Every retained record predates the node's epoch.
                let why = if resolved > next_epoch {
                    "is ahead of this node"
                } else {
                    "is no longer retained"
                };
                return refuse(
                    ErrorCode::InvalidRequest,
                    format!("ledger as of epoch {resolved} {why} (node is at epoch {next_epoch})"),
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

    /// Phase one. The checks run under a `node.drain` span and building
    /// the reply under a `node.reply` span, both children of the
    /// coordinator's barrier span the frame carried. The reports are
    /// already filtered: each batch entered the shard as it arrived.
    fn prepare(&mut self, epoch: u64, refused: Vec<u64>) -> Response {
        let drain = dptd_obs::TraceScope::begin(dptd_obs::codes::NODE_DRAIN, epoch);
        if refused.iter().any(|&u| u as usize >= self.local_users) {
            return refuse(
                ErrorCode::InvalidRequest,
                "a refused user id is outside this node's partition",
            );
        }
        let mut refused_sorted = refused;
        refused_sorted.sort_unstable();
        refused_sorted.dedup();

        // A barrier re-drive for the epoch this node already committed:
        // replay the frozen prepare (the commit sealed it). Only a
        // restart loses it: the claims are not in the durable record,
        // so the round cannot be re-driven.
        if epoch + 1 == self.queue.next_epoch() {
            let Some(last) = self.last_prepared.as_ref().filter(|p| p.epoch == epoch) else {
                return refuse(
                    ErrorCode::InvalidRequest,
                    format!(
                        "epoch {epoch} is already committed and its prepare expired: this node \
                         restarted after committing it, and a round's claims are never durable, \
                         so the cluster cannot close epoch {epoch}"
                    ),
                );
            };
            if last.refused != refused_sorted {
                return refuse(
                    ErrorCode::InvalidRequest,
                    "barrier re-driven with a different refusal set",
                );
            }
            drop(drain);
            let _reply = dptd_obs::TraceScope::begin(dptd_obs::codes::NODE_REPLY, epoch);
            return last.reply.clone();
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
        // The round was filtered against this node's ledger; the
        // coordinator's ledger must name the same users.
        if refused_sorted != self.exhausted {
            return refuse(
                ErrorCode::InvalidRequest,
                format!(
                    "the refusal set differs from this node's ledger ({} refused, {} spent out)",
                    refused_sorted.len(),
                    self.exhausted.len()
                ),
            );
        }
        self.queue.release();
        let staged = open_round(&mut self.staged, &self.exhausted, epoch);
        drop(drain);
        // The reply: the shard's rows so far, users ascending. A row's
        // user is its local slot and its claims keep report order, so
        // each row is the report that first won its slot.
        let _reply = dptd_obs::TraceScope::begin(dptd_obs::codes::NODE_REPLY, epoch);
        let reply = Response::Prepared {
            epoch,
            duplicates: self.shard.duplicates_discarded() as u64,
            late: self.shard.late_dropped(),
            refused_seen: staged.refused_seen(),
            claims: Arc::new(self.shard.claims()),
        };
        staged.prepared = Some(reply.clone());
        reply
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
        let Some((reply, rows)) = self.staged.as_ref().and_then(|s| match &s.prepared {
            Some(reply @ Response::Prepared { claims, .. }) => {
                Some((reply.clone(), claims.columns().0.len()))
            }
            _ => None,
        }) else {
            return refuse(
                ErrorCode::InvalidRequest,
                format!("commit for epoch {epoch} without a prepared round"),
            );
        };
        if let Some(log) = self.log.as_mut() {
            if let Err(e) = log.append_record(&record) {
                // The append failed atomically; the staged round stays,
                // so the barrier can be re-driven.
                return refuse(ErrorCode::WalRefused, e.to_string());
            }
        }
        // The prepared claims are the shard's rows: close the epoch
        // without copying them again. The round aggregated the prepared
        // rows only; a batch staged after that prepare is discarded here.
        self.staged = None;
        self.shard.end_epoch();
        self.committed_accepted += rows as u64;
        // The record's debits decide the next round's refusals — before
        // the lookahead is staged into it.
        let next_exhausted = spent_out(&record.rounds_debited, self.affordable);
        self.last_prepared = Some(CommittedPrepare {
            epoch,
            refused: std::mem::replace(&mut self.exhausted, next_exhausted),
            reply,
        });
        self.history.push_back(record);
        while self.history.len() > LEDGER_HISTORY {
            self.history.pop_front();
        }
        let Self {
            queue,
            shard,
            staged,
            exhausted,
            ..
        } = self;
        let staged = queue.advance(|next, batch| stage(shard, staged, exhausted, next, batch));
        debug_assert!(staged.is_ok(), "staging cannot fail");
        Response::Committed {
            epoch,
            appended: true,
        }
    }
}

/// The users `rounds_debited` has spent out under `affordable` rounds a
/// user, ascending.
fn spent_out(rounds_debited: &[u32], affordable: u32) -> Vec<u64> {
    (0u64..)
        .zip(rounds_debited)
        .filter(|&(_, &debits)| debits >= affordable)
        .map(|(user, _)| user)
        .collect()
}

/// `staged`, opened for `epoch` with nothing withheld if no batch or
/// prepare has opened it yet.
fn open_round<'a>(
    staged: &'a mut Option<StagedRound>,
    exhausted: &[u64],
    epoch: u64,
) -> &'a mut StagedRound {
    let round = staged.get_or_insert_with(|| StagedRound {
        epoch,
        withheld: vec![false; exhausted.len()],
        prepared: None,
    });
    debug_assert_eq!(round.epoch, epoch, "a round is staged for another epoch");
    round
}

/// The node's stage step: a batch of the open round enters its filter
/// now, on the thread that decoded it. Spent-out users are withheld
/// first, every other report goes through the shard's deadline and
/// first-wins checks — the exact driver order.
fn stage(
    shard: &mut ShardState,
    staged: &mut Option<StagedRound>,
    exhausted: &[u64],
    epoch: u64,
    batch: Vec<StampedReport>,
) -> Result<(), Response> {
    let count = batch.len() as u64;
    dptd_obs::trace::instant(dptd_obs::codes::DEQUEUE, count);
    let _span = dptd_obs::TraceScope::begin(dptd_obs::codes::STAGE, count);
    let round = open_round(staged, exhausted, epoch);
    // Borrowed, and the batch freed whole afterwards, as the engine's
    // stage does.
    for stamped in &batch {
        match exhausted.binary_search(&(stamped.report.user as u64)) {
            Ok(index) => round.withheld[index] = true,
            Err(_) => {
                shard.ingest_borrowed(stamped);
            }
        }
    }
    drop(batch);
    Ok(())
}

impl Hosted for NodeCampaign {
    /// Queue occupancy and ingest counters — all a node reports about a
    /// partition: `dptd cluster status` prints each node's row from them
    /// and absorbs them into the fleet-wide total. `accepted` is
    /// cumulative, like a campaign server's: every committed round plus
    /// the staged one's survivors so far.
    fn status(&self) -> Vec<(&'static str, MetricValue)> {
        let accepted = self.committed_accepted + self.shard.accepted() as u64;
        vec![
            (names::QUEUE_DEPTH, MetricValue::Gauge(self.queue.depth())),
            (names::SUBMITTED, MetricValue::Counter(self.queue.taken())),
            (names::ACCEPTED, MetricValue::Counter(accepted)),
            (names::ROUNDS, MetricValue::Counter(self.queue.next_epoch())),
        ]
    }
}

/// A node's partitions and roles, bound to no socket.
pub(crate) struct NodeState {
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
    /// Check `config`'s geometry and build the state it describes.
    pub(crate) fn new(config: &NodeConfig) -> Result<Self, ClusterError> {
        if config.num_nodes == 0 || config.node_id >= config.num_nodes {
            return Err(ClusterError::Topology(format!(
                "node id {} is outside a {}-node cluster",
                config.node_id, config.num_nodes
            )));
        }
        Ok(Self {
            node_id: config.node_id,
            num_nodes: config.num_nodes,
            wal_root: config.wal_root.clone(),
            replicate_to: config.replicate_to.clone(),
            replica_root: config.replica_root.clone(),
            store: config.store,
            host: Host::new(NOUN, config.max_campaigns.max(1)),
            replicas: Mutex::new(BTreeMap::new()),
        })
    }

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
                let (users, objects) = (part.local_users, part.config.num_objects);
                let NodeCampaign {
                    queue,
                    shard,
                    staged,
                    exhausted,
                    ..
                } = part;
                queue.offer(reports, users, objects, NOUN, |epoch, batch| {
                    stage(shard, staged, exhausted, epoch, batch)
                })
            }),
            Request::CloseRoundPrepare {
                campaign,
                epoch,
                refused,
                ..
            } => self
                .host
                .with(&campaign, |part| part.prepare(epoch, refused)),
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
        let affordable = BudgetAccountant::new(1, config.per_round_loss, config.budget)
            .map_err(|e| refuse(ErrorCode::InvalidRequest, e.to_string()))?
            .affordable_rounds();

        let mut next_epoch = 0u64;
        let mut exhausted = Vec::new();
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
            exhausted = spent_out(&recovered.rounds_debited, affordable);
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
                affordable,
                exhausted,
                shard: ShardState::new(
                    0,
                    1,
                    local_users,
                    config.num_objects,
                    config.deadline_us,
                    Loss::Squared,
                ),
                staged: None,
                last_prepared: None,
                committed_accepted: 0,
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
/// the shared connection front end, closes live connections, joins the
/// reactor threads, and flushes durable partitions.
#[derive(Debug)]
pub struct NodeServer {
    state: Arc<NodeState>,
    frontend: Frontend,
}

impl NodeServer {
    /// Bind `config.listen` and start accepting on the same reactor
    /// front end the campaign server uses.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Server`] when the address cannot be bound and
    /// [`ClusterError::Topology`] for inconsistent node geometry.
    pub fn start(config: NodeConfig) -> Result<Self, ClusterError> {
        let state = Arc::new(NodeState::new(&config)?);
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
impl NodeState {
    /// Make `campaign`'s next append on this node fail once (a volatile
    /// partition's too: its log becomes one that only fails).
    pub(crate) fn fail_next_append(&self, campaign: &str) {
        // `with` is the one mutable door to slot state; its reply is
        // of no interest here.
        self.host.with(campaign, |part| {
            let inner = part.log.take();
            part.log = Some(Box::new(FailNextAppend { inner, armed: true }));
            Response::Created { resumed_rounds: 0 }
        });
    }

    /// Force-quarantine a partition — see [`Host::poison`].
    pub(crate) fn poison(&self, campaign: &str) -> bool {
        self.host.poison(campaign)
    }
}

#[cfg(test)]
impl NodeServer {
    /// Make `campaign`'s next durable append on this node fail once.
    pub(crate) fn fail_next_append(&self, campaign: &str) {
        self.state.fail_next_append(campaign);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_core::roles::PerturbedReport;
    use dptd_protocol::campaign::{CampaignDriver, DriverRound, SimBackend};
    use dptd_protocol::message::StampedReport;
    use dptd_server::client::PreparedOutcome;
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

    /// A campaign whose budget affords one round, as the node and as the
    /// in-process reference see it: a debited user is spent out.
    fn one_round_spec(local_users: u64) -> CampaignSpec {
        CampaignSpec {
            budget_epsilon: 0.5,
            ..spec(local_users)
        }
    }

    fn reference(local_users: usize) -> CampaignDriver<SimBackend> {
        let (config, _) = admit(&one_round_spec(local_users as u64), u64::MAX).unwrap();
        CampaignDriver::new(SimBackend::new(local_users, Loss::Squared).unwrap(), config).unwrap()
    }

    /// Round 0 of a one-round campaign debits `user` alone: from round 1
    /// on, the node's own ledger refuses `user`.
    fn spend_out(client: &mut Client, local_users: usize, user: usize) {
        client
            .create_campaign("part", one_round_spec(local_users as u64))
            .unwrap();
        client
            .submit_chunked("part", &[stamped(user, 0, 10, 1.0)], 8)
            .unwrap();
        client.close_round_prepare("part", 0, vec![]).unwrap();
        let mut debits = vec![0; local_users];
        debits[user] = 1;
        let mut losses = vec![0.0; local_users];
        losses[user] = 0.5;
        client
            .close_round_commit("part", 0, 1, vec![user as u64], losses, debits)
            .unwrap();
    }

    /// Commit `epoch` with the reference's ledger after its round.
    fn commit_as(
        client: &mut Client,
        reference: &CampaignDriver<SimBackend>,
        epoch: u64,
        prepared: &PreparedOutcome,
    ) {
        let debits = reference.accountant().debits_by_user().to_vec();
        let accepted = prepared.claims.iter().map(|c| c.user as u64).collect();
        let losses = vec![0.0; debits.len()];
        client
            .close_round_commit("part", epoch, epoch + 1, accepted, losses, debits)
            .unwrap();
    }

    /// A node's prepare and the reference's round agree count for count.
    fn assert_matches(prepared: &PreparedOutcome, expected: &DriverRound) {
        assert_eq!(
            (
                prepared.claims.len(),
                prepared.refused_seen,
                prepared.duplicates,
                prepared.late
            ),
            (
                expected.accepted,
                expected.refused_users as u64,
                expected.duplicates_discarded,
                expected.late_dropped
            )
        );
    }

    #[test]
    fn refused_users_are_withheld_before_the_lane() {
        let node = NodeServer::start(NodeConfig::default()).unwrap();
        let mut client = Client::connect(node.local_addr()).unwrap();
        spend_out(&mut client, 3, 1);
        client
            .submit_chunked(
                "part",
                &[
                    stamped(0, 1, 10, 1.0),
                    stamped(1, 1, 2_000, 2.0), // late — but refused first
                    stamped(2, 1, 20, 3.0),
                ],
                8,
            )
            .unwrap();
        // User 1 is refused: its late report is withheld before the
        // deadline cut, so it counts as refused, not late.
        let prepared = client.close_round_prepare("part", 1, vec![1]).unwrap();
        assert_eq!(prepared.refused_seen, 1);
        assert_eq!(prepared.late, 0);
        assert_eq!(prepared.claims.len(), 2);
        // Re-driving with a different refusal set is refused.
        assert!(client.close_round_prepare("part", 1, vec![2]).is_err());
        node.shutdown();
    }

    /// The node filtered the round against its own ledger as it arrived,
    /// so a prepare under any other refusal set — one user more, or one
    /// fewer — is refused and moves nothing; the matching prepare then
    /// equals the reference.
    #[test]
    fn a_prepare_under_another_refusal_set_is_refused_and_moves_nothing() {
        let node = NodeServer::start(NodeConfig::default()).unwrap();
        let mut client = Client::connect(node.local_addr()).unwrap();
        client.create_campaign("part", one_round_spec(3)).unwrap();
        let mut reference = reference(3);
        // Round 0 spends users 0 and 1 out.
        let round0 = [stamped(0, 0, 10, 1.0), stamped(1, 0, 20, 2.0)];
        client.submit_chunked("part", &round0, 8).unwrap();
        let prepared = client.close_round_prepare("part", 0, vec![]).unwrap();
        assert_matches(&prepared, &reference.run_round(0, round0.to_vec()).unwrap());
        commit_as(&mut client, &reference, 0, &prepared);

        let round1 = [
            stamped(2, 1, 10, 3.0),
            stamped(1, 1, 20, 4.0),
            stamped(0, 1, 2_000, 5.0), // late — but refused first
            stamped(2, 1, 30, 6.0),    // duplicate
        ];
        client.submit_chunked("part", &round1, 8).unwrap();
        let depth = names::campaign_metric("part", names::QUEUE_DEPTH);
        let queued = |client: &mut Client| client.query_status().unwrap().scalar(&depth);
        assert_eq!(queued(&mut client), Some(4));
        for other in [vec![0, 1, 2], vec![0]] {
            match client.close_round_prepare("part", 1, other.clone()) {
                Err(dptd_server::ServerError::Remote { code, message }) => {
                    assert_eq!(code, ErrorCode::InvalidRequest, "{other:?}");
                    assert!(
                        message.contains("differs from this node's ledger"),
                        "{message}"
                    );
                }
                reply => panic!("prepared under {other:?}: {reply:?}"),
            }
            assert_eq!(queued(&mut client), Some(4), "nothing released");
        }
        let prepared = client.close_round_prepare("part", 1, vec![1, 0]).unwrap();
        assert_matches(&prepared, &reference.run_round(1, round1.to_vec()).unwrap());
        assert_eq!(prepared.claims.len(), 1);
        assert_eq!(prepared.claims[0].user, 2);
        assert_eq!(queued(&mut client), Some(0));
        node.shutdown();
    }

    /// A batch for epoch e + 1 submitted while e is open waits in the
    /// queue and is staged when e commits — under the refusals e's
    /// debits imply, so a user e spent out is withheld from it.
    #[test]
    fn a_lookahead_batch_is_staged_under_the_committed_rounds_refusals() {
        let node = NodeServer::start(NodeConfig::default()).unwrap();
        let mut client = Client::connect(node.local_addr()).unwrap();
        client.create_campaign("part", one_round_spec(3)).unwrap();
        let mut reference = reference(3);
        let round0 = [stamped(0, 0, 10, 1.0), stamped(1, 0, 20, 2.0)];
        let lookahead = [stamped(1, 1, 10, 3.0), stamped(2, 1, 20, 4.0)];
        client.submit_chunked("part", &round0, 8).unwrap();
        client.submit_chunked("part", &lookahead, 8).unwrap();
        let prepared = client.close_round_prepare("part", 0, vec![]).unwrap();
        assert_matches(&prepared, &reference.run_round(0, round0.to_vec()).unwrap());
        commit_as(&mut client, &reference, 0, &prepared);

        let prepared = client.close_round_prepare("part", 1, vec![0, 1]).unwrap();
        let expected = reference.run_round(1, lookahead.to_vec()).unwrap();
        assert_matches(&prepared, &expected);
        assert_eq!((prepared.refused_seen, prepared.claims.len()), (1, 1));
        assert_eq!(prepared.claims[0].user, 2, "spent-out user 1 withheld");
        node.shutdown();
    }

    /// `accepted` is a counter: it never drops at a commit, and it counts
    /// every committed round plus the staged round's survivors so far.
    #[test]
    fn accepted_counts_committed_rounds_plus_the_staged_one() {
        let node = NodeServer::start(NodeConfig::default()).unwrap();
        let mut client = Client::connect(node.local_addr()).unwrap();
        client.create_campaign("part", spec(3)).unwrap();
        let key = names::campaign_metric("part", names::ACCEPTED);
        let accepted = |client: &mut Client| client.query_status().unwrap().get(&key).cloned();

        let round0 = [
            stamped(0, 0, 10, 1.0),
            stamped(1, 0, 20, 2.0),
            stamped(1, 0, 30, 9.0), // duplicate
        ];
        client.submit_chunked("part", &round0, 8).unwrap();
        client.close_round_prepare("part", 0, vec![]).unwrap();
        assert_eq!(accepted(&mut client), Some(MetricValue::Counter(2)));
        client
            .close_round_commit("part", 0, 1, vec![0, 1], vec![0.5, 0.5, 0.0], vec![1, 1, 0])
            .unwrap();
        assert_eq!(accepted(&mut client), Some(MetricValue::Counter(2)));

        let round1 = [
            stamped(0, 1, 10, 1.0),
            stamped(1, 1, 2_000, 2.0), // late
            stamped(2, 1, 20, 3.0),
        ];
        client.submit_chunked("part", &round1, 8).unwrap();
        let prepared = client.close_round_prepare("part", 1, vec![]).unwrap();
        assert_eq!((prepared.claims.len(), prepared.late), (2, 1));
        assert_eq!(accepted(&mut client), Some(MetricValue::Counter(2 + 2)));
        node.shutdown();
    }

    /// A batch staged after the last prepare is not in the committed
    /// round, so the commit does not count it as accepted.
    #[test]
    fn accepted_skips_a_batch_staged_after_the_prepare() {
        let node = NodeServer::start(NodeConfig::default()).unwrap();
        let mut client = Client::connect(node.local_addr()).unwrap();
        client.create_campaign("part", spec(3)).unwrap();
        let key = names::campaign_metric("part", names::ACCEPTED);

        let round0 = [stamped(0, 0, 10, 1.0), stamped(1, 0, 20, 2.0)];
        client.submit_chunked("part", &round0, 8).unwrap();
        client.close_round_prepare("part", 0, vec![]).unwrap();
        client
            .submit_chunked("part", &[stamped(2, 0, 30, 3.0)], 8)
            .unwrap();
        client
            .close_round_commit("part", 0, 1, vec![0, 1], vec![0.5, 0.5, 0.0], vec![1, 1, 0])
            .unwrap();
        let status = client.query_status().unwrap();
        assert_eq!(status.get(&key), Some(&MetricValue::Counter(2)));
        node.shutdown();
    }

    /// A re-driven prepare of the committed epoch replays the frozen
    /// round byte for byte — the last staged reply's, not an earlier
    /// one's — and the next round starts from an empty filter, under
    /// the refusals the commit's debits imply.
    #[test]
    fn a_committed_prepare_replays_and_the_next_round_starts_clean() {
        let node = NodeServer::start(NodeConfig::default()).unwrap();
        let mut client = Client::connect(node.local_addr()).unwrap();
        spend_out(&mut client, 4, 1);
        let round1 = [
            stamped(2, 1, 10, 1.0),
            stamped(0, 1, 20, 2.0),
            stamped(2, 1, 30, 9.0),    // duplicate
            stamped(1, 1, 5_000, 4.0), // late
            stamped(1, 1, 40, 5.0),
        ];
        // An earlier prepare sees the first report only; the replay must
        // not return it.
        client.submit_chunked("part", &round1[..1], 2).unwrap();
        let early = client.close_round_prepare("part", 1, vec![1]).unwrap();
        assert_eq!(early.claims.len(), 1);
        client.submit_chunked("part", &round1[1..], 2).unwrap();
        let staged = client.close_round_prepare("part", 1, vec![1]).unwrap();
        let users: Vec<usize> = staged.claims.iter().map(|c| c.user).collect();
        assert_eq!(
            users,
            vec![0, 2],
            "users ascending, refused user 1 withheld"
        );
        assert_eq!(
            staged.claims[1].values,
            vec![(0, 1.0), (1, 2.0)],
            "first wins"
        );
        assert_eq!(
            (staged.duplicates, staged.late, staged.refused_seen),
            (1, 0, 1)
        );
        let columns = |client: &mut Client| {
            let prepare = Request::CloseRoundPrepare {
                campaign: "part".to_string(),
                epoch: 1,
                refused: vec![1],
                ctx: None,
            };
            let reply = client.request(&prepare).unwrap();
            let Response::Prepared { claims, .. } = &reply else {
                panic!("expected Prepared, got {reply:?}");
            };
            (Arc::clone(claims), reply)
        };
        let (last_claims, last) = columns(&mut client);
        client
            .close_round_commit(
                "part",
                1,
                2,
                vec![0, 2],
                vec![0.5, 0.5, 0.5, 0.0],
                vec![1, 1, 1, 0],
            )
            .unwrap();
        let replayed = client.close_round_prepare("part", 1, vec![1]).unwrap();
        assert_eq!(replayed, staged);
        assert_ne!(replayed, early);
        let (claims, replayed) = columns(&mut client);
        assert_eq!(claims.len(), last_claims.len());
        for row in 0..last_claims.len() {
            assert_eq!(claims.row(row), last_claims.row(row), "row {row}");
        }
        assert_eq!(replayed, last);

        // Round 1 spent users 0 and 2 out: only user 3 is left.
        client
            .submit_chunked("part", &[stamped(2, 2, 10, 6.0), stamped(3, 2, 10, 7.0)], 8)
            .unwrap();
        let next = client
            .close_round_prepare("part", 2, vec![0, 1, 2])
            .unwrap();
        assert_eq!((next.claims.len(), next.duplicates, next.late), (1, 0, 0));
        assert_eq!(next.refused_seen, 1);
        assert_eq!(next.claims[0].user, 3);
        assert_eq!(next.claims[0].values, vec![(0, 7.0), (1, 8.0)]);
        node.shutdown();
    }

    /// The per-report view `close_round_prepare` rebuilds from the
    /// claim columns: one report per row, users ascending, claims in
    /// report order, a report with no claims kept as an empty row — for
    /// a staged prepare and for a replay of the committed epoch.
    #[test]
    fn the_per_report_view_is_the_columns_row_for_row() {
        let node = NodeServer::start(NodeConfig::default()).unwrap();
        let mut client = Client::connect(node.local_addr()).unwrap();
        client.create_campaign("part", spec(3)).unwrap();
        let report = |user, sent_at_us, values| StampedReport {
            epoch: 0,
            sent_at_us,
            report: PerturbedReport { user, values },
        };
        let round = [
            report(2, 10, vec![(1, 5.0), (0, 4.0)]),
            report(0, 20, vec![]),
            report(2, 30, vec![(0, 9.0)]), // duplicate
            report(1, 40, vec![(0, 1.0)]),
        ];
        client.submit_chunked("part", &round, 8).unwrap();
        let expected = vec![
            PerturbedReport {
                user: 0,
                values: vec![],
            },
            PerturbedReport {
                user: 1,
                values: vec![(0, 1.0)],
            },
            PerturbedReport {
                user: 2,
                values: vec![(1, 5.0), (0, 4.0)],
            },
        ];
        // The reply as it came off the wire, and its columns rebuilt row
        // by row into the per-report view.
        let columns = |client: &mut Client| {
            let prepare = Request::CloseRoundPrepare {
                campaign: "part".to_string(),
                epoch: 0,
                refused: vec![],
                ctx: None,
            };
            let Response::Prepared {
                epoch,
                duplicates,
                late,
                refused_seen,
                claims,
            } = client.request(&prepare).unwrap()
            else {
                panic!("expected Prepared");
            };
            let rows = (0..claims.len()).map(|row| {
                let (user, objects, values) = claims.row(row);
                let values = objects.iter().copied().zip(values.iter().copied());
                PerturbedReport {
                    user,
                    values: values.collect(),
                }
            });
            let view = PreparedOutcome {
                epoch,
                duplicates,
                late,
                refused_seen,
                claims: rows.collect(),
            };
            (claims, view)
        };

        let staged = client.close_round_prepare("part", 0, vec![]).unwrap();
        assert_eq!(staged.claims, expected);
        let (shard, view) = columns(&mut client);
        assert_eq!(
            shard.columns(),
            (
                &[0, 1, 2][..],
                &[0, 0, 1, 3][..],
                &[0, 1, 0][..],
                &[1.0, 5.0, 4.0][..]
            )
        );
        assert_eq!(view, staged);

        client
            .close_round_commit("part", 0, 1, vec![0, 1, 2], vec![0.5; 3], vec![1; 3])
            .unwrap();
        let replayed = client.close_round_prepare("part", 0, vec![]).unwrap();
        assert_eq!(replayed.claims, expected);
        assert_eq!(replayed, staged);
        assert_eq!(columns(&mut client).1, staged);
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
        match client.query_ledger("part", 7) {
            Err(dptd_server::ServerError::Remote { message, .. }) => assert_eq!(
                message,
                "ledger as of epoch 7 is ahead of this node (node is at epoch 0)"
            ),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        node.shutdown();
    }
}
