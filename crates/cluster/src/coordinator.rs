//! The cluster coordinator: one campaign fanned across N nodes, closed
//! with a two-phase barrier.
//!
//! The coordinator is a client-side object, not a service: it owns the
//! campaign's **global** state — the [`StreamingCrh`] estimator and
//! the per-user [`BudgetAccountant`] — and treats the nodes as remote
//! filter-and-persist boxes; a node's filter is the engine's
//! `ShardState`, run over its whole partition. A round closes in two
//! phases:
//!
//! 1. **Prepare**: every node has already filtered each batch as it
//!    arrived (refusal withhold → deadline → first-wins dedup, the
//!    exact single-node order, withholding the users its own committed
//!    ledger spent out). The coordinator sends the refusal set its
//!    ledger implies as a cross-check — a node refuses any other — and
//!    every node returns its surviving claims as columns, users
//!    ascending in its local ids. Nothing durable happens.
//! 2. **Merge + Commit**: the coordinator loads all claims into the
//!    campaign's one [`ColumnarBatch`] arena (sized for the population
//!    when the campaign opens, reused every round, as the engine's
//!    close reuses its own) and runs
//!    [`ingest_columnar_with_workers`](StreamingCrh::ingest_columnar_with_workers)
//!    over it — the same deterministic shard-merge the engine uses, so
//!    the result is bit-identical to a single node, and the weights
//!    digest is hashed beside the merge's weight refresh — debits the
//!    accepted users, then fans each node its **slice** of the
//!    post-round state to append durably. Only when every node has
//!    acknowledged does the coordinator advance its own epoch.
//!
//! Opening (hello, create, ledger), prepare and commit each cross one
//! seam, [`Nodes::fan_out`]: one [`Request`] to every node, then every
//! node's [`Response`] or transport error in node-id order; the
//! coordinator builds and parses the frames. Over TCP it is a
//! `Vec<Client>` and a **scatter/gather**: every request goes out
//! before any reply is read, so node prepares, commit fsyncs and
//! follower acks overlap, while each connection carries one unanswered
//! request. Every reply is then read and decoded at once, through
//! [`scoped_map`]: the last node's on the caller, each other's on a
//! scoped thread, so no node's write of a reply larger than its socket
//! buffer waits behind the decode of another node's. This module's tests drive
//! the same seam over in-process nodes with a seeded fault simulator.
//! Submission is one pipelined stream per node ([`dptd_server::submit_streams`]): a
//! window of batches in flight on every connection, each frame encoded
//! straight from the caller's slice under the node-local user id, and a
//! node accepts only its connection's next batch, which keeps its
//! stream order. Either way the fan-out reads every reply or ack it is
//! owed before it surfaces the first error in node-id order, so a
//! refusal never leaves a stale frame on another node's connection, and
//! between fan-outs each connection again holds no unanswered request.
//! Replies are folded in node-id order, so the merged bits stay a pure
//! function of node id, not of which node answered first.
//!
//! **The pending commit.** Once the merge has moved the estimator and
//! the ledger, the round is held in the campaign as *merged but
//! uncommitted* until every node has acknowledged its slice. If the
//! commit fan-out fails (a node's WAL refuses an append, a connection
//! dies), [`ClusterCampaign::close_round`] for the same epoch skips
//! prepare and merge and re-sends the **identical** slices — nodes that
//! hold the epoch acknowledge idempotently, the rest append — so a
//! retried round is never merged or debited twice.
//! [`ClusterCampaign::submit`] is refused while a commit is pending:
//! the round's content is sealed.
//!
//! Every durable fact lives on the nodes, so a dead coordinator is
//! recovered by [`ClusterCampaign::resume`]: it reads each node's
//! ledger, aligns them at the **minimum** committed epoch (the barrier
//! keeps the spread at most one), rebuilds the estimator bit-exactly
//! with [`StreamingCrh::from_parts`], and — if some nodes had already
//! committed the in-flight epoch — re-drives the barrier: prepares
//! replay the nodes' frozen last rounds, the merge reproduces the
//! identical slices, committed nodes acknowledge idempotently, and the
//! stragglers append. Because the commit is scattered, a crash can
//! leave **any subset** of nodes holding the epoch, not just a prefix
//! in node-id order; alignment at the minimum and per-node idempotent
//! acks make no distinction between the two. `tests/cluster_e2e.rs`
//! pins all of this against the single-node server and the in-process
//! simulator; this module's proptest and barrier simulator pin rounds
//! over 1–4 nodes to
//! [`SimBackend`](dptd_protocol::campaign::SimBackend) bit for bit.
//!
//! One crash wedges the barrier: a node that committed the in-flight
//! epoch and then **restarted** lost its claims, which no record keeps,
//! so it refuses every re-driven prepare, naming the case.
//!
//! [`StreamingCrh::from_parts`]: dptd_truth::streaming::StreamingCrh::from_parts

use std::sync::Arc;

use dptd_ldp::PrivacyLoss;
use dptd_protocol::budget::BudgetAccountant;
use dptd_protocol::message::StampedReport;
use dptd_protocol::partition::PartitionMap;
use dptd_truth::columnar::{scoped_map, ColumnarBatch};
use dptd_truth::streaming::StreamingCrh;
use dptd_truth::Loss;

use dptd_server::client::{LedgerOutcome, DEFAULT_STREAM_WINDOW};
use dptd_server::{
    submit_streams, CampaignSpec, Client, Request, Response, RetryPolicy, ServerError, StreamLane,
};

use crate::partitioner::rendezvous_map;
use crate::ClusterError;

/// The coordinator's one way to its nodes, bar submission: over TCP a
/// `Vec<Client>`, in this module's barrier simulator in-process nodes.
pub trait Nodes {
    /// Send `request(id)` to every node `id`, then return every node's
    /// reply or transport error in node-id order, having read every
    /// reply it is owed — so an error never leaves a reply unread.
    fn fan_out(
        &mut self,
        request: impl FnMut(usize) -> Request,
    ) -> Vec<Result<Response, ServerError>>;
}

/// A scatter/gather, one connection per node: every request is written
/// before any reply is read, then every owed reply is read at once
/// through [`scoped_map`] — the last on the caller, each other on a
/// scoped thread — under a `barrier.reply` span (arg = node id) in the
/// caller's trace context. A failed write stops the scatter (later
/// nodes get no entry), not the gather. Blocking writes cannot
/// deadlock: a node never waits for a reply to be read before it takes
/// the next input.
impl Nodes for Vec<Client> {
    fn fan_out(
        &mut self,
        mut request: impl FnMut(usize) -> Request,
    ) -> Vec<Result<Response, ServerError>> {
        let mut written = Vec::with_capacity(self.len());
        for (id, node) in self.iter_mut().enumerate() {
            let sent = node.send(&request(id));
            let failed = sent.is_err();
            written.push(sent);
            if failed {
                break;
            }
        }
        // A reply too large for the socket buffers blocks its node's
        // write until it is read: reading them all at once lets every
        // node finish writing while the others' replies are decoded.
        let owed = written.into_iter().zip(self.iter_mut()).enumerate();
        scoped_map(owed.collect(), |(id, (sent, node))| {
            sent?;
            let _reply =
                dptd_obs::trace::TraceScope::begin(dptd_obs::codes::BARRIER_REPLY, id as u64);
            node.recv()
        })
    }
}

/// One [`Nodes::fan_out`], each reply parsed by `parse` (which hands
/// back a reply it does not expect): the first transport error, typed
/// refusal or unexpected reply in node-id order.
fn exchange<T>(
    nodes: &mut impl Nodes,
    request: impl FnMut(usize) -> Request,
    mut parse: impl FnMut(Response) -> Result<T, Response>,
) -> Result<Vec<T>, ServerError> {
    let replies = nodes.fan_out(request).into_iter();
    let parsed = replies.map(|reply| match reply? {
        Response::Error { code, message } => Err(ServerError::Remote { code, message }),
        reply => parse(reply).map_err(|other| ServerError::UnexpectedResponse(Box::new(other))),
    });
    parsed.collect()
}

/// Every node's ledger as of `upto` (`u64::MAX` = its latest).
fn query_ledgers(
    nodes: &mut impl Nodes,
    campaign: &str,
    upto: u64,
) -> Result<Vec<LedgerOutcome>, ServerError> {
    let request = |_| Request::QueryLedger {
        campaign: campaign.to_string(),
        upto,
    };
    exchange(nodes, request, |reply| match reply {
        Response::Ledger {
            next_epoch,
            batches_seen,
            rounds_debited,
            cumulative_losses,
        } => Ok(LedgerOutcome {
            next_epoch,
            batches_seen,
            rounds_debited,
            cumulative_losses,
        }),
        other => Err(other),
    })
}

/// The trace context an outgoing barrier frame carries: the thread's
/// ambient span when tracing is on.
fn wire_ctx() -> Option<dptd_obs::SpanContext> {
    dptd_obs::trace::enabled()
        .then(dptd_obs::trace::current)
        .flatten()
}

/// Sizing and privacy policy for a clustered campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Global population size.
    pub num_users: usize,
    /// Objects per round.
    pub num_objects: usize,
    /// Per-round submission deadline (virtual µs).
    pub deadline_us: u64,
    /// The `(ε, δ)` one aggregated report costs its user.
    pub per_round_loss: PrivacyLoss,
    /// The campaign-wide `(ε, δ)` ceiling per user.
    pub budget: PrivacyLoss,
    /// Per-node submission queue capacity.
    pub submission_capacity: u64,
    /// Stream fingerprint stamped into every durable record.
    pub stream_tag: u64,
    /// Whether nodes persist every committed round to their WAL.
    pub durable: bool,
}

/// What one clustered round produced — the cluster analogue of
/// [`DriverRound`](dptd_protocol::campaign::DriverRound).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRound {
    /// The round's epoch id.
    pub epoch: u64,
    /// Estimated truths for the round's objects.
    pub truths: Vec<f64>,
    /// FNV-1a digest of the full-population weights' bit patterns after
    /// the round ([`ClusterCampaign::weights`] holds the weights).
    pub weights_digest: u64,
    /// Reports aggregated this round.
    pub accepted: usize,
    /// Distinct users refused for an exhausted budget.
    pub refused_users: usize,
    /// Duplicates discarded across all nodes (first-wins).
    pub duplicates_discarded: u64,
    /// Reports dropped as late across all nodes.
    pub late_dropped: u64,
    /// Worst cumulative privacy loss across the population.
    pub max_spent: PrivacyLoss,
}

/// One process's contribution to a merged cluster timeline: the
/// coordinator's or a node's retained trace rings, with the wall-clock
/// anchor that places its monotonic timestamps on the fleet clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessTrace {
    /// Human label for the process lane (`coordinator`, `node0`, ...).
    pub label: String,
    /// Wall-clock nanoseconds corresponding to the process's trace
    /// timestamp origin.
    pub anchor_ns: u64,
    /// Per-ring wrap accounting, `(tid, events overwritten)`.
    pub dropped: Vec<(u64, u64)>,
    /// Retained events with process-local monotonic timestamps.
    pub events: Vec<dptd_obs::TraceEvent>,
}

/// Clock-align every process's events onto the **earliest** process
/// anchor and return them as `(pid, event)` pairs — pid `i + 1` for
/// `processes[i]`, matching the lanes [`merge_trace_timeline`] renders.
/// Ring wraps surface as a leading `truncated` instant in their lane
/// (arg = events overwritten) rather than disappearing silently.
#[must_use]
pub fn merge_trace_events(processes: &[ProcessTrace]) -> Vec<(u64, dptd_obs::TraceEvent)> {
    let min_anchor = processes.iter().map(|p| p.anchor_ns).min().unwrap_or(0);
    let mut merged = Vec::new();
    for (i, p) in processes.iter().enumerate() {
        let pid = i as u64 + 1;
        let shift = p.anchor_ns.saturating_sub(min_anchor);
        for &(tid, dropped) in &p.dropped {
            merged.push((
                pid,
                dptd_obs::TraceEvent {
                    tid,
                    ts_ns: shift,
                    phase: 'i',
                    code: dptd_obs::codes::TRUNCATED,
                    arg: dropped,
                    trace_id: 0,
                    span_id: 0,
                    parent_span: 0,
                },
            ));
        }
        for e in &p.events {
            let mut aligned = e.clone();
            aligned.ts_ns += shift;
            merged.push((pid, aligned));
        }
    }
    merged.sort_by_key(|&(pid, ref e)| (e.ts_ns, pid, e.tid));
    merged
}

/// Merge per-process trace dumps into **one** chrome://tracing JSON
/// document: one `pid` lane per process (labelled via `process_name`
/// metadata events), timestamps clock-aligned to the earliest process
/// anchor so coordinator barrier spans visually bracket the node work
/// they caused. Event objects go through the same pinned renderer as
/// the single-process dump, so the schema is identical.
#[must_use]
pub fn merge_trace_timeline(processes: &[ProcessTrace]) -> String {
    let merged = merge_trace_events(processes);
    let mut out = String::from("[");
    let mut first = true;
    for (i, p) in processes.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            i as u64 + 1,
            p.label
        ));
    }
    for i in 0..processes.len() {
        let pid = i as u64 + 1;
        let lane: Vec<dptd_obs::TraceEvent> = merged
            .iter()
            .filter(|(p, _)| *p == pid)
            .map(|(_, e)| e.clone())
            .collect();
        if lane.is_empty() {
            continue;
        }
        let rendered = dptd_obs::trace::dump_chrome_json_events(&lane, pid);
        // Splice the renderer's array body ("[<body>\n]") into ours.
        let body = &rendered[1..rendered.len() - 2];
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(body);
    }
    out.push_str("\n]");
    out
}

/// A live clustered campaign: N nodes — over TCP, one connection each —
/// plus the global estimator and privacy ledger.
#[derive(Debug)]
pub struct ClusterCampaign<N = Vec<Client>> {
    campaign: String,
    nodes: N,
    partition: PartitionMap,
    streaming: StreamingCrh,
    accountant: BudgetAccountant,
    /// The merge's columnar arena, sized for the population once: every
    /// round loads the nodes' claims into it instead of building one.
    arena: ColumnarBatch,
    next_epoch: u64,
    rounds_run: u32,
    retry: RetryPolicy,
    redrive: bool,
    /// The merged-but-uncommitted round, if a commit fan-out is owed.
    pending: Option<MergedRound>,
}

/// What prepare + merge produced for one round, held from the moment
/// the estimator and ledger moved until every node has committed its
/// slice. The slices themselves are read off the (now frozen) global
/// state each time they are sent, so a re-sent commit is byte-identical.
#[derive(Debug)]
struct MergedRound {
    epoch: u64,
    truths: Vec<f64>,
    refused_seen: u64,
    duplicates: u64,
    late: u64,
    /// Per node, the accepted users as ascending **local** ids — the
    /// users column of the node's `Prepared` claims, kept from the
    /// gather.
    accepted_locals: Vec<Vec<u64>>,
}

fn node_spec(spec: &ClusterSpec, local_users: usize) -> CampaignSpec {
    CampaignSpec {
        num_users: local_users as u64,
        num_objects: spec.num_objects as u64,
        // Engine sizing fields are meaningless to a partition node (it
        // runs no engine); keep them minimal and valid.
        num_shards: 1,
        workers: 1,
        engine_queue: 1,
        deadline_us: spec.deadline_us,
        submission_capacity: spec.submission_capacity,
        per_round_epsilon: spec.per_round_loss.epsilon(),
        per_round_delta: spec.per_round_loss.delta(),
        budget_epsilon: spec.budget.epsilon(),
        budget_delta: spec.budget.delta(),
        stream_tag: spec.stream_tag,
        durable: spec.durable,
    }
}

impl ClusterCampaign {
    /// Connect to `addrs` (one per node, in node-id order), verify the
    /// topology, and create a fresh campaign partition on every node.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Topology`] for unusable geometry,
    /// [`ClusterError::Barrier`] when a node resumed prior durable
    /// rounds (use [`ClusterCampaign::resume`]), plus connection and
    /// node-side failures.
    pub fn create(
        addrs: &[String],
        campaign: &str,
        spec: ClusterSpec,
    ) -> Result<Self, ClusterError> {
        let (cluster, resumed) = Self::resume(addrs, campaign, spec)?;
        if resumed != 0 {
            return Err(ClusterError::Barrier(format!(
                "nodes hold durable rounds through epoch {resumed} for `{campaign}`; \
                 resume instead of create"
            )));
        }
        Ok(cluster)
    }

    /// Connect to `addrs`, let every node resume its durable partition,
    /// and rebuild the coordinator's global state from the node ledgers
    /// — aligned at the minimum committed epoch, so an interrupted
    /// commit fan-out is re-driven by the next
    /// [`close_round`](ClusterCampaign::close_round). Returns the
    /// cluster and the epoch it resumed at.
    ///
    /// # Errors
    ///
    /// As [`ClusterCampaign::create`], plus [`ClusterError::Barrier`]
    /// when node ledgers are more than one epoch apart or disagree on
    /// the merge counter.
    pub fn resume(
        addrs: &[String],
        campaign: &str,
        spec: ClusterSpec,
    ) -> Result<(Self, u64), ClusterError> {
        let partition = rendezvous_map(spec.num_users, addrs.len())?;
        let nodes = addrs.iter().map(|addr| Client::connect(addr.as_str()));
        let cluster = Self::open(nodes.collect::<Result<_, _>>()?, partition, campaign, spec)?;
        let epoch = cluster.next_epoch;
        Ok((cluster, epoch))
    }
    /// The backoff policy used when a node's submission queue is busy.
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// A fleet-wide metrics snapshot: every node's `QueryStatus` reply
    /// absorbed into one view (counters and gauges sum across nodes,
    /// histograms merge bucket-wise), so per-campaign queue depths and
    /// connection counts aggregate over the whole cluster. This is what
    /// `dptd cluster status` renders.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Server`] when a node connection fails.
    pub fn status(&mut self) -> Result<dptd_obs::MetricsSnapshot, ClusterError> {
        let mut fleet = dptd_obs::MetricsSnapshot::new();
        for client in &mut self.nodes {
            fleet.absorb(&client.query_status()?);
        }
        Ok(fleet)
    }

    /// Pull every node's retained trace rings plus this coordinator's
    /// own: the raw material for [`merge_trace_timeline`]. The first
    /// entry is always the coordinator.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Server`] when a node connection fails.
    pub fn collect_traces(&mut self) -> Result<Vec<ProcessTrace>, ClusterError> {
        let mut processes = vec![ProcessTrace {
            label: "coordinator".to_string(),
            anchor_ns: dptd_obs::trace::wall_anchor_ns(),
            dropped: dptd_obs::trace::dropped_events(),
            events: dptd_obs::trace::collect(),
        }];
        for (id, client) in self.nodes.iter_mut().enumerate() {
            let dump = client.query_trace()?;
            processes.push(ProcessTrace {
                label: format!("node{id}"),
                anchor_ns: dump.anchor_ns,
                dropped: dump.dropped,
                events: dump.events,
            });
        }
        Ok(processes)
    }

    /// Fan a stream of **global-id** reports out to their owning nodes,
    /// preserving per-node stream order, in `SubmitReportsStream`
    /// batches of `chunk` reports with up to
    /// [`DEFAULT_STREAM_WINDOW`] batches in flight per node
    /// ([`submit_streams`]), so the nodes decode and queue concurrently.
    /// Each frame is encoded straight from `reports`, with the node-local
    /// user id put on the wire. Returns the total reports queued across
    /// nodes.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Protocol`] for a user outside the population,
    /// [`ClusterError::Barrier`] while a commit fan-out is pending (the
    /// merged round is sealed — drive
    /// [`close_round`](ClusterCampaign::close_round) first),
    /// [`ClusterError::Server`] from the nodes — the first in node-id
    /// order, after every node's outstanding acks were read: including
    /// [`Busy`](dptd_server::ServerError::Busy) once retries are
    /// exhausted, and a refused batch as a
    /// [`Remote`](dptd_server::ServerError::Remote) whose message starts
    /// with the node id.
    pub fn submit(&mut self, reports: &[StampedReport], chunk: usize) -> Result<u64, ClusterError> {
        if let Some(pending) = &self.pending {
            return Err(ClusterError::Barrier(format!(
                "round {} is merged and its commit is pending; close it before submitting",
                pending.epoch
            )));
        }
        // Every frame this fan-out produces carries the round's trace so
        // node-side submit instants land under the same timeline as the
        // barrier that will close it. The root is derived from
        // (campaign, epoch), so identical runs produce identical ids.
        let _root = dptd_obs::trace::enabled().then(|| {
            dptd_obs::trace::enter(dptd_obs::SpanContext::root(&self.campaign, self.next_epoch))
        });
        let _submit_span =
            dptd_obs::trace::TraceScope::begin(dptd_obs::codes::CLUSTER_SUBMIT, self.next_epoch);
        // Per node, `(index into reports, local user id)` in stream order.
        let num_nodes = self.partition.num_nodes();
        let mut rows: Vec<Vec<(usize, usize)>> = (0..num_nodes)
            .map(|_| Vec::with_capacity(reports.len() / num_nodes + 1))
            .collect();
        for (index, stamped) in reports.iter().enumerate() {
            let user = stamped.report.user;
            if user >= self.partition.num_users() {
                return Err(ClusterError::Protocol(
                    dptd_protocol::ProtocolError::InvalidParameter {
                        name: "report.user",
                        value: user as f64,
                        constraint: "must be inside the campaign population",
                    },
                ));
            }
            rows[self.partition.node_of(user)].push((index, self.partition.local_of(user)));
        }
        let mut lanes: Vec<StreamLane<'_>> = self
            .nodes
            .iter_mut()
            .zip(&rows)
            .map(|(node, rows)| StreamLane::remapped(node, reports, rows))
            .collect();
        submit_streams(
            &mut lanes,
            &self.campaign,
            chunk,
            DEFAULT_STREAM_WINDOW,
            self.retry,
        )
        .map_err(|(id, e)| match e {
            ServerError::Remote { code, message } => ServerError::Remote {
                code,
                message: format!("node {id}: {message}"),
            },
            other => other,
        })?;
        Ok(lanes.iter().map(|lane| lane.queued).sum())
    }
}

impl<N: Nodes> ClusterCampaign<N> {
    /// Open `campaign` over `nodes`: check the topology (hello), create
    /// or resume every node's partition, and rebuild the global state
    /// from the node ledgers, aligned at the minimum committed epoch.
    fn open(
        mut nodes: N,
        partition: PartitionMap,
        campaign: &str,
        spec: ClusterSpec,
    ) -> Result<Self, ClusterError> {
        let num_nodes = partition.num_nodes() as u32;
        let hello = |id| Request::NodeHello {
            node_id: id as u32,
            num_nodes,
        };
        let welcomed = exchange(&mut nodes, hello, |reply| match reply {
            Response::NodeWelcome { node_id } => Ok(node_id),
            other => Err(other),
        })?;
        if let Some((id, other)) = (0u32..).zip(welcomed).find(|&(id, node)| node != id) {
            let why = format!("node {id} answered hello as node {other}");
            return Err(ClusterError::Topology(why));
        }
        let create = |id| Request::CreateCampaign {
            campaign: campaign.to_string(),
            spec: node_spec(&spec, partition.population(id)),
        };
        exchange(&mut nodes, create, |reply| match reply {
            Response::Created { .. } => Ok(()),
            other => Err(other),
        })?;

        // Align the coordinator at the minimum committed epoch across
        // nodes. The barrier never lets nodes drift more than one epoch
        // apart; anything wider means lost durable state.
        let mut ledgers = query_ledgers(&mut nodes, campaign, u64::MAX)?;
        let target = ledgers.iter().map(|l| l.next_epoch).min().unwrap_or(0);
        let redrive = ledgers.iter().any(|l| l.next_epoch != target);
        if ledgers.iter().any(|l| l.next_epoch > target + 1) {
            return Err(ClusterError::Barrier(format!(
                "node ledgers span epochs {:?}; a two-phase barrier never drifts past one",
                ledgers.iter().map(|l| l.next_epoch).collect::<Vec<_>>()
            )));
        }
        if redrive {
            ledgers = query_ledgers(&mut nodes, campaign, target)?;
        }

        let mut cumulative_losses = vec![0.0f64; spec.num_users];
        let mut rounds_debited = vec![0u32; spec.num_users];
        let mut batches_seen = None;
        for (id, ledger) in ledgers.iter().enumerate() {
            let locals = partition.locals(id);
            if ledger.cumulative_losses.len() != locals.len()
                || ledger.rounds_debited.len() != locals.len()
            {
                return Err(ClusterError::Barrier(format!(
                    "node {id} ledger covers {} users, its partition holds {}",
                    ledger.cumulative_losses.len(),
                    locals.len()
                )));
            }
            match batches_seen {
                None => batches_seen = Some(ledger.batches_seen),
                Some(seen) if seen != ledger.batches_seen => {
                    return Err(ClusterError::Barrier(format!(
                        "node {id} saw {} merges at epoch {target}, others saw {seen}",
                        ledger.batches_seen
                    )));
                }
                Some(_) => {}
            }
            for (local, &global) in locals.iter().enumerate() {
                cumulative_losses[global] = ledger.cumulative_losses[local];
                rounds_debited[global] = ledger.rounds_debited[local];
            }
        }
        let batches_seen = batches_seen.unwrap_or(0);

        let streaming = if target == 0 {
            StreamingCrh::new(spec.num_users, Loss::Squared)
        } else {
            StreamingCrh::from_parts(Loss::Squared, cumulative_losses, batches_seen as usize)
        }
        .map_err(|e| {
            ClusterError::Protocol(dptd_protocol::ProtocolError::Core(
                dptd_core::CoreError::Truth(e),
            ))
        })?;
        let accountant = if target == 0 {
            BudgetAccountant::new(spec.num_users, spec.per_round_loss, spec.budget)
        } else {
            BudgetAccountant::resume(spec.per_round_loss, spec.budget, rounds_debited)
        }?;

        Ok(Self {
            campaign: campaign.to_string(),
            nodes,
            partition,
            streaming,
            accountant,
            arena: ColumnarBatch::new(spec.num_users, spec.num_objects),
            next_epoch: target,
            rounds_run: target.min(u64::from(u32::MAX)) as u32,
            retry: RetryPolicy::default(),
            redrive,
            pending: None,
        })
    }

    /// The partition map this campaign routes by.
    pub fn partition(&self) -> &PartitionMap {
        &self.partition
    }

    /// The epoch the next [`close_round`](ClusterCampaign::close_round)
    /// will close.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Whether this campaign resumed into an interrupted commit fan-out:
    /// some nodes already committed [`next_epoch`](Self::next_epoch)
    /// while others have not. The caller must re-drive
    /// [`close_round`](Self::close_round) for that epoch **without
    /// submitting new reports for it** — the nodes replay their retained
    /// prepares, so the re-driven merge is byte-identical to the
    /// interrupted one.
    pub fn needs_redrive(&self) -> bool {
        self.redrive
    }

    /// Rounds closed (including resumed ones).
    pub fn rounds_run(&self) -> u32 {
        self.rounds_run
    }

    /// Current full-population weights.
    pub fn weights(&self) -> &[f64] {
        self.streaming.weights()
    }

    /// FNV-1a digest of the current weights' bit patterns, hashed by
    /// each round's merge.
    pub fn weights_digest(&self) -> u64 {
        self.streaming.weights_digest()
    }

    /// The global privacy ledger.
    pub fn accountant(&self) -> &BudgetAccountant {
        &self.accountant
    }

    /// Close round `epoch` with the two-phase barrier.
    ///
    /// On an error **before** the merge (a node refusal in prepare, an
    /// uncovered object) nothing has moved: the nodes keep their staged
    /// rounds, more reports may be submitted, and the barrier is simply
    /// driven again. On an error **after** it (a node failure
    /// mid-commit) the merged round stays pending in this object, and
    /// calling `close_round(epoch)` again re-sends the identical commit
    /// slices without preparing or merging a second time — nodes that
    /// already hold the epoch acknowledge idempotently. A fresh
    /// coordinator gets to the same place via
    /// [`ClusterCampaign::resume`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::Barrier`] for epoch disagreement or a node whose
    /// claims are not strictly ascending local ids inside its
    /// partition, [`ClusterError::Protocol`] when the merged round
    /// cannot cover every object, plus node-side failures — the first
    /// in node-id order, after every node's reply was read.
    pub fn close_round(&mut self, epoch: u64) -> Result<ClusterRound, ClusterError> {
        if epoch != self.next_epoch {
            return Err(ClusterError::Barrier(format!(
                "cannot close epoch {epoch}: the cluster is on round {}",
                self.next_epoch
            )));
        }

        // Deterministic root for the round's distributed trace: the
        // barrier spans below derive child ids from it, and the prepare
        // and commit frames carry those spans to the nodes so their
        // drain/commit work parents under this coordinator's timeline.
        let _root = dptd_obs::trace::enabled()
            .then(|| dptd_obs::trace::enter(dptd_obs::SpanContext::root(&self.campaign, epoch)));

        let merged = match self.pending.take() {
            Some(merged) => merged,
            None => self.prepare_and_merge(epoch)?,
        };
        debug_assert_eq!(merged.epoch, epoch, "pending round is for another epoch");
        // The estimator and ledger have moved: until every node has
        // acknowledged its slice, the round is owed a commit.
        if let Err(e) = self.commit(&merged) {
            self.pending = Some(merged);
            return Err(e);
        }

        self.next_epoch = epoch + 1;
        self.rounds_run += 1;
        Ok(ClusterRound {
            epoch,
            truths: merged.truths,
            weights_digest: self.streaming.weights_digest(),
            accepted: merged.accepted_locals.iter().map(Vec::len).sum(),
            refused_users: merged.refused_seen as usize,
            duplicates_discarded: merged.duplicates,
            late_dropped: merged.late,
            max_spent: self.accountant.max_spent(),
        })
    }

    /// Phase two: every node durably commits its slice of the merged
    /// round before the coordinator advances. Scattered, so the fsyncs
    /// and follower acks overlap; if it fails, any subset of the nodes
    /// may hold the epoch, which the pending round (or a resume)
    /// re-drives.
    fn commit(&mut self, merged: &MergedRound) -> Result<(), ClusterError> {
        let _commit_span =
            dptd_obs::trace::TraceScope::begin(dptd_obs::codes::BARRIER_COMMIT, merged.epoch);
        let batches_seen = self.streaming.batches_seen() as u64;
        let (campaign, partition, accountant) = (&self.campaign, &self.partition, &self.accountant);
        let losses = self.streaming.cumulative_losses();
        let commit = |id| {
            let locals = partition.locals(id);
            Request::CloseRoundCommit {
                campaign: campaign.clone(),
                epoch: merged.epoch,
                batches_seen,
                accepted_users: merged.accepted_locals[id].clone(),
                cumulative_losses: locals.iter().map(|&g| losses[g]).collect(),
                rounds_debited: locals
                    .iter()
                    .map(|&g| accountant.rounds_debited(g))
                    .collect(),
                ctx: wire_ctx(),
            }
        };
        exchange(&mut self.nodes, commit, |reply| match reply {
            Response::Committed { .. } => Ok(()),
            other => Err(other),
        })?;
        Ok(())
    }

    /// Phase one and the merge: gather every node's claims, fold them
    /// in node-id order, and move the estimator and the ledger. Atomic
    /// on error — nothing has moved unless this returns `Ok`.
    fn prepare_and_merge(&mut self, epoch: u64) -> Result<MergedRound, ClusterError> {
        // Phase one: prepare every node with its refusal slice.
        let prepare_span =
            dptd_obs::trace::TraceScope::begin(dptd_obs::codes::BARRIER_PREPARE, epoch);
        let (campaign, partition, accountant) = (&self.campaign, &self.partition, &self.accountant);
        let prepare = |id| Request::CloseRoundPrepare {
            campaign: campaign.clone(),
            epoch,
            refused: (partition.locals(id).iter().enumerate())
                .filter(|&(_, &global)| !accountant.can_spend(global))
                .map(|(local, _)| local as u64)
                .collect(),
            ctx: wire_ctx(),
        };
        let prepared = exchange(&mut self.nodes, prepare, |reply| match reply {
            Response::Prepared {
                epoch,
                duplicates,
                late,
                refused_seen,
                claims,
            } => Ok((epoch, duplicates, late, refused_seen, claims)),
            other => Err(other),
        })?;

        let mut merged = MergedRound {
            epoch,
            truths: Vec::new(),
            refused_seen: 0,
            duplicates: 0,
            late: 0,
            accepted_locals: Vec::with_capacity(prepared.len()),
        };
        let mut shards = Vec::with_capacity(prepared.len());
        for (id, (prepared, duplicates, late, refused_seen, claims)) in
            prepared.into_iter().enumerate()
        {
            if prepared != epoch {
                return Err(ClusterError::Barrier(format!(
                    "node {id} prepared epoch {prepared}, coordinator asked for {epoch}"
                )));
            }
            merged.duplicates += duplicates;
            merged.late += late;
            merged.refused_seen += refused_seen;
            // The node's users column *is* its commit slice's accepted
            // list: ascending local ids. Check here what the node will
            // check at commit, while a violation is still harmless —
            // nothing has been merged or debited yet.
            let population = partition.population(id);
            // Decoded off the wire, the only handle: taken apart, not
            // copied.
            let mut shard = Arc::unwrap_or_clone(claims);
            let mut locals = Vec::with_capacity(shard.len());
            for local in shard.users() {
                if local >= population || locals.last().is_some_and(|&last| last >= local as u64) {
                    return Err(ClusterError::Barrier(format!(
                        "node {id} claimed local user {local} outside its partition \
                         or out of ascending order"
                    )));
                }
                locals.push(local as u64);
            }
            shard.map_users(|local| partition.global_of(id, local));
            merged.accepted_locals.push(locals);
            shards.push(shard);
        }
        drop(prepare_span);

        // The deterministic global merge — atomic on error, so a failed
        // round leaves the estimator untouched and re-drivable. This is
        // "one more level of the shard-merge tree": the claims fold
        // through the same fixed-shape parallel reduction the in-process
        // engine uses, so worker count cannot perturb the digest. The
        // arena is the campaign's, as the engine's close keeps its own.
        let _merge_span = dptd_obs::trace::TraceScope::begin(dptd_obs::codes::MERGE, epoch);
        merged.truths = self
            .arena
            .load_shards(&shards)
            .and_then(|()| self.streaming.ingest_columnar_with_workers(&self.arena, 0))
            .map_err(|e| {
                ClusterError::Protocol(dptd_protocol::ProtocolError::Core(
                    dptd_core::CoreError::Truth(e),
                ))
            })?;
        for (id, locals) in merged.accepted_locals.iter().enumerate() {
            for &local in locals {
                self.accountant
                    .debit(self.partition.global_of(id, local as usize));
            }
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeConfig, NodeServer};
    use dptd_core::roles::PerturbedReport;
    use dptd_protocol::campaign::{CampaignConfig, CampaignDriver, SimBackend};
    use dptd_stats::digest::fnv1a_f64s;
    use proptest::prelude::*;

    fn spec(num_users: usize, rounds: u32) -> ClusterSpec {
        ClusterSpec {
            num_users,
            num_objects: 2,
            deadline_us: 100,
            per_round_loss: PrivacyLoss::new(0.5, 0.0).unwrap(),
            budget: PrivacyLoss::new(0.5 * f64::from(rounds), 0.0).unwrap(),
            submission_capacity: 256,
            stream_tag: 0,
            durable: false,
        }
    }

    fn start_nodes(n: u32) -> (Vec<NodeServer>, Vec<String>) {
        let nodes: Vec<NodeServer> = (0..n)
            .map(|id| {
                NodeServer::start(NodeConfig {
                    node_id: id,
                    num_nodes: n,
                    ..NodeConfig::default()
                })
                .unwrap()
            })
            .collect();
        let addrs = nodes.iter().map(|s| s.local_addr().to_string()).collect();
        (nodes, addrs)
    }

    fn stamped(user: usize, epoch: u64, sent_at_us: u64, value: f64) -> StampedReport {
        StampedReport {
            epoch,
            sent_at_us,
            report: PerturbedReport {
                user,
                values: vec![(0, value), (1, value * 0.5 - 1.0)],
            },
        }
    }

    fn messy_round(num_users: usize, epoch: u64) -> Vec<StampedReport> {
        let mut reports = Vec::new();
        for user in 0..num_users {
            let jitter = ((user as u64 * 37 + epoch * 11) % 90) + 1;
            reports.push(stamped(user, epoch, jitter, user as f64 + epoch as f64));
            if user % 3 == 0 {
                reports.push(stamped(user, epoch, jitter + 1, -99.0));
            }
            if user % 4 == 1 {
                reports.push(stamped(user, epoch, 150, -77.0));
            }
        }
        reports
    }

    #[test]
    fn two_node_campaign_matches_the_in_process_driver() {
        let num_users = 9;
        let (nodes, addrs) = start_nodes(2);
        let mut cluster = ClusterCampaign::create(&addrs, "camp", spec(num_users, 2)).unwrap();
        let mut sim = sim_driver(num_users, 2);

        for epoch in 0..2u64 {
            let stream = messy_round(num_users, epoch);
            cluster.submit(&stream, 4).unwrap();
            let ours = cluster.close_round(epoch).unwrap();
            let reference = sim.run_round(epoch, stream).unwrap();
            assert_eq!(ours.truths, reference.truths, "round {epoch} truths");
            assert_eq!(
                ours.weights_digest,
                fnv1a_f64s(&reference.weights),
                "round {epoch} weights"
            );
            assert_eq!(ours.accepted, reference.accepted);
            assert_eq!(ours.refused_users, reference.refused_users);
            assert_eq!(ours.duplicates_discarded, reference.duplicates_discarded);
            assert_eq!(ours.late_dropped, reference.late_dropped);
            assert_eq!(ours.max_spent, reference.max_spent);
        }
        assert_eq!(
            cluster.accountant().debits_by_user(),
            sim.accountant().debits_by_user()
        );
        // Budget-exhausted third round fails identically on both.
        cluster.submit(&messy_round(num_users, 2), 4).unwrap();
        assert!(cluster.close_round(2).is_err());
        assert!(sim.run_round(2, messy_round(num_users, 2)).is_err());
        for node in nodes {
            node.shutdown();
        }
    }

    fn sim_driver(num_users: usize, rounds: u32) -> CampaignDriver<SimBackend> {
        CampaignDriver::new(
            SimBackend::new(num_users, Loss::Squared).unwrap(),
            CampaignConfig {
                num_objects: 2,
                deadline_us: 100,
                per_round_loss: PrivacyLoss::new(0.5, 0.0).unwrap(),
                budget: PrivacyLoss::new(0.5 * f64::from(rounds), 0.0).unwrap(),
            },
        )
        .unwrap()
    }

    /// A coordinator dying mid commit fan-out leaves **some subset** of
    /// the nodes one epoch ahead — with a scattered commit not
    /// necessarily a prefix in node-id order. A fresh coordinator must
    /// align at the minimum epoch, re-drive the barrier from the nodes'
    /// retained prepares, and land bit-identically on the in-process
    /// reference — the committed nodes acknowledging idempotently.
    fn interrupted_commit_is_redriven(committed: &[usize]) {
        let num_users = 11;
        let (nodes, addrs) = start_nodes(3);
        let mut a = ClusterCampaign::create(&addrs, "camp", spec(num_users, 3)).unwrap();
        let mut sim = sim_driver(num_users, 3);
        let stream0 = messy_round(num_users, 0);
        a.submit(&stream0, 4).unwrap();
        a.close_round(0).unwrap();
        sim.run_round(0, stream0).unwrap();

        // Round 1: prepare everywhere and merge, commit only on
        // `committed`, then "die".
        let stream1 = messy_round(num_users, 1);
        a.submit(&stream1, 4).unwrap();
        let merged = a.prepare_and_merge(1).unwrap();
        let batches = a.streaming.batches_seen() as u64;
        for &id in committed {
            let locals = a.partition.locals(id).to_vec();
            let losses: Vec<f64> = locals
                .iter()
                .map(|&g| a.streaming.cumulative_losses()[g])
                .collect();
            let debits: Vec<u32> = locals
                .iter()
                .map(|&g| a.accountant.rounds_debited(g))
                .collect();
            let accepted = merged.accepted_locals[id].clone();
            assert!(a.nodes[id]
                .close_round_commit("camp", 1, batches, accepted, losses, debits)
                .unwrap());
        }
        drop(a);

        let (mut b, at) = ClusterCampaign::resume(&addrs, "camp", spec(num_users, 3)).unwrap();
        assert_eq!(at, 1, "nodes {committed:?} committed");
        assert!(b.needs_redrive());
        let ours = b.close_round(1).unwrap();
        let reference = sim.run_round(1, stream1).unwrap();
        assert_eq!(
            ours.truths, reference.truths,
            "nodes {committed:?} committed"
        );
        assert_eq!(ours.weights_digest, fnv1a_f64s(&reference.weights));
        assert_eq!(
            b.accountant().debits_by_user(),
            sim.accountant().debits_by_user()
        );

        // The re-driven cluster keeps going normally.
        let stream2 = messy_round(num_users, 2);
        b.submit(&stream2, 4).unwrap();
        let ours = b.close_round(2).unwrap();
        let reference = sim.run_round(2, stream2).unwrap();
        assert_eq!(ours.weights_digest, fnv1a_f64s(&reference.weights));
        for node in nodes {
            node.shutdown();
        }
    }

    #[test]
    fn interrupted_commit_fanout_is_redriven_bit_identically() {
        interrupted_commit_is_redriven(&[0]); // a prefix: the sequential-era case
        interrupted_commit_is_redriven(&[1]); // not a prefix
        interrupted_commit_is_redriven(&[0, 2]); // only the middle node is behind
    }

    /// A commit fan-out that fails at one node leaves the round merged
    /// but uncommitted in the campaign; closing the same epoch again
    /// must re-send the identical slices, not prepare, merge and debit a
    /// second time.
    #[test]
    fn a_failed_commit_fanout_is_resent_not_merged_twice() {
        let num_users = 11;
        let (nodes, addrs) = start_nodes(3);
        let mut cluster = ClusterCampaign::create(&addrs, "camp", spec(num_users, 3)).unwrap();
        let mut sim = sim_driver(num_users, 3);
        let stream0 = messy_round(num_users, 0);
        cluster.submit(&stream0, 4).unwrap();
        cluster.close_round(0).unwrap();
        sim.run_round(0, stream0).unwrap();

        // Node 0's store refuses one append: the scatter still reaches
        // nodes 1 and 2, which commit epoch 1.
        let stream1 = messy_round(num_users, 1);
        cluster.submit(&stream1, 4).unwrap();
        nodes[0].fail_next_append("camp");
        match cluster.close_round(1) {
            Err(ClusterError::Server(dptd_server::ServerError::Remote { code, .. })) => {
                assert_eq!(code, dptd_server::ErrorCode::WalRefused);
            }
            other => panic!("expected node 0's WalRefused, got {other:?}"),
        }
        assert_eq!(cluster.next_epoch(), 1, "the round is not closed yet");
        // The merged round is sealed: no more reports for it.
        assert!(matches!(
            cluster.submit(&messy_round(num_users, 1), 4),
            Err(ClusterError::Barrier(_))
        ));

        // The retry lands on the reference: merged once, debited once.
        let ours = cluster.close_round(1).unwrap();
        let reference = sim.run_round(1, stream1).unwrap();
        assert_eq!(ours.truths, reference.truths);
        assert_eq!(ours.weights_digest, fnv1a_f64s(&reference.weights));
        assert_eq!(ours.accepted, reference.accepted);
        assert_eq!(ours.duplicates_discarded, reference.duplicates_discarded);
        assert_eq!(ours.late_dropped, reference.late_dropped);
        assert_eq!(
            cluster.accountant().debits_by_user(),
            sim.accountant().debits_by_user()
        );
        // Every node's durable ledger agrees with the coordinator's.
        for (id, node) in cluster.nodes.iter_mut().enumerate() {
            let ledger = node.query_ledger("camp", u64::MAX).unwrap();
            assert_eq!(ledger.next_epoch, 2, "node {id}");
            assert_eq!(ledger.batches_seen, 2, "node {id}");
        }

        let stream2 = messy_round(num_users, 2);
        cluster.submit(&stream2, 4).unwrap();
        let ours = cluster.close_round(2).unwrap();
        let reference = sim.run_round(2, stream2).unwrap();
        assert_eq!(ours.weights_digest, fnv1a_f64s(&reference.weights));
        for node in nodes {
            node.shutdown();
        }
    }

    /// A typed refusal from node 0 mid-gather must not leave node 1's
    /// and node 2's replies unread: the next request on those
    /// connections would be answered by the stale `Prepared`.
    #[test]
    fn a_refusal_mid_gather_leaves_every_connection_frame_aligned() {
        let num_users = 11;
        let (nodes, addrs) = start_nodes(3);
        let mut cluster = ClusterCampaign::create(&addrs, "camp", spec(num_users, 2)).unwrap();
        cluster.submit(&messy_round(num_users, 0), 4).unwrap();
        assert!(nodes[0].poison_partition("camp"));
        match cluster.close_round(0) {
            Err(ClusterError::Server(dptd_server::ServerError::Remote { code, .. })) => {
                assert_eq!(code, dptd_server::ErrorCode::CampaignQuarantined);
            }
            other => panic!("expected node 0's quarantine refusal, got {other:?}"),
        }
        // Same object, same connections: every node answers the status
        // query with a status frame.
        cluster.status().unwrap();
        // Nodes 1 and 2 prepared and still hold their staged rounds.
        for node in &mut cluster.nodes[1..] {
            let snapshot = node.query_status().unwrap();
            let read = |suffix| snapshot.scalar(&dptd_obs::names::campaign_metric("camp", suffix));
            assert!(read(dptd_obs::names::ACCEPTED) > Some(0), "{snapshot:?}");
            assert_eq!(
                read(dptd_obs::names::QUEUE_DEPTH),
                Some(0),
                "drained into the staged lane"
            );
        }
        for node in nodes {
            node.shutdown();
        }
    }

    /// Submit streams under backpressure: the node with the largest
    /// partition cannot queue its last chunk until something drains it,
    /// while the other nodes' streams are still in flight.
    #[test]
    fn a_busy_node_mid_wave_is_retried_in_order_or_surfaces_busy() {
        let num_users = 20;
        let chunk = 3;
        let stream = messy_round(num_users, 0);
        let partition = rendezvous_map(num_users, 3).unwrap();
        let mut per_node = [0u64; 3];
        for r in &stream {
            per_node[partition.node_of(r.report.user)] += 1;
        }
        let busiest = (0..3).max_by_key(|&id| per_node[id]).unwrap();
        // One report short of the busiest node's stream: only that node
        // runs out of room, and only on its last chunk.
        let capacity = per_node[busiest] - 1;
        assert!(
            (0..3).all(|id| id == busiest || per_node[id] <= capacity),
            "the shape must leave exactly one node short: {per_node:?}"
        );
        let batches = |id: usize| per_node[id].div_ceil(chunk as u64);
        assert!(
            (0..3).any(|id| batches(id) != batches(busiest)),
            "unequal partitions: some node must run out of chunks first: {per_node:?}"
        );
        let tight = ClusterSpec {
            submission_capacity: capacity,
            ..spec(num_users, 2)
        };
        let (nodes, addrs) = start_nodes(3);

        // Without retries the refusal is a hard Busy — surfaced only
        // after every node's outstanding acks were read.
        let mut cluster = ClusterCampaign::create(&addrs, "hard", tight).unwrap();
        match cluster.submit(&stream, chunk) {
            Err(ClusterError::Server(ServerError::Busy)) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        cluster.status().unwrap();

        // With retries the stream completes once the busy node is drained
        // (here: by a prepare on a second connection, issued only after
        // the node has refused a chunk), and the round is the
        // sequential reference's, duplicates resolved first-wins in
        // stream order.
        let mut cluster = ClusterCampaign::create(&addrs, "soft", tight).unwrap();
        cluster.set_retry(RetryPolicy {
            busy_retries: 200,
            busy_backoff_ms: 2,
        });
        let busy_addr = addrs[busiest].clone();
        let drainer = std::thread::spawn(move || {
            let mut direct = Client::connect(busy_addr.as_str()).unwrap();
            let refused_busy =
                dptd_obs::names::campaign_metric("soft", dptd_obs::names::REFUSED_BUSY);
            while !matches!(
                direct.query_status().unwrap().get(&refused_busy),
                Some(dptd_obs::MetricValue::Counter(1..))
            ) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            direct.close_round_prepare("soft", 0, vec![]).unwrap();
        });
        let queued = cluster.submit(&stream, chunk).unwrap();
        drainer.join().unwrap();
        assert!(queued > 0);
        let ours = cluster.close_round(0).unwrap();
        let reference = sim_driver(num_users, 2).run_round(0, stream).unwrap();
        assert_eq!(ours.truths, reference.truths);
        assert_eq!(ours.weights_digest, fnv1a_f64s(&reference.weights));
        assert_eq!(ours.duplicates_discarded, reference.duplicates_discarded);
        assert_eq!(ours.late_dropped, reference.late_dropped);
        for node in nodes {
            node.shutdown();
        }
    }

    /// A user mapping a tampering proxy applies to `Prepared` replies.
    type Tamper = Box<dyn Fn(usize) -> usize + Send>;

    /// A node behind a proxy that, while `tamper` holds a mapping,
    /// rewrites the users of the `Prepared` replies it passes back, and
    /// while `poison` is set, turns their first claim value into a NaN.
    struct TamperingProxy {
        upstream: std::sync::Mutex<Client>,
        tamper: std::sync::Mutex<Option<Tamper>>,
        poison: std::sync::atomic::AtomicBool,
    }

    impl dptd_server::RequestHandler for TamperingProxy {
        fn handle(&self, request: dptd_server::Request) -> dptd_server::Response {
            let mut response = self.upstream.lock().unwrap().request(&request).unwrap();
            if let (dptd_server::Response::Prepared { claims, .. }, Some(to)) =
                (&mut response, self.tamper.lock().unwrap().as_ref())
            {
                std::sync::Arc::make_mut(claims).map_users(to);
            }
            if let dptd_server::Response::Prepared { claims, .. } = &mut response {
                if self.poison.load(std::sync::atomic::Ordering::SeqCst) {
                    let (users, offsets, objects, values) = claims.columns();
                    let mut values = values.to_vec();
                    values[0] = f64::NAN;
                    *claims = std::sync::Arc::new(
                        dptd_truth::streaming::ShardClaims::from_columns(
                            users.to_vec(),
                            offsets.to_vec(),
                            objects.to_vec(),
                            values,
                        )
                        .unwrap(),
                    );
                }
            }
            response
        }
    }

    /// Put a tampering proxy, tampering with nothing yet, in front of
    /// the node at `addr`; returns the proxy and its listening front end.
    fn behind_proxy(addr: &str) -> (std::sync::Arc<TamperingProxy>, dptd_server::Frontend) {
        let proxy = std::sync::Arc::new(TamperingProxy {
            upstream: std::sync::Mutex::new(Client::connect(addr).unwrap()),
            tamper: std::sync::Mutex::new(None),
            poison: std::sync::atomic::AtomicBool::new(false),
        });
        let front = dptd_server::Frontend::start(
            dptd_server::FrontendConfig {
                listen: "127.0.0.1:0".to_string(),
                max_connections: 4,
                io: dptd_server::IoConfig::default(),
                thread_name: "tampering-proxy",
            },
            std::sync::Arc::clone(&proxy) as std::sync::Arc<dyn dptd_server::RequestHandler>,
        )
        .unwrap();
        (proxy, front)
    }

    /// The coordinator refuses a node's `Prepared` users that are not
    /// strictly ascending local ids inside its partition — before
    /// anything is merged or debited — and the same round, re-driven
    /// once the node answers honestly, lands on the reference.
    fn a_prepared_users_column_is_checked_before_the_merge(to: fn(usize, usize) -> usize) {
        let num_users = 11;
        let population = rendezvous_map(num_users, 3).unwrap().population(1);
        let (nodes, mut addrs) = start_nodes(3);
        let (proxy, front) = behind_proxy(&addrs[1]);
        addrs[1] = front.local_addr().to_string();
        let mut cluster = ClusterCampaign::create(&addrs, "camp", spec(num_users, 3)).unwrap();
        let mut sim = sim_driver(num_users, 3);
        let stream0 = messy_round(num_users, 0);
        cluster.submit(&stream0, 4).unwrap();
        cluster.close_round(0).unwrap();
        sim.run_round(0, stream0).unwrap();

        let stream1 = messy_round(num_users, 1);
        cluster.submit(&stream1, 4).unwrap();
        let (digest, debits) = (
            cluster.weights_digest(),
            cluster.accountant().debits_by_user().to_vec(),
        );
        *proxy.tamper.lock().unwrap() = Some(Box::new(move |local| to(population, local)));
        match cluster.close_round(1) {
            Err(ClusterError::Barrier(message)) => {
                assert!(
                    message.starts_with("node 1 claimed local user"),
                    "{message}"
                );
            }
            other => panic!("expected node 1's barrier refusal, got {other:?}"),
        }
        assert_eq!(cluster.weights_digest(), digest, "nothing merged");
        assert_eq!(
            cluster.accountant().debits_by_user(),
            debits,
            "nothing debited"
        );
        assert_eq!(cluster.next_epoch(), 1);

        *proxy.tamper.lock().unwrap() = None;
        let ours = cluster.close_round(1).unwrap();
        let reference = sim.run_round(1, stream1).unwrap();
        assert_eq!(ours.truths, reference.truths);
        assert_eq!(ours.weights_digest, fnv1a_f64s(&reference.weights));
        assert_eq!(ours.accepted, reference.accepted);
        assert_eq!(
            cluster.accountant().debits_by_user(),
            sim.accountant().debits_by_user()
        );
        drop(cluster);
        drop(front);
        for node in nodes {
            node.shutdown();
        }
    }

    #[test]
    fn descending_prepared_users_are_refused_and_the_round_redrives() {
        // Every id stays inside the partition; the column descends.
        a_prepared_users_column_is_checked_before_the_merge(|population, local| {
            population - 1 - local
        });
    }

    #[test]
    fn out_of_partition_prepared_users_are_refused_and_the_round_redrives() {
        // Order kept, every id one partition too far.
        a_prepared_users_column_is_checked_before_the_merge(|population, local| population + local);
    }

    /// The merge reuses the campaign's arena, so its failure path runs
    /// in that arena too: a NaN in node 1's `Prepared` values fails the
    /// load part-way — a typed error, nothing merged or debited — and
    /// the honest re-drive and a much smaller next round, both through
    /// the same arena, still land on the reference bit for bit.
    #[test]
    fn a_merge_refused_in_the_reused_arena_redrives_bit_identically() {
        let num_users = 60;
        let (nodes, mut addrs) = start_nodes(3);
        let (proxy, front) = behind_proxy(&addrs[1]);
        addrs[1] = front.local_addr().to_string();
        let mut cluster = ClusterCampaign::create(&addrs, "camp", spec(num_users, 3)).unwrap();
        let mut sim = sim_driver(num_users, 3);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let stream0 = messy_round(num_users, 0);
        cluster.submit(&stream0, 8).unwrap();
        cluster.close_round(0).unwrap();
        sim.run_round(0, stream0).unwrap();

        let stream1 = messy_round(num_users, 1);
        cluster.submit(&stream1, 8).unwrap();
        let (digest, debits) = (
            cluster.weights_digest(),
            cluster.accountant().debits_by_user().to_vec(),
        );
        proxy
            .poison
            .store(true, std::sync::atomic::Ordering::SeqCst);
        match cluster.close_round(1) {
            Err(ClusterError::Protocol(dptd_protocol::ProtocolError::Core(
                dptd_core::CoreError::Truth(dptd_truth::TruthError::NonFiniteObservation {
                    ..
                }),
            ))) => {}
            other => panic!("expected the merge's non-finite refusal, got {other:?}"),
        }
        assert_eq!(cluster.weights_digest(), digest, "nothing merged");
        assert_eq!(
            cluster.accountant().debits_by_user(),
            debits,
            "nothing debited"
        );
        assert_eq!(cluster.next_epoch(), 1);

        proxy
            .poison
            .store(false, std::sync::atomic::Ordering::SeqCst);
        let ours = cluster.close_round(1).unwrap();
        let reference = sim.run_round(1, stream1).unwrap();
        assert_eq!(bits(&ours.truths), bits(&reference.truths));
        assert_eq!(bits(cluster.weights()), bits(&reference.weights));
        assert_eq!(ours.accepted, reference.accepted);

        // A tenth of the reports: the reused columns shrink.
        let stream2: Vec<StampedReport> =
            messy_round(num_users, 2).into_iter().step_by(10).collect();
        cluster.submit(&stream2, 8).unwrap();
        let ours = cluster.close_round(2).unwrap();
        let reference = sim.run_round(2, stream2).unwrap();
        assert_eq!(bits(&ours.truths), bits(&reference.truths));
        assert_eq!(bits(cluster.weights()), bits(&reference.weights));
        assert_eq!(ours.accepted, reference.accepted);
        assert_eq!(
            cluster.accountant().debits_by_user(),
            sim.accountant().debits_by_user()
        );
        drop(cluster);
        drop(front);
        for node in nodes {
            node.shutdown();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// For any node count (1–4) and any report streams — duplicates,
        /// lates, arbitrary interleaving, and a third round in which
        /// users who reported twice are out of budget — a loopback
        /// cluster's rounds equal the in-process reference: truths and
        /// weights by `to_bits`, and every count.
        #[test]
        fn any_cluster_matches_sim(
            num_nodes in 1u32..=4,
            num_users in 12usize..24,
            streams in prop::collection::vec(
                prop::collection::vec((0usize..24, 0u64..140, -5.0f64..5.0), 0..48),
                3,
            ),
        ) {
            if rendezvous_map(num_users, num_nodes as usize).is_err() {
                // A node with no users: `create` refuses the topology.
                continue;
            }
            let (nodes, addrs) = start_nodes(num_nodes);
            let mut cluster =
                ClusterCampaign::create(&addrs, "prop", spec(num_users, 2)).unwrap();
            let mut sim = sim_driver(num_users, 2);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            for (epoch, stream) in (0u64..).zip(streams) {
                let reports: Vec<StampedReport> = stream
                    .into_iter()
                    .map(|(user, sent_at_us, value)| {
                        stamped(user % num_users, epoch, sent_at_us, value)
                    })
                    .collect();
                cluster.submit(&reports, 5).unwrap();
                match (cluster.close_round(epoch), sim.run_round(epoch, reports)) {
                    (Ok(ours), Ok(reference)) => {
                        prop_assert_eq!(bits(&ours.truths), bits(&reference.truths));
                        prop_assert_eq!(bits(cluster.weights()), bits(&reference.weights));
                        prop_assert_eq!(
                            (ours.accepted, ours.refused_users),
                            (reference.accepted, reference.refused_users)
                        );
                        prop_assert_eq!(
                            (ours.duplicates_discarded, ours.late_dropped),
                            (reference.duplicates_discarded, reference.late_dropped)
                        );
                    }
                    // A degenerate round (an uncovered object) fails on
                    // both alike, and neither advances past it.
                    (Err(_), Err(_)) => break,
                    (ours, reference) => {
                        panic!("round {epoch} diverged: cluster={ours:?} sim={reference:?}")
                    }
                }
            }
            prop_assert_eq!(
                cluster.accountant().debits_by_user(),
                sim.accountant().debits_by_user()
            );
            for node in nodes {
                node.shutdown();
            }
        }
    }

    #[test]
    fn create_refuses_wrong_epochs_and_topology() {
        let (nodes, addrs) = start_nodes(2);
        let mut cluster = ClusterCampaign::create(&addrs, "camp", spec(8, 2)).unwrap();
        assert!(matches!(
            cluster.close_round(3),
            Err(ClusterError::Barrier(_))
        ));
        // A user outside the population is refused before any node
        // sees it.
        assert!(cluster.submit(&[stamped(99, 0, 1, 0.0)], 4).is_err());
        // One user over two nodes leaves a node empty.
        assert!(matches!(
            ClusterCampaign::create(&addrs, "tiny", spec(1, 2)),
            Err(ClusterError::Topology(_))
        ));
        for node in nodes {
            node.shutdown();
        }
    }

    /// The restart wedge: node 0 commits epoch 1, the coordinator dies
    /// before node 1 does, and node 0 restarts on its WAL. The claims
    /// its re-driven prepare would replay were never durable, so every
    /// re-drive of epoch 1 is refused — typed, naming the case — and
    /// nothing is merged or debited: the cluster cannot close the
    /// epoch, and it never closes it wrongly.
    #[test]
    fn a_node_restarted_after_committing_refuses_the_redrive_and_nothing_moves() {
        let num_users = 11;
        let root = std::env::temp_dir().join(format!("dptd-restart-wedge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let config = |id: u32| NodeConfig {
            node_id: id,
            num_nodes: 2,
            wal_root: Some(root.join(format!("node{id}"))),
            ..NodeConfig::default()
        };
        let durable = ClusterSpec {
            durable: true,
            ..spec(num_users, 3)
        };
        let mut nodes: Vec<NodeServer> = (0..2)
            .map(|id| NodeServer::start(config(id)).unwrap())
            .collect();
        let mut addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
        let mut a = ClusterCampaign::create(&addrs, "camp", durable).unwrap();
        a.submit(&messy_round(num_users, 0), 4).unwrap();
        a.close_round(0).unwrap();
        let (digest, debits) = (a.weights_digest(), a.accountant().debits_by_user().to_vec());

        // Round 1: prepare both, merge, commit node 0 only, then "die".
        a.submit(&messy_round(num_users, 1), 4).unwrap();
        let merged = a.prepare_and_merge(1).unwrap();
        let locals = a.partition.locals(0).to_vec();
        let losses = locals
            .iter()
            .map(|&g| a.streaming.cumulative_losses()[g])
            .collect();
        let debited = locals
            .iter()
            .map(|&g| a.accountant.rounds_debited(g))
            .collect();
        let batches = a.streaming.batches_seen() as u64;
        let accepted = merged.accepted_locals[0].clone();
        assert!(a.nodes[0]
            .close_round_commit("camp", 1, batches, accepted, losses, debited)
            .unwrap());
        drop(a);
        // Node 0 restarts on the same WAL root.
        nodes.remove(0).shutdown();
        nodes.insert(0, NodeServer::start(config(0)).unwrap());
        addrs[0] = nodes[0].local_addr().to_string();

        let (mut b, at) = ClusterCampaign::resume(&addrs, "camp", durable).unwrap();
        assert_eq!(at, 1);
        assert!(b.needs_redrive());
        for attempt in 0..2 {
            match b.close_round(1) {
                Err(ClusterError::Server(ServerError::Remote { code, message })) => {
                    assert_eq!(code, dptd_server::ErrorCode::InvalidRequest);
                    assert_eq!(
                        message,
                        "epoch 1 is already committed and its prepare expired: this node \
                         restarted after committing it, and a round's claims are never \
                         durable, so the cluster cannot close epoch 1"
                    );
                }
                other => panic!("attempt {attempt}: expected node 0's refusal, got {other:?}"),
            }
            assert_eq!(b.weights_digest(), digest, "nothing merged");
            assert_eq!(b.accountant().debits_by_user(), debits, "nothing debited");
            assert_eq!(b.next_epoch(), 1);
        }
        let epochs: Vec<u64> = (b.nodes.iter_mut())
            .map(|node| node.query_ledger("camp", u64::MAX).unwrap().next_epoch)
            .collect();
        assert_eq!(epochs, [2, 1], "node 1 never committed epoch 1");
        drop(b);
        for node in nodes {
            node.shutdown();
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The barrier's second driver: a seeded fault simulator over
    /// in-process nodes.
    ///
    /// Each seed runs a campaign of three or four rounds over 1–4
    /// volatile `NodeState`s, reached through [`Nodes`] with no socket
    /// and no clock. A barrier has no timers and its nodes are
    /// independent, so there is no event heap: a fan-out hands each node
    /// exactly one request and delivers them in a seeded order, which is
    /// the only interleaving there is. The world loses replies after the
    /// node applied the request, refuses one append (`FailNextAppend`),
    /// quarantines a node, and kills the coordinator between any two
    /// deliveries, leaving any subset of nodes committed; a fresh
    /// coordinator then resumes over the same nodes. Part of a round's
    /// stream may arrive before the round ahead of it closes (the queue's
    /// lookahead). After every close attempt a stale writer replays one
    /// node's last prepare and commit. Every seed checks that each closed
    /// round equals `CampaignDriver<SimBackend>` by `to_bits`, that no
    /// node refuses a coordinator's prepare as invalid — a node filters
    /// against its own ledger, so the coordinator's refusal set must be
    /// the one that ledger implies, under every fault — that a
    /// coordinator's debits are never ahead of the node ledgers once no
    /// commit is owed, that it merged each round at most once, and that
    /// a second run of the seed produces the same trace.
    mod sim {
        use std::cell::{Cell, RefCell};
        use std::rc::Rc;

        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        use super::*;
        use crate::node::NodeState;
        use dptd_server::{ErrorCode, RequestHandler};
        use dptd_stats::digest::Fnv1a;

        /// Seeds per run.
        const SEEDS: u64 = 1_000;
        /// Close or open attempts after which the barrier is stuck.
        const MAX_ATTEMPTS: usize = 32;
        const CAMPAIGN: &str = "sim";
        /// The endings a seed can reach, as counted over the run.
        const ENDINGS: [&str; 4] = [
            "clean close",
            "pending-commit retry",
            "resume with re-drive",
            "refused prepare",
        ];
        const CLEAN: usize = 0;
        const PENDING_RETRY: usize = 1;
        const REDRIVE: usize = 2;
        const REFUSED_PREPARE: usize = 3;

        /// What happened, in order: two runs of a seed share it.
        #[derive(Debug, Clone, PartialEq)]
        enum Event {
            /// Node `node` answered a request (digests of both frames);
            /// `lost` if the reply never reached the coordinator.
            Delivered {
                node: usize,
                request: u64,
                reply: u64,
                lost: bool,
            },
            /// The coordinator died with `undelivered` requests unsent.
            Died { undelivered: usize },
            /// A close attempt's outcome: the weights digest or the error.
            Closed {
                epoch: u64,
                outcome: Result<u64, String>,
            },
            /// A stale writer's replay and the node's answer.
            Probed { node: usize, reply: u64 },
        }

        fn digest(frame: &[u8]) -> u64 {
            let mut h = Fnv1a::new();
            frame.iter().for_each(|&b| h.write_u8(b));
            h.finish()
        }

        fn gone(why: &str) -> ServerError {
            ServerError::Io {
                op: "sim",
                message: why.to_string(),
            }
        }

        /// A request a node applied, and its reply.
        type Applied = (Request, Response);

        /// The nodes and everything that happens between them and the
        /// coordinator.
        struct World {
            seed: u64,
            nodes: Vec<NodeState>,
            rng: RefCell<StdRng>,
            /// `(fan-outs to go, deliveries first)`: the coordinator dies
            /// in that fan-out after that many deliveries.
            crash: Cell<Option<(u32, usize)>>,
            dead: Cell<bool>,
            /// Chance that a delivered request's reply is lost.
            lose: f64,
            lost: Cell<u32>,
            /// Per node, the last prepare and the last commit it applied,
            /// each with its reply: what a stale writer replays.
            applied: RefCell<Vec<[Option<Applied>; 2]>>,
            trace: RefCell<Vec<Event>>,
        }

        impl World {
            fn push(&self, event: Event) {
                self.trace.borrow_mut().push(event);
            }

            /// Whatever a harness-side request to node `id` answers.
            fn ask(&self, id: usize, request: Request) -> Response {
                self.nodes[id].handle(request)
            }

            /// Every node's `(next epoch, debits)` from its ledger.
            fn ledgers(&self) -> Vec<(u64, Vec<u32>)> {
                let query = || Request::QueryLedger {
                    campaign: CAMPAIGN.to_string(),
                    upto: u64::MAX,
                };
                (0..self.nodes.len())
                    .map(|id| match self.ask(id, query()) {
                        Response::Ledger {
                            next_epoch,
                            rounds_debited,
                            ..
                        } => (next_epoch, rounds_debited),
                        other => panic!("node {id} has no ledger: {other:?}"),
                    })
                    .collect()
            }

            /// [`World::ask`] for a stale writer, the answer traced.
            fn replay(&self, id: usize, request: Request) -> Response {
                let reply = self.ask(id, request);
                let digest = digest(&reply.encode());
                self.push(Event::Probed {
                    node: id,
                    reply: digest,
                });
                reply
            }

            /// A stale writer at node `id` replays the last prepare and
            /// commit the node applied. Under another refusal set the
            /// prepare is refused; once its epoch is committed, the
            /// prepare as sent replays the reply byte for byte. The commit
            /// as sent is acked without an append, a diverged one refused.
            fn probe(&self, id: usize) {
                let refused = |reply: &Response| {
                    let code = ErrorCode::InvalidRequest;
                    matches!(reply, Response::Error { code: c, .. } if *c == code)
                };
                let [prepare, commit] = self.applied.borrow()[id].clone();
                let committed = match &commit {
                    Some((Request::CloseRoundCommit { epoch, .. }, Response::Committed { .. })) => {
                        Some(*epoch)
                    }
                    _ => None,
                };
                if let Some((
                    Request::CloseRoundPrepare {
                        campaign,
                        epoch,
                        refused: mut set,
                        ctx,
                    },
                    prepared @ Response::Prepared { .. },
                )) = prepare
                {
                    let prepare = |refused| Request::CloseRoundPrepare {
                        campaign: campaign.clone(),
                        epoch,
                        refused,
                        ctx,
                    };
                    if committed == Some(epoch) {
                        let replayed = self.replay(id, prepare(set.clone()));
                        assert_eq!(replayed, prepared, "node {id} replayed epoch {epoch}");
                    }
                    // One refused user more, or one fewer.
                    if set.is_empty() {
                        set.push(0);
                    } else {
                        set.remove(0);
                    }
                    let other = self.replay(id, prepare(set));
                    assert!(
                        refused(&other),
                        "node {id} prepared epoch {epoch} under another refusal set: {other:?}"
                    );
                }
                if let Some((
                    Request::CloseRoundCommit {
                        campaign,
                        epoch,
                        batches_seen,
                        accepted_users,
                        cumulative_losses,
                        rounds_debited,
                        ctx,
                    },
                    Response::Committed { .. },
                )) = commit
                {
                    let commit = |batches_seen| Request::CloseRoundCommit {
                        campaign: campaign.clone(),
                        epoch,
                        batches_seen,
                        accepted_users: accepted_users.clone(),
                        cumulative_losses: cumulative_losses.clone(),
                        rounds_debited: rounds_debited.clone(),
                        ctx,
                    };
                    let again = self.replay(id, commit(batches_seen));
                    let acked = Response::Committed {
                        epoch,
                        appended: false,
                    };
                    assert_eq!(again, acked, "node {id} re-committed epoch {epoch}");
                    let other = self.replay(id, commit(batches_seen + 1));
                    assert!(
                        refused(&other),
                        "node {id} acked a diverged re-commit of epoch {epoch}: {other:?}"
                    );
                }
            }
        }

        /// The coordinator's side of the seam.
        struct SimNodes(Rc<World>);

        impl std::fmt::Debug for SimNodes {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("SimNodes")
            }
        }

        impl Nodes for SimNodes {
            fn fan_out(
                &mut self,
                request: impl FnMut(usize) -> Request,
            ) -> Vec<Result<Response, ServerError>> {
                let world = &*self.0;
                assert!(!world.dead.get(), "a dead coordinator sent a request");
                let n = world.nodes.len();
                // Every request is out before any node answers, so each
                // node holds exactly one unanswered request.
                let mut requests: Vec<Option<Request>> = (0..n).map(request).map(Some).collect();
                let mut replies: Vec<Result<Response, ServerError>> =
                    (0..n).map(|_| Err(gone("unanswered"))).collect();
                let dies_after = match world.crash.get() {
                    Some((0, first)) => {
                        world.crash.set(None);
                        Some(first.min(n))
                    }
                    Some((fan_outs, first)) => {
                        world.crash.set(Some((fan_outs - 1, first)));
                        None
                    }
                    None => None,
                };
                // The nodes work concurrently: they answer in any order.
                let mut order: Vec<usize> = (0..n).collect();
                order.shuffle(&mut *world.rng.borrow_mut());
                for (delivered, &id) in order.iter().enumerate() {
                    if dies_after == Some(delivered) {
                        break;
                    }
                    let request = requests[id].take().expect("one request per node");
                    let reply = world.ask(id, request.clone());
                    if let (
                        Request::CloseRoundPrepare { epoch, .. },
                        Response::Error {
                            code: ErrorCode::InvalidRequest,
                            message,
                        },
                    ) = (&request, &reply)
                    {
                        panic!(
                            "seed {}: node {id} refused the prepare of epoch {epoch}: {message}",
                            world.seed
                        );
                    }
                    let lost = world.rng.borrow_mut().gen_bool(world.lose);
                    world.push(Event::Delivered {
                        node: id,
                        request: digest(&request.encode()),
                        reply: digest(&reply.encode()),
                        lost,
                    });
                    let slot = match request {
                        Request::CloseRoundPrepare { .. } => Some(0),
                        Request::CloseRoundCommit { .. } => Some(1),
                        _ => None,
                    };
                    if let Some(slot) = slot {
                        world.applied.borrow_mut()[id][slot] = Some((request, reply.clone()));
                    }
                    replies[id] = if lost {
                        world.lost.set(world.lost.get() + 1);
                        Err(gone("reply lost"))
                    } else {
                        Ok(reply)
                    };
                }
                if let Some(delivered) = dies_after {
                    // Nothing the coordinator read matters any more.
                    world.dead.set(true);
                    let undelivered = n - delivered;
                    world.push(Event::Died { undelivered });
                    return (0..n).map(|_| Err(gone("coordinator died"))).collect();
                }
                replies
            }
        }

        /// Open (or resume) the campaign with a fresh coordinator,
        /// retrying through lost replies and deaths mid-open. A typed
        /// refusal is returned: only a quarantine may cause one.
        fn open(
            world: &Rc<World>,
            spec: ClusterSpec,
        ) -> Result<ClusterCampaign<SimNodes>, ClusterError> {
            for _ in 0..MAX_ATTEMPTS {
                world.dead.set(false);
                let lost = world.lost.get();
                let partition = rendezvous_map(spec.num_users, world.nodes.len())?;
                match ClusterCampaign::open(SimNodes(Rc::clone(world)), partition, CAMPAIGN, spec) {
                    Ok(cluster) => return Ok(cluster),
                    Err(e @ ClusterError::Server(ServerError::Remote { .. })) => return Err(e),
                    Err(e) => assert!(
                        world.dead.get() || world.lost.get() > lost,
                        "open failed with no fault injected: {e}"
                    ),
                }
            }
            panic!("the campaign never opened");
        }

        /// Each node's share of `reports`, under local ids, submitted
        /// straight to its queue.
        fn submit(world: &World, partition: &PartitionMap, reports: &[StampedReport]) {
            let mut shares = vec![Vec::new(); world.nodes.len()];
            for stamped in reports {
                let mut local = stamped.clone();
                local.report.user = partition.local_of(stamped.report.user);
                shares[partition.node_of(stamped.report.user)].push(local);
            }
            for (id, reports) in shares.into_iter().enumerate() {
                let submit = Request::SubmitReports {
                    campaign: CAMPAIGN.to_string(),
                    reports,
                    ctx: None,
                };
                let reply = world.ask(id, submit);
                assert!(
                    matches!(reply, Response::Submitted { .. }),
                    "node {id}: {reply:?}"
                );
            }
        }

        /// The coordinator merged each round at most once and, unless a
        /// merged round is still owed its commit, its ledger is nowhere
        /// ahead of a node's durable one.
        fn check_ledgers(seed: u64, world: &World, cluster: &ClusterCampaign<SimNodes>) {
            assert_eq!(
                cluster.streaming.batches_seen() as u64,
                cluster.next_epoch() + u64::from(cluster.pending.is_some()),
                "seed {seed}: a round was merged more than once"
            );
            if cluster.pending.is_some() {
                return;
            }
            let partition = cluster.partition();
            for (id, (_, debits)) in world.ledgers().into_iter().enumerate() {
                for (local, &durable) in debits.iter().enumerate() {
                    let user = partition.global_of(id, local);
                    assert!(
                        cluster.accountant().rounds_debited(user) <= durable,
                        "seed {seed}: user {user} is debited past node {id}'s ledger"
                    );
                }
            }
        }

        /// What a fresh coordinator found after the old one died.
        enum Resumed {
            /// Every node had committed the round: it closed unseen.
            Closed,
            /// The round is still open; `true` if it must be re-driven.
            Open(bool),
            /// A quarantined partition refused the campaign's re-open.
            Refused,
        }

        /// One seed's campaign: the world, the coordinator driving it and
        /// the reference it is held to.
        struct Run {
            seed: u64,
            rng: StdRng,
            world: Rc<World>,
            spec: ClusterSpec,
            partition: PartitionMap,
            cluster: ClusterCampaign<SimNodes>,
            reference: CampaignDriver<SimBackend>,
            /// `(round, node)`: the partition quarantined before that
            /// round's first close.
            quarantine: Option<(u64, usize)>,
            quarantined: Option<usize>,
            /// Whether an append was ever set to fail.
            armed: bool,
            /// The next round's reports, already queued as lookahead.
            ahead: Vec<StampedReport>,
            endings: [bool; 4],
        }

        impl Run {
            fn new(seed: u64, rounds: u64, mut rng: StdRng) -> Self {
                let num_nodes = rng.gen_range(1..=4usize);
                let num_users = loop {
                    let users = rng.gen_range(12..24usize);
                    if rendezvous_map(users, num_nodes).is_ok() {
                        break users;
                    }
                };
                let config = |id| NodeConfig {
                    node_id: id as u32,
                    num_nodes: num_nodes as u32,
                    ..NodeConfig::default()
                };
                let world = Rc::new(World {
                    seed,
                    nodes: (0..num_nodes)
                        .map(|id| NodeState::new(&config(id)).unwrap())
                        .collect(),
                    rng: RefCell::new(StdRng::seed_from_u64(rng.gen())),
                    // Die in the prepare or, more often, the commit of a
                    // seeded round (open is three fan-outs, each round
                    // two), after any number of its deliveries.
                    crash: Cell::new(Some((
                        3 + 2 * rng.gen_range(0..rounds as u32) + u32::from(rng.gen_bool(0.7)),
                        rng.gen_range(0..=num_nodes),
                    ))),
                    dead: Cell::new(false),
                    lose: 0.02,
                    lost: Cell::new(0),
                    applied: RefCell::new(vec![[None, None]; num_nodes]),
                    trace: RefCell::new(Vec::new()),
                });
                let quarantine = rng
                    .gen_bool(0.2)
                    .then(|| (rng.gen_range(0..rounds), rng.gen_range(0..num_nodes)));
                let spec = super::spec(num_users, 2);
                let cluster = open(&world, spec).expect("nothing is quarantined yet");
                Self {
                    seed,
                    rng,
                    partition: cluster.partition().clone(),
                    world,
                    spec,
                    cluster,
                    reference: sim_driver(num_users, 2),
                    quarantine,
                    quarantined: None,
                    armed: false,
                    ahead: Vec::new(),
                    endings: [false; 4],
                }
            }

            /// A round's stream: duplicates, late reports and, from the
            /// third round, users out of budget.
            fn stream(&mut self, epoch: u64) -> Vec<StampedReport> {
                let (len, users) = (self.rng.gen_range(0..48usize), self.spec.num_users);
                let mut report = |_| {
                    let user = self.rng.gen_range(0..users);
                    let sent_at_us = self.rng.gen_range(0..140u64);
                    stamped(user, epoch, sent_at_us, self.rng.gen_range(-5.0..5.0))
                };
                (0..len).map(&mut report).collect()
            }

            /// Drive round `epoch` until it closes; `false` once the
            /// seed's campaign can go no further.
            fn round(&mut self, epoch: u64) -> bool {
                let seed = self.seed;
                let stream = self.stream(epoch);
                // Part of the stream may only arrive after a close attempt
                // failed before the merge.
                let split = if self.rng.gen_bool(0.5) {
                    stream.len()
                } else {
                    self.rng.gen_range(0..=stream.len())
                };
                let (fresh, mut late) = (&stream[..split], Some(&stream[split..]));
                submit(&self.world, &self.partition, fresh);
                let mut submitted = std::mem::take(&mut self.ahead);
                submitted.extend_from_slice(fresh);
                // Part of the next round's stream may arrive before this
                // round closes: the nodes stage it when they commit this
                // one.
                if self.rng.gen_bool(0.3) {
                    self.ahead = self.stream(epoch + 1);
                    submit(&self.world, &self.partition, &self.ahead);
                }
                if let Some((_, node)) = self.quarantine.filter(|&(at, _)| at == epoch) {
                    assert!(self.world.nodes[node].poison(CAMPAIGN));
                    self.quarantined = Some(node);
                }
                if self.rng.gen_bool(0.25) {
                    let node = self.rng.gen_range(0..self.world.nodes.len());
                    self.world.nodes[node].fail_next_append(CAMPAIGN);
                    self.armed = true;
                }
                let before = self.state();
                let (mut retried, mut redriven) = (false, false);
                for attempt in 1..=MAX_ATTEMPTS {
                    let lost = self.world.lost.get();
                    let result = self.cluster.close_round(epoch);
                    let outcome = result.as_ref().map(|r| r.weights_digest);
                    let outcome = outcome.map_err(ToString::to_string);
                    self.world.push(Event::Closed { epoch, outcome });
                    let prober = self
                        .world
                        .rng
                        .borrow_mut()
                        .gen_range(0..self.world.nodes.len());
                    if self.quarantined != Some(prober) {
                        self.world.probe(prober);
                    }
                    let error = match result {
                        Ok(ours) => {
                            self.check_closed(epoch, &ours, &submitted);
                            let ending = match (redriven, retried) {
                                (true, _) => REDRIVE,
                                (false, true) => PENDING_RETRY,
                                (false, false) => CLEAN,
                            };
                            self.endings[ending] |= ending != CLEAN || attempt == 1;
                            return true;
                        }
                        Err(error) => error,
                    };
                    if self.world.dead.get() {
                        late = None;
                        match self.resume(epoch, &submitted) {
                            Resumed::Closed => return true,
                            Resumed::Open(redrive) => redriven = redrive,
                            Resumed::Refused => return false,
                        }
                        continue;
                    }
                    if self.quarantined.is_none() {
                        check_ledgers(seed, &self.world, &self.cluster);
                    }
                    match error {
                        ClusterError::Server(ServerError::Remote {
                            code: ErrorCode::CampaignQuarantined,
                            ..
                        }) => {
                            // Refused in prepare: nothing moved, and the
                            // partition stays refused.
                            assert!(self.quarantined.is_some(), "seed {seed}");
                            self.assert_unmoved(epoch, &before);
                            self.endings[REFUSED_PREPARE] = true;
                            return false;
                        }
                        ClusterError::Protocol(e) => {
                            // A round with an uncovered object fails on
                            // both alike, and nothing moved.
                            let expected = self.reference.run_round(epoch, submitted);
                            assert!(expected.is_err(), "seed {seed}: {e}");
                            self.assert_unmoved(epoch, &before);
                            return false;
                        }
                        ClusterError::Server(ServerError::Io { .. })
                            if self.world.lost.get() > lost => {}
                        ClusterError::Server(ServerError::Remote {
                            code: ErrorCode::WalRefused,
                            ..
                        }) if self.armed => {}
                        other => panic!("seed {seed}: epoch {epoch} failed unprovoked: {other}"),
                    }
                    retried |= self.cluster.pending.is_some();
                    let unsealed = self.cluster.pending.is_none() && self.quarantined.is_none();
                    if let Some(part) = late.take().filter(|_| unsealed) {
                        submit(&self.world, &self.partition, part);
                        submitted.extend_from_slice(part);
                    }
                }
                panic!("seed {seed}: epoch {epoch} never closed");
            }

            /// The weights digest and the debits: what a failed round must
            /// leave as it found them.
            fn state(&self) -> (u64, Vec<u32>) {
                let debits = self.cluster.accountant().debits_by_user().to_vec();
                (self.cluster.weights_digest(), debits)
            }

            fn assert_unmoved(&self, epoch: u64, before: &(u64, Vec<u32>)) {
                let seed = self.seed;
                assert!(self.cluster.pending.is_none(), "seed {seed}");
                assert_eq!(self.cluster.next_epoch(), epoch, "seed {seed}");
                assert_eq!(self.cluster.streaming.batches_seen() as u64, epoch);
                assert_eq!(&self.state(), before, "seed {seed}: the round moved");
            }

            /// A closed round equals the reference's by `to_bits`, and
            /// every node holds it durably, debits included.
            fn check_closed(
                &mut self,
                epoch: u64,
                ours: &ClusterRound,
                submitted: &[StampedReport],
            ) {
                let seed = self.seed;
                let expected = self.reference.run_round(epoch, submitted.to_vec());
                let expected = expected.unwrap_or_else(|e| panic!("seed {seed}: reference: {e}"));
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                assert_eq!(bits(&ours.truths), bits(&expected.truths), "seed {seed}");
                assert_eq!(
                    bits(self.cluster.weights()),
                    bits(&expected.weights),
                    "seed {seed}"
                );
                assert_eq!(ours.weights_digest, fnv1a_f64s(&expected.weights));
                let counts =
                    |accepted, refused, duplicates, late| (accepted, refused, duplicates, late);
                assert_eq!(
                    counts(
                        ours.accepted,
                        ours.refused_users,
                        ours.duplicates_discarded,
                        ours.late_dropped
                    ),
                    counts(
                        expected.accepted,
                        expected.refused_users,
                        expected.duplicates_discarded,
                        expected.late_dropped
                    ),
                    "seed {seed} epoch {epoch}"
                );
                assert_eq!(ours.max_spent, expected.max_spent);
                let debits = self.cluster.accountant().debits_by_user();
                assert_eq!(debits, self.reference.accountant().debits_by_user());
                // No debit without its durable record.
                for (id, (next, durable)) in self.world.ledgers().into_iter().enumerate() {
                    assert_eq!(next, epoch + 1, "seed {seed}: node {id}");
                    for (local, durable) in durable.into_iter().enumerate() {
                        let user = self.partition.global_of(id, local);
                        assert_eq!(debits[user], durable, "seed {seed}: user {user}");
                    }
                }
                check_ledgers(seed, &self.world, &self.cluster);
            }

            /// Replace the dead coordinator with a fresh one over the same
            /// nodes, and check what it rebuilt from their ledgers.
            fn resume(&mut self, epoch: u64, submitted: &[StampedReport]) -> Resumed {
                let seed = self.seed;
                self.cluster = match open(&self.world, self.spec) {
                    Ok(cluster) => cluster,
                    Err(e) => {
                        assert!(self.quarantined.is_some(), "seed {seed}: {e}");
                        return Resumed::Refused;
                    }
                };
                check_ledgers(seed, &self.world, &self.cluster);
                let at = self.cluster.next_epoch();
                let spread = self.world.ledgers().iter().any(|&(next, _)| next != at);
                assert_eq!(self.cluster.needs_redrive(), spread, "seed {seed}");
                if self.rng.gen_bool(0.3) {
                    let nodes = self.world.nodes.len();
                    let crash = (self.rng.gen_range(0..6u32), self.rng.gen_range(0..=nodes));
                    self.world.crash.set(Some(crash));
                }
                if at == epoch + 1 {
                    // Every node committed before the coordinator saw it:
                    // the round closed all the same.
                    let expected = self.reference.run_round(epoch, submitted.to_vec()).unwrap();
                    assert_eq!(self.state().0, fnv1a_f64s(&expected.weights), "seed {seed}");
                    let debits = self.reference.accountant().debits_by_user();
                    assert_eq!(self.cluster.accountant().debits_by_user(), debits);
                    return Resumed::Closed;
                }
                assert_eq!(at, epoch, "seed {seed}");
                Resumed::Open(self.cluster.needs_redrive())
            }
        }

        /// One seed's campaign: its trace and the endings it reached.
        fn run(seed: u64) -> (Vec<Event>, [bool; 4]) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rounds = rng.gen_range(3..=4u64);
            let mut run = Run::new(seed, rounds, rng);
            for epoch in 0..rounds {
                if !run.round(epoch) {
                    break;
                }
            }
            (run.world.trace.take(), run.endings)
        }

        /// Every seed twice: each closed round equals the reference, the
        /// ledgers and merge counts hold after every fault, the trace is
        /// a function of the seed, and every ending is reached often.
        #[test]
        fn the_barrier_holds_under_seeded_faults() {
            let mut reached = [0u32; 4];
            for seed in 0..SEEDS {
                let (trace, endings) = run(seed);
                assert!(
                    run(seed) == (trace, endings),
                    "seed {seed}: the run is not a function of the seed"
                );
                for (count, reached) in reached.iter_mut().zip(endings) {
                    *count += u32::from(reached);
                }
            }
            for (count, ending) in reached.iter().zip(ENDINGS) {
                assert!(
                    *count > 100,
                    "{count} of {SEEDS} seeds reached a {ending}: {reached:?}"
                );
            }
        }
    }
}
