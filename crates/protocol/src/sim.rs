//! Deterministic discrete-event simulation of the crowd-sensing round.
//!
//! Events are delivered in `(time, sequence)` order from a binary heap, so
//! a fixed RNG seed reproduces the round exactly — message for message.
//! The network model injects per-message latency and loss; the round model
//! adds straggler users and duplicate submissions, which the server must
//! handle (deadline cut-off and de-duplication respectively).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use rand::Rng;

use dptd_core::roles::{HyperParameter, PerturbedReport, Server, TaskAssignment, User};
use dptd_truth::{ObservationMatrix, TruthDiscoverer};

use crate::dedup::DedupFilter;
use crate::message::{Envelope, Message, NodeId};
use crate::ProtocolError;

/// Network latency/loss model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Minimum one-way latency in microseconds.
    pub min_latency_us: u64,
    /// Maximum one-way latency in microseconds.
    pub max_latency_us: u64,
    /// Probability that any single message is silently dropped.
    pub drop_probability: f64,
}

impl Default for NetworkConfig {
    /// 5–50 ms latency, no loss.
    fn default() -> Self {
        Self {
            min_latency_us: 5_000,
            max_latency_us: 50_000,
            drop_probability: 0.0,
        }
    }
}

impl NetworkConfig {
    fn validate(&self) -> Result<(), ProtocolError> {
        if self.max_latency_us < self.min_latency_us {
            return Err(ProtocolError::InvalidParameter {
                name: "max_latency_us",
                value: self.max_latency_us as f64,
                constraint: "must be >= min_latency_us",
            });
        }
        if !(0.0..=1.0).contains(&self.drop_probability) {
            return Err(ProtocolError::InvalidParameter {
                name: "drop_probability",
                value: self.drop_probability,
                constraint: "must be in [0, 1]",
            });
        }
        Ok(())
    }

    fn sample_latency<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.max_latency_us == self.min_latency_us {
            self.min_latency_us
        } else {
            rng.gen_range(self.min_latency_us..=self.max_latency_us)
        }
    }

    fn delivers<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.drop_probability == 0.0 || rng.gen::<f64>() >= self.drop_probability
    }
}

/// Per-round behaviour knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundConfig {
    /// Submission deadline (µs after round start). Reports arriving later
    /// are discarded by the server.
    pub deadline_us: u64,
    /// Per-user processing time to complete the micro-tasks, sampled
    /// uniformly up to this bound (µs).
    pub max_think_time_us: u64,
    /// Fraction of users that are stragglers (their think time is
    /// multiplied by 10; with a tight deadline they miss it).
    pub straggler_fraction: f64,
    /// Probability a user sends its report twice (duplicate delivery; the
    /// server must de-duplicate).
    pub duplicate_probability: f64,
}

impl Default for RoundConfig {
    /// 5 s deadline, ≤200 ms think time, no stragglers or duplicates.
    fn default() -> Self {
        Self {
            deadline_us: 5_000_000,
            max_think_time_us: 200_000,
            straggler_fraction: 0.0,
            duplicate_probability: 0.0,
        }
    }
}

impl RoundConfig {
    fn validate(&self) -> Result<(), ProtocolError> {
        for (name, v) in [
            ("straggler_fraction", self.straggler_fraction),
            ("duplicate_probability", self.duplicate_probability),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(ProtocolError::InvalidParameter {
                    name,
                    value: v,
                    constraint: "must be in [0, 1]",
                });
            }
        }
        if self.deadline_us == 0 {
            return Err(ProtocolError::InvalidParameter {
                name: "deadline_us",
                value: 0.0,
                constraint: "must be positive",
            });
        }
        Ok(())
    }
}

/// What happened in one simulated round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// Aggregated truths (one per object).
    pub truths: Vec<f64>,
    /// Per-participant weights, aligned with `participants`.
    pub weights: Vec<f64>,
    /// The surviving perturbed reports, in arrival order — what the
    /// server actually aggregated (consumed by multi-round campaigns).
    pub reports: Vec<PerturbedReport>,
    /// User ids whose reports were aggregated, in arrival order.
    pub participants: Vec<usize>,
    /// User ids whose reports never arrived (dropped or late).
    pub missing: Vec<usize>,
    /// Simulated time at which the server finished aggregation (µs).
    pub finished_at_us: u64,
    /// Total messages the network carried (including drops).
    pub messages_sent: usize,
    /// Messages lost to the network model.
    pub messages_dropped: usize,
    /// Duplicate submissions the server discarded.
    pub duplicates_discarded: usize,
}

/// A scheduled delivery, ordered by `(time, sequence)` so the event loop
/// is deterministic. The envelope payload does not participate in the
/// ordering (it contains floats).
#[derive(Debug, Clone)]
struct QueuedEvent {
    at: u64,
    seq: u64,
    env: Envelope,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for QueuedEvent {}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The discrete-event harness: one server, `S` simulated users.
#[derive(Debug, Clone)]
pub struct SimHarness<A> {
    algorithm: A,
    lambda2: f64,
    network: NetworkConfig,
}

impl<A: TruthDiscoverer + Clone> SimHarness<A> {
    /// Create a harness with the given aggregation algorithm, noise
    /// hyper-parameter, and network model.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] for an invalid network
    /// model or non-positive `λ₂`.
    pub fn new(algorithm: A, lambda2: f64, network: NetworkConfig) -> Result<Self, ProtocolError> {
        network.validate()?;
        if !(lambda2.is_finite() && lambda2 > 0.0) {
            return Err(ProtocolError::InvalidParameter {
                name: "lambda2",
                value: lambda2,
                constraint: "must be finite and > 0",
            });
        }
        Ok(Self {
            algorithm,
            lambda2,
            network,
        })
    }

    /// Run one full round over the users' raw observations.
    ///
    /// Row `s` of `raw_data` holds user `s`'s ground measurements; the
    /// simulated client perturbs them (Algorithm 2 steps 2–5) before
    /// transmission.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InsufficientCoverage`] if, after drops and
    /// deadline cut-off, some object has no surviving report, and
    /// propagates aggregation errors.
    pub fn run_round<R: Rng + ?Sized>(
        &self,
        raw_data: &ObservationMatrix,
        round: &RoundConfig,
        rng: &mut R,
    ) -> Result<RoundOutcome, ProtocolError> {
        round.validate()?;
        let num_users = raw_data.num_users();
        let server = Server::new(self.algorithm.clone(), self.lambda2, raw_data.num_objects())?;
        let hyper: HyperParameter = server.announce();

        let mut queue: BinaryHeap<Reverse<QueuedEvent>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut messages_sent = 0usize;
        let mut messages_dropped = 0usize;

        let push = |queue: &mut BinaryHeap<Reverse<QueuedEvent>>, env: Envelope, seq: &mut u64| {
            *seq += 1;
            queue.push(Reverse(QueuedEvent {
                at: env.deliver_at_us,
                seq: *seq,
                env,
            }));
        };

        // t = 0: server broadcasts assignments.
        for s in 0..num_users {
            messages_sent += 1;
            if !self.network.delivers(rng) {
                messages_dropped += 1;
                continue;
            }
            let latency = self.network.sample_latency(rng);
            let tasks = TaskAssignment {
                objects: raw_data.observations_of_user(s).map(|(n, _)| n).collect(),
            };
            push(
                &mut queue,
                Envelope {
                    from: NodeId::Server,
                    to: NodeId::User(s),
                    deliver_at_us: latency,
                    payload: Message::Assign {
                        tasks,
                        hyper,
                        deadline_us: round.deadline_us,
                    },
                },
                &mut seq,
            );
        }

        // Event loop. De-duplication is first-wins, the engine shards'
        // policy, through [`crate::dedup::DedupFilter`].
        let mut dedup = DedupFilter::new(num_users);
        let mut clock = 0u64;

        while let Some(Reverse(QueuedEvent { at, env, .. })) = queue.pop() {
            clock = clock.max(at);
            match (env.to, env.payload) {
                (
                    NodeId::User(s),
                    Message::Assign {
                        tasks,
                        hyper,
                        deadline_us,
                    },
                ) => {
                    // The client performs its micro-tasks, perturbs
                    // locally, and replies.
                    let mut think = if round.max_think_time_us == 0 {
                        0
                    } else {
                        rng.gen_range(0..=round.max_think_time_us)
                    };
                    if (s as f64) < round.straggler_fraction * num_users as f64 {
                        think = think.saturating_mul(10);
                    }
                    let measurements: Vec<(usize, f64)> = tasks
                        .objects
                        .iter()
                        .map(|&n| (n, raw_data.value(s, n).expect("assigned => observed")))
                        .collect();
                    let report = User::new(s).respond(&measurements, hyper, rng)?;
                    let send_count = if rng.gen::<f64>() < round.duplicate_probability {
                        2
                    } else {
                        1
                    };
                    for _ in 0..send_count {
                        messages_sent += 1;
                        if !self.network.delivers(rng) {
                            messages_dropped += 1;
                            continue;
                        }
                        let latency = self.network.sample_latency(rng);
                        push(
                            &mut queue,
                            Envelope {
                                from: NodeId::User(s),
                                to: NodeId::Server,
                                deliver_at_us: at + think + latency,
                                payload: Message::Submit(report.clone()),
                            },
                            &mut seq,
                        );
                    }
                    let _ = deadline_us;
                }
                (NodeId::Server, Message::Submit(report)) => {
                    if at > round.deadline_us {
                        continue; // late: discarded
                    }
                    let slot = report.user;
                    dedup.accept(slot, report);
                }
                _ => {}
            }
        }

        let arrival_order = dedup.participants().to_vec();
        let missing = dedup.missing();
        let duplicates_discarded = dedup.duplicates_discarded();
        let reports = dedup.into_reports();

        // Coverage check before aggregation so the caller gets a protocol
        // level error (which object starved) rather than a matrix error.
        let mut covered = vec![false; raw_data.num_objects()];
        for r in &reports {
            for &(n, _) in &r.values {
                covered[n] = true;
            }
        }
        if let Some(object) = covered.iter().position(|&c| !c) {
            return Err(ProtocolError::InsufficientCoverage {
                object,
                reports_received: reports.len(),
            });
        }

        let result = server.aggregate(&reports)?;
        Ok(RoundOutcome {
            truths: result.truths,
            weights: result.weights,
            reports,
            participants: arrival_order,
            missing,
            finished_at_us: clock.max(round.deadline_us),
            messages_sent,
            messages_dropped,
            duplicates_discarded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_truth::crh::Crh;

    fn raw_data(users: usize, objects: usize) -> ObservationMatrix {
        let mut rng = dptd_stats::seeded_rng(401);
        dptd_sensing::synthetic::SyntheticConfig {
            num_users: users,
            num_objects: objects,
            ..Default::default()
        }
        .generate(&mut rng)
        .unwrap()
        .observations
    }

    #[test]
    fn config_validation() {
        let bad_net = NetworkConfig {
            min_latency_us: 10,
            max_latency_us: 5,
            drop_probability: 0.0,
        };
        assert!(SimHarness::new(Crh::default(), 1.0, bad_net).is_err());
        assert!(SimHarness::new(Crh::default(), 0.0, NetworkConfig::default()).is_err());

        let h = SimHarness::new(Crh::default(), 1.0, NetworkConfig::default()).unwrap();
        let bad_round = RoundConfig {
            deadline_us: 0,
            ..RoundConfig::default()
        };
        let mut rng = dptd_stats::seeded_rng(409);
        assert!(h.run_round(&raw_data(3, 2), &bad_round, &mut rng).is_err());
    }

    #[test]
    fn lossless_round_collects_everyone() {
        let h = SimHarness::new(Crh::default(), 100.0, NetworkConfig::default()).unwrap();
        let mut rng = dptd_stats::seeded_rng(419);
        let data = raw_data(15, 4);
        let out = h
            .run_round(&data, &RoundConfig::default(), &mut rng)
            .unwrap();
        assert_eq!(out.participants.len(), 15);
        assert!(out.missing.is_empty());
        assert_eq!(out.truths.len(), 4);
        assert_eq!(out.messages_dropped, 0);
        // 15 assigns + 15 submits.
        assert_eq!(out.messages_sent, 30);
    }

    #[test]
    fn determinism_under_seed() {
        let h = SimHarness::new(Crh::default(), 2.0, NetworkConfig::default()).unwrap();
        let data = raw_data(10, 3);
        let a = h
            .run_round(
                &data,
                &RoundConfig::default(),
                &mut dptd_stats::seeded_rng(421),
            )
            .unwrap();
        let b = h
            .run_round(
                &data,
                &RoundConfig::default(),
                &mut dptd_stats::seeded_rng(421),
            )
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn drops_shrink_participation_but_round_succeeds() {
        let net = NetworkConfig {
            drop_probability: 0.3,
            ..NetworkConfig::default()
        };
        let h = SimHarness::new(Crh::default(), 100.0, net).unwrap();
        let mut rng = dptd_stats::seeded_rng(431);
        let data = raw_data(60, 5);
        let out = h
            .run_round(&data, &RoundConfig::default(), &mut rng)
            .unwrap();
        assert!(out.messages_dropped > 0);
        assert!(!out.missing.is_empty());
        assert!(out.participants.len() < 60);
        assert_eq!(out.truths.len(), 5);
    }

    #[test]
    fn stragglers_miss_tight_deadline() {
        let round = RoundConfig {
            // An honest user's worst case is assign latency (≤50ms) + think
            // (≤200ms) + submit latency (≤50ms) = 300ms, so with a 320ms
            // deadline only 10x-think stragglers can miss.
            deadline_us: 320_000,
            straggler_fraction: 0.2,
            ..RoundConfig::default()
        };
        let h = SimHarness::new(Crh::default(), 100.0, NetworkConfig::default()).unwrap();
        let mut rng = dptd_stats::seeded_rng(433);
        let data = raw_data(50, 4);
        let out = h.run_round(&data, &round, &mut rng).unwrap();
        assert!(
            !out.missing.is_empty(),
            "some stragglers should miss the deadline"
        );
        // Stragglers are users 0..10 by construction.
        assert!(out.missing.iter().all(|&s| s < 10));
    }

    #[test]
    fn duplicates_are_discarded() {
        let round = RoundConfig {
            duplicate_probability: 1.0,
            ..RoundConfig::default()
        };
        let h = SimHarness::new(Crh::default(), 100.0, NetworkConfig::default()).unwrap();
        let mut rng = dptd_stats::seeded_rng(439);
        let data = raw_data(8, 3);
        let out = h.run_round(&data, &round, &mut rng).unwrap();
        assert_eq!(out.participants.len(), 8);
        assert_eq!(out.duplicates_discarded, 8);
    }

    #[test]
    fn total_loss_reports_starved_object() {
        let net = NetworkConfig {
            drop_probability: 1.0,
            ..NetworkConfig::default()
        };
        let h = SimHarness::new(Crh::default(), 1.0, net).unwrap();
        let mut rng = dptd_stats::seeded_rng(443);
        let err = h
            .run_round(&raw_data(5, 2), &RoundConfig::default(), &mut rng)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::InsufficientCoverage { .. }));
    }

    #[test]
    fn aggregated_truths_track_raw_aggregates_under_small_noise() {
        let h = SimHarness::new(Crh::default(), 1e7, NetworkConfig::default()).unwrap();
        let mut rng = dptd_stats::seeded_rng(449);
        let data = raw_data(25, 6);
        let out = h
            .run_round(&data, &RoundConfig::default(), &mut rng)
            .unwrap();
        let direct = Crh::default().discover(&data).unwrap();
        let gap = dptd_stats::summary::mae(&out.truths, &direct.truths).unwrap();
        assert!(gap < 0.01, "protocol vs direct gap {gap}");
    }
}
