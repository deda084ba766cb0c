//! Crowd-sensing protocol runtime.
//!
//! The paper's §2 system model is one untrusted server and `S`
//! non-coordinating mobile users; §3.2 claims the mechanism *"ensures fast
//! processing … and there are no communication costs due to the
//! non-collaborative mechanism"*. This crate makes that deployment story
//! concrete in [`sim`] — a deterministic **discrete-event simulator**
//! with a latency/message-loss network model: reproducible rounds, fault
//! injection, and exact message accounting. Used by the robustness
//! experiments. (Real concurrency is the serving layer's: `dptd-engine`,
//! `dptd-server`.)
//!
//! Shared infrastructure grew out of the simulator and is reused by the
//! `dptd-engine` streaming aggregator: [`pool`] (capped scoped worker
//! pool), [`dedup`] (first-wins duplicate filtering) and
//! [`message::StampedReport`] (an epoch/arrival-time-stamped report).
//!
//! Multi-round campaigns live in [`campaign`]: a backend-abstracted
//! [`campaign::CampaignDriver`] executes each round through a pluggable
//! [`campaign::RoundBackend`] (the in-process [`campaign::SimBackend`]
//! here, or the sharded `dptd-engine` backend) while [`budget`] enforces
//! per-user privacy budgets — exhausted users refuse, and dropped/late
//! reports debit nothing.
//!
//! Every path drives the same [`dptd_core::roles`] types: the user-side
//! perturbation happens inside the client, so raw values never cross the
//! transport — the trust boundary is visible in the message enum
//! ([`message::Message`] has no constructor carrying raw data).
//!
//! # Example: one simulated round
//!
//! ```
//! use dptd_protocol::sim::{NetworkConfig, RoundConfig, SimHarness};
//! use dptd_truth::crh::Crh;
//!
//! # fn main() -> Result<(), dptd_protocol::ProtocolError> {
//! let mut rng = dptd_stats::seeded_rng(11);
//! let data = dptd_sensing::synthetic::SyntheticConfig {
//!     num_users: 20,
//!     num_objects: 5,
//!     ..Default::default()
//! }
//! .generate(&mut rng)
//! .map_err(dptd_core::CoreError::from)?;
//!
//! let harness = SimHarness::new(Crh::default(), 2.0, NetworkConfig::default())?;
//! let outcome = harness.run_round(&data.observations, &RoundConfig::default(), &mut rng)?;
//! assert_eq!(outcome.truths.len(), 5);
//! assert!(outcome.participants.len() <= 20);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod budget;
pub mod campaign;
pub mod dedup;
pub mod message;
pub mod partition;
pub mod pool;
pub mod sim;

mod error;

pub use dedup::DedupFilter;
pub use error::ProtocolError;
pub use pool::WorkerPool;
