//! # dptd — Differentially Private Truth Discovery for Crowd Sensing
//!
//! A Rust implementation of *"Towards Differentially Private Truth
//! Discovery for Crowd Sensing Systems"* (Li et al., ICDCS 2020): users
//! perturb their sensory reports with Gaussian noise whose variance they
//! sample privately from `Exp(λ₂)`, and an untrusted server aggregates the
//! perturbed reports with quality-aware truth discovery. Weighted
//! aggregation automatically discounts heavily-perturbed users, so
//! aggregate accuracy survives even large noise while every user holds a
//! local differential privacy guarantee.
//!
//! This umbrella crate re-exports the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`stats`] | distributions, special functions, summaries, GoF tests |
//! | [`ldp`] | LDP mechanisms, sensitivity, accounting, empirical audit |
//! | [`truth`] | CRH, GTM, CATD, baselines, streaming TD |
//! | [`sensing`] | synthetic + indoor-floor-plan simulators, adversaries |
//! | [`core`] | the paper's mechanism (Algorithm 2) + Theorems 4.3/4.8/4.9 |
//! | [`protocol`] | discrete-event crowd-sensing simulator, campaigns + budgets |
//! | [`engine`] | sharded streaming aggregation engine for million-user rounds |
//! | [`server`] | multi-campaign network service over a binary TCP wire protocol |
//! | [`cluster`] | multi-node campaigns: partition nodes, two-phase round barrier, WAL replication |
//!
//! # Quickstart
//!
//! ```
//! use dptd::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = dptd::seeded_rng(42);
//!
//! // A world: 150 users of mixed quality observing 30 objects.
//! let dataset = SyntheticConfig::default().generate(&mut rng)?;
//!
//! // The paper's pipeline: perturb per-user, aggregate with CRH.
//! let pipeline = PrivatePipeline::new(Crh::default(), 2.0)?;
//! let run = pipeline.run(&dataset.observations, &mut rng)?;
//!
//! println!(
//!     "noise added: {:.3}, utility loss (MAE): {:.4}",
//!     run.noise.mean_abs_noise,
//!     run.utility_mae()?,
//! );
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub use dptd_cluster as cluster;
pub use dptd_core as core;
pub use dptd_engine as engine;
pub use dptd_ldp as ldp;
pub use dptd_obs as obs;
pub use dptd_protocol as protocol;
pub use dptd_sensing as sensing;
pub use dptd_server as server;
pub use dptd_stats as stats;
pub use dptd_truth as truth;

pub use dptd_stats::seeded_rng;

/// The most common imports, for examples and downstream binaries.
pub mod prelude {
    pub use dptd_core::mechanism::{NoiseStats, PrivatePipeline, PrivateRun};
    pub use dptd_core::report::{RunMetrics, WeightComparison};
    pub use dptd_core::roles::{HyperParameter, PerturbedReport, Server, User};
    pub use dptd_core::theory;
    pub use dptd_core::CoreError;
    pub use dptd_engine::{
        ArrivalProcess, Engine, EngineConfig, EngineMetrics, LoadGen, LoadGenConfig,
    };
    pub use dptd_ldp::{
        FixedGaussianMechanism, LaplaceMechanism, Mechanism, PrivacyLoss,
        RandomizedVarianceGaussian, SensitivityBound,
    };
    pub use dptd_sensing::floorplan::FloorplanConfig;
    pub use dptd_sensing::synthetic::SyntheticConfig;
    pub use dptd_sensing::{Population, SensingDataset};
    pub use dptd_stats::dist::{Continuous, Exponential, Normal};
    pub use dptd_stats::summary::{mae, Summary};
    pub use dptd_truth::baselines::{MeanAggregator, MedianAggregator};
    pub use dptd_truth::crh::Crh;
    pub use dptd_truth::gtm::Gtm;
    pub use dptd_truth::{
        Convergence, Loss, ObservationMatrix, TruthDiscoverer, TruthDiscoveryResult,
    };
}
