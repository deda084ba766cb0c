//! Local differential privacy substrate for the `dptd` workspace.
//!
//! Crowd-sensing users do not trust the server, so every privacy mechanism
//! here runs **on the user's device** and perturbs the report *before*
//! submission — the local model of differential privacy (Definition 4.5 of
//! the paper):
//!
//! > `Pr{M(x₁) ∈ S} ≤ e^ε · Pr{M(x₂) ∈ S} + δ` for any two records
//! > `x₁, x₂` and any output set `S`.
//!
//! Contents:
//!
//! * [`mechanism`] — the [`mechanism::Mechanism`] trait and four
//!   implementations: the paper's
//!   [`mechanism::RandomizedVarianceGaussian`]
//!   (noise variance drawn privately from `Exp(λ₂)`), plus the classic
//!   [`Laplace`](mechanism::LaplaceMechanism) /
//!   [`Gaussian`](mechanism::FixedGaussianMechanism) baselines and an
//!   [`Identity`](mechanism::IdentityMechanism) pass-through for ablations.
//! * [`sensitivity`] — Definition 4.6's per-user *sensitive information*
//!   `Δ_s` and Lemma 4.7's high-probability bound `Δ_s ≤ γ_s/λ₁`.
//! * [`accountant`] — converting between mechanism parameters and `(ε, δ)`
//!   guarantees, plus sequential composition.
//! * [`audit`] — an *empirical* LDP auditor that estimates the privacy loss
//!   of any mechanism from samples; the test-suite uses it to check the
//!   analytic guarantees from the outside.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod accountant;
pub mod audit;
pub mod mechanism;
pub mod sensitivity;

mod error;

pub use accountant::PrivacyLoss;
pub use error::LdpError;
pub use mechanism::{
    FixedGaussianMechanism, IdentityMechanism, LaplaceMechanism, Mechanism,
    RandomizedVarianceGaussian,
};
pub use sensitivity::{user_sensitivity, SensitivityBound};
