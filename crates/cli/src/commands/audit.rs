//! `dptd audit` — empirical privacy-loss estimate for the configured
//! mechanism.

use std::fmt::Write as _;

use dptd_core::theory::privacy;
use dptd_ldp::audit::{audit_mechanism, AuditConfig};
use dptd_ldp::{RandomizedVarianceGaussian, SensitivityBound};

use crate::args::ArgMap;
use crate::CliError;

/// Execute `dptd audit`.
///
/// # Errors
///
/// Propagates parameter/mechanism errors.
pub fn execute(args: &ArgMap) -> Result<String, CliError> {
    let epsilon = args.f64_or("epsilon", 1.0)?;
    let delta = args.f64_or("delta", 0.3)?;
    let lambda1 = args.f64_or("lambda1", 2.0)?;
    let trials = args.usize_or("trials", 100_000)?;
    let seed = args.u64_or("seed", 42)?;
    args.refuse_unread()?;

    let sens = SensitivityBound::new(1.5, 0.9, lambda1)?;
    let req = privacy::PrivacyRequirement::new(epsilon, delta, sens)?;
    let c = privacy::min_noise_level(&req);
    let lambda2 = privacy::lambda2_for_noise_level(lambda1, c)?;
    let mechanism = RandomizedVarianceGaussian::new(lambda2)?;
    let distance = sens.delta_bound_paper();

    let cfg = AuditConfig {
        trials,
        bins: 24,
        min_count: (trials / 400).max(50) as u64,
        low: -5.0 * distance,
        high: 6.0 * distance,
    };
    let mut rng = dptd_stats::seeded_rng(seed);
    let audit = audit_mechanism(&mechanism, 0.0, distance, &cfg, &mut rng)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "target: ({epsilon}, {delta})-LDP at lambda1 = {lambda1} -> lambda2 = {lambda2:.4}"
    );
    let _ = writeln!(
        out,
        "audit : two records {distance:.4} apart, {trials} trials"
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "| quantity | value |");
    let _ = writeln!(out, "|:---|---:|");
    let _ = writeln!(
        out,
        "| epsilon_hat (empirical lower bound) | {:.4} |",
        audit.epsilon_hat
    );
    let _ = writeln!(
        out,
        "| excluded tail mass (empirical delta) | {:.4} |",
        audit.excluded_mass
    );
    let _ = writeln!(out, "| bins used | {} |", audit.bins_used);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{}",
        if audit.epsilon_hat <= epsilon {
            "audit consistent with the analytic guarantee"
        } else {
            "audit EXCEEDS the analytic epsilon — investigate (sampling slack expected up to ~0.5)"
        }
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(words: &[&str]) -> ArgMap {
        ArgMap::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn audit_reports_consistency_at_default_target() {
        let out = execute(&map(&["--trials", "40000"])).unwrap();
        assert!(out.contains("epsilon_hat"), "{out}");
    }

    #[test]
    fn audit_validates_parameters() {
        assert!(execute(&map(&["--epsilon", "-1"])).is_err());
        assert!(execute(&map(&["--delta", "2"])).is_err());
    }
}
