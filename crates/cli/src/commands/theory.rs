//! `dptd theory` — print the paper's bounds for a configuration.

use std::fmt::Write as _;

use dptd_core::theory::{privacy, tradeoff, utility};
use dptd_ldp::SensitivityBound;

use crate::args::ArgMap;
use crate::CliError;

/// Execute `dptd theory`.
///
/// # Errors
///
/// Propagates parameter validation from the theory module.
pub fn execute(args: &ArgMap) -> Result<String, CliError> {
    let alpha = args.f64_or("alpha", 0.5)?;
    let beta = args.f64_or("beta", 0.1)?;
    let epsilon = args.f64_or("epsilon", 1.0)?;
    let delta = args.f64_or("delta", 0.3)?;
    let lambda1 = args.f64_or("lambda1", 2.0)?;
    let users = args.usize_or("users", 150)?;
    args.refuse_unread()?;

    let sens = SensitivityBound::new(1.5, 0.9, lambda1)?;
    let req = privacy::PrivacyRequirement::new(epsilon, delta, sens)?;
    let window = tradeoff::feasible_noise_window(alpha, beta, users, &req)?;
    let c_ceiling = utility::c_upper_bound(lambda1, alpha, beta, users)?;
    let c_floor = privacy::min_noise_level(&req);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "configuration: alpha = {alpha}, beta = {beta}, epsilon = {epsilon}, delta = {delta}, lambda1 = {lambda1}, S = {users}"
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "| bound | value |");
    let _ = writeln!(out, "|:---|---:|");
    let _ = writeln!(out, "| Thm 4.3 utility ceiling (max c) | {c_ceiling:.4} |");
    let _ = writeln!(out, "| Thm 4.8 privacy floor (min c) | {c_floor:.4} |");
    let _ = writeln!(
        out,
        "| Thm 4.9 c window | [{:.4}, {:.4}] |",
        window.c_min, window.c_max
    );
    let _ = writeln!(out, "| feasible | {} |", window.is_feasible());
    if let Some(c) = window.operating_point() {
        let lambda2 = privacy::lambda2_for_noise_level(lambda1, c)?;
        let _ = writeln!(out, "| recommended c | {c:.4} |");
        let _ = writeln!(out, "| recommended lambda2 | {lambda2:.4} |");
        let _ = writeln!(
            out,
            "| expected noise variance 1/lambda2 | {:.4} |",
            1.0 / lambda2
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(words: &[&str]) -> ArgMap {
        ArgMap::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn feasible_configuration_recommends_lambda2() {
        let out = execute(&map(&["--alpha", "1.0", "--beta", "0.2", "--users", "500"])).unwrap();
        assert!(out.contains("recommended lambda2"), "{out}");
        assert!(out.contains("| feasible | true |"));
    }

    #[test]
    fn infeasible_configuration_reports_window_only() {
        let out = execute(&map(&[
            "--alpha",
            "0.01",
            "--beta",
            "0.001",
            "--epsilon",
            "0.01",
            "--delta",
            "0.01",
            "--users",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("| feasible | false |"), "{out}");
        assert!(!out.contains("recommended lambda2"));
    }
}
