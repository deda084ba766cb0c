//! Property-based tests for the LDP substrate.

use dptd_ldp::accountant::{
    laplace_epsilon, randomized_gaussian_delta, randomized_gaussian_max_lambda2,
};
use dptd_ldp::{
    FixedGaussianMechanism, IdentityMechanism, LaplaceMechanism, Mechanism, PrivacyLoss,
    RandomizedVarianceGaussian, SensitivityBound,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn randomized_gaussian_delta_in_unit_interval(
        lambda2 in 1e-3..1e3f64,
        sens in 0.0..1e2f64,
        eps in 1e-3..10.0f64,
    ) {
        let d = randomized_gaussian_delta(lambda2, sens, eps).unwrap();
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn randomized_gaussian_delta_monotone_in_lambda2(
        sens in 0.01..10.0f64,
        eps in 0.01..5.0f64,
        l_small in 1e-3..1.0f64,
        l_big in 1.0..1e3f64,
    ) {
        // More noise (smaller λ₂) → smaller δ failure probability.
        let d_small = randomized_gaussian_delta(l_small, sens, eps).unwrap();
        let d_big = randomized_gaussian_delta(l_big, sens, eps).unwrap();
        prop_assert!(d_small <= d_big + 1e-15);
    }

    #[test]
    fn lambda2_delta_roundtrip(
        sens in 0.01..10.0f64,
        eps in 0.01..5.0f64,
        delta in 0.001..0.999f64,
    ) {
        let l2 = randomized_gaussian_max_lambda2(sens, eps, delta).unwrap();
        let d = randomized_gaussian_delta(l2, sens, eps).unwrap();
        prop_assert!((d - delta).abs() < 1e-9);
    }

    #[test]
    fn privacy_loss_compose_commutative(
        e1 in 0.0..5.0f64, d1 in 0.0..0.5f64,
        e2 in 0.0..5.0f64, d2 in 0.0..0.5f64,
    ) {
        let a = PrivacyLoss::new(e1, d1).unwrap();
        let b = PrivacyLoss::new(e2, d2).unwrap();
        prop_assert_eq!(a.compose(&b), b.compose(&a));
    }

    #[test]
    fn laplace_epsilon_scales_linearly(scale in 0.01..100.0f64, sens in 0.0..100.0f64) {
        let e1 = laplace_epsilon(scale, sens).unwrap();
        let e2 = laplace_epsilon(2.0 * scale, sens).unwrap();
        prop_assert!((e1 - 2.0 * e2).abs() < 1e-9 * (1.0 + e1.abs()));
    }

    #[test]
    fn sensitivity_bound_positive(b in 0.1..10.0f64, eta in 0.01..0.99f64, l1 in 0.01..100.0f64) {
        let sb = SensitivityBound::new(b, eta, l1).unwrap();
        prop_assert!(sb.gamma() > 0.0);
        prop_assert!(sb.delta_bound() > 0.0);
        prop_assert!((0.0..=1.0).contains(&sb.confidence()));
    }

    #[test]
    fn sensitivity_bound_tightens_with_lambda1(
        b in 0.5..5.0f64,
        eta in 0.1..0.9f64,
        l_small in 0.01..1.0f64,
        factor in 1.1..50.0f64,
    ) {
        // Better data quality (bigger λ₁) → smaller sensitive range.
        let lo = SensitivityBound::new(b, eta, l_small).unwrap();
        let hi = SensitivityBound::new(b, eta, l_small * factor).unwrap();
        prop_assert!(hi.delta_bound() < lo.delta_bound());
    }

    #[test]
    fn mechanisms_preserve_report_length(
        n in 0usize..64,
        lambda2 in 0.01..100.0f64,
        seed in 0u64..1_000,
    ) {
        let xs = vec![1.5; n];
        let mut rng = dptd_stats::seeded_rng(seed);
        let m = RandomizedVarianceGaussian::new(lambda2).unwrap();
        prop_assert_eq!(m.perturb_report(&xs, &mut rng).len(), n);
        let m = LaplaceMechanism::new(1.0, 1.0).unwrap();
        prop_assert_eq!(m.perturb_report(&xs, &mut rng).len(), n);
        let m = FixedGaussianMechanism::new(1.0, 1.0, 0.1).unwrap();
        prop_assert_eq!(m.perturb_report(&xs, &mut rng).len(), n);
        prop_assert_eq!(IdentityMechanism::new().perturb_report(&xs, &mut rng), xs);
    }
}
