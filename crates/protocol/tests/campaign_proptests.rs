//! Property tests for the campaign driver's privacy accounting:
//!
//! 1. No user's cumulative `(ε, δ)` ever exceeds the campaign budget —
//!    under arbitrary mixes of on-time, late and duplicate reports, and
//!    even when rounds fail outright because coverage collapses.
//! 2. The refusal boundary is exact: with a budget affording `k` rounds,
//!    a fully-participating population is accepted for exactly
//!    `min(rounds, k)` rounds and refused from round `k + 1` on.
//! 3. The worst spend the ledger tracks as debits land (and computes
//!    once on a resume) is the worst spend a scan of every user finds.

use proptest::prelude::*;
use rand::Rng;

use dptd_core::roles::PerturbedReport;
use dptd_ldp::PrivacyLoss;
use dptd_protocol::budget::BudgetAccountant;
use dptd_protocol::campaign::{CampaignConfig, CampaignDriver, SimBackend};
use dptd_protocol::message::StampedReport;
use dptd_truth::Loss;

const DEADLINE_US: u64 = 1_000;

fn stamped(epoch: u64, user: usize, sent_at_us: u64, values: Vec<(usize, f64)>) -> StampedReport {
    StampedReport {
        epoch,
        sent_at_us,
        report: PerturbedReport { user, values },
    }
}

/// One epoch of synthetic traffic: every user submits once; non-anchor
/// users may be late or duplicated according to the seeded RNG.
fn epoch_reports(
    epoch: u64,
    users: usize,
    objects: usize,
    late_p: f64,
    dup_p: f64,
    seed: u64,
) -> Vec<StampedReport> {
    let mut rng = dptd_stats::seeded_rng(seed ^ epoch.wrapping_mul(0x9E37_79B9));
    let mut out = Vec::new();
    for user in 0..users {
        let values: Vec<(usize, f64)> = (0..objects)
            .map(|n| (n, n as f64 + rng.gen::<f64>()))
            .collect();
        // User ids below `objects` anchor the objects: always on time.
        let late = user >= objects && rng.gen::<f64>() < late_p;
        let sent = if late {
            DEADLINE_US + 1 + rng.gen_range(0..50u64)
        } else {
            rng.gen_range(0..=DEADLINE_US)
        };
        out.push(stamped(epoch, user, sent, values.clone()));
        if rng.gen::<f64>() < dup_p {
            out.push(stamped(epoch, user, sent.saturating_add(1), values));
        }
    }
    out.sort_by_key(|r| (r.sent_at_us, r.report.user));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cumulative_spend_never_exceeds_budget(
        users in 2usize..8,
        objects in 1usize..3,
        rounds in 1u64..12,
        affordable in 1u32..6,
        late_p in 0.0..0.6f64,
        dup_p in 0.0..0.6f64,
        seed in 0u64..1000,
    ) {
        let per_round = PrivacyLoss::new(0.4, 0.01).unwrap();
        let budget = per_round.compose_k(affordable);
        let config = CampaignConfig {
            num_objects: objects,
            deadline_us: DEADLINE_US,
            per_round_loss: per_round,
            budget,
        };
        let backend = SimBackend::new(users, Loss::Squared).unwrap();
        let mut driver = CampaignDriver::new(backend, config).unwrap();
        prop_assert_eq!(driver.accountant().affordable_rounds(), affordable);

        for epoch in 0..rounds {
            let reports = epoch_reports(epoch, users, objects, late_p, dup_p, seed);
            // A round may legitimately fail once refusals starve an
            // object; the budget invariant must hold either way.
            let result = driver.run_round(epoch, reports);
            let ledger = driver.accountant();
            for user in 0..users {
                let spent = ledger.spent(user);
                prop_assert!(
                    spent.satisfies(&budget),
                    "user {} overspent: ({}, {}) of ({}, {}) at epoch {}",
                    user, spent.epsilon(), spent.delta(),
                    budget.epsilon(), budget.delta(), epoch
                );
                prop_assert!(ledger.rounds_debited(user) <= affordable);
            }
            if let Ok(round) = &result {
                // Debits equal accepted reports, and the worst spend the
                // round reports matches the ledger.
                prop_assert_eq!(round.max_spent, ledger.max_spent());
            }
        }
    }

    #[test]
    fn refusal_boundary_is_exact(
        users in 2usize..8,
        rounds in 1u64..10,
        affordable in 1u32..5,
        seed in 0u64..1000,
    ) {
        let per_round = PrivacyLoss::new(0.3, 0.02).unwrap();
        let config = CampaignConfig {
            num_objects: 1,
            deadline_us: DEADLINE_US,
            per_round_loss: per_round,
            budget: per_round.compose_k(affordable),
        };
        let backend = SimBackend::new(users, Loss::Squared).unwrap();
        let mut driver = CampaignDriver::new(backend, config).unwrap();

        // Everyone on time, every round: all budgets drain in lockstep.
        for epoch in 0..rounds {
            let reports = epoch_reports(epoch, users, 1, 0.0, 0.0, seed);
            let result = driver.run_round(epoch, reports);
            if epoch < u64::from(affordable) {
                let round = result.unwrap();
                prop_assert_eq!(round.accepted, users);
                prop_assert_eq!(round.refused_users, 0);
            } else {
                // Budget exhausted: every user refuses, the round
                // starves, and nothing further is debited.
                prop_assert!(result.is_err(), "epoch {} should starve", epoch);
            }
        }
        let ledger = driver.accountant();
        let expected = u64::from(affordable).min(rounds) as u32;
        for user in 0..users {
            prop_assert_eq!(ledger.rounds_debited(user), expected);
        }
        prop_assert_eq!(
            ledger.exhausted_count(),
            if rounds >= u64::from(affordable) { users } else { 0 }
        );
    }

    #[test]
    fn tracked_max_spent_equals_the_scan(
        start in prop::collection::vec(0u32..=6, 1..12),
        steps in prop::collection::vec((0usize..64, 0u8..6), 0..80),
    ) {
        let per_round = PrivacyLoss::new(0.25, 0.01).unwrap();
        let budget = per_round.compose_k(6);
        let users = start.len();
        let mut ledger = BudgetAccountant::resume(per_round, budget, start).unwrap();
        for (pick, action) in steps {
            let user = pick % users;
            if action == 0 {
                let debits = ledger.debits_by_user().to_vec();
                ledger = BudgetAccountant::resume(per_round, budget, debits).unwrap();
            } else if ledger.can_spend(user) {
                ledger.debit(user);
            }
            let worst = ledger.debits_by_user().iter().copied().max().unwrap_or(0);
            prop_assert_eq!(ledger.max_spent(), per_round.compose_k(worst));
        }
    }
}
