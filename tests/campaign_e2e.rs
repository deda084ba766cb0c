//! End-to-end: multi-round campaigns through the umbrella crate's public
//! API — the engine-backed campaign against the sim reference, and
//! per-user privacy budget exhaustion under participation churn.

mod common;

use dptd::engine::EngineBackend;
use dptd::ldp::PrivacyLoss;
use dptd::protocol::campaign::{CampaignConfig, CampaignDriver, SimBackend};
use dptd::truth::Loss;

#[test]
fn campaign_through_engine_matches_sim_reference() {
    let users = 300;
    let objects = 5;
    let rounds = 6;
    let load = common::churny_load(users, objects, rounds, 0.2, 0.05, 0.05, 17);

    let per_round = PrivacyLoss::new(0.5, 0.02).unwrap();
    let config = CampaignConfig {
        num_objects: objects,
        deadline_us: load.config().epoch_len_us,
        per_round_loss: per_round,
        budget: per_round.compose_k(10), // roomy: no refusals here
    };

    let mut sim =
        CampaignDriver::new(SimBackend::new(users, Loss::Squared).unwrap(), config).unwrap();
    let mut eng = CampaignDriver::new(
        EngineBackend::new(common::engine_for(&load, 8)).unwrap(),
        config,
    )
    .unwrap();

    let mut submitted = 0u64;
    for epoch in 0..rounds {
        let reports = load.epoch_reports(epoch);
        submitted += reports.len() as u64;
        let a = sim.run_round(epoch, reports.clone()).unwrap();
        let b = eng.run_round(epoch, reports).unwrap();
        // Bit-identical rounds: truths, weights, acceptance, drop
        // counters and privacy spend.
        assert_eq!(a, b, "round {epoch} diverged");
        // Campaign estimates stay close to the known ground truths.
        let mae = dptd::stats::summary::mae(&a.truths, &load.ground_truths(epoch)).unwrap();
        assert!(mae < 1.0, "round {epoch}: truth MAE {mae}");
    }
    assert_eq!(sim.accountant(), eng.accountant());

    // The engine backend's accumulated metrics cover the whole campaign.
    let backend = eng.into_backend();
    let m = backend.metrics();
    assert_eq!(backend.rounds(), rounds);
    assert_eq!(m.epochs_merged, rounds);
    assert_eq!(m.reports_submitted, submitted);
    assert_eq!(
        m.reports_submitted,
        m.reports_accepted + m.duplicates_discarded + m.late_dropped
    );
    assert!(m.throughput_rps() > 0.0);
}

#[test]
fn campaign_budget_exhaustion_refuses_punctual_users_first() {
    let users = 300;
    let objects = 4;
    let rounds = 4;
    let churn = 0.3;
    let load = common::churny_load(users, objects, rounds, churn, 0.0, 0.0, 23);

    let per_round = PrivacyLoss::new(1.0, 0.0).unwrap();
    let config = CampaignConfig {
        num_objects: objects,
        deadline_us: load.config().epoch_len_us,
        per_round_loss: per_round,
        budget: per_round.compose_k(2), // two affordable rounds per user
    };
    let mut driver = CampaignDriver::new(
        EngineBackend::new(common::engine_for(&load, 4)).unwrap(),
        config,
    )
    .unwrap();

    let mut refused_seen = 0usize;
    for epoch in 0..rounds {
        let round = driver.run_round(epoch, load.epoch_reports(epoch)).unwrap();
        if epoch < 2 {
            assert_eq!(round.refused_users, 0, "round {epoch}");
        } else {
            // Users accepted in both opening rounds are now exhausted;
            // churned-out users still afford a submission, so the round
            // succeeds with a visibly smaller accepted set.
            assert!(round.refused_users > 0, "round {epoch}: {round:?}");
            assert!(
                round.accepted < users - round.refused_users + 1,
                "round {epoch}: {round:?}"
            );
        }
        refused_seen += round.refused_users;
        // The reported worst-case spend never exceeds the budget.
        assert!(round.max_spent.satisfies(&config.budget), "round {epoch}");
    }
    assert!(refused_seen > 0);

    // Ledger invariants: nobody exceeded two debits, somebody was
    // exhausted, and somebody (churned out early) still has budget.
    let ledger = driver.accountant();
    assert!((0..users).all(|u| ledger.rounds_debited(u) <= 2));
    assert!(ledger.exhausted_count() > 0);
    assert!(ledger.exhausted_count() < users);
}
