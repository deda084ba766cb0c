//! Per-user privacy budget accounting for multi-round campaigns.
//!
//! The paper's guarantee is per *report*: each perturbed submission costs
//! its user one `(ε, δ)` under Theorem 4.8, and multi-round participation
//! composes by basic composition. A campaign therefore needs a ledger:
//! every user starts with the same campaign budget, each **aggregated**
//! report debits one per-round loss, and a user whose next debit would
//! overshoot the budget refuses to participate further.
//!
//! Crucially, only reports the server actually aggregated are debited.
//! A report that was dropped as late, discarded as a duplicate of an
//! already-accepted one, or withheld by churn debits nothing: the ledger
//! tracks what entered the *aggregate*, and basic composition over the
//! accepted rounds is what the campaign reports as cumulative loss. This
//! is deliberately the aggregation-centric model — a stricter deployment
//! that distrusts even the transport would debit at transmission time
//! (every perturbed report leaving the device, accepted or not); with
//! the load generator's identical retransmissions the two models differ
//! only for late reports.

use dptd_ldp::PrivacyLoss;

use crate::ProtocolError;

/// Ledger of per-user privacy spend over a fixed population.
///
/// # Example
///
/// ```
/// use dptd_ldp::PrivacyLoss;
/// use dptd_protocol::budget::BudgetAccountant;
///
/// # fn main() -> Result<(), dptd_protocol::ProtocolError> {
/// let per_round = PrivacyLoss::new(0.5, 0.1).map_err(dptd_core::CoreError::from)?;
/// let budget = PrivacyLoss::new(1.0, 0.2).map_err(dptd_core::CoreError::from)?;
/// let mut ledger = BudgetAccountant::new(3, per_round, budget)?;
/// assert_eq!(ledger.affordable_rounds(), 2);
/// ledger.debit(0);
/// ledger.debit(0);
/// assert!(!ledger.can_spend(0)); // exhausted after two rounds
/// assert!(ledger.can_spend(1)); // untouched users keep their budget
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetAccountant {
    per_round: PrivacyLoss,
    budget: PrivacyLoss,
    rounds_debited: Vec<u32>,
    /// The largest entry of `rounds_debited`: debits only rise, so
    /// [`BudgetAccountant::debit`] keeps it and a resume scans once.
    most_debited: u32,
}

impl BudgetAccountant {
    /// A fresh ledger: `num_users` users, each allowed to spend up to
    /// `budget` in steps of `per_round`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] for an empty population
    /// or a budget that cannot afford even one round.
    pub fn new(
        num_users: usize,
        per_round: PrivacyLoss,
        budget: PrivacyLoss,
    ) -> Result<Self, ProtocolError> {
        if num_users == 0 {
            return Err(ProtocolError::InvalidParameter {
                name: "num_users",
                value: 0.0,
                constraint: "must be positive",
            });
        }
        if !per_round.satisfies(&budget) {
            return Err(ProtocolError::InvalidParameter {
                name: "budget",
                value: budget.epsilon(),
                constraint: "must afford at least one per-round loss",
            });
        }
        Ok(Self {
            per_round,
            budget,
            rounds_debited: vec![0; num_users],
            most_debited: 0,
        })
    }

    /// Rebuild a ledger from a persisted per-user debit snapshot — the
    /// write-ahead-log recovery path. The restored ledger is exactly the
    /// one that would result from replaying every recorded debit through
    /// [`BudgetAccountant::debit`].
    ///
    /// # Errors
    ///
    /// Everything [`BudgetAccountant::new`] rejects, plus
    /// [`ProtocolError::InvalidParameter`] if any user's recorded spend
    /// already overshoots the budget — a ledger the live accounting could
    /// never have produced, so the snapshot is corrupt, not resumable.
    pub fn resume(
        per_round: PrivacyLoss,
        budget: PrivacyLoss,
        rounds_debited: Vec<u32>,
    ) -> Result<Self, ProtocolError> {
        let mut ledger = Self::new(rounds_debited.len(), per_round, budget)?;
        for &debits in &rounds_debited {
            if !per_round.compose_k(debits).satisfies(&budget) {
                return Err(ProtocolError::InvalidParameter {
                    name: "rounds_debited",
                    value: debits as f64,
                    constraint: "a restored user spend must stay within the budget",
                });
            }
        }
        ledger.most_debited = rounds_debited.iter().copied().max().unwrap_or(0);
        ledger.rounds_debited = rounds_debited;
        Ok(ledger)
    }

    /// The population size.
    pub fn num_users(&self) -> usize {
        self.rounds_debited.len()
    }

    /// The per-round `(ε, δ)` debit.
    pub fn per_round(&self) -> PrivacyLoss {
        self.per_round
    }

    /// The campaign-wide `(ε, δ)` ceiling.
    pub fn budget(&self) -> PrivacyLoss {
        self.budget
    }

    /// Rounds debited to `user` so far.
    ///
    /// # Panics
    ///
    /// Panics if `user` is outside the population.
    pub fn rounds_debited(&self, user: usize) -> u32 {
        self.rounds_debited[user]
    }

    /// `user`'s cumulative privacy loss (basic composition of its debits).
    ///
    /// # Panics
    ///
    /// Panics if `user` is outside the population.
    pub fn spent(&self, user: usize) -> PrivacyLoss {
        self.per_round.compose_k(self.rounds_debited[user])
    }

    /// Whether `user` can afford one more round without overshooting the
    /// budget. An exhausted user must refuse to submit.
    ///
    /// # Panics
    ///
    /// Panics if `user` is outside the population.
    pub fn can_spend(&self, user: usize) -> bool {
        self.per_round
            .compose_k(self.rounds_debited[user] + 1)
            .satisfies(&self.budget)
    }

    /// Debit one per-round loss to `user` (its report was aggregated).
    ///
    /// # Panics
    ///
    /// Panics if `user` is outside the population, or if the debit would
    /// push the user past the budget — callers must gate participation on
    /// [`BudgetAccountant::can_spend`] *before* letting a report reach the
    /// server, so an overshooting debit is an accounting bug, not a data
    /// condition.
    pub fn debit(&mut self, user: usize) {
        assert!(
            self.can_spend(user),
            "privacy accounting bug: user {user} debited past its budget"
        );
        self.rounds_debited[user] += 1;
        self.most_debited = self.most_debited.max(self.rounds_debited[user]);
    }

    /// How many rounds a fresh user can afford under this budget.
    /// `u32::MAX` means unbounded (a per-round loss no coordinate of
    /// which ever exhausts the budget — e.g. `ε = 0` with `δ` capped by a
    /// budget δ of 1).
    pub fn affordable_rounds(&self) -> u32 {
        // Closed-form candidate per coordinate, then a local fix-up
        // against the authoritative `can_spend` predicate so float slop
        // in the division can never disagree with round-by-round
        // accounting. δ composition saturates at 1.0, so a budget δ of
        // 1.0 never constrains.
        let coordinate = |per: f64, budget: f64, saturates: bool| -> u32 {
            if per <= 0.0 || saturates {
                u32::MAX
            } else {
                ((budget / per).floor().max(0.0)).min(f64::from(u32::MAX)) as u32
            }
        };
        let by_eps = coordinate(self.per_round.epsilon(), self.budget.epsilon(), false);
        let by_delta = coordinate(
            self.per_round.delta(),
            self.budget.delta(),
            self.budget.delta() >= 1.0,
        );
        let mut k = by_eps.min(by_delta);
        while k > 0 && !self.per_round.compose_k(k).satisfies(&self.budget) {
            k -= 1;
        }
        while k < u32::MAX && self.per_round.compose_k(k + 1).satisfies(&self.budget) {
            k += 1;
        }
        k
    }

    /// The serializable ledger snapshot: per-user debit counts in user
    /// order. Together with [`BudgetAccountant::per_round`] this is the
    /// ledger's whole state — what the engine's write-ahead log persists
    /// and [`BudgetAccountant::resume`] restores.
    pub fn debits_by_user(&self) -> &[u32] {
        &self.rounds_debited
    }

    /// Per-user cumulative privacy losses, in user order (basic
    /// composition of each user's debits).
    pub fn spent_by_user(&self) -> Vec<PrivacyLoss> {
        self.rounds_debited
            .iter()
            .map(|&k| self.per_round.compose_k(k))
            .collect()
    }

    /// The worst cumulative loss across the population, in `O(1)`.
    pub fn max_spent(&self) -> PrivacyLoss {
        self.per_round.compose_k(self.most_debited)
    }

    /// Number of users that can no longer afford a round.
    pub fn exhausted_count(&self) -> usize {
        (0..self.num_users())
            .filter(|&u| !self.can_spend(u))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loss(eps: f64, delta: f64) -> PrivacyLoss {
        PrivacyLoss::new(eps, delta).unwrap()
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(BudgetAccountant::new(0, loss(0.1, 0.0), loss(1.0, 0.1)).is_err());
        // Budget below one round.
        assert!(BudgetAccountant::new(2, loss(1.0, 0.0), loss(0.5, 0.1)).is_err());
        assert!(BudgetAccountant::new(2, loss(0.1, 0.2), loss(1.0, 0.1)).is_err());
    }

    #[test]
    fn debits_accumulate_per_user() {
        let mut a = BudgetAccountant::new(2, loss(0.5, 0.05), loss(2.0, 0.2)).unwrap();
        assert_eq!(a.affordable_rounds(), 4);
        for _ in 0..3 {
            a.debit(0);
        }
        assert_eq!(a.rounds_debited(0), 3);
        assert_eq!(a.rounds_debited(1), 0);
        assert!((a.spent(0).epsilon() - 1.5).abs() < 1e-12);
        assert!(a.can_spend(0));
        a.debit(0);
        assert!(!a.can_spend(0));
        assert!(a.can_spend(1));
        assert_eq!(a.exhausted_count(), 1);
        assert!((a.max_spent().epsilon() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "privacy accounting bug")]
    fn overshooting_debit_panics() {
        let mut a = BudgetAccountant::new(1, loss(1.0, 0.0), loss(1.0, 0.0)).unwrap();
        a.debit(0);
        a.debit(0);
    }

    #[test]
    fn resume_restores_the_exact_ledger() {
        let mut live = BudgetAccountant::new(3, loss(0.5, 0.0), loss(2.0, 0.0)).unwrap();
        live.debit(0);
        live.debit(0);
        live.debit(2);
        let restored = BudgetAccountant::resume(
            live.per_round(),
            live.budget(),
            live.debits_by_user().to_vec(),
        )
        .unwrap();
        assert_eq!(restored, live);
        assert_eq!(restored.debits_by_user(), &[2, 0, 1]);
        let spent = restored.spent_by_user();
        assert!((spent[0].epsilon() - 1.0).abs() < 1e-12);
        assert!((spent[1].epsilon() - 0.0).abs() < 1e-12);
        assert!((spent[2].epsilon() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn resume_rejects_an_overshooting_snapshot() {
        // 5 debits of ε=0.5 against a 2.0 budget could never have been
        // accounted live; the snapshot is corrupt.
        let err = BudgetAccountant::resume(loss(0.5, 0.0), loss(2.0, 0.0), vec![5, 0]);
        assert!(err.is_err());
        // An exactly-exhausted user is fine (the live path allows it).
        let ok = BudgetAccountant::resume(loss(0.5, 0.0), loss(2.0, 0.0), vec![4, 0]).unwrap();
        assert!(!ok.can_spend(0));
        assert!(ok.can_spend(1));
    }

    #[test]
    fn zero_loss_affords_unbounded_rounds() {
        let a = BudgetAccountant::new(1, loss(0.0, 0.0), loss(1.0, 0.1)).unwrap();
        assert_eq!(a.affordable_rounds(), u32::MAX);
    }

    #[test]
    fn saturated_delta_budget_never_constrains() {
        // δ composition caps at 1.0, so a budget δ of 1.0 with ε = 0 per
        // round is unbounded — and must resolve instantly, not by
        // counting to u32::MAX.
        let a = BudgetAccountant::new(1, loss(0.0, 0.02), loss(1.0, 1.0)).unwrap();
        assert_eq!(a.affordable_rounds(), u32::MAX);
        assert!(a.can_spend(0));
    }

    #[test]
    fn delta_coordinate_can_be_the_binding_one() {
        let a = BudgetAccountant::new(1, loss(0.0, 0.25), loss(1.0, 0.5)).unwrap();
        assert_eq!(a.affordable_rounds(), 2);
    }

    #[test]
    fn tiny_per_round_loss_resolves_quickly_and_consistently() {
        let a = BudgetAccountant::new(1, loss(1e-9, 0.0), loss(1.0, 0.5)).unwrap();
        let k = a.affordable_rounds();
        assert!(k >= 999_999_990, "{k}");
        // The closed form agrees with the round-by-round predicate.
        assert!(a.per_round().compose_k(k).satisfies(&a.budget()));
        assert!(!a.per_round().compose_k(k + 1).satisfies(&a.budget()));
    }
}
