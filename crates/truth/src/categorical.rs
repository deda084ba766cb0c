//! Categorical truth discovery: majority voting and CRH-style weighted
//! voting over discrete claims.
//!
//! The paper's mechanism targets continuous data; its reference \[23\]
//! (Li et al., KDD'18) treats the categorical case. This module provides
//! the categorical aggregation side so the workspace covers both, pairing
//! with `dptd_ldp::randomized_response` for the private front-end.

use crate::convergence::Convergence;
use crate::TruthError;

/// A sparse matrix of categorical claims: `S` users × `N` objects, each
/// observed cell holding a category in `0..k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoricalMatrix {
    num_users: usize,
    num_objects: usize,
    num_categories: usize,
    cells: Vec<Option<u32>>,
}

impl CategoricalMatrix {
    /// Create an empty categorical matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::EmptyMatrix`] if any dimension is zero or
    /// there are fewer than two categories.
    pub fn with_dims(
        num_users: usize,
        num_objects: usize,
        num_categories: usize,
    ) -> Result<Self, TruthError> {
        if num_users == 0 || num_objects == 0 || num_categories < 2 {
            return Err(TruthError::EmptyMatrix);
        }
        Ok(Self {
            num_users,
            num_objects,
            num_categories,
            cells: vec![None; num_users * num_objects],
        })
    }

    /// Insert one claim.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::ObjectOutOfRange`] for a bad object index or a
    /// category outside `0..num_categories`, and
    /// [`TruthError::DuplicateObservation`] for a repeated cell.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn insert(
        &mut self,
        user: usize,
        object: usize,
        category: usize,
    ) -> Result<(), TruthError> {
        assert!(user < self.num_users, "user index {user} out of range");
        if object >= self.num_objects {
            return Err(TruthError::ObjectOutOfRange {
                object,
                num_objects: self.num_objects,
            });
        }
        if category >= self.num_categories {
            return Err(TruthError::ObjectOutOfRange {
                object: category,
                num_objects: self.num_categories,
            });
        }
        let cell = &mut self.cells[user * self.num_objects + object];
        if cell.is_some() {
            return Err(TruthError::DuplicateObservation { user, object });
        }
        *cell = Some(category as u32);
        Ok(())
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of objects.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Number of categories `k`.
    pub fn num_categories(&self) -> usize {
        self.num_categories
    }

    /// The claim of `user` on `object`, if observed.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn claim(&self, user: usize, object: usize) -> Option<usize> {
        assert!(user < self.num_users && object < self.num_objects);
        self.cells[user * self.num_objects + object].map(|c| c as usize)
    }

    /// Iterate `(user, category)` claims on one object.
    fn claims_on(&self, object: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_users)
            .filter_map(move |s| self.cells[s * self.num_objects + object].map(|c| (s, c as usize)))
    }

    /// Check every object has at least one claim.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::UnobservedObject`] naming the first bare
    /// object.
    pub fn validate_coverage(&self) -> Result<(), TruthError> {
        for n in 0..self.num_objects {
            if self.claims_on(n).next().is_none() {
                return Err(TruthError::UnobservedObject { object: n });
            }
        }
        Ok(())
    }
}

/// Result of categorical truth discovery.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoricalResult {
    /// Winning category per object.
    pub truths: Vec<usize>,
    /// Per-user reliability weights.
    pub weights: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the label assignment reached a fixed point.
    pub converged: bool,
}

/// Unweighted majority vote per object (ties broken towards the smaller
/// category index, deterministically).
///
/// # Errors
///
/// Returns [`TruthError::UnobservedObject`] if an object has no claims.
pub fn majority_vote(data: &CategoricalMatrix) -> Result<CategoricalResult, TruthError> {
    data.validate_coverage()?;
    let truths = (0..data.num_objects)
        .map(|n| {
            let mut counts = vec![0usize; data.num_categories];
            for (_, c) in data.claims_on(n) {
                counts[c] += 1;
            }
            argmax(&counts)
        })
        .collect();
    Ok(CategoricalResult {
        truths,
        weights: vec![1.0; data.num_users],
        iterations: 1,
        converged: true,
    })
}

/// CRH-style weighted voting: iterate weighted votes and 0/1-loss weight
/// estimation (`w_s = −log(err_share_s)`), the categorical analogue of
/// Eqs. (1)+(3).
///
/// # Errors
///
/// Returns [`TruthError::UnobservedObject`] if an object has no claims.
pub fn weighted_vote(
    data: &CategoricalMatrix,
    convergence: &Convergence,
) -> Result<CategoricalResult, TruthError> {
    data.validate_coverage()?;
    let mut weights = vec![1.0_f64; data.num_users];
    let mut truths: Vec<usize> = majority_vote(data)?.truths;
    let mut converged = false;
    let mut iterations = 0;

    for _ in 0..convergence.max_iterations() {
        iterations += 1;

        // Weight update from 0/1 losses against current labels.
        let mut losses = vec![0.0_f64; data.num_users];
        for (n, &label) in truths.iter().enumerate() {
            for (s, c) in data.claims_on(n) {
                if c != label {
                    losses[s] += 1.0;
                }
            }
        }
        let total: f64 = losses.iter().sum::<f64>() + 1e-9;
        for (w, l) in weights.iter_mut().zip(&losses) {
            *w = -((l + 1e-9) / total).ln().min(f64::MAX);
            // Perfect users get the weight of a hypothetical 1e-9 share.
        }

        // Label update by weighted vote.
        let next: Vec<usize> = (0..data.num_objects)
            .map(|n| {
                let mut scores = vec![0.0_f64; data.num_categories];
                for (s, c) in data.claims_on(n) {
                    scores[c] += weights[s];
                }
                argmax_f(&scores)
            })
            .collect();

        if next == truths {
            truths = next;
            converged = true;
            break;
        }
        truths = next;
    }

    Ok(CategoricalResult {
        truths,
        weights,
        iterations,
        converged,
    })
}

fn argmax(xs: &[usize]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn argmax_f(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: &[&[Option<usize>]], k: usize) -> CategoricalMatrix {
        let mut m = CategoricalMatrix::with_dims(rows.len(), rows[0].len(), k).unwrap();
        for (s, row) in rows.iter().enumerate() {
            for (n, c) in row.iter().enumerate() {
                if let Some(c) = c {
                    m.insert(s, n, *c).unwrap();
                }
            }
        }
        m
    }

    #[test]
    fn construction_validates() {
        assert!(CategoricalMatrix::with_dims(0, 1, 2).is_err());
        assert!(CategoricalMatrix::with_dims(1, 0, 2).is_err());
        assert!(CategoricalMatrix::with_dims(1, 1, 1).is_err());
    }

    #[test]
    fn insert_validates() {
        let mut m = CategoricalMatrix::with_dims(1, 2, 3).unwrap();
        assert!(m.insert(0, 0, 5).is_err()); // bad category
        assert!(m.insert(0, 9, 1).is_err()); // bad object
        m.insert(0, 0, 2).unwrap();
        assert!(m.insert(0, 0, 1).is_err()); // duplicate
    }

    #[test]
    fn majority_basic() {
        let m = matrix(
            &[
                &[Some(0), Some(1)][..],
                &[Some(0), Some(1)],
                &[Some(1), Some(0)],
            ],
            2,
        );
        let out = majority_vote(&m).unwrap();
        assert_eq!(out.truths, vec![0, 1]);
    }

    #[test]
    fn majority_requires_coverage() {
        let m = matrix(&[&[Some(0), None][..]], 2);
        assert!(majority_vote(&m).is_err());
    }

    #[test]
    fn weighted_vote_downweights_liar() {
        // Users 0-2 answer correctly on 6 objects; user 3 lies always.
        // On object 5 two liars-coalition members flip, making majority
        // ambiguous — weighted voting must still recover the truth.
        let truth = [0usize, 1, 0, 1, 0, 1];
        let mut rows: Vec<Vec<Option<usize>>> = Vec::new();
        for _ in 0..3 {
            rows.push(truth.iter().map(|&t| Some(t)).collect());
        }
        rows.push(truth.iter().map(|&t| Some(1 - t)).collect());
        let refs: Vec<&[Option<usize>]> = rows.iter().map(|r| r.as_slice()).collect();
        let m = matrix(&refs, 2);

        let out = weighted_vote(&m, &Convergence::default()).unwrap();
        assert_eq!(out.truths, truth.to_vec());
        assert!(out.weights[3] < out.weights[0]);
        assert!(out.converged);
    }

    #[test]
    fn weighted_vote_matches_majority_on_agreement() {
        let m = matrix(
            &[
                &[Some(2), Some(0)][..],
                &[Some(2), Some(0)],
                &[Some(2), Some(0)],
            ],
            3,
        );
        let w = weighted_vote(&m, &Convergence::default()).unwrap();
        let v = majority_vote(&m).unwrap();
        assert_eq!(w.truths, v.truths);
    }
}
