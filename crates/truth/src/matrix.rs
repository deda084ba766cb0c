//! The user × object observation matrix.
//!
//! Crowd-sensing data is naturally sparse — not every user completes every
//! micro-task — so the matrix stores `Option<f64>` cells and all algorithms
//! aggregate over *observed* cells only.

use crate::TruthError;

/// A (possibly sparse) matrix of continuous observations: `S` users
/// (rows) × `N` objects (columns).
///
/// # Example
///
/// ```
/// use dptd_truth::matrix::ObservationMatrix;
///
/// # fn main() -> Result<(), dptd_truth::TruthError> {
/// let mut m = ObservationMatrix::with_dims(2, 3)?;
/// m.insert(0, 0, 1.0)?;
/// m.insert(0, 2, 3.0)?;
/// m.insert(1, 0, 1.2)?;
/// m.insert(1, 1, 2.0)?;
/// m.insert(1, 2, 2.9)?;
/// assert_eq!(m.value(0, 1), None);
/// assert_eq!(m.observations_of_object(1).count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationMatrix {
    num_users: usize,
    num_objects: usize,
    /// Row-major dense storage; `None` = unobserved.
    cells: Vec<Option<f64>>,
}

impl ObservationMatrix {
    /// Create an empty matrix with `num_users` rows and `num_objects`
    /// columns.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::EmptyMatrix`] if either dimension is zero.
    pub fn with_dims(num_users: usize, num_objects: usize) -> Result<Self, TruthError> {
        if num_users == 0 || num_objects == 0 {
            return Err(TruthError::EmptyMatrix);
        }
        Ok(Self {
            num_users,
            num_objects,
            cells: vec![None; num_users * num_objects],
        })
    }

    /// Build a fully dense matrix from per-user rows of values.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::EmptyMatrix`] on empty input,
    /// [`TruthError::ObjectOutOfRange`] if rows have differing lengths, and
    /// [`TruthError::NonFiniteObservation`] on NaN/infinite values.
    pub fn from_dense(rows: &[&[f64]]) -> Result<Self, TruthError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(TruthError::EmptyMatrix);
        }
        let num_objects = rows[0].len();
        let mut m = Self::with_dims(rows.len(), num_objects)?;
        for (s, row) in rows.iter().enumerate() {
            if row.len() != num_objects {
                return Err(TruthError::ObjectOutOfRange {
                    object: row.len(),
                    num_objects,
                });
            }
            for (n, &v) in row.iter().enumerate() {
                m.insert(s, n, v)?;
            }
        }
        Ok(m)
    }

    /// Build from per-user sparse rows of `(object, value)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::EmptyMatrix`] when there are no users or
    /// `num_objects == 0`, plus the same per-cell errors as
    /// [`insert`](Self::insert).
    pub fn from_sparse_rows(
        num_objects: usize,
        rows: &[Vec<(usize, f64)>],
    ) -> Result<Self, TruthError> {
        let mut m = Self::with_dims(rows.len(), num_objects)?;
        for (s, row) in rows.iter().enumerate() {
            for &(n, v) in row {
                m.insert(s, n, v)?;
            }
        }
        Ok(m)
    }

    /// Insert one observation.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::ObjectOutOfRange`] for a bad index,
    /// [`TruthError::DuplicateObservation`] if the cell is already filled,
    /// and [`TruthError::NonFiniteObservation`] for NaN/infinite values.
    ///
    /// # Panics
    ///
    /// Panics if `user >= self.num_users()` (a row index is a programmer
    /// error, unlike an object index which often comes from task data).
    pub fn insert(&mut self, user: usize, object: usize, value: f64) -> Result<(), TruthError> {
        assert!(user < self.num_users, "user index {user} out of range");
        if object >= self.num_objects {
            return Err(TruthError::ObjectOutOfRange {
                object,
                num_objects: self.num_objects,
            });
        }
        if !value.is_finite() {
            return Err(TruthError::NonFiniteObservation {
                user,
                object,
                value,
            });
        }
        let cell = &mut self.cells[user * self.num_objects + object];
        if cell.is_some() {
            return Err(TruthError::DuplicateObservation { user, object });
        }
        *cell = Some(value);
        Ok(())
    }

    /// Number of users (rows).
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of objects (columns).
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Total number of observed cells.
    pub fn num_observations(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    /// The value user `user` reported for `object`, if observed.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn value(&self, user: usize, object: usize) -> Option<f64> {
        assert!(user < self.num_users, "user index {user} out of range");
        assert!(
            object < self.num_objects,
            "object index {object} out of range"
        );
        self.cells[user * self.num_objects + object]
    }

    /// Iterate over `(object, value)` pairs observed by one user.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn observations_of_user(&self, user: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(user < self.num_users, "user index {user} out of range");
        let start = user * self.num_objects;
        self.cells[start..start + self.num_objects]
            .iter()
            .enumerate()
            .filter_map(|(n, c)| c.map(|v| (n, v)))
    }

    /// Iterate over `(user, value)` pairs observed for one object.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn observations_of_object(&self, object: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(
            object < self.num_objects,
            "object index {object} out of range"
        );
        (0..self.num_users)
            .filter_map(move |s| self.cells[s * self.num_objects + object].map(|v| (s, v)))
    }

    /// Check that every object has at least one observation — the minimum
    /// requirement for truth discovery.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::UnobservedObject`] naming the first bare
    /// object.
    pub fn validate_coverage(&self) -> Result<(), TruthError> {
        for n in 0..self.num_objects {
            if self.observations_of_object(n).next().is_none() {
                return Err(TruthError::UnobservedObject { object: n });
            }
        }
        Ok(())
    }

    /// Apply a function to every observed value, producing a new matrix
    /// with the same sparsity pattern. The closure receives
    /// `(user, object, value)`.
    pub fn map_observations<F: FnMut(usize, usize, f64) -> f64>(&self, mut f: F) -> Self {
        let mut out = self.clone();
        for s in 0..self.num_users {
            for n in 0..self.num_objects {
                let idx = s * self.num_objects + n;
                if let Some(v) = self.cells[idx] {
                    out.cells[idx] = Some(f(s, n, v));
                }
            }
        }
        out
    }

    /// Replace user `user`'s observed values with `new_values`, which must
    /// be in the order produced by
    /// [`observations_of_user`](Self::observations_of_user).
    ///
    /// Used by the perturbation pipeline: a user perturbs exactly the
    /// values they observed.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range or `new_values` has a different
    /// length than the user's observation count.
    pub fn replace_user_observations(&mut self, user: usize, new_values: &[f64]) {
        let observed: Vec<usize> = self.observations_of_user(user).map(|(n, _)| n).collect();
        assert_eq!(
            observed.len(),
            new_values.len(),
            "user {user} has {} observations but {} replacements were supplied",
            observed.len(),
            new_values.len()
        );
        for (n, &v) in observed.iter().zip(new_values) {
            self.cells[user * self.num_objects + n] = Some(v);
        }
    }

    /// Per-object standard deviation of the observed claims (used by the
    /// CRH normalized loss). Objects with one observation get `1.0`.
    pub fn object_std_devs(&self) -> Vec<f64> {
        (0..self.num_objects)
            .map(|n| {
                let vals: Vec<f64> = self.observations_of_object(n).map(|(_, v)| v).collect();
                if vals.len() < 2 {
                    return 1.0;
                }
                let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                let var =
                    vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
                let sd = var.sqrt();
                if sd > 1e-12 {
                    sd
                } else {
                    1.0
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ObservationMatrix {
        ObservationMatrix::from_dense(&[&[1.0, 2.0, 3.0][..], &[1.5, 2.5, 3.5]]).unwrap()
    }

    #[test]
    fn dims_and_counts() {
        let m = small();
        assert_eq!(m.num_users(), 2);
        assert_eq!(m.num_objects(), 3);
        assert_eq!(m.num_observations(), 6);
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            ObservationMatrix::with_dims(0, 3),
            Err(TruthError::EmptyMatrix)
        ));
        assert!(matches!(
            ObservationMatrix::with_dims(3, 0),
            Err(TruthError::EmptyMatrix)
        ));
        assert!(ObservationMatrix::from_dense(&[]).is_err());
    }

    #[test]
    fn rejects_ragged_dense() {
        let r = ObservationMatrix::from_dense(&[&[1.0, 2.0][..], &[1.0][..]]);
        assert!(r.is_err());
    }

    #[test]
    fn rejects_duplicates_and_nonfinite() {
        let mut m = ObservationMatrix::with_dims(1, 2).unwrap();
        m.insert(0, 0, 1.0).unwrap();
        assert!(matches!(
            m.insert(0, 0, 2.0),
            Err(TruthError::DuplicateObservation { .. })
        ));
        assert!(matches!(
            m.insert(0, 1, f64::NAN),
            Err(TruthError::NonFiniteObservation { .. })
        ));
        assert!(matches!(
            m.insert(0, 5, 1.0),
            Err(TruthError::ObjectOutOfRange { .. })
        ));
    }

    #[test]
    fn sparse_rows_roundtrip() {
        let m = ObservationMatrix::from_sparse_rows(3, &[vec![(0, 1.0), (2, 3.0)], vec![(1, 2.0)]])
            .unwrap();
        assert_eq!(m.value(0, 0), Some(1.0));
        assert_eq!(m.value(0, 1), None);
        assert_eq!(m.value(1, 1), Some(2.0));
        assert_eq!(m.num_observations(), 3);
    }

    #[test]
    fn row_and_column_iteration_agree() {
        let m = small();
        let by_user: Vec<(usize, f64)> = m.observations_of_user(1).collect();
        assert_eq!(by_user, vec![(0, 1.5), (1, 2.5), (2, 3.5)]);
        let by_object: Vec<(usize, f64)> = m.observations_of_object(2).collect();
        assert_eq!(by_object, vec![(0, 3.0), (1, 3.5)]);
    }

    #[test]
    fn coverage_validation() {
        let m = ObservationMatrix::from_sparse_rows(2, &[vec![(0, 1.0)]]).unwrap();
        assert!(matches!(
            m.validate_coverage(),
            Err(TruthError::UnobservedObject { object: 1 })
        ));
        assert!(small().validate_coverage().is_ok());
    }

    #[test]
    fn map_preserves_sparsity() {
        let m = ObservationMatrix::from_sparse_rows(2, &[vec![(0, 1.0)], vec![(1, 2.0)]]).unwrap();
        let doubled = m.map_observations(|_, _, v| v * 2.0);
        assert_eq!(doubled.value(0, 0), Some(2.0));
        assert_eq!(doubled.value(0, 1), None);
        assert_eq!(doubled.value(1, 1), Some(4.0));
    }

    #[test]
    fn replace_user_observations_in_order() {
        let mut m =
            ObservationMatrix::from_sparse_rows(3, &[vec![(0, 1.0), (2, 3.0)], vec![(1, 2.0)]])
                .unwrap();
        m.replace_user_observations(0, &[10.0, 30.0]);
        assert_eq!(m.value(0, 0), Some(10.0));
        assert_eq!(m.value(0, 2), Some(30.0));
        assert_eq!(m.value(1, 1), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "replacements were supplied")]
    fn replace_wrong_length_panics() {
        let mut m = small();
        m.replace_user_observations(0, &[1.0]);
    }

    #[test]
    fn object_std_devs_basics() {
        let m = ObservationMatrix::from_dense(&[&[0.0, 5.0][..], &[2.0, 5.0]]).unwrap();
        let sds = m.object_std_devs();
        assert!((sds[0] - 1.0).abs() < 1e-12); // population sd of {0,2}
        assert_eq!(sds[1], 1.0); // zero spread → fallback 1.0
    }

    #[test]
    fn matrix_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ObservationMatrix>();
    }
}
