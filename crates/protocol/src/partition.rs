//! User partitioning: the map that lets N nodes run one campaign.
//!
//! A cluster splits a campaign's population across nodes. Each node
//! filters its own users' reports with the engine's round filter
//! (`dptd_engine::shard::ShardState`: deadline cut-off, then first-wins
//! de-duplication), and the coordinator merges the per-node survivors
//! in one shard merge (`ColumnarBatch::load_shards`, then
//! `StreamingCrh::ingest_columnar_with_workers`). Because every user
//! lives in **exactly one** partition, filtering per partition and
//! merging is bit-identical to filtering globally: the deadline check is
//! per report, de-duplication is per user, and the sharded ingest is
//! bit-identical to the single-matrix one. The cluster's tests pin that
//! against [`SimBackend`](crate::campaign::SimBackend).
//!
//! [`PartitionMap`] is the user → node assignment, with dense per-node
//! local ids so each node can treat its slice as an ordinary contiguous
//! population.

use crate::ProtocolError;

/// A fixed assignment of a campaign population to `num_nodes`
/// partitions, with dense local ids per partition.
///
/// Global user `u` lives on node [`node_of(u)`](PartitionMap::node_of)
/// as local user [`local_of(u)`](PartitionMap::local_of); the inverse is
/// [`global_of`](PartitionMap::global_of). Local ids are assigned in
/// ascending global order, so each node's population is a sorted slice
/// of the global one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    assignment: Vec<usize>,
    local_of: Vec<usize>,
    locals: Vec<Vec<usize>>,
}

impl PartitionMap {
    /// Build a map from `assignment[user] = node`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] for an empty
    /// population, zero nodes, or an assignment naming a node outside
    /// `0..num_nodes`.
    pub fn new(assignment: Vec<usize>, num_nodes: usize) -> Result<Self, ProtocolError> {
        if num_nodes == 0 {
            return Err(ProtocolError::InvalidParameter {
                name: "num_nodes",
                value: 0.0,
                constraint: "a cluster needs at least one node",
            });
        }
        if assignment.is_empty() {
            return Err(ProtocolError::InvalidParameter {
                name: "assignment",
                value: 0.0,
                constraint: "a partition map needs at least one user",
            });
        }
        let mut locals = vec![Vec::new(); num_nodes];
        let mut local_of = Vec::with_capacity(assignment.len());
        for (user, &node) in assignment.iter().enumerate() {
            if node >= num_nodes {
                return Err(ProtocolError::InvalidParameter {
                    name: "assignment",
                    value: node as f64,
                    constraint: "every user must be assigned a node inside the cluster",
                });
            }
            local_of.push(locals[node].len());
            locals[node].push(user);
        }
        Ok(Self {
            assignment,
            local_of,
            locals,
        })
    }

    /// Population size.
    pub fn num_users(&self) -> usize {
        self.assignment.len()
    }

    /// Number of partitions (some may be empty).
    pub fn num_nodes(&self) -> usize {
        self.locals.len()
    }

    /// The node owning global user `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is outside the population.
    pub fn node_of(&self, user: usize) -> usize {
        self.assignment[user]
    }

    /// The dense local id of global user `user` on its owning node.
    ///
    /// # Panics
    ///
    /// Panics if `user` is outside the population.
    pub fn local_of(&self, user: usize) -> usize {
        self.local_of[user]
    }

    /// The global id of `node`'s local user `local`.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `local` is out of range.
    pub fn global_of(&self, node: usize, local: usize) -> usize {
        self.locals[node][local]
    }

    /// `node`'s users as ascending global ids.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn locals(&self, node: usize) -> &[usize] {
        &self.locals[node]
    }

    /// `node`'s population size.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn population(&self, node: usize) -> usize {
        self.locals[node].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_map_round_trips_every_user() {
        let map = PartitionMap::new(vec![2, 0, 1, 0, 2, 2], 3).unwrap();
        assert_eq!(map.num_users(), 6);
        assert_eq!(map.num_nodes(), 3);
        assert_eq!(map.locals(0), &[1, 3]);
        assert_eq!(map.locals(1), &[2]);
        assert_eq!(map.locals(2), &[0, 4, 5]);
        for user in 0..map.num_users() {
            let (node, local) = (map.node_of(user), map.local_of(user));
            assert_eq!(map.global_of(node, local), user);
        }
        assert_eq!(map.population(1), 1);
    }

    #[test]
    fn partition_map_rejects_malformed_assignments() {
        assert!(PartitionMap::new(vec![0, 1], 0).is_err());
        assert!(PartitionMap::new(Vec::new(), 2).is_err());
        assert!(PartitionMap::new(vec![0, 2], 2).is_err());
    }
}
