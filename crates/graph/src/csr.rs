//! Compressed-sparse-row undirected graphs.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Errors from graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph must have at least one node.
    Empty,
    /// An edge endpoint was out of range.
    BadEndpoint {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the graph.
        num_nodes: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph must have at least one node"),
            GraphError::BadEndpoint { node, num_nodes } => {
                write!(f, "edge endpoint {node} out of range for {num_nodes} nodes")
            }
        }
    }
}

impl Error for GraphError {}

/// An undirected graph in CSR form: neighbor lists packed into one
/// array with per-node offsets. Self-loops and duplicate edges are
/// removed during construction.
///
/// # Example
///
/// ```
/// use sociolearn_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])?;
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert_eq!(g.degree(3), 1);
/// # Ok::<(), sociolearn_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl Graph {
    /// Builds a graph from an undirected edge list over `n` nodes.
    /// Self-loops and duplicates are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if `n == 0` or an endpoint is out of
    /// range.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a >= n {
                return Err(GraphError::BadEndpoint {
                    node: a,
                    num_nodes: n,
                });
            }
            if b >= n {
                return Err(GraphError::BadEndpoint {
                    node: b,
                    num_nodes: n,
                });
            }
            if a == b {
                continue;
            }
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        }
        for list in adj.iter_mut() {
            list.sort_unstable();
            list.dedup();
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for list in &adj {
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len());
        }
        Ok(Graph { offsets, neighbors })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: usize) -> usize {
        self.neighbors(v).len()
    }

    /// Sorted neighbor list of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        assert!(v < self.num_nodes(), "node {v} out of range");
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the graph is connected (single node counts as
    /// connected).
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[0] = true;
        queue.push_back(0usize);
        let mut visited = 1usize;
        while let Some(v) = queue.pop_front() {
            for &w in self.neighbors(v) {
                let w = w as usize;
                if !seen[w] {
                    seen[w] = true;
                    visited += 1;
                    queue.push_back(w);
                }
            }
        }
        visited == n
    }

    /// BFS distances from `source` (`usize::MAX` for unreachable
    /// nodes).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn bfs_distances(&self, source: usize) -> Vec<usize> {
        assert!(source < self.num_nodes(), "node {source} out of range");
        let mut dist = vec![usize::MAX; self.num_nodes()];
        let mut queue = VecDeque::new();
        dist[source] = 0;
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            for &w in self.neighbors(v) {
                let w = w as usize;
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Iterates all undirected edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_nodes()).flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .map(move |&b| (a, b as usize))
                .filter(|&(a, b)| a < b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_graph_basics() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.edges().count(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert!(g.is_connected());
    }

    #[test]
    fn self_loops_and_duplicates_removed() {
        let g = Graph::from_edges(3, &[(0, 0), (0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.edges().count(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn disconnected_detected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        let d = g.bfs_distances(0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], usize::MAX);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.bfs_distances(2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn errors() {
        assert_eq!(Graph::from_edges(0, &[]), Err(GraphError::Empty));
        assert!(matches!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::BadEndpoint { node: 5, .. })
        ));
        let e = GraphError::BadEndpoint {
            node: 5,
            num_nodes: 2,
        };
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn edges_iterator_each_edge_once() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn single_node_connected() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.edges().count(), 0);
    }
}
