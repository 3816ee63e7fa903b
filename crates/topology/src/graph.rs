use std::collections::VecDeque;

/// A weighted undirected graph over routers `0..n`.
///
/// Edge weights are latencies in microseconds. Parallel edges are collapsed
/// to the minimum weight on insertion; self-loops are rejected.
///
/// # Examples
///
/// ```
/// use hyperring_topology::Graph;
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1, 10);
/// g.add_edge(1, 2, 5);
/// assert!(g.is_connected());
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adj: Vec<Vec<(u32, u32)>>, // (neighbor, weight)
    edges: usize,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Adds an undirected edge of weight `w` (µs). If the edge already
    /// exists, keeps the smaller weight.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range vertices, or zero weight (the
    /// shortest-path code treats 0 as "same router").
    pub fn add_edge(&mut self, a: u32, b: u32, w: u32) {
        assert!(a != b, "self-loop at {a}");
        assert!(w > 0, "zero-weight edge {a}-{b}");
        let n = self.adj.len() as u32;
        assert!(a < n && b < n, "edge {a}-{b} out of range for {n} vertices");
        if let Some(slot) = self.adj[a as usize].iter_mut().find(|(v, _)| *v == b) {
            slot.1 = slot.1.min(w);
            let s2 = self.adj[b as usize]
                .iter_mut()
                .find(|(v, _)| *v == a)
                .expect("undirected edge stored asymmetrically");
            s2.1 = s2.1.min(w);
            return;
        }
        self.adj[a as usize].push((b, w));
        self.adj[b as usize].push((a, w));
        self.edges += 1;
    }

    /// Neighbors of `v` with edge weights.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[(u32, u32)] {
        &self.adj[v as usize]
    }

    /// Whether the graph is connected (vacuously true for `n <= 1`).
    pub fn is_connected(&self) -> bool {
        let n = self.vertex_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([0u32]);
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = queue.pop_front() {
            for &(u, _) in self.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    count += 1;
                    queue.push_back(u);
                }
            }
        }
        count == n
    }

    /// Connected components as vertex lists.
    pub fn components(&self) -> Vec<Vec<u32>> {
        let n = self.vertex_count();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        for start in 0..n as u32 {
            if seen[start as usize] {
                continue;
            }
            let mut comp = vec![start];
            seen[start as usize] = true;
            let mut queue = VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                for &(u, _) in self.neighbors(v) {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        comp.push(u);
                        queue.push_back(u);
                    }
                }
            }
            out.push(comp);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
        assert!(!Graph::new(2).is_connected());
    }

    #[test]
    fn add_edge_collapses_parallel_edges() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 10);
        g.add_edge(0, 1, 5);
        g.add_edge(1, 0, 20);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[(1, 5)]);
        assert_eq!(g.neighbors(1), &[(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        Graph::new(2).add_edge(1, 1, 3);
    }

    #[test]
    #[should_panic(expected = "zero-weight")]
    fn zero_weight_rejected() {
        Graph::new(2).add_edge(0, 1, 0);
    }

    #[test]
    fn components_partition_vertices() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 1);
        g.add_edge(2, 3, 1);
        let mut comps = g.components();
        comps.iter_mut().for_each(|c| c.sort_unstable());
        comps.sort();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3], vec![4]]);
        assert!(!g.is_connected());
        g.add_edge(1, 2, 1);
        g.add_edge(3, 4, 1);
        assert!(g.is_connected());
    }
}
