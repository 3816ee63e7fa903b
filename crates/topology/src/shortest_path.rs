use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Graph;

/// Single-source shortest path distances (Dijkstra).
///
/// Returns `dist[v]` in microseconds; unreachable vertices get `u64::MAX`.
///
/// # Examples
///
/// ```
/// use hyperring_topology::{dijkstra, Graph};
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1, 10);
/// g.add_edge(1, 2, 5);
/// g.add_edge(0, 2, 100);
/// assert_eq!(dijkstra(&g, 0), vec![0, 10, 15]);
/// ```
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn dijkstra(g: &Graph, src: u32) -> Vec<u64> {
    let n = g.vertex_count();
    assert!((src as usize) < n, "source {src} out of range");
    let mut dist = vec![u64::MAX; n];
    dist[src as usize] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for &(u, w) in g.neighbors(v) {
            let nd = d + w as u64;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    dist
}

/// Batch single-source shortest paths: one [`dijkstra`] row per source,
/// in source order, so `rows[k]` is exactly `dijkstra(g, sources[k])`.
/// This is the building block the delay-matrix cache uses to fill many
/// rows at once instead of paying one traversal per lookup miss.
///
/// # Panics
///
/// Panics if any source is out of range.
pub fn dijkstra_multi(g: &Graph, sources: &[u32]) -> Vec<Vec<u64>> {
    sources.iter().map(|&s| dijkstra(g, s)).collect()
}

/// All-pairs shortest paths (Floyd–Warshall), for small graphs.
///
/// Returns a row-major `n × n` matrix; unreachable pairs get `u64::MAX`.
/// Intended for cross-checking and for intra-domain matrices (tens of
/// vertices), not for full 8000-router graphs.
pub fn floyd_warshall(g: &Graph) -> Vec<u64> {
    let n = g.vertex_count();
    let mut dist = vec![u64::MAX; n * n];
    for v in 0..n {
        dist[v * n + v] = 0;
    }
    for v in 0..n as u32 {
        for &(u, w) in g.neighbors(v) {
            let slot = &mut dist[v as usize * n + u as usize];
            *slot = (*slot).min(w as u64);
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i * n + k];
            if dik == u64::MAX {
                continue;
            }
            for j in 0..n {
                let dkj = dist[k * n + j];
                if dkj == u64::MAX {
                    continue;
                }
                let via = dik + dkj;
                if via < dist[i * n + j] {
                    dist[i * n + j] = via;
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn line_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i as u32, i as u32 + 1, (i + 1) as u32);
        }
        g
    }

    #[test]
    fn dijkstra_on_line() {
        let g = line_graph(5);
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![0, 1, 3, 6, 10]);
        let d = dijkstra(&g, 4);
        assert_eq!(d, vec![10, 9, 7, 4, 0]);
    }

    #[test]
    fn dijkstra_unreachable_is_max() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 2);
        let d = dijkstra(&g, 0);
        assert_eq!(d[2], u64::MAX);
    }

    #[test]
    fn dijkstra_prefers_cheaper_detour() {
        let mut g = Graph::new(4);
        g.add_edge(0, 3, 100);
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 10);
        g.add_edge(2, 3, 10);
        assert_eq!(dijkstra(&g, 0)[3], 30);
    }

    #[test]
    fn dijkstra_multi_matches_single_source_rows() {
        let g = line_graph(6);
        let sources = [0u32, 5, 2, 2];
        let rows = dijkstra_multi(&g, &sources);
        assert_eq!(rows.len(), 4);
        for (k, &s) in sources.iter().enumerate() {
            assert_eq!(rows[k], dijkstra(&g, s), "row for source {s}");
        }
    }

    #[test]
    fn floyd_warshall_matches_dijkstra_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(1234);
        for trial in 0..10 {
            let n = rng.gen_range(2..30usize);
            let mut g = Graph::new(n);
            // Random connected-ish graph: spanning chain + random extras.
            for i in 1..n {
                g.add_edge(i as u32, rng.gen_range(0..i) as u32, rng.gen_range(1..100));
            }
            for _ in 0..n {
                let a = rng.gen_range(0..n) as u32;
                let b = rng.gen_range(0..n) as u32;
                if a != b {
                    g.add_edge(a, b, rng.gen_range(1..100));
                }
            }
            let fw = floyd_warshall(&g);
            for src in 0..n as u32 {
                let d = dijkstra(&g, src);
                for v in 0..n {
                    assert_eq!(
                        d[v],
                        fw[src as usize * n + v],
                        "trial {trial} src {src} dst {v}"
                    );
                }
            }
        }
    }
}
