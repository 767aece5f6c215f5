//! Test oracle for [`super::min_degree`]: minimum degree with explicit
//! clique formation on an elimination graph of `BTreeSet`s. Quadratic in
//! the fill, so it lives only in tests; the quotient-graph ordering must
//! return exactly its permutation. Self-contained (only `rsparse`) so the
//! integration tests can include it by path as well.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use rsparse::CsrMatrix;

/// Minimum degree on the A + Aᵀ pattern: repeatedly eliminate the vertex
/// with the smallest `(degree, vertex)` and join its neighbours into a
/// clique.
pub fn min_degree_reference(a: &CsrMatrix) -> Vec<usize> {
    let n = a.rows();
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for (r, c, _) in a.iter() {
        if r != c {
            adj[r].insert(c);
            adj[c].insert(r);
        }
    }
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::with_capacity(2 * n);
    for (v, nb) in adj.iter().enumerate() {
        heap.push(Reverse((nb.len(), v)));
    }
    while order.len() < n {
        let Reverse((deg, v)) = heap.pop().expect("one live entry per vertex remains");
        if eliminated[v] || deg != adj[v].len() {
            continue; // stale
        }
        eliminated[v] = true;
        order.push(v);
        let nbrs: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
        for &u in &nbrs {
            adj[u].remove(&v);
            for &w in &nbrs {
                if w != u {
                    adj[u].insert(w);
                }
            }
            heap.push(Reverse((adj[u].len(), u)));
        }
        adj[v].clear();
    }
    order
}
