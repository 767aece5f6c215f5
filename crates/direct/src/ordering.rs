//! Fill-reducing orderings: natural, reverse Cuthill–McKee, and minimum
//! degree on the symmetrized pattern — the `permc_spec` choices of
//! SuperLU. Minimum degree runs on a quotient graph, where each
//! eliminated vertex stands for the clique an explicit elimination graph
//! would store, and it keeps exact degrees.

use rsparse::CsrMatrix;

#[cfg(test)]
mod reference;

/// Ordering strategy for the analyze phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ordering {
    /// Identity permutation (SuperLU's `NATURAL`).
    Natural,
    /// Reverse Cuthill–McKee: bandwidth reduction.
    Rcm,
    /// Minimum degree on A + Aᵀ (SuperLU's `MMD_AT_PLUS_A` spirit).
    #[default]
    MinDegree,
}

impl Ordering {
    /// Parse a name.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "natural" | "none" => Some(Ordering::Natural),
            "rcm" => Some(Ordering::Rcm),
            "mindegree" | "min_degree" | "mmd" | "amd" => Some(Ordering::MinDegree),
            _ => None,
        }
    }

    /// Compute the permutation for a square matrix: `perm[new] = old`.
    pub fn compute(self, a: &CsrMatrix) -> Vec<usize> {
        match self {
            Ordering::Natural => (0..a.rows()).collect(),
            Ordering::Rcm => rcm(a),
            Ordering::MinDegree => min_degree(a),
        }
    }
}

/// Symmetrized adjacency (A + Aᵀ pattern, no diagonal).
fn sym_adjacency(a: &CsrMatrix) -> Vec<Vec<usize>> {
    let n = a.rows();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (r, c, _) in a.iter() {
        if r != c {
            adj[r].push(c);
            adj[c].push(r);
        }
    }
    for lst in &mut adj {
        lst.sort_unstable();
        lst.dedup();
    }
    adj
}

/// Reverse Cuthill–McKee: BFS from a minimum-degree start vertex in each
/// connected component, neighbours visited in increasing-degree order,
/// final order reversed.
pub fn rcm(a: &CsrMatrix) -> Vec<usize> {
    let n = a.rows();
    let adj = sym_adjacency(a);
    let degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Process vertices grouped by component, starting from low degree.
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_by_key(|&v| degree[v]);
    for &start in &by_degree {
        if visited[start] {
            continue;
        }
        // BFS.
        let mut queue = std::collections::VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> =
                adj[v].iter().copied().filter(|&u| !visited[u]).collect();
            nbrs.sort_by_key(|&u| degree[u]);
            for u in nbrs {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    order
}

/// Minimum degree on the symmetrized pattern, run on a quotient graph
/// (the structure of AMD and of SuperLU's MMD) instead of an explicit
/// elimination graph.
///
/// Each variable keeps its original neighbour list and a list of
/// adjacent *elements*. Eliminating pivot `p` turns it into an element
/// whose variable list `Lp` is its live variable neighbours plus the
/// variables of the elements adjacent to `p`, which `p` absorbs. Each
/// `i ∈ Lp` then drops `Lp` from its variable list and gets `p` in its
/// element list, and its degree is recomputed **exactly** — `|Lp| − 1`
/// plus the members of its other lists outside `Lp`, deduplicated with
/// stamps. An element whose variables all lie in `Lp` is absorbed too
/// (aggressive absorption, which cannot change an exact degree). There
/// is no approximate degree, supervariable detection or mass
/// elimination, so the pivot sequence is exactly that of eliminating
/// vertex by vertex with explicit clique formation: the minimum of
/// `(degree, vertex)` among the remaining vertices at every step.
///
/// Selection uses a lazy-deletion binary heap keyed by `(degree,
/// vertex)`; a vertex is pushed again only when its degree changes, and
/// stale entries are skipped on pop.
pub fn min_degree(a: &CsrMatrix) -> Vec<usize> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = a.rows();
    // Live variable neighbours not (yet) reached through an element.
    let mut vars = sym_adjacency(a);
    // Elements adjacent to each variable, and the variables of each
    // element (an element is named by its pivot).
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut eliminated = vec![false; n];
    let mut absorbed = vec![false; n];
    let mut degree: Vec<usize> = vars.iter().map(Vec::len).collect();
    // `stamp[x] == tag` marks x as seen in the current scan.
    let mut stamp = vec![0usize; n];
    let mut clock = 0usize;
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::with_capacity(2 * n);
    for (v, &d) in degree.iter().enumerate() {
        heap.push(Reverse((d, v)));
    }
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let Reverse((d, p)) = heap.pop().expect("one live entry per vertex remains");
        if eliminated[p] || d != degree[p] {
            continue; // stale
        }
        eliminated[p] = true;
        order.push(p);

        // Lp: p's variable neighbours plus the variables of its elements,
        // which p absorbs. `lp_tag` marks Lp ∪ {p}.
        clock += 1;
        let lp_tag = clock;
        stamp[p] = lp_tag;
        let mut lp = std::mem::take(&mut vars[p]);
        for &x in &lp {
            stamp[x] = lp_tag;
        }
        for e in std::mem::take(&mut elems[p]) {
            if absorbed[e] {
                continue;
            }
            absorbed[e] = true;
            for x in std::mem::take(&mut members[e]) {
                if stamp[x] != lp_tag {
                    stamp[x] = lp_tag;
                    lp.push(x);
                }
            }
        }

        // Update every i ∈ Lp and recompute its exact external degree.
        for &i in &lp {
            clock += 1;
            let tag = clock;
            vars[i].retain(|&x| stamp[x] != lp_tag);
            for &x in &vars[i] {
                stamp[x] = tag;
            }
            let mut deg = lp.len() - 1 + vars[i].len();
            elems[i].retain(|&e| {
                if absorbed[e] {
                    return false;
                }
                let mut outside = false;
                for &x in &members[e] {
                    if stamp[x] != lp_tag {
                        outside = true;
                        if stamp[x] != tag {
                            stamp[x] = tag;
                            deg += 1;
                        }
                    }
                }
                if !outside {
                    absorbed[e] = true;
                    members[e] = Vec::new();
                }
                outside
            });
            elems[i].push(p);
            if deg != degree[i] {
                degree[i] = deg;
                heap.push(Reverse((deg, i)));
            }
        }
        members[p] = lp;
    }
    order
}

/// Validate that `perm` is a permutation of `0..n`.
pub fn is_permutation(perm: &[usize], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// Bandwidth of a matrix under a permutation (`perm[new] = old`); the RCM
/// quality metric.
pub fn bandwidth(a: &CsrMatrix, perm: &[usize]) -> usize {
    let n = a.rows();
    let mut inv = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    let mut bw = 0usize;
    for (r, c, _) in a.iter() {
        bw = bw.max(inv[r].abs_diff(inv[c]));
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::reference::min_degree_reference;
    use super::*;
    use rsparse::generate;

    fn star(n: usize) -> CsrMatrix {
        let mut coo = rsparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for leaf in 1..n {
            coo.push(0, leaf, -1.0).unwrap();
            coo.push(leaf, 0, -1.0).unwrap();
        }
        coo.to_csr()
    }

    fn two_components() -> CsrMatrix {
        let mut coo = rsparse::CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(4, 5, 1.0).unwrap();
        coo.push(5, 4, 1.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn min_degree_matches_the_explicit_clique_reference() {
        let mut cases: Vec<(String, CsrMatrix)> = [8usize, 20, 50]
            .into_iter()
            .map(|m| (format!("paper_problem({m})"), rmesh::paper_problem(m).assemble_global().0))
            .collect();
        cases.push(("laplacian_2d(12)".into(), generate::laplacian_2d(12)));
        cases.push(("star(8)".into(), star(8)));
        cases.push(("two components".into(), two_components()));
        cases.push(("identity(7)".into(), CsrMatrix::identity(7)));
        cases.push(("1x1".into(), CsrMatrix::identity(1)));
        for (name, a) in &cases {
            let got = min_degree(a);
            assert!(is_permutation(&got, a.rows()), "{name}");
            assert_eq!(got, min_degree_reference(a), "{name}");
        }
    }

    #[test]
    fn all_orderings_produce_valid_permutations() {
        let a = generate::random_csr(30, 30, 0.1, 77);
        for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            let p = ord.compute(&a);
            assert!(is_permutation(&p, 30), "{ord:?}");
        }
    }

    #[test]
    fn natural_is_identity() {
        let a = generate::laplacian_1d(5);
        assert_eq!(Ordering::Natural.compute(&a), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_band_matrix() {
        // Take a banded matrix, scramble it, and check RCM restores a
        // narrow band.
        let a = generate::laplacian_1d(40);
        let scramble: Vec<usize> = (0..40).map(|i| (i * 17) % 40).collect();
        let shuffled = a.permute_symmetric(&scramble).unwrap();
        let before = bandwidth(&shuffled, &Ordering::Natural.compute(&shuffled));
        let after = bandwidth(&shuffled, &rcm(&shuffled));
        assert!(before > 5, "scramble must have widened the band: {before}");
        assert_eq!(after, 1, "RCM must recover the tridiagonal band");
    }

    #[test]
    fn min_degree_orders_star_center_last() {
        // Star graph: center 0 has degree n−1, leaves degree 1. Minimum
        // degree must eliminate all leaves before the center.
        let n = 8;
        let order = min_degree(&star(n));
        // Once all but one leaf is gone the center's degree drops to 1 and
        // it may tie with the final leaf, so the center lands in one of
        // the last two positions — never earlier.
        let center_pos = order.iter().position(|&v| v == 0).unwrap();
        assert!(center_pos >= n - 2, "{order:?}");
    }

    #[test]
    fn orderings_handle_disconnected_graphs() {
        // Block diagonal with two components.
        let a = two_components();
        assert!(is_permutation(&rcm(&a), 6));
        assert!(is_permutation(&min_degree(&a), 6));
    }

    #[test]
    fn parse_names() {
        assert_eq!(Ordering::parse("natural"), Some(Ordering::Natural));
        assert_eq!(Ordering::parse("RCM"), Some(Ordering::Rcm));
        assert_eq!(Ordering::parse("amd"), Some(Ordering::MinDegree));
        assert_eq!(Ordering::parse("colamd9"), None);
    }
}
