//! Connected components: the sequential twin and a labelling counter.
//! The parallel kernel is the sampled concurrent union-find in
//! [`uf`](crate::uf).
//!
//! Both kernels label each vertex with the **minimum vertex id of its
//! component**, so differential tests can compare outputs directly — no
//! relabelling needed (the property suite still checks equality up to
//! relabelling, which is what the algorithms guarantee in general).

use crate::csr::CsrGraph;

/// Sequential connected components: `labels[v]` is the smallest vertex id
/// in `v`'s component — the differential twin of
/// [`components_union_find`](crate::uf::components_union_find).
pub fn components_seq(graph: &CsrGraph) -> Vec<usize> {
    let n = graph.vertices();
    let mut labels = vec![usize::MAX; n];
    let mut stack = Vec::new();
    for root in 0..n {
        if labels[root] != usize::MAX {
            continue;
        }
        // Vertices are visited in increasing id order, so `root` is the
        // minimum of its component.
        labels[root] = root;
        stack.push(root);
        while let Some(u) = stack.pop() {
            for &v in graph.neighbors(u) {
                if labels[v] == usize::MAX {
                    labels[v] = root;
                    stack.push(v);
                }
            }
        }
    }
    labels
}

/// Number of distinct components in a labelling (counts distinct label
/// values, so it works for any labelling — not just the min-id one the
/// CC kernels produce).
pub fn component_count(labels: &[usize]) -> usize {
    let mut seen = std::collections::HashSet::with_capacity(labels.len());
    labels.iter().filter(|&&l| seen.insert(l)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_labels_are_component_minima() {
        // Two components: {0, 1, 2} and {3, 4}.
        let g = CsrGraph::from_undirected_edges(5, &[(1, 2), (0, 2), (4, 3)]);
        assert_eq!(components_seq(&g), vec![0, 0, 0, 3, 3]);
        assert_eq!(component_count(&components_seq(&g)), 2);
    }

    #[test]
    fn empty_graph_has_no_components() {
        let g = CsrGraph::from_undirected_edges(0, &[]);
        assert!(components_seq(&g).is_empty());
    }
}
