"""The dense adjacency matrix, the tests' reference for the edge-list code."""

import numpy as np


def adjacency_matrix(graph):
    """Symmetric integer adjacency matrix; loops put 1 on the diagonal."""
    a = np.zeros((graph.n_vertices, graph.n_vertices), dtype=np.int64)
    for i, j in graph.edges:
        a[i, j] = 1
        a[j, i] = 1
    for v in graph.loops:
        a[v, v] = 1
    return a
