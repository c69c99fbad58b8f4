"""Independent oracle implementations used only by the tests.

These deliberately avoid the library's own code paths: determinants by
cofactor-free dense elimination written here, intersection numbers by
direct set counting on the distance matrix, and spectra through numpy on
the actual adjacency matrix.
"""

from fractions import Fraction

import numpy as np


def dense_det(matrix):
    """Determinant by plain fraction Gaussian elimination (local copy)."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if m[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, n):
            if m[r][c] != 0:
                factor = m[r][c] / m[c][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def brute_layer_sizes(g, x):
    """Layer sizes by plain breadth-first search on adjacency lists."""
    seen = {x}
    frontier = [x]
    sizes = [1]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        if nxt:
            sizes.append(len(nxt))
        frontier = nxt
    return sizes


def brute_intersection_numbers(g):
    """All p^h_{ij} = |Gamma_i(x) cap Gamma_j(y)| by direct counting.

    Returns the tensor and raises AssertionError when a count depends on
    the pair, which is exactly the distance-regularity test.
    """
    dist = np.asarray(g.distance_matrix(), dtype=np.int64)
    D = int(dist.max())
    n = g.n
    tensor = {}
    for x in range(n):
        dx = dist[x]
        for y in range(n):
            h = int(dist[x, y])
            table = np.zeros((D + 1, D + 1), dtype=np.int64)
            np.add.at(table, (dx, dist[y]), 1)
            key = h
            if key in tensor:
                assert np.array_equal(tensor[key], table), (
                    f"p^h_ij depends on the pair at distance {h}: ({x},{y})"
                )
            else:
                tensor[key] = table
    return tensor


def numpy_spectrum(g):
    """Distinct adjacency eigenvalues via numpy, rounded when integral."""
    A = np.zeros((g.n, g.n))
    for u, v in g.edges():
        A[u, v] = A[v, u] = 1.0
    eigs = np.linalg.eigvalsh(A)
    out = []
    for x in sorted(eigs, reverse=True):
        if out and abs(x - out[-1]) < 1e-6:
            continue
        out.append(x)
    return out


def fraction_express(rows, target):
    """Coefficients of ``target`` in an echelon basis by plain Fraction
    forward substitution, or None when it lies outside the span."""
    coeffs = [Fraction(0)] * len(rows)
    residual = [Fraction(x) for x in target]
    for idx, row in enumerate(rows):
        pivot = next(i for i, x in enumerate(row) if x)
        if residual[pivot] != 0:
            c = residual[pivot] / row[pivot]
            coeffs[idx] = c
            residual = [a - c * b for a, b in zip(residual, row)]
    if any(x != 0 for x in residual):
        return None
    return coeffs
