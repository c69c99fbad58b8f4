"""Independent oracle implementations used only by the tests.

These deliberately avoid the library's own code paths: determinants,
reduced row echelon forms, kernels, affine solutions and minimal
polynomials by plain Fraction elimination written here, intersection
numbers by direct set counting on the distance matrix, spectra through
numpy on the actual adjacency matrix, the parameter conditions that
vanish on a whole solution product by expanding them as polynomials, the
parameter conditions at a unique solution by dense determinants, and
the distinct nonzero rows of a layer system by numpy's 2-D ``unique``.
The former library paths kept here as references: elimination and span
enumeration over GF(r^2), the dual polar generators by a search that
reduces every tuple of rows, the intersection array by one pass per
vertex over scipy's shortest-path distances and by D+1 products formed
apart from the distance matrix and checked kind by kind, the graph
constructor's edge checks by one pass over the edges with a set of those
seen, the distance partition by a breadth-first search one vertex at a
time, the L/F split as neighbour tuples built per vertex, each layer
system as the distinct rows of its guarded float-BLAS blocks, the
two-colouring of a graph, the near-polygon test's scan of every edge for
an induced K_{1,1,2}, the Krein parameters as Fraction sums over the dual
eigenmatrix, the Q-polynomial orderings by a loop over every entry of
each permuted Krein tensor and by the former filter of every permutation
against the tensor's zero pattern, flattening and Cartesian products one edge at a
time, and the split of a module closure through the dim x dim matrix of
a commutant element instead of its block on the endpoint slice, and
Garner's prefixes of a CRT lift with every earlier radix reduced as a
Python int for each new prime, and graph isomorphism by trying every
permutation.  The neighbour tuples the loop references walk are read
off a graph's CSR rows by ``neighbours``.  The
helpers that assemble an ``LFRSplit``'s blocks into full matrices or
count their entries are here too: only tests use them.
"""

from fractions import Fraction
from itertools import permutations, product
from math import comb, lcm

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from drguniform.errors import (
    DisconnectedGraph,
    ExactnessError,
    InvalidParams,
    NotDistanceRegular,
    ParseError,
)
from drguniform.exactla import IntRowBasis, int_poly_rational_roots
from drguniform.fields import FiniteField
from drguniform.graph_core import DistancePartition, IntersectionArray
from drguniform.uniform import ParameterMatrix, UniformStructure


def neighbours(g):
    """The sorted neighbours of every vertex of ``g``, as tuples of ints,
    read off the rows of its CSR adjacency."""
    S = g.sparse()
    nbrs, ends = S.indices.tolist(), S.indptr.tolist()
    return tuple(tuple(nbrs[a:b]) for a, b in zip(ends, ends[1:]))


def permutation_isomorphic(g, h):
    """Whether some permutation of the vertices carries the edges of ``g``
    onto those of ``h``, by trying every one: the reference for
    ``terwilliger.graph_isomorphic`` on small graphs."""
    if g.n != h.n or g.m != h.m:
        return False
    edges, target = g.edges().tolist(), set(map(tuple, h.edges().tolist()))
    return any(
        all((min(p[u], p[v]), max(p[u], p[v])) in target for u, v in edges)
        for p in permutations(range(g.n))
    )


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


def rref(rows):
    """Reduced row echelon form by Fraction Gauss-Jordan elimination.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pick = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def fraction_nullspace(rows, ncols):
    """Kernel basis read off ``rref``: for each non-pivot column c, the
    vector that is 1 at c and 0 at the other non-pivot columns."""
    red, pivots = rref(rows)
    basis = []
    for c in range(ncols):
        if c not in pivots:
            v = [Fraction(0)] * ncols
            v[c] = Fraction(1)
            for row, p in zip(red, pivots):
                v[p] = -row[c]
            basis.append(v)
    return basis


def fraction_solve_affine(rows, rhs):
    """(particular, kernel basis) of rows @ x = rhs through ``rref`` of
    the augmented matrix, or None when it is inconsistent."""
    ncols = len(rows[0])
    red, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        particular[p] = row[ncols]
    return particular, fraction_nullspace([row[:ncols] for row in red], ncols)


def fraction_minimal_polynomial(mat):
    """Minimal polynomial of a square rational matrix: Fraction powers
    until the flattened power depends on the lower ones, then the
    n^2 x deg system expressing it in them.  Returns the primitive integer
    coefficients [c0..cd], cd > 0."""
    n = len(mat)
    powers = [[[Fraction(int(i == j)) for j in range(n)] for i in range(n)]]
    while True:
        flats = [[x for row in p for x in row] for p in powers]
        if len(rref(flats)[0]) < len(flats):
            break
        last = powers[-1]
        powers.append(
            [[sum(last[i][k] * mat[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        )
    deg = len(powers) - 1
    sol = fraction_solve_affine(
        [[powers[k][i][j] for k in range(deg)] for i in range(n) for j in range(n)],
        [powers[deg][i][j] for i in range(n) for j in range(n)],
    )
    monic = [-x for x in sol[0]] + [Fraction(1)]
    den = lcm(*(x.denominator for x in monic))
    return [int(x * den) for x in monic]


def brute_layer_sizes(g, x):
    """Layer sizes by plain breadth-first search on adjacency lists."""
    adj = neighbours(g)
    seen = {x}
    frontier = [x]
    sizes = [1]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
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


def p_numbers(ia):
    """Intersection numbers p^l_{gh} computed from the array alone.

    The products A_g A_h are expanded in the distance-matrix basis using
    the multiply-by-A recurrence, so everything stays integral.
    """
    D = ia.D

    def mul_by_x(w):
        out = [Fraction(0)] * (D + 1)
        for l in range(D + 1):
            if w[l] == 0:
                continue
            # x*v_l = b_{l-1} v_{l-1} + a_l v_l + c_{l+1} v_{l+1}
            if l > 0:
                out[l - 1] += ia.b_at(l - 1) * w[l]
            out[l] += ia.a_at(l) * w[l]
            if l < D:
                out[l + 1] += ia.c_at(l + 1) * w[l]
        return out

    p = [[[0] * (D + 1) for _ in range(D + 1)] for _ in range(D + 1)]
    for h in range(D + 1):
        w_prev = None
        w = [Fraction(0)] * (D + 1)
        w[h] = Fraction(1)  # v_0 * v_h
        for gidx in range(D + 1):
            for l in range(D + 1):
                val = w[l]
                if val.denominator != 1:
                    raise InvalidParams(f"the array gives the intersection number {val}")
                p[l][gidx][h] = int(val)
            if gidx == D:
                break
            xw = mul_by_x(w)
            if gidx == 0:
                nxt = xw
            else:
                nxt = [
                    (xv - ia.a_at(gidx) * wv - ia.b_at(gidx - 1) * pv) / ia.c_at(gidx + 1)
                    for xv, wv, pv in zip(xw, w, w_prev)
                ]
            w_prev, w = w, nxt
    return p


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


class Poly:
    """Polynomial over Q as {monomial: Fraction}, a monomial being the
    sorted tuple of its variable indices."""

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def const(cls, c):
        return cls({(): Fraction(c)})

    @classmethod
    def var(cls, idx):
        return cls({(idx,): Fraction(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return Poly(out)

    def __sub__(self, other):
        return self + other * Fraction(-1)

    def __mul__(self, other):
        if isinstance(other, Fraction):
            return Poly({m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return Poly(out)

    def is_zero(self):
        return not self.terms


def polynomial_vanishing_conditions(layers):
    """(singular, zero_minus, zero_plus) as ``uniform.vanishing_conditions``
    returns them, by expanding e_i^-, e_i^+ and every principal minor as a
    polynomial in one variable per basis vector of the layer solutions."""
    eps = len(layers)
    e_minus, e_plus = {}, {}
    nvars = 0
    for sol in layers:
        i = sol.layer
        em, ep = Poly.const(sol.particular[0]), Poly.const(sol.particular[1])
        for h in sol.basis:
            em = em + Poly.var(nvars) * Fraction(h[0])
            ep = ep + Poly.var(nvars) * Fraction(h[1])
            nvars += 1
        if i >= 2:
            e_minus[i] = em
        if i <= eps - 1:
            e_plus[i] = ep
    singular = set()
    for t in range(1, eps + 1):
        d_after, d = Poly.const(1), Poly.const(1)
        for s in range(t - 1, 0, -1):
            d, d_after = d - e_plus[s] * e_minus[s + 1] * d_after, d
            if d.is_zero():
                singular.add((s, t))
    zero_minus = {i for i, p in e_minus.items() if p.is_zero()}
    zero_plus = {i for i, p in e_plus.items() if p.is_zero()}
    return singular, zero_minus, zero_plus


def unique_point_conditions(layers):
    """The structure at the one point of layer solutions without free
    parameters, and its parameter-condition report as
    ``uniform.check_parameter_conditions`` gives it, decided at that point
    alone, with every principal minor a dense determinant: the decision
    ``uniform.select_structure`` once made for a unique solution by a
    branch of its own."""
    eps = len(layers)
    e_minus = tuple(sol.particular[0] for sol in layers[1:])
    e_plus = tuple(sol.particular[1] for sol in layers[:-1])
    U = ParameterMatrix(eps, e_minus, e_plus)
    dense = U.dense()
    violations = tuple(
        (s, t)
        for s in range(1, eps + 1)
        for t in range(s, eps + 1)
        if dense_det([row[s - 1 : t] for row in dense[s - 1 : t]]) == 0
    )
    family_minus, family_plus = all(e_minus), all(e_plus)
    report = {
        "ok": (family_minus or family_plus) and not violations,
        "family_minus": family_minus,
        "family_plus": family_plus,
        "violations": violations,
    }
    return UniformStructure(U=U, f=tuple(sol.particular[2] for sol in layers)), report


def unique_nonzero_rows(a):
    """The distinct nonzero rows of ``a`` in lexicographic order, by
    ``np.unique(a, axis=0)``, a sort of a void view of every row, and a
    zero-row filter."""
    rows = np.unique(a, axis=0)
    return rows[np.abs(rows).sum(axis=1) > 0]


def scalar_hermitian_inner(field, u, v):
    """sum_i u_i * conj(v_i) over GF(r^2), one coordinate at a time."""
    mul, conj, add = field.mul, field.conj, field.add
    acc = 0
    for a, b in zip(u, v):
        acc = add[acc][mul[a][conj[b]]]
    return acc


def vec_add(field, u, v):
    add = field.add
    return tuple(add[a][b] for a, b in zip(u, v))


def vec_scale(field, c, u):
    mul = field.mul
    return tuple(mul[c][x] for x in u)


def rref_gf(field, rows):
    """Reduced row echelon form over the field; returns (rows, pivots)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    mul, inv, neg, add = field.mul, field.inv, field.neg, field.add
    pivots = []
    r = 0
    for c in range(ncols):
        pick = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        s = inv[m[r][c]]
        m[r] = [mul[s][x] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = neg[m[i][c]]
                m[i] = [add[x][mul[f][y]] for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def rank_gf(field, rows):
    return len(rref_gf(field, rows)[0])


def normalized_isotropic_points(field, dim):
    """All projective points (first nonzero coordinate 1) with zero norm."""
    points = []
    for vec in product(range(field.order), repeat=dim):
        lead = next((x for x in vec if x), None)
        if lead == 1 and scalar_hermitian_inner(field, vec, vec) == 0:
            points.append(vec)
    return points


def rref_dual_polar_bases(r, D):
    """Reduced-echelon bases of the maximal totally isotropic D-subspaces,
    sorted, by a search over ordered tuples of isotropic points in echelon
    position that reduces every leaf and keeps the distinct results."""
    field = FiniteField(r, 2)
    dim = 2 * D
    points = normalized_isotropic_points(field, dim)
    npts = len(points)
    pivot = [next(i for i, x in enumerate(p) if x) for p in points]
    orth = [0] * npts
    for i in range(npts):
        for j in range(i, npts):
            if scalar_hermitian_inner(field, points[i], points[j]) == 0:
                orth[i] |= 1 << j
                orth[j] |= 1 << i
    zero_at = [0] * dim
    for idx, p in enumerate(points):
        for c in range(dim):
            if p[c] == 0:
                zero_at[c] |= 1 << idx
    pivot_after = [0] * (dim + 1)
    for idx in range(npts):
        for t in range(pivot[idx]):
            pivot_after[t] |= 1 << idx
    subspaces = set()

    def dfs(rows, cand):
        if len(rows) == D:
            subspaces.add(tuple(rref_gf(field, rows)[0]))
            return
        mask = cand
        while mask:
            low = mask & -mask
            idx = low.bit_length() - 1
            mask ^= low
            dfs(rows + [points[idx]], cand & orth[idx] & zero_at[pivot[idx]] & pivot_after[pivot[idx]])

    dfs([], (1 << npts) - 1)
    return sorted(subspaces)


def span_points(field, rows):
    """The normalized projective points of the span of ``rows``, by
    enumerating every linear combination."""
    dim = len(rows[0])
    points = set()
    for coeffs in product(range(field.order), repeat=len(rows)):
        vec = (0,) * dim
        for c, row in zip(coeffs, rows):
            if c:
                vec = vec_add(field, vec, vec_scale(field, c, row))
        lead = next((x for x in vec if x), None)
        if lead is not None:
            points.add(vec_scale(field, field.inv[lead], vec))
    return points


def loop_intersection_array(g):
    """(c, a, b) of ``g`` by one pass per vertex x: a dense one-hot matrix
    of the distances from x, one product with the adjacency matrix, and
    the counts compared across every y.  Raises NotDistanceRegular."""
    n, adj = g.n, neighbours(g)
    rows = [u for u in range(n) for _ in adj[u]]
    cols = [v for u in range(n) for v in adj[u]]
    S = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    dist = shortest_path(S, method="D", unweighted=True).astype(np.int16)
    D = int(dist.max())
    if D == 0:
        raise NotDistanceRegular(0, 0, 0, "diameter", 1, 0)
    ecc = dist.max(axis=1)
    if (ecc != D).any():
        x = int(np.argmin(ecc))
        y = int(np.argmax(dist[int(np.argmax(ecc))]))
        raise NotDistanceRegular(x, y, int(ecc[x]), "eccentricity", D, int(ecc[x]))
    c = [None] * (D + 1)
    a = [None] * (D + 1)
    b = [None] * (D + 1)
    c[0], b[D] = 0, 0
    for x in range(n):
        dx = dist[x]
        onehot = np.zeros((n, D + 3), dtype=np.float64)
        onehot[np.arange(n), dx + 1] = 1.0
        counts = (S.T @ onehot).astype(np.int64)
        ys = np.arange(n)
        dxy = dx.astype(np.int64)
        cc = counts[ys, dxy]
        aa = counts[ys, dxy + 1]
        bb = counts[ys, dxy + 2]
        for i in range(D + 1):
            mask = dxy == i
            if not mask.any():
                continue
            for kind, arr, store in (("c", cc, c), ("a", aa, a), ("b", bb, b)):
                if kind == "c" and i == 0:
                    continue
                if kind == "b" and i == D:
                    continue
                vals = arr[mask]
                lo, hi = int(vals.min()), int(vals.max())
                if lo != hi or (store[i] is not None and store[i] != lo):
                    expected = store[i] if store[i] is not None else lo
                    bad = int(ys[mask][int(np.argmax(vals != expected))])
                    raise NotDistanceRegular(x, bad, i, kind, expected, hi if hi != expected else lo)
                store[i] = lo
    a[0] = 0
    return tuple(c[1:]), tuple(a), tuple(b[:D])


def product_intersection_array(g):
    """(c, a, b) of ``g`` by D+1 products of its adjacency matrix with the
    0/1 distance layers, formed after the distance matrix, each compared
    kind by kind (b_{t-1}, a_t, c_{t+1}) with the first pair at that
    distance through a mask of the pairs there.  Raises InvalidParams,
    NotDistanceRegular (eccentricities first) or ValueError as the library
    does."""
    dist = g.distance_matrix()
    D = int(dist.max())
    if D == 0:
        raise InvalidParams("the graph has diameter 0, so it has no intersection array")
    ecc = dist.max(axis=1)
    if (ecc != D).any():
        x = int(np.argmin(ecc))
        y = int(np.argmax(dist[x]))
        raise NotDistanceRegular(x, y, int(ecc[x]), "eccentricity", D, int(ecc[x]))
    S = g.sparse()
    counts = {kind: [0] * (D + 1) for kind in "cab"}
    for t in range(D + 1):
        M = S @ (dist == t).view(np.uint8)
        for kind, i in (("b", t - 1), ("a", t), ("c", t + 1)):
            if not 0 <= i <= D:
                continue
            at_i = dist == i
            vals = M[at_i]
            off = vals != vals[0]
            if off.any():
                k = int(np.argmax(off))
                y, x = (int(w[k]) for w in np.nonzero(at_i))
                raise NotDistanceRegular(x, y, i, kind, int(vals[0]), int(vals[k]))
            counts[kind][i] = int(vals[0])
    c, a, b = counts["c"], counts["a"], counts["b"]
    return IntersectionArray(c=tuple(c[1:]), a=tuple(a), b=tuple(b[:D])).validate()


def loop_adjacency(n, edges):
    """(adj, m) of a simple graph on 0..n-1 by one pass over the edges,
    raising ParseError at the first edge out of range, self-loop or
    repeat: the reference for ``Graph.__init__``."""
    adj = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range in edge ({u}, {v})")
        if u == v:
            raise ParseError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(nbrs)) for nbrs in adj), len(seen)


def is_bipartite(g):
    """Two-colour a connected graph by a depth-first search from vertex 0."""
    adj = neighbours(g)
    color = [-1] * g.n
    color[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if color[v] == -1:
                color[v] = color[u] ^ 1
                stack.append(v)
            elif color[v] == color[u]:
                return False
    return True


def scan_k112(g):
    """True when no edge uv has two nonadjacent common neighbours, by a
    scan of every edge: the reference for ``graph_core.k112_free``."""
    sets = [set(nbrs) for nbrs in neighbours(g)]
    for u, v in g.edges().tolist():
        common = sorted(sets[u] & sets[v])
        for s in range(len(common)):
            for t in range(s + 1, len(common)):
                if common[t] not in sets[common[s]]:
                    return False
    return True


def fraction_krein_parameters(spec):
    """q[l][i][j] = n^{-1} sum_h Q[h][i] Q[h][j] P[l][h], with Q the dual
    eigenmatrix, one Fraction sum per entry: the reference for
    ``graph_core.krein_parameters``."""
    n, D, m = spec.ia.n, spec.D, spec.multiplicities
    P = spec.eigenmatrix()
    k = spec.ia.layer_sizes()
    Q = [[m[i] * P[i][h] / k[h] for i in range(D + 1)] for h in range(D + 1)]
    return tuple(
        tuple(
            tuple(sum(Q[h][i] * Q[h][j] * P[l][h] for h in range(D + 1)) / n for j in range(D + 1))
            for i in range(D + 1)
        )
        for l in range(D + 1)
    )


def loop_q_polynomial_orderings(kt):
    """The reorderings of the nontrivial idempotents with the polynomial
    triangle pattern, each permuted entry tested in turn: the reference
    for ``graph_core.q_polynomial_orderings``."""
    D = kt.D
    orderings = []
    for perm in permutations(range(1, D + 1)):
        sigma = (0,) + perm
        ok = True
        for h in range(D + 1):
            for i in range(D + 1):
                for j in range(D + 1):
                    val = kt.q[sigma[h]][sigma[i]][sigma[j]]
                    if h > i + j or i > h + j or j > h + i:
                        if val != 0:
                            ok = False
                            break
                    if h == i + j or i == h + j or j == h + i:
                        if val == 0:
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            orderings.append(sigma)
    return orderings


def permutation_q_polynomial_orderings(kt):
    """The reorderings with the polynomial triangle pattern, every one of
    the D! permutations tested against the tensor's zero pattern read
    once, the entries within the first positions first: the former
    ``graph_core.q_polynomial_orderings``."""
    D = kt.D
    nonzero = [[[x != 0 for x in row] for row in ql] for ql in kt.q]
    decided = sorted((t for t in product(range(D + 1), repeat=3) if 2 * max(t) >= sum(t)), key=max)
    checks = [(h, i, j, 2 * max(h, i, j) == h + i + j) for h, i, j in decided]
    sigmas = ((0,) + perm for perm in permutations(range(1, D + 1)))
    return [s for s in sigmas if all(nonzero[s[h]][s[i]][s[j]] == w for h, i, j, w in checks)]


def loop_flatten_edges(g, x):
    """The edges of ``g`` between two layers around ``x``, one pair at a
    time: the reference for ``terwilliger.flatten``."""
    dist = loop_bfs_layers(g, x).dist.tolist()
    adj = neighbours(g)
    return [[u, v] for u in range(g.n) for v in adj[u] if u < v and dist[u] != dist[v]]


def loop_product_edges(g, h):
    """The edges of the Cartesian product of ``g`` and ``h``, vertex (u, v)
    numbered u*|h| + v, one pair at a time: the reference for
    ``terwilliger.cartesian_product``."""
    edges, g_adj, h_adj = [], neighbours(g), neighbours(h)
    for u in range(g.n):
        for a in range(h.n):
            edges.extend([u * h.n + a, u * h.n + b] for b in h_adj[a] if a < b)
        for w in g_adj[u]:
            if u < w:
                edges.extend([u * h.n + v, w * h.n + v] for v in range(h.n))
    return sorted(edges)


def loop_bfs_layers(g, x):
    """The distance partition of ``g`` around ``x`` by a breadth-first
    search over the adjacency lists, one vertex at a time: the reference
    for ``graph_core.bfs_layers``."""
    adj = neighbours(g)
    dist = [-1] * g.n
    dist[x] = 0
    frontier = [x]
    layers = [[x]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        if nxt:
            layers.append(sorted(nxt))
        frontier = nxt
    if any(d == -1 for d in dist):
        raise DisconnectedGraph(f"vertex unreachable from {x}")
    return DistancePartition(base=x, layers=tuple(tuple(layer) for layer in layers), dist=np.array(dist))


def _distances(g):
    """All-pairs distances by scipy's unweighted shortest paths, inf
    between components."""
    return shortest_path(g.sparse(), method="D", unweighted=True)


def is_connected(g):
    """Whether every vertex is reachable from every other."""
    return bool(np.isfinite(_distances(g)).all())


def diameter(g):
    """The largest distance of a connected graph."""
    return int(_distances(g).max())


class TupleSplit:
    """The split of the adjacency matrix at a base vertex as neighbour
    tuples, built one vertex at a time: the reference for ``LFRSplit``.

    ``lrows[i][z]`` lists, for the z-th vertex of layer i-1, the local
    indices of its neighbours inside layer i; ``frows[i][z]`` the
    same-layer neighbours of the z-th vertex of layer i.
    """

    def __init__(self, g, dp):
        self.g = g
        self.dp = dp
        layers = dp.layers
        local = [None] * g.n
        for layer in layers:
            for j, v in enumerate(layer):
                local[v] = j
        eps = dp.eccentricity
        self.lrows = [None] * (eps + 1)
        self.frows = [None] * (eps + 1)
        dist, adj = dp.dist.tolist(), neighbours(g)
        for i in range(eps + 1):
            self.frows[i] = tuple(
                tuple(local[u] for u in adj[v] if dist[u] == i) for v in layers[i]
            )
            if i >= 1:
                self.lrows[i] = tuple(
                    tuple(local[u] for u in adj[z] if dist[u] == i) for z in layers[i - 1]
                )

    @property
    def eccentricity(self):
        return self.dp.eccentricity

    def _dense(self, rows, width):
        blk = np.zeros((len(rows), width), dtype=np.int64)
        for z, nbrs in enumerate(rows):
            blk[z, list(nbrs)] = 1
        return blk

    def l_block(self, i):
        """Dense int64 block of L from layer i to layer i-1."""
        return self._dense(self.lrows[i], len(self.dp.layers[i]))

    def f_block(self, i):
        """Dense int64 block of F on layer i."""
        return self._dense(self.frows[i], len(self.dp.layers[i]))


_FLOAT_SAFE = 2**52


def imatmul(a, b):
    """Exact product of small-entry integer matrices through float BLAS,
    guarded after the fact."""
    c = a.astype(np.float64) @ b.astype(np.float64)
    if np.abs(c).max(initial=0.0) >= _FLOAT_SAFE:
        raise ExactnessError("a float product left the range of exact integers")
    return np.rint(c).astype(np.int64)


def layer_operator_blocks(split, i):
    """Blocks of RL^2, LRL, L^2R, L restricted to (layer i-1, layer i), from
    the dense int64 blocks of a ``TupleSplit``."""
    eps = split.eccentricity
    L_i = split.l_block(i)
    Y = imatmul(imatmul(L_i, L_i.T), L_i)
    if i >= 2:
        L_prev = split.l_block(i - 1)
        X = imatmul(L_prev.T, imatmul(L_prev, L_i))
    else:
        X = np.zeros_like(L_i)
    if i <= eps - 1:
        L_next = split.l_block(i + 1)
        Z = imatmul(L_i, imatmul(L_next, L_next.T))
    else:
        Z = np.zeros_like(L_i)
    return X, Y, Z, L_i


def layer_gram_rows(split, i):
    """The nonzero rows of the Gram matrix of the rows (X, Z, W, Y) of the
    layer-i blocks of a ``TupleSplit``, summed in Python ints: the
    reference for ``uniform.layer_gram``."""
    X, Y, Z, W = layer_operator_blocks(split, i)
    M = np.stack([X.ravel(), Z.ravel(), W.ravel(), Y.ravel()]).astype(object)
    return [tuple(row) for row in (M @ M.T).tolist() if any(row)]


def distinct_rows(columns):
    """The distinct nonzero rows of the integer matrix with these columns, in
    lexicographic order: the zero rows dropped, the rest ordered by
    ``np.lexsort`` and each row kept that differs from the one before."""
    nonzero = columns[0] != 0
    for col in columns[1:]:
        nonzero |= col != 0
    keys = [col[nonzero] for col in columns]
    order = np.lexsort(keys[::-1])
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for j, key in enumerate(keys):
        keys[j] = key = key[order]
        first[1:] |= key[1:] != key[:-1]
    return np.stack([key[first] for key in keys], axis=1)


def layer_rows(split, i):
    """The distinct nonzero rows (X, Z, W, Y) of the layer-i blocks of a
    ``TupleSplit``, each one equation e_i^- X + e_i^+ Z - f_i W + Y = 0."""
    X, Y, Z, W = layer_operator_blocks(split, i)
    return distinct_rows([X.ravel(), Z.ravel(), W.ravel(), Y.ravel()]).tolist()


def block_part(split, gen, i):
    """The rows of ``LFRSplit``'s sparse block at layer i that form ``gen``
    acting on layer i, as a sparse int64 matrix."""
    blk, _, parts = split._block(i)
    return blk[parts[gen]]


def split_dense(split):
    """Full (L, F, R) of an ``LFRSplit`` as dense int64 n x n matrices,
    assembled from the parts of its per-layer sparse blocks."""
    n = split.g.n
    layers = [list(layer) for layer in split.dp.layers]
    L, F, R = (np.zeros((n, n), dtype=np.int64) for _ in range(3))
    for i, layer in enumerate(layers):
        F[np.ix_(layer, layer)] = block_part(split, "F", i).toarray()
        if i >= 1:
            L[np.ix_(layers[i - 1], layer)] = block_part(split, "L", i).toarray()
        if i + 1 < len(layers):
            R[np.ix_(layers[i + 1], layer)] = block_part(split, "R", i).toarray()
    return L, F, R


def express_action_matrices(split, algebra, slices):
    """Generator actions on an invariant graded subspace from the dense
    L, F, R of ``split_dense``: each image of each slice row is written in
    its target slice by ``fraction_express``.  ``{gen: {src: (dst, mat)}}``,
    column b of mat holding the image of row b; a layer whose images all
    vanish has no block, and an image outside the subspace fails."""
    layers = [list(layer) for layer in split.dp.layers]
    moves = dict(zip("LFR", zip(split_dense(split), (-1, 0, 1))))
    actions = {}
    for gen in ("L", "F", "R") if algebra == "T" else ("L", "R"):
        full, step = moves[gen]
        actions[gen] = {}
        for src, rows in sorted(slices.items()):
            dst = src + step
            if not 0 <= dst < len(layers):
                continue
            block = full[np.ix_(layers[dst], layers[src])].astype(object)
            images = [(block @ np.array(row, dtype=object)).tolist() for row in rows]
            if not any(map(any, images)):
                continue
            cols = [fraction_express(slices.get(dst, []), img) for img in images]
            assert None not in cols, f"{gen} maps layer {src} out of the subspace"
            actions[gen][src] = dst, [list(col) for col in zip(*cols)]
    return actions

def l_nonzeros(split):
    """Entries of L in an ``LFRSplit``'s blocks."""
    return sum(block_part(split, "L", i).nnz for i in range(1, split.eccentricity + 1))


def f_nonzeros(split):
    """Entries of F in an ``LFRSplit``'s blocks."""
    return sum(block_part(split, "F", i).nnz for i in range(split.eccentricity + 1))


def full_matrix(slices, block_mat):
    """The dim x dim block-diagonal matrix of a graded commutant element,
    its layer blocks in increasing layer order."""
    layers = sorted(slices)
    total = sum(len(slices[i]) for i in layers)
    out = [[Fraction(0)] * total for _ in range(total)]
    pos = 0
    for layer in layers:
        for a, row in enumerate(block_mat[layer]):
            out[pos + a][pos : pos + len(row)] = row
        pos += len(slices[layer])
    return out


def module_coords_to_slices(slices, vectors):
    """Graded sub-bases from module-coordinate vectors: each layer's part of
    a vector combines that layer's slice rows as Fractions, and the result,
    cleared of denominators, goes into a fresh echelon basis per layer."""
    layers = sorted(slices)
    out = {}
    for vec in vectors:
        pos = 0
        for layer in layers:
            rows = slices[layer]
            part = vec[pos : pos + len(rows)]
            pos += len(rows)
            if any(part):
                ambient = [sum(c * row[k] for c, row in zip(part, rows)) for k in range(len(rows[0]))]
                den = lcm(*(x.denominator for x in ambient))
                out.setdefault(layer, IntRowBasis()).add([int(x * den) for x in ambient])
    return {i: b.basis() for i, b in sorted(out.items())}


def _matrix_polynomial(coeffs, mat):
    """sum c_k M^k over the Fractions, by Horner's rule."""
    n = len(mat)
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(coeffs):
        out = [
            [sum(out[i][k] * mat[k][j] for k in range(n)) + (c if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    return out


def full_matrix_split(slices, cand):
    """The split of a graded subspace by a commutant element through its
    full matrix X: the minimal polynomial of X, and the pieces, one per
    rational root lam of multiplicity m (the kernel of (X - lam)^m) and one
    for the factor without roots, each kernel read back into layer slices;
    the pieces are None when the polynomial has a single factor."""
    full = full_matrix(slices, cand)
    minpoly = fraction_minimal_polynomial(full)
    roots, residual = int_poly_rational_roots(minpoly)
    factors = [
        [comb(m, k) * (-lam) ** (m - k) for k in range(m + 1)]
        for lam, m in sorted((lam, roots.count(lam)) for lam in set(roots))
    ]
    if len(residual) > 1:
        factors.append(residual)
    if len(factors) < 2:
        return minpoly, None
    return minpoly, [
        module_coords_to_slices(slices, fraction_nullspace(_matrix_polynomial(f, full), len(full)))
        for f in factors
    ]


def bigint_crt_prefixes(residues, primes):
    """For t = 1, 2, 4, ... and finally t = K: the integers in [0, P_t)
    with the residues residues[k] modulo primes[k] for every k < t, and
    P_t, the product of those primes.  Garner's mixed-radix digits are
    found once each, in int64, digit k from one product of the digits
    before it with their radices modulo primes[k]; each prefix extends the
    values of the one before by Horner over its new digits, in Python
    ints.  The former ``exactla._crt_prefixes``: every earlier radix is
    reduced as a Python int for each new prime."""
    digits = np.empty_like(residues)
    radices = [1]  # radices[k] = primes[0] ... primes[k - 1]
    values, t = [0] * residues.shape[1], 1
    while True:
        start = len(radices) - 1
        for k in range(start, t):
            p = primes[k]
            # the digits so far, as an integer mod p: k < 2^11 terms below 2^52
            acc = np.array([r % p for r in radices[:k]], dtype=np.int64) @ digits[:k] % p
            digits[k] = (residues[k] - acc) % p * pow(radices[k] % p, -1, p) % p
            radices.append(radices[k] * p)
        tail = digits[t - 1].tolist()
        for i in range(t - 2, start - 1, -1):
            tail = [v * primes[i] + d for v, d in zip(tail, digits[i].tolist())]
        values = [v + radices[start] * x for v, x in zip(values, tail)]
        yield values, radices[t]
        if t == len(primes):
            return
        t = min(2 * t, len(primes))
