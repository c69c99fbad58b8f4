"""Graphs, distance partitions, and exact distance-regular graph invariants.

The graph type is a plain adjacency structure over vertices 0..n-1.  All
spectral quantities (eigenvalues, multiplicities, primitive idempotents,
Krein parameters) are computed with exact rational arithmetic whenever the
characteristic polynomial of the intersection matrix splits over Q, which
covers every family constructed in this package.  Irrational spectra fall
back to floating point and are flagged as numeric.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from . import exactla
from .errors import (
    DisconnectedGraph,
    IrrationalSpectrum,
    NegativeKrein,
    NotDistanceRegular,
    ParseError,
)


class Graph:
    """Finite simple undirected graph with sorted adjacency lists.

    Vertices are 0..n-1.  Instances are treated as immutable after
    construction; derived data (distance matrix, sparse adjacency) is
    cached lazily.
    """

    __slots__ = ("n", "adj", "m", "_dist", "_csr", "_adjsets")

    def __init__(self, n, edges):
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
        self.n = n
        self.adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self.m = len(seen)
        self._dist = None
        self._csr = None
        self._adjsets = None

    def degree(self, v):
        return len(self.adj[v])

    def adjacent(self, u, v):
        if self._adjsets is None:
            self._adjsets = tuple(frozenset(nbrs) for nbrs in self.adj)
        return v in self._adjsets[u]

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def sparse(self):
        if self._csr is None:
            rows = np.fromiter(
                (u for u in range(self.n) for _ in self.adj[u]), dtype=np.int64
            )
            cols = np.fromiter(
                (v for u in range(self.n) for v in self.adj[u]), dtype=np.int64
            )
            data = np.ones(len(rows), dtype=np.float64)
            self._csr = csr_matrix((data, (rows, cols)), shape=(self.n, self.n))
        return self._csr

    def distance_matrix(self):
        """All-pairs distances as an int16 array; raises on disconnection."""
        if self._dist is None:
            if self.n == 1:
                self._dist = np.zeros((1, 1), dtype=np.int16)
                return self._dist
            d = shortest_path(self.sparse(), method="D", unweighted=True)
            if np.isinf(d).any():
                raise DisconnectedGraph("graph is not connected")
            self._dist = d.astype(np.int16)
        return self._dist

    def is_connected(self):
        try:
            self.distance_matrix()
        except DisconnectedGraph:
            return False
        return True

    def diameter(self):
        return int(self.distance_matrix().max())

    def is_bipartite(self):
        color = [-1] * self.n
        color[0] = 0
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self.adj[u]:
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
        return True


def read_edge_list(text):
    """Parse the repo edge-list format: ``n m`` then m lines ``u v``."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ParseError("missing header line 'n m'")
    try:
        nums = [int(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"non-integer token: {exc}") from exc
    n, m = nums[0], nums[1]
    if len(nums) != 2 + 2 * m:
        raise ParseError(f"expected {2 * m} endpoints, found {len(nums) - 2}")
    edges = []
    for i in range(m):
        u, v = nums[2 + 2 * i], nums[3 + 2 * i]
        if not u < v:
            raise ParseError(f"edge ({u}, {v}) must satisfy u < v")
        edges.append((u, v))
    return Graph(n, edges)


def write_edge_list(g):
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DistancePartition:
    """Layers around a base vertex: layer_of[v] is the distance from base."""

    base: int
    layer_of: tuple
    layers: tuple  # tuple of tuples of vertices, index = distance

    @property
    def eccentricity(self):
        return len(self.layers) - 1


def bfs_layers(g, x):
    """Distance partition of ``g`` around vertex ``x``."""
    if not 0 <= x < g.n:
        raise ValueError(f"base vertex {x} out of range")
    dist = [-1] * g.n
    dist[x] = 0
    frontier = [x]
    layers = [[x]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adj[u]:
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        if nxt:
            layers.append(sorted(nxt))
        frontier = nxt
    if any(d == -1 for d in dist):
        raise DisconnectedGraph(f"vertex unreachable from {x}")
    return DistancePartition(
        base=x,
        layer_of=tuple(dist),
        layers=tuple(tuple(layer) for layer in layers),
    )


@dataclass(frozen=True)
class IntersectionArray:
    """The numbers c_i, a_i, b_i of a distance-regular graph."""

    c: tuple  # c_1 .. c_D
    a: tuple  # a_0 .. a_D
    b: tuple  # b_0 .. b_{D-1}

    @property
    def D(self):
        return len(self.c)

    @property
    def k(self):
        return self.b[0]

    def c_at(self, i):
        if i <= 0:
            return 0
        return self.c[i - 1] if i <= self.D else 0

    def a_at(self, i):
        return self.a[i] if 0 <= i <= self.D else 0

    def b_at(self, i):
        if i < 0:
            return 0
        return self.b[i] if i < self.D else 0

    def layer_sizes(self):
        """k_i = |Gamma_i(x)|, derived from k_i b_i = k_{i+1} c_{i+1}."""
        k = [1]
        for i in range(self.D):
            k.append(k[-1] * self.b[i] // self.c[i])
        return tuple(k)

    @property
    def n(self):
        return sum(self.layer_sizes())

    def is_bipartite(self):
        return all(ai == 0 for ai in self.a)

    def validate(self):
        D = self.D
        if len(self.a) != D + 1 or len(self.b) != D:
            raise ValueError("length mismatch in intersection array")
        if self.c[0] != 1:
            raise ValueError("c_1 must be 1")
        if any(ci < 1 for ci in self.c) or any(bi < 1 for bi in self.b):
            raise ValueError("c_i and b_i must be positive")
        if any(x > y for x, y in zip(self.c, self.c[1:])):
            raise ValueError("c_i must be nondecreasing")
        k = self.b[0]
        for i in range(D + 1):
            if self.c_at(i) + self.a_at(i) + self.b_at(i) != k:
                raise ValueError(f"c_{i}+a_{i}+b_{i} != k")
        for i, ki in enumerate(self.layer_sizes()):
            if i and ki * self.c[i - 1] != self.layer_sizes()[i - 1] * self.b[i - 1]:
                raise ValueError("layer size recurrence broken")
        return self


def intersection_array(g):
    """Compute (c, a, b) of ``g``, or raise NotDistanceRegular with a witness.

    A graph is distance-regular exactly when, for every ordered pair (x, y)
    at distance i, the number of neighbors of y at distances i-1, i, i+1
    from x depends only on i; those counts are checked for every pair.
    """
    dist = g.distance_matrix()
    n = g.n
    D = int(dist.max())
    if D == 0:
        raise NotDistanceRegular(0, 0, 0, "diameter", 1, 0)
    ecc = dist.max(axis=1)
    if (ecc != D).any():
        x = int(np.argmin(ecc))
        y = int(np.argmax(dist[int(np.argmax(ecc))]))
        raise NotDistanceRegular(x, y, int(ecc[x]), "eccentricity", D, int(ecc[x]))
    S = g.sparse()
    c = [None] * (D + 1)  # index by distance, c[0] stays 0
    a = [None] * (D + 1)
    b = [None] * (D + 1)
    c[0], b[D] = 0, 0
    for x in range(n):
        dx = dist[x]
        onehot = np.zeros((n, D + 3), dtype=np.float64)
        onehot[np.arange(n), dx + 1] = 1.0
        counts = S.T @ onehot  # counts[y, t+1] = #{z ~ y : d(x,z) = t}
        counts = counts.astype(np.int64)
        ys = np.arange(n)
        dxy = dx.astype(np.int64)
        cc = counts[ys, dxy]      # neighbors one layer closer
        aa = counts[ys, dxy + 1]  # same layer
        bb = counts[ys, dxy + 2]  # one layer farther
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
    ia = IntersectionArray(c=tuple(c[1:]), a=tuple(a), b=tuple(b[:D]))
    return ia.validate()


def gaussian_binomial(j, q):
    """[j 1]_q = 1 + q + ... + q^(j-1), with [0 1]_q = 0."""
    return sum(q**t for t in range(j))


@dataclass(frozen=True)
class ClassicalParameters:
    D: int
    q: int
    alpha: Fraction
    beta: Fraction

    def c_i(self, i):
        return gaussian_binomial(i, self.q) * (
            1 + self.alpha * gaussian_binomial(i - 1, self.q)
        )

    def b_i(self, i):
        return (gaussian_binomial(self.D, self.q) - gaussian_binomial(i, self.q)) * (
            self.beta - self.alpha * gaussian_binomial(i, self.q)
        )

    def intersection_array(self):
        c = tuple(self.c_i(i) for i in range(1, self.D + 1))
        b = tuple(self.b_i(i) for i in range(self.D))
        k = b[0]
        a = tuple(k - self.c_i(i) - self.b_i(i) for i in range(self.D + 1))
        if any(x.denominator != 1 for x in c) or any(x.denominator != 1 for x in b):
            raise ValueError("parameters do not give an integral array")
        return IntersectionArray(
            c=tuple(int(x) for x in c),
            a=tuple(int(x) for x in a),
            b=tuple(int(x) for x in b),
        )

    @property
    def negative_type(self):
        return self.q <= -2


def classical_parameter_candidates(ia, q_bound=None):
    """All (D, q, alpha, beta) with integer q reproducing ``ia`` exactly.

    The search solves alpha from c_2 and beta from b_0 for every integer
    q with |q| <= c_3 + 2 (a safe bound for desk-scale arrays) and keeps
    the candidates that verify every entry.
    """
    D = ia.D
    if D < 3:
        return []
    if q_bound is None:
        q_bound = ia.c[2] + 2
    found = []
    for q in range(-q_bound, q_bound + 1):
        if q in (0, -1):
            continue
        two = gaussian_binomial(2, q)
        full = gaussian_binomial(D, q)
        if two == 0 or full == 0:
            continue
        alpha = Fraction(ia.c[1], two) - 1
        beta = Fraction(ia.k, full)
        cand = ClassicalParameters(D=D, q=q, alpha=alpha, beta=beta)
        if all(cand.c_i(i) == ia.c[i - 1] for i in range(1, D + 1)) and all(
            cand.b_i(i) == ia.b[i] for i in range(D)
        ):
            found.append(cand)
    return found


def classical_parameters(ia):
    """First verified classical parameter tuple (smallest |q|, q > 0 first),
    or None when no integer q works."""
    cands = classical_parameter_candidates(ia)
    if not cands:
        return None
    return min(cands, key=lambda cp: (abs(cp.q), -cp.q))


def charpoly_tridiagonal(ia):
    """Integer coefficients [c0..c_{D+1}] of det(xI - B) via the three-term
    recurrence p_{k+1} = (x - a_k) p_k - b_{k-1} c_k p_{k-1}."""
    D = ia.D
    p_prev = [1]  # p_0
    p = [-ia.a_at(0), 1]  # p_1 = x - a_0
    for k in range(1, D + 1):
        ak = ia.a_at(k)
        w = ia.b_at(k - 1) * ia.c_at(k)
        nxt = [0] * (len(p) + 1)
        for idx, coef in enumerate(p):
            nxt[idx + 1] += coef
            nxt[idx] -= ak * coef
        for idx, coef in enumerate(p_prev):
            nxt[idx] -= w * coef
        p_prev, p = p, nxt
    return p


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues theta_0 > ... > theta_D with multiplicities.

    When ``numeric`` is False all entries are Fractions and the derived
    eigenmatrix / idempotent coefficients are exact.  ``idempotents`` is
    filled in by :func:`primitive_idempotents`.
    """

    ia: IntersectionArray
    eigenvalues: tuple
    multiplicities: tuple
    numeric: bool
    idempotents: tuple = field(default=None, compare=False)

    @property
    def D(self):
        return self.ia.D

    def eigenmatrix(self):
        """P[i][h] = eigenvalue of the h-th distance matrix on the i-th
        eigenspace; row 0 lists the layer sizes k_h."""
        return [
            _distance_polynomial_values(self.ia, th) for th in self.eigenvalues
        ]

    def idempotent_coefficients(self):
        """e[i][h] with E_i = sum_h e[i][h] A_h (exact path only)."""
        if self.numeric:
            raise IrrationalSpectrum("idempotent coefficients need a rational spectrum")
        n = self.ia.n
        P = self.eigenmatrix()
        k = self.ia.layer_sizes()
        return [
            [Fraction(self.multiplicities[i], n) * P[i][h] / k[h] for h in range(self.D + 1)]
            for i in range(self.D + 1)
        ]


def _distance_polynomial_values(ia, theta):
    """Values v_h(theta) of the distance polynomials, v_h(A) = A_h."""
    D = ia.D
    vals = [theta * 0 + 1, theta]
    for h in range(1, D):
        nxt = ((theta - ia.a_at(h)) * vals[h] - ia.b_at(h - 1) * vals[h - 1]) / ia.c_at(
            h + 1
        )
        vals.append(nxt)
    return vals


def spectrum(ia):
    """Eigenvalues of the intersection matrix, descending.

    Rational roots are extracted exactly from the characteristic
    polynomial; any residual factor is solved numerically and the result
    is flagged ``numeric``.
    """
    D = ia.D
    coeffs = charpoly_tridiagonal(ia)
    roots, residual = exactla.int_poly_rational_roots(coeffs)
    numeric = len(residual) > 1
    if numeric:
        extra = np.roots(residual[::-1])
        eigs = sorted(
            [float(r) for r in roots] + [float(np.real(r)) for r in extra],
            reverse=True,
        )
        eigs = tuple(eigs)
    else:
        eigs = tuple(sorted(roots, reverse=True))
    assert len(eigs) == D + 1
    n = ia.n
    mults = []
    for th in eigs:
        vals = _distance_polynomial_values(ia, th)
        denom = sum(v * v / k for v, k in zip(vals, ia.layer_sizes()))
        m = n / denom
        if not numeric:
            assert m.denominator == 1, "multiplicity must be a positive integer"
            m = int(m)
        else:
            m = float(m)
        mults.append(m)
    if not numeric:
        assert sum(mults) == n
    return SpectralData(
        ia=ia, eigenvalues=eigs, multiplicities=tuple(mults), numeric=numeric
    )


def idempotent_matrix(g, spec, i):
    """Materialize E_i as a dense matrix of Fractions."""
    coeffs = spec.idempotent_coefficients()[i]
    dist = g.distance_matrix()
    n = g.n
    return [[coeffs[int(dist[y, z])] for z in range(n)] for y in range(n)]


def primitive_idempotents(g, spec):
    """SpectralData enriched with the matrices E_i (exact spectrum only)."""
    if spec.numeric:
        raise IrrationalSpectrum("primitive idempotents need a rational spectrum")
    mats = tuple(idempotent_matrix(g, spec, i) for i in range(spec.D + 1))
    return SpectralData(
        ia=spec.ia,
        eigenvalues=spec.eigenvalues,
        multiplicities=spec.multiplicities,
        numeric=False,
        idempotents=mats,
    )


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
                assert val.denominator == 1
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


@dataclass(frozen=True)
class KreinTensor:
    """q[h][i][j], exact Fractions (or floats on the numeric path)."""

    q: tuple
    numeric: bool

    @property
    def D(self):
        return len(self.q) - 1


def krein_parameters(spec, tol=Fraction(1, 10**9)):
    """Krein parameters from the eigenmatrix.

    q^l_{ij} = n^{-1} sum_h Q[h][i] Q[h][j] P[l][h] with Q the dual
    eigenmatrix.  Entries are checked nonnegative; a negative value can
    only come from an upstream bug, so it raises NegativeKrein.
    """
    ia = spec.ia
    n = ia.n
    D = spec.D
    P = spec.eigenmatrix()
    k = ia.layer_sizes()
    m = spec.multiplicities
    Q = [[m[i] * P[i][h] / k[h] for i in range(D + 1)] for h in range(D + 1)]
    q = []
    for l in range(D + 1):
        ql = []
        for i in range(D + 1):
            row = []
            for j in range(D + 1):
                val = sum(Q[h][i] * Q[h][j] * P[l][h] for h in range(D + 1)) / n
                if spec.numeric:
                    if val < -float(tol):
                        raise NegativeKrein(f"q^{l}_{{{i}{j}}} = {val}")
                    row.append(float(val))
                else:
                    if val < 0:
                        raise NegativeKrein(f"q^{l}_{{{i}{j}}} = {val}")
                    row.append(val)
            ql.append(tuple(row))
        q.append(tuple(ql))
    return KreinTensor(q=tuple(q), numeric=spec.numeric)


def q_polynomial_orderings(kt, tol=Fraction(1, 10**9)):
    """All reorderings of the nontrivial idempotents (index 0 fixed) under
    which the Krein tensor has the polynomial triangle pattern."""
    D = kt.D

    def is_zero(v):
        if kt.numeric:
            return abs(v) <= float(tol)
        return v == 0

    orderings = []
    for perm in permutations(range(1, D + 1)):
        sigma = (0,) + perm
        ok = True
        for h in range(D + 1):
            for i in range(D + 1):
                for j in range(D + 1):
                    val = kt.q[sigma[h]][sigma[i]][sigma[j]]
                    if h > i + j or i > h + j or j > h + i:
                        if not is_zero(val):
                            ok = False
                            break
                    if h == i + j or i == h + j or j == h + i:
                        if is_zero(val):
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            orderings.append(sigma)
    return orderings


def near_polygon_check(g, ia):
    """True when a_i = a_1 c_i for i < D and no induced K_{1,1,2} exists.

    The K_{1,1,2} pattern is an edge uv with two nonadjacent common
    neighbors; every edge is scanned.
    """
    a1 = ia.a[1] if ia.D >= 1 else 0
    for i in range(1, ia.D):
        if ia.a[i] != a1 * ia.c_at(i):
            return False
    if g._adjsets is None:
        g.adjacent(0, 0)  # build adjacency sets
    sets = g._adjsets
    for u, v in g.edges():
        common = sorted(sets[u] & sets[v])
        for s in range(len(common)):
            for t in range(s + 1, len(common)):
                if common[t] not in sets[common[s]]:
                    return False
    return True
