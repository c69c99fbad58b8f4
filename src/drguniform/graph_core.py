"""Graphs, distance partitions, and exact distance-regular graph invariants.

A graph on the vertices 0..n-1 is its adjacency matrix in CSR form, built
from and read out as integer arrays of edges.  All spectral quantities
(eigenvalues, multiplicities, idempotent coefficients, Krein parameters) are
computed with exact rational arithmetic.  They are defined when the
characteristic polynomial of the intersection matrix splits over Q, which
covers every family constructed in this package (graphs with classical
parameters have integral eigenvalues).  Otherwise the spectrum keeps its
rational eigenvalues and the integer factor with no rational root, and
everything derived from the eigenmatrix raises IrrationalSpectrum.
"""

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import product
from math import lcm

import numpy as np
from scipy.sparse import csr_matrix

from . import exactla
from .config import DEFAULT
from .errors import (
    BudgetExceeded,
    DisconnectedGraph,
    ExactnessError,
    InvalidParams,
    IrrationalSpectrum,
    NegativeKrein,
    NotDistanceRegular,
    ParseError,
)


def check_budget(count, budget=None):
    """Raise BudgetExceeded when a graph of ``count`` vertices exceeds the
    vertex budget (the default configuration's when ``budget`` is None)."""
    budget = DEFAULT.vertex_budget if budget is None else budget
    if count > budget:
        raise BudgetExceeded(f"{count} vertices exceed the budget of {budget}")


def _first_bad_edge(n, edges, u, v, bad):
    """The ParseError for the first edge that is out of range, a self-loop
    or a repeat of an earlier edge; ``u`` and ``v`` are the endpoints,
    clipped to [-1, n], and ``bad`` marks the first two kinds."""
    lo, hi = np.minimum(u, v) + 1, np.maximum(u, v) + 1
    repeat = np.ones(len(u), dtype=bool)
    repeat[np.unique(lo * (n + 2) + hi, return_index=True)[1]] = False
    a, b = map(int, edges[int(np.argmax(bad | repeat))])
    if not (0 <= a < n and 0 <= b < n):
        return ParseError(f"vertex out of range in edge ({a}, {b})")
    if a == b:
        return ParseError(f"self-loop at vertex {a}")
    return ParseError(f"duplicate edge {(min(a, b), max(a, b))}")


class Graph:
    """Finite simple undirected graph on the vertices 0..n-1, stored as
    its adjacency matrix in CSR form.

    ``edges`` is an (m, 2) integer array or an iterable of pairs.
    Instances are treated as immutable after construction; the distance
    matrix and layer counts are cached lazily, and nothing else is kept.
    """

    __slots__ = ("n", "m", "_csr", "_dist", "_counts", "__weakref__")

    def __init__(self, n, edges):
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            uv = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            # clip to -1 or n, so that any endpoint fits in int64 and every
            # check below keeps its verdict
            uv = np.clip(np.array(edges, dtype=object), -1, n).astype(np.int64).reshape(-1, 2)
        u, v = uv.T
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
        key = np.sort(np.concatenate([u * n + v, v * n + u]))  # both directions
        if bad.any() or (key[1:] == key[:-1]).any():
            raise _first_bad_edge(n, edges, u, v, bad)
        # the sorted keys are the CSR's rows as they stand; the data type is
        # the smallest unsigned one that holds the largest degree, so a
        # product with a 0/1 matrix counts neighbours exactly in that type
        indptr = np.searchsorted(key, np.arange(n + 1) * n)
        data = np.ones(len(key), dtype=np.min_scalar_type(np.diff(indptr).max(initial=0)))
        self._csr = csr_matrix((data, key % n, indptr), shape=(n, n))
        self.n = n
        self.m = len(uv)
        self._dist = None
        self._counts = None

    def edges(self):
        """The (m, 2) int64 array of edges (u, v), u < v, in lexicographic
        order."""
        S = self._csr
        u = np.repeat(np.arange(self.n), np.diff(S.indptr))
        upper = u < S.indices
        return np.column_stack((u[upper], S.indices[upper].astype(np.int64)))

    def sparse(self):
        """The adjacency matrix in CSR form."""
        return self._csr

    def distance_matrix(self):
        """All-pairs distances as an int16 array; raises on disconnection.

        The matrix comes from ``_sweep``, which also checks the counts the
        intersection array needs from D-1 products; both are cached.  A
        sweep whose n x n arrays would pass _MEMORY_BYTES raises
        BudgetExceeded before any of them is allocated.
        """
        if self._dist is None:
            self._dist, self._counts = _sweep(self._csr)
        return self._dist

    def layer_counts(self):
        """What the sweep behind ``distance_matrix`` found: the counts
        (b_{t-1}, a_t, c_{t+1}) in row 0 of M_t for each t up to the first
        at which M_t differs from what they predict, and the witness of
        that difference as NotDistanceRegular's arguments, or None when no
        t has one.  Only M_1 .. M_{D-1} are formed: the triple at t = 0
        is (0, 0, 1), and the one at t = D follows from the degree and the
        triples below it."""
        self.distance_matrix()
        return self._counts


_CHECK = 1 << 16  # entries of M_t compared at once, so the temporaries stay small
_MEMORY_BYTES = 1 << 32  # the most the sweep's, or the dense L blocks', arrays may take together


def check_memory(need, what):
    """Raise BudgetExceeded when ``what`` needs more than _MEMORY_BYTES
    bytes; called before any of them is allocated."""
    if need > _MEMORY_BYTES:
        raise BudgetExceeded(f"{what} needs {need} bytes, over the limit of {_MEMORY_BYTES}")


def _sweep(S):
    """All-pairs int16 distances of the graph with CSR ``S``, and the
    counts of its intersection array, from D-1 products.

    A breadth-first search from every vertex at once: column x of the 0/1
    layer F_t marks the vertices at distance t from x, and M_t = S F_t
    holds in entry (y, x) the number of neighbours of y at distance t from
    x; its nonzero entries not yet reached are F_{t+1}.  A pair's distance
    is the number of t at which it is not yet reached, so while M_t is in
    hand the distances are min(d, t + 1), and F_{t-1} is where they equal
    t - 1.  M_t is zero at every distance but t-1, t and t+1, so b_{t-1},
    a_t and c_{t+1} are the same for every pair exactly when
    M_t = b_{t-1} F_{t-1} + a_t F_t + c_{t+1} F_{t+1}, with the counts read
    in row 0; ``_witness`` checks that one count at a time.  The counts
    are returned as (the triples up to the first t where the check fails,
    the witness it found in that M_t or None).

    Only M_1 .. M_{D-1} are formed.  M_0 = S is F_1 itself, with the
    triple (0, 0, 1).  Once every pair is reached, M_D holds nothing new:
    M_1's diagonal made every degree k, so with the counts checked below D,
    b_{D-1} = k - a_{D-1} - c_{D-1} and a_D = k - c_D on every pair, and
    that triple is appended when no product failed.

    The arrays held at once are the int16 distances, the bool ``unseen``,
    the uint8 layers F_t and F_{t+1}, the product M_t and, when M_t's
    type is wider than uint8, the copy of F_t in that type that the
    product reads; when together they would pass _MEMORY_BYTES,
    BudgetExceeded is raised first.
    """
    n = S.shape[0]
    item = np.result_type(S.dtype, np.uint8).itemsize
    need = n * n * (5 + item + (item if item > 1 else 0))
    check_memory(need, f"the distance sweep of {n} vertices")
    cur, nxt = S.astype(np.uint8).toarray(), np.empty((n, n), dtype=np.uint8)
    unseen = cur == 0
    np.fill_diagonal(unseen, False)
    dist = np.add(unseen, cur, dtype=np.int16)  # min(d, 1)
    counts, witness, t = [(0, 0, 1)] if n > 1 else [], None, 1
    while unseen.any() and cur.any():
        dist += unseen
        M = S @ cur
        np.logical_and(M, unseen, out=nxt.view(bool))
        unseen ^= nxt.view(bool)
        if witness is None:
            # M_t in row 0 at the first vertex of each layer, or 0 when row 0
            # has none (then the eccentricities differ, which is reported first)
            bac = [M[0, f.argmax()] * f.max() for f in (dist[0] == t - 1, cur[0], nxt[0])]
            counts.append(tuple(map(int, bac)))
            witness = _witness(M, dist, cur, nxt, t, bac)
        cur, nxt = nxt, cur
        t += 1
        del M  # before the next product is formed
    if unseen.any():
        raise DisconnectedGraph("graph is not connected")
    if witness is None:  # M_D's triple, from k, c_{D-1} at t = D-2 and a_{D-1}, c_D at t = D-1
        k, low = int(S.indptr[1]), [(0, 0, 0)] * 2 + counts
        counts.append((k - low[-2][2] - low[-1][1], k - low[-1][2], 0))
    return dist, (tuple(counts), witness)


def _witness(M, dist, cur, nxt, t, bac):
    """The first pair (x, y) at distance i = t-1, t or t+1, in that order
    and row-major within each, whose count in M_t differs from row 0's
    ``bac``, as NotDistanceRegular's arguments (x, y, i, kind, expected,
    got), or None.  The pairs at distance t-1 are where dist = min(d, t+1)
    is t-1, those at t and t+1 are F_t and F_{t+1}.  A block of rows is
    compared at a time, in M_t's unsigned type."""
    n = len(M)
    step = max(1, _CHECK // n)
    for kind, i, expected, layer, mark in zip("bac", (t - 1, t, t + 1), bac, (dist, cur, nxt), (t - 1, 1, 1)):
        for r in range(0, n, step):
            rows = slice(r, r + step)
            off = (layer[rows] == mark) & (M[rows] != expected)
            if off.any():
                y, x = divmod(r * n + int(off.argmax()), n)
                return x, y, i, kind, int(expected), int(M[y, x])
    return None


def read_edge_list(text, budget=None):
    """Parse the repo edge-list format: ``n m`` then m lines ``u v``.

    The tokens go to int64 in one numpy conversion, which accepts exactly
    the tokens ``int`` accepts.  Only when that fails are they read again
    as Python ints: for the error message, or for numbers beyond int64.
    The vertex count in the header is held to the vertex budget, as the
    family constructors hold theirs, before anything of that size is
    allocated.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise ParseError("missing header line 'n m'")
    try:
        nums = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        try:
            nums = np.array([int(t) for t in tokens], dtype=object)
        except ValueError as exc:
            raise ParseError(f"non-integer token: {exc}") from exc
    n, m = int(nums[0]), int(nums[1])
    if n < 1:
        raise ParseError(f"a graph needs at least one vertex, not {n}")
    check_budget(n, budget)
    if m < 0:
        raise ParseError(f"a graph needs a nonnegative edge count, not {m}")
    if len(nums) != 2 + 2 * m:
        raise ParseError(f"expected {2 * m} endpoints, found {len(nums) - 2}")
    edges = nums[2:].reshape(-1, 2)
    wrong = edges[:, 0] >= edges[:, 1]
    if wrong.any():
        u, v = map(int, edges[int(np.argmax(wrong))])
        raise ParseError(f"edge ({u}, {v}) must satisfy u < v")
    return Graph(n, edges)


def write_edge_list(g):
    """The edge-list text of ``g``: ``n m``, then its edges in
    lexicographic order, one ``u v`` line each."""
    return f"{g.n} {g.m}\n" + ("%d %d\n" * g.m) % tuple(g.edges().ravel().tolist())


@dataclass(frozen=True)
class DistancePartition:
    """Layers around a base vertex: dist[v], an int64 array, is v's distance."""

    base: int
    layers: tuple  # tuple of tuples of vertices, index = distance
    dist: np.ndarray = field(compare=False, repr=False)

    @property
    def eccentricity(self):
        return len(self.layers) - 1


def bfs_layers(g, x):
    """Distance partition of ``g`` around vertex ``x``: a breadth-first
    search in which one product of the adjacency matrix with the
    frontier's indicator finds the next layer.  Its distance array is
    handed over, read-only, as ``dist``."""
    if not 0 <= x < g.n:
        raise ValueError(f"base vertex {x} out of range")
    S = g.sparse()
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[x] = 0
    frontier = dist == 0
    layers = [(x,)]
    while True:
        frontier = (S @ frontier > 0) & (dist < 0)
        found = np.flatnonzero(frontier)
        if not found.size:
            break
        dist[found] = len(layers)
        layers.append(tuple(found.tolist()))
    if (dist < 0).any():
        raise DisconnectedGraph(f"vertex unreachable from {x}")
    dist.flags.writeable = False
    return DistancePartition(base=x, layers=tuple(layers), dist=dist)


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

    A graph is distance-regular exactly when, for every pair (x, y) at
    distance i, the number of neighbours of y at distances i-1, i, i+1 from
    x depends only on i.  The sweep behind ``g.distance_matrix()`` checked
    that on each of its products M_1 .. M_{D-1} (M_0 and M_D cannot fail
    where those pass) and kept the counts and the witness of the first
    failing product, so none is formed here.  The witness (x, y) of a
    failure is at distance i and has the count ``got``; ``expected`` is
    the count of the first pair at that distance.  Eccentricities are
    compared first.  Past that, row 0 meets every distance, and the
    witness is the first pair of the first failing product M_t, in
    row-major order, whose count b_{t-1}, a_t or c_{t+1} (in that order)
    differs from row 0's.
    """
    dist = g.distance_matrix()
    D = int(dist.max())
    if D == 0:
        raise InvalidParams("the graph has diameter 0, so it has no intersection array")
    ecc = dist.max(axis=1)
    if (ecc != D).any():
        x = int(np.argmin(ecc))
        y = int(np.argmax(dist[x]))
        raise NotDistanceRegular(x, y, int(ecc[x]), "eccentricity", D, int(ecc[x]))
    counts, witness = g.layer_counts()
    if witness is not None:
        raise NotDistanceRegular(*witness)
    b, a, c = zip(*counts)
    return IntersectionArray(c=c[:D], a=a, b=b[1:]).validate()


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


def classical_parameter_candidates(ia):
    """All (D, q, alpha, beta) with integer q reproducing ``ia`` exactly.

    The search solves alpha from c_2 and beta from b_0 for every integer
    q with |q| <= c_3 + 2 (a safe bound for desk-scale arrays) and keeps
    the candidates that verify every entry.
    """
    D = ia.D
    if D < 3:
        return []
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
    """The rational eigenvalues theta_0 > theta_1 > ... of the intersection
    matrix, with their multiplicities, and ``residual``: the integer
    coefficients, constant term first, of the factor of its characteristic
    polynomial that has no rational root, (1,) when there is none.

    Only a rational spectrum has an eigenmatrix; every entry is exact.
    """

    ia: IntersectionArray
    eigenvalues: tuple
    multiplicities: tuple
    residual: tuple

    @property
    def D(self):
        return self.ia.D

    @property
    def numeric(self):
        """True when some eigenvalue is irrational, that is when
        ``eigenvalues`` is not the whole spectrum."""
        return len(self.residual) > 1

    def eigenmatrix(self):
        """P[i][h] = eigenvalue of the h-th distance matrix on the i-th
        eigenspace; row 0 lists the layer sizes k_h."""
        if self.numeric:
            raise IrrationalSpectrum("the eigenmatrix needs a rational spectrum")
        return [
            _distance_polynomial_values(self.ia, th) for th in self.eigenvalues
        ]

    def idempotent_coefficients(self):
        """e[i][h] with E_i = sum_h e[i][h] A_h."""
        n = self.ia.n
        P = self.eigenmatrix()
        k = self.ia.layer_sizes()
        return [
            [Fraction(self.multiplicities[i], n) * P[i][h] / k[h] for h in range(self.D + 1)]
            for i in range(self.D + 1)
        ]

    @cached_property
    def idempotent_rows(self):
        """Row i is den_i e[i], the idempotent coefficients cleared of their
        denominators, so sum_h row[h] A_h = den_i E_i; one integer matrix
        (int64 where it fits), computed once per spectrum."""
        rows = [exactla.clear_denominators(e)[0] for e in self.idempotent_coefficients()]
        return exactla._int_array(rows, self.D + 1)


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
    """The rational eigenvalues of the intersection matrix, descending,
    with their multiplicities, and the factor of its characteristic
    polynomial that has no rational root; all exact.
    """
    D = ia.D
    roots, residual = exactla.int_poly_rational_roots(charpoly_tridiagonal(ia))
    eigs = tuple(sorted(roots, reverse=True))
    count = len(eigs) + len(residual) - 1  # the residual's roots are eigenvalues too
    if count != D + 1:
        raise ExactnessError(f"{count} eigenvalues for diameter {D}")
    n = ia.n
    mults = []
    for th in eigs:
        vals = _distance_polynomial_values(ia, th)
        m = n / sum(v * v / k for v, k in zip(vals, ia.layer_sizes()))
        if m.denominator != 1:
            raise InvalidParams(f"the array gives the non-integral multiplicity {m}")
        mults.append(int(m))
    if len(residual) == 1 and sum(mults) != n:
        raise ExactnessError(f"multiplicities sum to {sum(mults)}, not {n}")
    return SpectralData(
        ia=ia, eigenvalues=eigs, multiplicities=tuple(mults), residual=tuple(residual)
    )


@dataclass(frozen=True)
class KreinTensor:
    """q[h][i][j], exact Fractions."""

    q: tuple

    @property
    def D(self):
        return len(self.q) - 1


def krein_parameters(spec):
    """Krein parameters from the eigenmatrix, so only of a rational
    spectrum.

    q^l_{ij} = (m_i m_j / n) sum_h P[l][h] P[i][h] P[j][h] / k_h^2, with m
    the multiplicities and k_h the layer sizes.  With d the least common
    denominator of P's entries and K = lcm(k_h^2), the sum is S^l_{ij} /
    (K d^3) for the integer S^l_{ij} = sum_h (d P[l][h]) (K / k_h^2)
    (d P[i][h]) (d P[j][h]).  Every S is an entry of one exact product
    (``exactla.int_product``): d P diag(K / k_h^2) times the matrix whose
    column (i, j) holds the products (d P[i][h]) (d P[j][h]).  Each entry
    is then one Fraction over n K d^3.  Entries are checked nonnegative; a
    negative value can only come from an upstream bug, so it raises
    NegativeKrein.
    """
    n, D, m = spec.ia.n, spec.D, spec.multiplicities
    k = spec.ia.layer_sizes()
    flat, d = exactla.clear_denominators([x for row in spec.eigenmatrix() for x in row])
    dP = [flat[r : r + D + 1] for r in range(0, len(flat), D + 1)]
    K = lcm(*(kh * kh for kh in k))
    scaled = [[x * (K // (kh * kh)) for x, kh in zip(row, k)] for row in dP]
    pairs = [[x * y for x in col for y in col] for col in zip(*dP)]
    S = exactla.int_product(scaled, pairs).reshape(D + 1, D + 1, D + 1).tolist()
    den, r = n * K * d**3, range(D + 1)
    q = tuple(
        tuple(tuple(Fraction(m[i] * m[j] * S[l][i][j], den) for j in r) for i in r) for l in r
    )
    for l, i, j in product(r, r, r):
        if S[l][i][j] < 0:
            raise NegativeKrein(f"q^{l}_{{{i}{j}}} = {q[l][i][j]}")
    return KreinTensor(q=q)


def q_polynomial_orderings(kt):
    """All reorderings sigma of the nontrivial idempotents (index 0 fixed)
    under which the Krein tensor has the polynomial triangle pattern:
    q^{sigma h}_{sigma i, sigma j} is 0 where one of h, i, j exceeds the sum
    of the other two and nonzero where it equals it, in lexicographic order.

    sigma(1) fixes the rest: sigma(h+1) must be the one index k not yet
    placed with q^k_{sigma 1, sigma h} nonzero, since h + 1 = 1 + h asks
    that entry to be nonzero and every index placed later, at a position
    above h + 1, asks it to be zero.  So there are at most D candidates,
    one per sigma(1), and each is tested against the whole pattern."""
    D = kt.D
    nonzero = [[[x != 0 for x in row] for row in ql] for ql in kt.q]
    candidates = []
    for first in range(1, D + 1):
        sigma = [0, first]
        while len(sigma) <= D:
            nxt = [k for k in range(1, D + 1) if k not in sigma and nonzero[k][first][sigma[-1]]]
            if len(nxt) != 1:
                break
            sigma.append(nxt[0])
        else:
            candidates.append(tuple(sigma))
    return [s for s in candidates if _triangle_pattern(nonzero, s)]


def _triangle_pattern(nonzero, sigma):
    """True when the zero pattern ``nonzero`` of a Krein tensor, reordered
    by sigma, is the polynomial triangle pattern."""
    r = range(len(sigma))
    return all(
        nonzero[sigma[h]][sigma[i]][sigma[j]] == (2 * max(h, i, j) == h + i + j)
        for h, i, j in product(r, r, r)
        if 2 * max(h, i, j) >= h + i + j
    )


def near_polygon_check(g, ia):
    """True when a_i = a_1 c_i for i < D and no induced K_{1,1,2} exists;
    ``ia`` must be ``g``'s own intersection array, as the a_i test assumes.

    Every edge of a distance-regular graph has exactly a_1 common
    neighbours, and a K_{1,1,2} needs an edge with two nonadjacent ones, so
    when a_1 <= 1 there is none and ``k112_free`` is not run.
    """
    a1 = ia.a[1] if ia.D >= 1 else 0
    if any(ia.a[i] != a1 * ia.c_at(i) for i in range(1, ia.D)):
        return False
    return a1 <= 1 or k112_free(g)


_WEDGES = 1 << 16  # pairs of neighbours the K_{1,1,2} test examines at once


def k112_free(g):
    """True when ``g`` has no induced K_{1,1,2}.

    A K_{1,1,2} is an edge uv with two nonadjacent common neighbours, so
    there is none exactly when every local graph (the graph on the
    neighbours of a vertex u) is a disjoint union of cliques.  Label each
    neighbour v of u with the least vertex of its closed neighbourhood in
    the local graph.  That graph is a union of cliques exactly when the
    ends of each of its edges share a label, so that a label marks one
    component, and each vertex has one neighbour fewer than its label has
    members.  The neighbours of v in the local graph of u, the common
    neighbours of u and v, are the product of the rows of u and v, formed
    for a run of vertices u with at most _WEDGES pairs of neighbours (or
    for one vertex) at a time.
    """
    S, n = g.sparse(), g.n
    ptr, nbr = S.indptr.astype(np.int64), S.indices.astype(np.int64)
    deg = np.diff(ptr)
    src = np.repeat(np.arange(n), deg)
    key = src * n + nbr  # one per directed edge, sorted
    cost = np.concatenate([[0], np.cumsum(deg * deg)])
    lo = 0
    while lo < n:
        hi = max(int(np.searchsorted(cost, cost[lo] + _WEDGES, side="right")) - 1, lo + 1)
        a, b = ptr[lo], ptr[hi]
        # row e lists the common neighbours w of the directed edge (u, v) = e
        common = S[src[a:b]].multiply(S[nbr[a:b]]).tocsr()
        lam = np.diff(common.indptr)
        e = np.repeat(np.arange(b - a), lam)
        f = np.searchsorted(key, src[a + e] * n + common.indices) - a  # the edge (u, w)
        label = nbr[a:b].copy()
        some = lam > 0
        label[some] = np.minimum(label[some], common.indices[common.indptr[:-1][some]])
        if (label[e] != label[f]).any():
            return False
        _, cls, size = np.unique(src[a:b] * n + label, return_inverse=True, return_counts=True)
        if (size[cls] != lam + 1).any():
            return False
        lo = hi
    return True
