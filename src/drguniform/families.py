"""Constructors for the distance-regular graph families under study.

Every constructor numbers its vertices by the lexicographic order of the
natural canonical labels (words, subsets, matrices, echelon bases), so the
output is reproducible bit for bit.  Budgets are enforced before any
enumeration starts.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ExactnessError, InvalidParams, ParseError
from .fields import FiniteField, hermitian_inner
from .graph_core import Graph, check_budget
from .terwilliger import cartesian_product


@dataclass(frozen=True)
class FamilySpec:
    tag: str
    params: tuple

    def as_dict(self):
        return {"family": self.tag, "params": list(self.params)}


def _johnson_edges(n, D):
    """Edges of J(n, D) on the D-subsets numbered in lexicographic order.

    A neighbour swaps one element a of the subset for an element b > a
    outside it, so every edge is listed once, from its smaller side.
    """
    masks = [sum(1 << e for e in s) for s in combinations(range(n), D)]
    index = {m: i for i, m in enumerate(masks)}
    return [
        (i, index[m ^ (1 << a) ^ (1 << b)])
        for i, m in enumerate(masks)
        for a in range(n)
        if m >> a & 1
        for b in range(a + 1, n)
        if not m >> b & 1
    ]


def hamming(D, n, budget=None):
    """Words of length D over an n-letter alphabet, adjacent at Hamming
    distance one.  A word's index is its value in base n."""
    if D < 1 or n < 2:
        raise InvalidParams("hamming needs D >= 1 and n >= 2")
    check_budget(n**D, budget)
    words = np.arange(n**D)
    edges = []
    for place in n ** np.arange(D):
        digit = words // place % n
        for step in range(1, n):
            lower = words[digit + step < n]
            edges.append(np.column_stack((lower, lower + step * place)))
    return Graph(n**D, np.concatenate(edges))


def johnson(n, D, budget=None):
    """D-subsets of an n-set, adjacent when the intersection has size D-1."""
    if D < 1 or n < 2 * D:
        raise InvalidParams("johnson needs n >= 2D >= 2")
    count = 1
    for t in range(D):
        count = count * (n - t) // (t + 1)
    check_budget(count, budget)
    return Graph(count, _johnson_edges(n, D))


def halved_cube(n, budget=None):
    """Even-weight binary words of length n, adjacent at Hamming distance 2.

    Word i in lexicographic order is (i << 1) | parity(i): its first n - 1
    bits are i, and the last one makes the weight even.
    """
    if n < 4:
        raise InvalidParams("halved_cube needs n >= 4")
    check_budget(2 ** (n - 1), budget)
    index = np.arange(2 ** (n - 1))
    words = index << 1 | np.bitwise_count(index) & 1
    flips = [1 << p | 1 << q for p, q in combinations(range(n), 2)]
    other = (words[:, None] ^ np.array(flips)) >> 1
    u, v = np.broadcast_arrays(index[:, None], other)
    upper = u < v
    return Graph(len(index), np.column_stack((u[upper], v[upper])))


def shrikhande():
    """Cayley graph on Z4 x Z4 with connection set {±(1,0), ±(0,1), ±(1,1)}."""
    a, b = np.divmod(np.arange(16), 4)
    steps = [(4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4) for da, db in ((1, 0), (0, 1), (1, 1))]
    return Graph(16, np.concatenate([np.column_stack(step) for step in steps]))


def doob(n, m, budget=None):
    """Cartesian product of n Shrikhande graphs and m copies of K4."""
    if n < 1 or m < 0:
        raise InvalidParams("doob needs n >= 1 and m >= 0")
    check_budget(16**n * 4**m, budget)
    g = shrikhande()
    for _ in range(n - 1):
        g = cartesian_product(g, shrikhande(), budget=budget)
    k4 = hamming(1, 4)
    for _ in range(m):
        g = cartesian_product(g, k4, budget=budget)
    return g


def gosset():
    """Two copies of the pairs from an 8-set; within a copy pairs meeting in
    one point are adjacent, across copies disjoint pairs are adjacent."""
    pairs = list(combinations(range(8), 2))
    index = {p: i for i, p in enumerate(pairs)}
    half = len(pairs)
    edges = [(i + side, j + side) for i, j in _johnson_edges(8, 2) for side in (0, half)]
    for i, p in enumerate(pairs):
        outside = [x for x in range(8) if x not in p]
        edges.extend((i, half + index[q]) for q in combinations(outside, 2))
    return Graph(2 * half, edges)


def _isotropic_points(field, dim):
    """The projective points of GF(r^2)^dim (first nonzero coordinate 1)
    with zero norm, as rows of an array in lexicographic order, and their
    orthogonality matrix."""
    vecs = np.indices((field.order,) * dim).reshape(dim, -1).T
    lead = vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]
    points = vecs[(lead == 1) & (hermitian_inner(field, vecs, vecs) == 0)]
    orth = hermitian_inner(field, points[:, None, :], points[None, :, :]) == 0
    return points, orth


def dual_polar_generator_bases(r, D, budget=None):
    """The maximal totally isotropic D-subspaces of the Hermitian form
    sum x_i conj(y_i) on GF(r^2)^(2D), in lexicographic order of their
    reduced-echelon bases.

    Returns (points, rows, masks): the isotropic points as in
    _isotropic_points, the point index of each basis row (one row of
    ``rows`` per subspace) and the subspaces' point sets as a boolean
    subspace x point matrix.
    """
    if D < 2:
        raise InvalidParams("dual_polar_2a needs D >= 2")
    expected = 1
    for i in range(1, D + 1):
        expected *= r ** (2 * i - 1) + 1
    check_budget(expected, budget)
    points, orth = _isotropic_points(FiniteField(r, 2), 2 * D)
    pivot = (points != 0).argmax(axis=1)
    at_pivot = points[:, pivot]  # [i, j] = coordinate of point i at the pivot of point j
    # Point j may follow row i when the two are orthogonal, j's pivot lies
    # further right, and each is zero at the other's pivot.  Every path of
    # D rows is then a reduced-echelon basis, so each subspace is reached
    # exactly once; points are in lexicographic order, so the leaves are too.
    follows = orth & (pivot[None, :] > pivot[:, None]) & (at_pivot == 0) & (at_pivot.T == 0)
    step = [
        int.from_bytes(row.tobytes(), "little")
        for row in np.packbits(follows, axis=1, bitorder="little")
    ]
    leaves = []

    def dfs(prefix, cand):
        if len(prefix) == D:
            leaves.append(prefix)
            return
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            idx = low.bit_length() - 1
            dfs(prefix + (idx,), cand & step[idx])

    dfs((), (1 << len(points)) - 1)
    if len(leaves) != expected:
        raise ExactnessError(f"found {len(leaves)} maximal isotropic subspaces, not {expected}")
    rows = np.array(leaves, dtype=np.intp)
    # a maximal totally isotropic M equals its own perp, so its points are
    # the isotropic points orthogonal to every row of its basis
    masks = orth[rows[:, 0]]
    for j in range(1, D):
        masks &= orth[rows[:, j]]
    return points, rows, masks


def dual_polar_2a(r, D, budget=None):
    """Dual polar graph of the Hermitian form sum x_i conj(y_i) on GF(r^2)^(2D).

    Vertices are the maximal totally isotropic D-subspaces, numbered by the
    lexicographic order of their reduced-echelon bases; two are adjacent
    when their intersection has dimension D-1.
    """
    _, rows, masks = dual_polar_generator_bases(r, D, budget=budget)
    incidence = masks.astype(np.float32)
    common = incidence @ incidence.T  # shared points, exact in float32 below 2**24
    meet = (r ** (2 * (D - 1)) - 1) // (r**2 - 1)  # points of a (D-1)-subspace
    u, v = np.nonzero(np.triu(common == meet, 1))
    return Graph(len(rows), np.column_stack((u, v)))


def hermitian_forms(r, D, budget=None):
    """D x D Hermitian matrices over GF(r^2), adjacent when the difference
    has rank one.

    A matrix is its free entries (i <= j, row-major), read as the digits
    of a mixed-radix number: radix r on the diagonal, which lies in GF(r),
    and r^2 off it.  Each entry below the diagonal is the conjugate of an
    earlier free one, so that number is the matrix's index in lexicographic
    order.  Rank-one Hermitian matrices are exactly lambda * v v^* with
    lambda in GF(r)^* and v a projective point, and the neighbour of a
    matrix across one of them is the sum, digit by digit.
    """
    if D < 2:
        raise InvalidParams("hermitian_forms needs D >= 2")
    check_budget(r ** (D * D), budget)
    field = FiniteField(r, 2)
    mul, conj, add = (np.array(t) for t in (field.mul, field.conj, field.add))
    rows, cols = np.triu_indices(D)
    radix = np.where(rows == cols, r, r * r)
    weights = np.cumprod(np.append(radix[1:], 1)[::-1])[::-1]
    index = np.arange(r ** (D * D))
    digits = index[:, None] // weights % radix
    vecs = np.indices((field.order,) * D).reshape(D, -1).T
    points = vecs[vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)] == 1]
    outer = mul[points[:, rows], conj[points[:, cols]]]  # v v^*, free entries
    edges = []
    for lam in field.prime_subfield()[1:]:
        for delta in mul[lam, outer]:
            other = add[digits, delta] @ weights
            upper = index < other
            edges.append(np.column_stack((index[upper], other[upper])))
    return Graph(len(index), np.concatenate(edges))


# tag -> (constructor, names of its parameters); constructors with
# parameters also take the vertex budget
_CONSTRUCTORS = {
    "hamming": (hamming, ("D", "n")),
    "johnson": (johnson, ("n", "D")),
    "halved_cube": (halved_cube, ("n",)),
    "shrikhande": (shrikhande, ()),
    "doob": (doob, ("n", "m")),
    "gosset": (gosset, ()),
    "dual_polar_2a": (dual_polar_2a, ("r", "D")),
    "hermitian_forms": (hermitian_forms, ("r", "D")),
}
FAMILY_TAGS = tuple(_CONSTRUCTORS)


def build_family(spec, budget=None):
    """Construct a graph from a FamilySpec.  A wrong number of parameters
    is malformed input (ParseError)."""
    if spec.tag not in _CONSTRUCTORS:
        raise InvalidParams(f"unknown family tag {spec.tag!r}")
    make, names = _CONSTRUCTORS[spec.tag]
    if len(spec.params) != len(names):
        raise ParseError(
            f"family {spec.tag} takes {len(names)} parameters ({' '.join(names) or 'none'}),"
            f" got {len(spec.params)}"
        )
    return make(*spec.params, budget=budget) if names else make()
