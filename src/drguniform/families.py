"""Constructors for the distance-regular graph families under study.

Every constructor numbers its vertices by the lexicographic order of the
natural canonical labels (words, subsets, matrices, echelon bases), so the
output is reproducible bit for bit.  Budgets are enforced before any
enumeration starts.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .config import DEFAULT
from .errors import BudgetExceeded, ExactnessError, InvalidParams, ParseError
from .fields import FiniteField, hermitian_inner, rref_gf, vec_add, vec_scale
from .graph_core import Graph


@dataclass(frozen=True)
class FamilySpec:
    tag: str
    params: tuple

    def as_dict(self):
        return {"family": self.tag, "params": list(self.params)}


def _check_budget(count, budget):
    budget = DEFAULT.vertex_budget if budget is None else budget
    if count > budget:
        raise BudgetExceeded(f"{count} vertices exceed the budget of {budget}")


def _graph_from_labels(labels, adjacent):
    labels = sorted(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    edges = []
    for i, u in enumerate(labels):
        for j in range(i + 1, len(labels)):
            if adjacent(u, labels[j]):
                edges.append((i, index[labels[j]]))
    return Graph(len(labels), edges)


def hamming(D, n, budget=None):
    """Words of length D over an n-letter alphabet, adjacent at Hamming
    distance one."""
    if D < 1 or n < 2:
        raise InvalidParams("hamming needs D >= 1 and n >= 2")
    _check_budget(n**D, budget)
    words = sorted(product(range(n), repeat=D))
    index = {w: i for i, w in enumerate(words)}
    edges = []
    for w in words:
        i = index[w]
        for pos in range(D):
            for letter in range(w[pos] + 1, n):
                v = w[:pos] + (letter,) + w[pos + 1 :]
                edges.append((i, index[v]))
    return Graph(len(words), edges)


def johnson(n, D, budget=None):
    """D-subsets of an n-set, adjacent when the intersection has size D-1."""
    if D < 1 or n < 2 * D:
        raise InvalidParams("johnson needs n >= 2D >= 2")
    count = 1
    for t in range(D):
        count = count * (n - t) // (t + 1)
    _check_budget(count, budget)
    return _graph_from_labels(
        combinations(range(n), D),
        lambda u, v: len(set(u) & set(v)) == D - 1,
    )


def halved_cube(n, budget=None):
    """Even-weight binary words of length n, adjacent at Hamming distance 2."""
    if n < 4:
        raise InvalidParams("halved_cube needs n >= 4")
    _check_budget(2 ** (n - 1), budget)
    words = sorted(w for w in product((0, 1), repeat=n) if sum(w) % 2 == 0)
    index = {w: i for i, w in enumerate(words)}
    edges = []
    for w in words:
        i = index[w]
        for p, q in combinations(range(n), 2):
            v = list(w)
            v[p] ^= 1
            v[q] ^= 1
            v = tuple(v)
            if v > w:
                edges.append((i, index[v]))
    return Graph(len(words), edges)


def shrikhande():
    """Cayley graph on Z4 x Z4 with connection set {±(1,0), ±(0,1), ±(1,1)}."""
    conn = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = set()
    for a, b in product(range(4), repeat=2):
        i = 4 * a + b
        for da, db in conn:
            j = 4 * ((a + da) % 4) + (b + db) % 4
            edges.add((min(i, j), max(i, j)))
    return Graph(16, sorted(edges))


def doob(n, m, budget=None):
    """Cartesian product of n Shrikhande graphs and m copies of K4."""
    if n < 1 or m < 0:
        raise InvalidParams("doob needs n >= 1 and m >= 0")
    _check_budget(16**n * 4**m, budget)
    from .terwilliger import cartesian_product

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
    labels = [(side, pair) for side in (0, 1) for pair in combinations(range(8), 2)]

    def adjacent(u, v):
        (s1, p1), (s2, p2) = u, v
        shared = len(set(p1) & set(p2))
        return shared == 1 if s1 == s2 else shared == 0

    return _graph_from_labels(labels, adjacent)


def _normalized_isotropic_points(field, dim, form_inner):
    """All projective points (first nonzero coordinate 1) with zero norm."""
    points = []
    for vec in product(field.elements(), repeat=dim):
        lead = next((x for x in vec if x), None)
        if lead != 1:
            continue
        if form_inner(vec, vec) == 0:
            points.append(vec)
    return points


def dual_polar_generator_bases(r, D, budget=None):
    """Reduced-echelon bases of all maximal totally isotropic D-subspaces
    of the Hermitian form sum x_i conj(y_i) on GF(r^2)^(2D), sorted."""
    if D < 2:
        raise InvalidParams("dual_polar_2a needs D >= 2")
    expected = 1
    for i in range(1, D + 1):
        expected *= r ** (2 * i - 1) + 1
    _check_budget(expected, budget)
    field = FiniteField(r, 2)
    dim = 2 * D

    def inner(u, v):
        return hermitian_inner(field, u, v)

    points = _normalized_isotropic_points(field, dim, inner)
    npts = len(points)
    pivot = [next(i for i, x in enumerate(p) if x) for p in points]

    orth = [0] * npts
    for i in range(npts):
        for j in range(i, npts):
            if inner(points[i], points[j]) == 0:
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
    full_mask = (1 << npts) - 1

    subspaces = set()

    def dfs(rows, cand):
        if len(rows) == D:
            reduced, _ = rref_gf(field, rows)
            subspaces.add(tuple(reduced))
            return
        mask = cand
        while mask:
            low = mask & -mask
            idx = low.bit_length() - 1
            mask ^= low
            w = points[idx]
            dfs(rows + [w], cand & orth[idx] & zero_at[pivot[idx]] & pivot_after[pivot[idx]])

    dfs([], full_mask)
    if len(subspaces) != expected:
        raise ExactnessError(f"found {len(subspaces)} maximal isotropic subspaces, not {expected}")
    return field, points, sorted(subspaces)


def dual_polar_2a(r, D, budget=None):
    """Dual polar graph of the Hermitian form sum x_i conj(y_i) on GF(r^2)^(2D).

    Vertices are the maximal totally isotropic D-subspaces, numbered by the
    lexicographic order of their reduced-echelon bases; two are adjacent
    when their intersection has dimension D-1.
    """
    field, points, bases = dual_polar_generator_bases(r, D, budget=budget)
    dim = 2 * D

    point_index = {p: i for i, p in enumerate(points)}
    masks = []
    for rows in bases:
        mask = 0
        for coeffs in product(field.elements(), repeat=D):
            vec = (0,) * dim
            for c, row in zip(coeffs, rows):
                if c:
                    vec = vec_add(field, vec, vec_scale(field, c, row))
            lead = next((x for x in vec if x), None)
            if lead is None:
                continue
            if lead != 1:
                vec = vec_scale(field, field.inv[lead], vec)
            mask |= 1 << point_index[vec]
        masks.append(mask)

    meet = (r ** (2 * (D - 1)) - 1) // (r**2 - 1)  # points of a (D-1)-subspace
    edges = []
    for i in range(len(bases)):
        mi = masks[i]
        for j in range(i + 1, len(bases)):
            if (mi & masks[j]).bit_count() == meet:
                edges.append((i, j))
    return Graph(len(bases), edges)


def hermitian_forms(r, D, budget=None):
    """D x D Hermitian matrices over GF(r^2), adjacent when the difference
    has rank one.

    Rank-one Hermitian matrices are exactly lambda * v v^* with lambda in
    GF(r)^* and v a projective point, which gives the neighbor list
    directly.
    """
    if D < 2:
        raise InvalidParams("hermitian_forms needs D >= 2")
    _check_budget(r ** (D * D), budget)
    field = FiniteField(r, 2)
    subfield = [x for x in field.prime_subfield() if x]
    mul, conj, add = field.mul, field.conj, field.add

    diag_positions = [(i, i) for i in range(D)]
    upper_positions = [(i, j) for i in range(D) for j in range(i + 1, D)]

    def matrices():
        fixed = field.prime_subfield()
        for diag in product(fixed, repeat=D):
            for upper in product(field.elements(), repeat=len(upper_positions)):
                mat = [[0] * D for _ in range(D)]
                for (i, _), x in zip(diag_positions, diag):
                    mat[i][i] = x
                for (i, j), x in zip(upper_positions, upper):
                    mat[i][j] = x
                    mat[j][i] = conj[x]
                yield tuple(tuple(row) for row in mat)

    labels = sorted(matrices())
    if len(labels) != r ** (D * D):
        raise ExactnessError(f"{len(labels)} Hermitian matrices, not {r ** (D * D)}")
    index = {m: i for i, m in enumerate(labels)}

    rank_one = []
    for v in product(field.elements(), repeat=D):
        lead = next((x for x in v if x), None)
        if lead != 1:
            continue
        base = [[mul[v[i]][conj[v[j]]] for j in range(D)] for i in range(D)]
        for lam in subfield:
            rank_one.append(
                tuple(tuple(mul[lam][x] for x in row) for row in base)
            )

    edges = set()
    for mat in labels:
        i = index[mat]
        for delta in rank_one:
            other = tuple(
                tuple(add[x][y] for x, y in zip(rm, rd)) for rm, rd in zip(mat, delta)
            )
            j = index[other]
            if i < j:
                edges.add((i, j))
    return Graph(len(labels), sorted(edges))


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
