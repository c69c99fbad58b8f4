"""Certification of (strongly) uniform structures.

For a base vertex x the layer equation

    e_i^- * RL^2 + LRL + e_i^+ * L^2R = f_i * L      on the i-th subconstituent

is turned into an exact linear system per layer by restricting every
operator to the blocks between consecutive layers: one equation per entry
of the blocks, which the 4x4 Gram matrix of their coefficients replaces
with the same solutions.  The per-layer affine
solution sets are then combined and searched for a point satisfying the
parameter-matrix conditions: unit diagonal, one nowhere-zero off-diagonal
family, and all tridiagonal principal minors nonsingular.  Everything is
decided in exact rational arithmetic.  While some layer has a free
parameter, a few seeded rational samples are tried first.  If none is
strongly uniform, or no parameter is free, each condition is tested for
vanishing on the whole solution product at the finitely many corners
that decide it, and unless that rules every structure out, the first
passing point of an integer grid bounded by the number of conditions is
taken; a unique solution is its own only corner and grid point.  A
structure is checked against the Gram rows each layer's solution set
holds, without forming them again.

A base enters all of this only through its layers' Gram rows, and the
bases of one graph mostly share them.  So each graph keeps a memo for as
long as it lives: every distinct layer system is solved once, and every
distinct set of layer solutions is searched and checked once.  So a
certificate is a function of the graph and the base.  Each base still
forms its own rows; nothing is shared between graphs, even equal ones.
"""

import itertools
import random
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

import numpy as np

from .config import SAMPLING_ROUNDS, SAMPLING_SEED
from .errors import DecompositionUnavailable, ExactnessError
from .exactla import IntRowBasis, solve_affine
from .graph_core import bfs_layers
from .terwilliger import lfr_split

_FLOAT_EXACT = 2**53  # float64 holds every integer up to it

# Graph -> {(build, *args): build(*args)}.  No result refers to its graph,
# so the entries go when the graph does.
_MEMO = weakref.WeakKeyDictionary()


def _once_per_graph(g, build, *args):
    """``build(*args)``, computed once for ``g`` and kept in its memo: the
    key is every argument, so no input of ``build`` can be left out."""
    memo = _MEMO.setdefault(g, {})
    key = (build, *args)
    result = memo.get(key)
    if result is None:
        result = memo[key] = build(*args)
    return result


def layer_gram(split, i):
    """The nonzero rows of the Gram matrix G = M^T M of layer i, as tuples
    of Python ints.

    M = [X Z W Y] has one row per entry of the blocks of RL^2, L^2R, L and
    LRL from layer i to layer i-1, and each row is one equation
    e_i^- X + e_i^+ Z - f_i W + Y = 0, that is M v = 0 for
    v = (e_i^-, e_i^+, -f_i, 1).  Over the rationals M v = 0 exactly when
    G v = 0, since v^T G v = |M v|^2, and G has the row space of M: its
    nonzero rows (at most four) are an equivalent system of the same form.

    Every entry of the blocks counts walks of length at most 3 between two
    vertices, so it is a nonnegative integer of at most k^2 for the largest
    degree k, as is every partial sum of the float64 block products.  G is
    summed in float64 over chunks of at most 2^53 / m^2 rows of M, m being
    M's largest entry, so every partial sum is exact, and the chunk sums
    are added as Python ints.  Raises ExactnessError when m^2 passes 2^53,
    which can first happen at degree k = 9,742.
    """
    eps = split.eccentricity
    L = split.l_block(i)
    # M held transposed: row a is column a of M, each product written into
    # it; rows X and Z stay zero where layer i has no RL^2 or L^2R block
    M = (np.empty if 2 <= i <= eps - 1 else np.zeros)((4, L.size))
    X, Z, W, Y = M.reshape(4, *L.shape)
    if i >= 2:
        P = split.l_block(i - 1)
        np.matmul(P.T, P @ L, out=X)
    if i <= eps - 1:
        np.matmul(L, split.l_gram(i + 1), out=Z)
    W[...] = L
    np.matmul(split.l_gram(i), L, out=Y)
    chunk = _FLOAT_EXACT // int(M.max()) ** 2
    if not chunk:
        raise ExactnessError(f"entries up to {int(M.max())} are too large for exact layer systems")
    # each chunk's G by four matrix-vector products, faster in BLAS than part @ part.T
    parts = (M[:, s : s + chunk] for s in range(0, M.shape[1], chunk))
    G = sum((part @ part[..., None]).reshape(4, 4).astype(np.int64).astype(object) for part in parts)
    return [tuple(row) for row in G.tolist() if any(row)]


@dataclass(frozen=True)
class LayerSolution:
    """Affine solution set for (e_i^-, e_i^+, f_i) at one layer.

    Coordinates pinned by convention (e_1^- and e_eps^+) are zero in both
    the particular point and every basis vector.  ``empty`` marks an
    inconsistent layer; ``system`` keeps the nonzero rows (X, Z, W, Y) of
    the layer's Gram matrix (``layer_gram``), each the equation
    e^- X + e^+ Z - f W + Y = 0, as the witness.
    """

    layer: int
    empty: bool
    particular: tuple
    basis: tuple
    system: tuple

    def __hash__(self):
        # with eps, which the certificate memo's key holds, the rows determine the rest
        return hash((self.layer, self.system))

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, point):
        """Exact membership of (e_minus, e_plus, f) in the affine set."""
        if self.empty:
            return False
        delta = [Fraction(p) - q for p, q in zip(point, self.particular)]
        if not self.basis:
            return all(d == 0 for d in delta)
        rows = [[h[j] for h in self.basis] for j in range(3)]
        return solve_affine(rows, delta) is not None


def solve_layer(split, i):
    """Exact affine solution set of the layer equation on E*_i V.

    The solution is a function of the eccentricity, i and the layer's Gram
    rows alone, so ``layer_gram`` is formed at every call and the system
    it gives is solved once per graph: a later base of ``split.g`` with the
    same (eps, i, rows) gets the same ``LayerSolution`` back, for as long
    as the graph lives.
    """
    eps = split.eccentricity
    if not 1 <= i <= eps:
        raise ValueError(f"layer {i} out of range 1..{eps}")
    return _once_per_graph(split.g, _solve_rows, eps, i, tuple(layer_gram(split, i)))


def _solve_rows(eps, i, rows):
    """The ``LayerSolution`` of layer i's Gram rows, eps being the
    eccentricity."""
    active = []
    if i >= 2:
        active.append(0)  # e_minus
    if i <= eps - 1:
        active.append(1)  # e_plus
    active.append(2)  # f
    system = [[(x, z, -w)[a] for a in active] for x, z, w, _ in rows]
    rhs = [-y for *_, y in rows]
    sol = solve_affine(system, rhs)
    if sol is None:
        return LayerSolution(layer=i, empty=True, particular=(), basis=(), system=rows)
    part, hom = sol

    def embed(vec):
        full = [Fraction(0)] * 3
        for a, v in zip(active, vec):
            full[a] = v
        return tuple(full)

    return LayerSolution(
        layer=i,
        empty=False,
        particular=embed(part),
        basis=tuple(embed(h) for h in hom),
        system=rows,
    )


@dataclass(frozen=True)
class ParameterMatrix:
    """Tridiagonal matrix with unit diagonal; e_minus[i] is entry (i, i-1)
    for 2 <= i <= eps, e_plus[i] is entry (i, i+1) for 1 <= i <= eps-1."""

    epsilon: int
    e_minus: tuple  # length eps-1, indices 2..eps
    e_plus: tuple  # length eps-1, indices 1..eps-1

    def e_minus_at(self, i):
        if 2 <= i <= self.epsilon:
            return self.e_minus[i - 2]
        return Fraction(0)

    def e_plus_at(self, i):
        if 1 <= i <= self.epsilon - 1:
            return self.e_plus[i - 1]
        return Fraction(0)

    def dense(self):
        U = [
            [Fraction(0)] * self.epsilon for _ in range(self.epsilon)
        ]
        for i in range(1, self.epsilon + 1):
            U[i - 1][i - 1] = Fraction(1)
            if i >= 2:
                U[i - 1][i - 2] = self.e_minus_at(i)
            if i <= self.epsilon - 1:
                U[i - 1][i] = self.e_plus_at(i)
        return U


@dataclass(frozen=True)
class UniformStructure:
    U: ParameterMatrix
    f: tuple  # f_1 .. f_eps

    @property
    def epsilon(self):
        return self.U.epsilon


def principal_determinant(U, s, t):
    """det of the principal submatrix (rows/cols s..t) via the three-term
    recurrence det(U_{s,t}) = det(U_{s+1,t}) - e_s^+ e_{s+1}^- det(U_{s+2,t})."""
    if not 1 <= s <= t <= U.epsilon:
        raise ValueError("need 1 <= s <= t <= epsilon")
    d_after = Fraction(1)  # det(U_{t+1,t}), empty matrix
    d = Fraction(1)  # det(U_{t,t})
    for j in range(t - 1, s - 1, -1):
        d, d_after = d - U.e_plus_at(j) * U.e_minus_at(j + 1) * d_after, d
    return d


def check_parameter_conditions(U):
    """Evaluate the off-diagonal family condition and all principal minors.

    Returns a dict {ok, family_minus, family_plus, violations} where
    violations lists the singular (s, t) pairs.
    """
    eps = U.epsilon
    family_minus = all(U.e_minus_at(i) != 0 for i in range(2, eps + 1))
    family_plus = all(U.e_plus_at(i) != 0 for i in range(1, eps))
    violations = []
    for s in range(1, eps + 1):
        for t in range(s, eps + 1):
            if principal_determinant(U, s, t) == 0:
                violations.append((s, t))
    return {
        "ok": (family_minus or family_plus) and not violations,
        "family_minus": family_minus,
        "family_plus": family_plus,
        "violations": tuple(violations),
    }


def verify_given(us, systems):
    """Exact check that ``us`` satisfies the layer equation on every
    subconstituent, read from the Gram rows the layers hold.

    ``systems`` holds layer i's rows (X, Z, W, Y) at index i - 1, as
    ``LayerSolution.system`` keeps them; each must satisfy
    e_i^- X + e_i^+ Z - f_i W + Y = 0.  The check multiplies through by the
    common denominator of (e_i^-, e_i^+, f_i) and runs in integers."""
    if us.epsilon != len(systems):
        return False
    for i, rows in enumerate(systems, 1):
        coeffs = [Fraction(v) for v in (us.U.e_minus_at(i), us.U.e_plus_at(i), us.f[i - 1])]
        d = lcm(*(c.denominator for c in coeffs))
        a, b, c = (v.numerator * (d // v.denominator) for v in coeffs)
        if any(a * x + b * z - c * w + d * y for x, z, w, y in rows):
            return False
    return True


@dataclass(frozen=True)
class UniformCertificate:
    verdict: str  # StronglyUniform | Uniform | NoUniform
    epsilon: int
    layers: tuple  # LayerSolutions
    structure: object  # UniformStructure or None
    failure: dict  # None unless verdict == NoUniform
    checks: dict  # None unless a structure was chosen


def structure_at(layers, values):
    """The structure at one point of the product of the layer solution sets.

    ``layers`` are the solution sets of layers 1..eps in order; ``values``
    holds one coordinate per basis vector, layer by layer.
    """
    eps = len(layers)
    values = iter(values)
    e_minus, e_plus, f = [], [], []
    for sol in layers:
        coords = list(sol.particular)
        for h in sol.basis:
            tval = next(values)
            coords = [c + tval * hv for c, hv in zip(coords, h)]
        i = sol.layer
        if i >= 2:
            e_minus.append(coords[0])
        if i <= eps - 1:
            e_plus.append(coords[1])
        f.append(coords[2])
    U = ParameterMatrix(epsilon=eps, e_minus=tuple(e_minus), e_plus=tuple(e_plus))
    return UniformStructure(U=U, f=tuple(f))


def vanishing_conditions(layers):
    """The parameter conditions that vanish on the whole solution product.

    Every e-entry is affine in the parameters of its own layer, and no term
    of a principal minor's three-term expansion holds two entries of one
    layer, so every condition is affine in each layer's parameters
    separately.  Such a function vanishes identically exactly when it
    vanishes at every corner: the point that takes, in each layer, the
    particular solution or the particular solution plus one basis vector.
    A basis vector that moves only f changes no condition, so its corner
    is skipped: the conditions there are those at the particular point.

    Returns (singular, zero_minus, zero_plus): the sets of principal minors
    (s, t) and of indices i of e_i^- and e_i^+ that are zero at every corner.
    """
    eps = len(layers)
    singular = {(s, t) for s in range(1, eps + 1) for t in range(s, eps + 1)}
    zero_minus = set(range(2, eps + 1))
    zero_plus = set(range(1, eps))
    picks = [[0] + [k for k, h in enumerate(sol.basis, 1) if h[0] or h[1]] for sol in layers]
    for corner in itertools.product(*picks):
        values = [
            int(k == pick)
            for sol, pick in zip(layers, corner)
            for k in range(1, sol.dim + 1)
        ]
        U = structure_at(layers, values).U
        singular &= set(check_parameter_conditions(U)["violations"])
        zero_minus = {i for i in zero_minus if U.e_minus_at(i) == 0}
        zero_plus = {i for i in zero_plus if U.e_plus_at(i) == 0}
        if not (singular or zero_minus or zero_plus):
            break
    return singular, zero_minus, zero_plus


def select_structure(layers):
    """Choose a point of the product of the layer solution sets that passes
    the parameter conditions, strongly uniform whenever one is.

    ``SAMPLING_ROUNDS`` seeded samples are tried only while some layer has
    a free parameter; the corner test and the grid decide every other case,
    a unique solution included.  Returns (structure, report, None), the
    report being the structure's check_parameter_conditions, or
    (None, None, failure) when no point passes.
    """
    # seeded sampling with exact verification, while a parameter is free
    nvars = sum(sol.dim for sol in layers)
    rng = random.Random(SAMPLING_SEED)
    for round_no in range(SAMPLING_ROUNDS if nvars else 0):
        span = 3 + 2 * round_no
        values = [
            Fraction(rng.randint(-span, span), rng.randint(1, span))
            for _ in range(nvars)
        ]
        us = structure_at(layers, values)
        report = check_parameter_conditions(us.U)
        if report["ok"] and report["family_minus"] and report["family_plus"]:
            return us, report, None

    singular, zero_minus, zero_plus = vanishing_conditions(layers)
    if singular or (zero_minus and zero_plus):
        if singular:
            s, t = min(singular)
            detail = (
                f"principal submatrix ({s},{t}) is singular for every "
                "solution of the layer equations"
            )
        else:
            detail = (
                "both off-diagonal families contain an identically zero entry "
                "over the solution set"
            )
        return None, None, {"layer": None, "kind": "parameter_conditions", "detail": detail}
    us = grid_point(layers, zero_minus, zero_plus)
    return us, check_parameter_conditions(us.U), None


def grid_point(layers, zero_minus, zero_plus):
    """The first point of {0..F}^k, in itertools.product order, that passes
    the parameter conditions, and is strongly uniform when ``zero_minus``
    and ``zero_plus`` (the identically zero e-entries) are both empty.

    F is the number of conditions and k the number of free parameters;
    with k = 0 the grid is the unique solution alone.
    When no minor and not both families vanish identically, the product of
    the conditions such a point must pass is nonzero with degree at most F
    in each parameter, so it has a non-root in the grid (Alon,
    Combinatorial Nullstellensatz, 1999, Lemma 2.1).  The parameters are
    fixed in order, each to the least value that leaves no required
    condition vanishing on the parameters still free, as the corner test
    decides: at most (F+1)k corner tests, where walking the grid could
    take (F+1)^k points.
    """
    eps = len(layers)
    bound = eps * (eps + 1) // 2 + 2 * (eps - 1)

    def alive(trial):
        singular, minus, plus = vanishing_conditions(trial)
        return not singular and (zero_minus or not minus) and (zero_plus or not plus)

    for at in range(eps):
        while layers[at].dim:
            sol = layers[at]
            for value in range(bound + 1):
                point = tuple(c + value * h for c, h in zip(sol.particular, sol.basis[0]))
                fixed = replace(sol, particular=point, basis=sol.basis[1:])
                trial = layers[:at] + (fixed,) + layers[at + 1 :]
                if alive(trial):
                    layers = trial
                    break
            else:
                raise ExactnessError(f"no point of the grid {{0..{bound}}}^k passes the conditions")
    return structure_at(layers, [])


def certify_uniform(g, x=0, config=None):
    """Decide whether ``g`` supports a uniform structure with respect to x.

    Same-layer edges never enter the blocks, so the split of the original
    graph already carries the lowering/raising pair of the flattened
    graph; bipartite inputs are certified directly.

    Every layer is solved by ``solve_layer``, which reuses the solutions
    of ``g``'s other bases.  Past the first empty layer nothing is solved.
    With every layer solved, the certificate depends only on the solutions,
    and it is built once per (eps, layers) for as long as ``g`` lives:
    later bases with the same key get the same ``UniformCertificate``
    back, with no structure search or check run again.  ``config`` is
    never read; it stays while ``bench/workloads.py`` passes one.
    """
    dp = bfs_layers(g, x)
    split = lfr_split(g, dp)
    eps = dp.eccentricity
    layers = []
    for i in range(1, eps + 1):
        sol = solve_layer(split, i)
        if sol.empty:
            return UniformCertificate(
                verdict="NoUniform",
                epsilon=eps,
                layers=tuple(layers) + (sol,),
                structure=None,
                failure={
                    "layer": i,
                    "kind": "inconsistent_layer_system",
                    "detail": "no (e-, e+, f) satisfies the layer equation",
                },
                checks=None,
            )
        layers.append(sol)
    return _once_per_graph(g, _certify_layers, eps, tuple(layers))


def _certify_layers(eps, layers):
    """The certificate for the solution sets of all eps layers."""
    us, report, failure = select_structure(layers)
    if us is None:
        return UniformCertificate(
            verdict="NoUniform",
            epsilon=eps,
            layers=layers,
            structure=None,
            failure=failure,
            checks=None,
        )
    checks = {
        "verify_given": verify_given(us, [sol.system for sol in layers]),
        "def_ii": report["family_minus"] or report["family_plus"],
        "def_iii": not report["violations"],
    }
    if not all(checks.values()):
        raise ExactnessError(f"a structure found by the search fails its checks: {checks}")
    return UniformCertificate(
        verdict="StronglyUniform" if report["family_minus"] and report["family_plus"] else "Uniform",
        epsilon=eps,
        layers=layers,
        structure=us,
        failure=None,
        checks=checks,
    )


def non_thin_diagnostic(modules):
    """Look for an endpoint-1 module whose second slice has dimension >= 2.

    ``modules`` is a decomposition produced by the module machinery, and
    the split every module carries (``mod.split``) supplies the operators;
    for every endpoint-1 module the vectors R w and L R^2 w (w spanning the
    first slice) are also compared for linear independence, mirroring the
    obstruction computation.  Returns a witness dict or None.
    """
    if not modules:
        raise DecompositionUnavailable("no module decomposition supplied")
    split = modules[0].split
    witness = None
    reports = []
    for mod in modules:
        if mod.endpoint != 1:
            continue
        dims = mod.slice_dims()
        dim2 = dims.get(2, 0)
        w = mod.slice_basis(1)[0]
        rw = split.apply_R(1, w)
        if split.eccentricity >= 3:
            lr2w = split.apply_L(3, split.apply_R(2, rw))
        else:
            lr2w = [0] * len(rw)
        basis = IntRowBasis()
        independent = basis.add(rw) is not None and basis.add(lr2w) is not None
        report = {
            "module_dim": mod.dim,
            "slice_dims": dims,
            "rw_lr2w_independent": independent,
        }
        reports.append(report)
        if dim2 >= 2 and witness is None:
            witness = {"module": mod, "report": report}
    if witness is None:
        return None
    witness["all_endpoint1_reports"] = reports
    return witness
