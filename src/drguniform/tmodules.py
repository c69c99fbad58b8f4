"""Irreducible module machinery for the Terwilliger algebra of a graph.

The standard module is decomposed into irreducible T- or T_f-modules with
exact rational arithmetic.  Everything is layer-graded: module basis
vectors live inside single subconstituents, closures under the lowering,
flat, and raising actions stay graded, and commutants respect the grading
block by block.  The decomposition is deterministic: seeds are taken in
canonical vertex order and the splitting elements are drawn from the
commutant with a fixed seed.

Also here: the local-eigenvalue map, the tightness test, standard bases,
ladder scalars with the isomorphism ratio criterion, an endpoint-one
census, and the symbolic two-parameter ladder-grid verifier used for the
Doob family.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .config import DEFAULT
from .errors import ExactnessError, NotALadder, NotThin
from .exactla import (
    IntRowBasis,
    clear_denominators,
    fvec_to_ivec,
    int_poly_rational_roots,
    ivec_normalize,
    mat_mul,
    minimal_polynomial,
    nullspace,
    solve_affine,
)
from .exactla import express as _express  # the name bench/spans.py times
from .graph_core import bfs_layers
from .terwilliger import lfr_split

INFINITY = "infinity"  # marker for the local-eigenvalue map at z = -1


def theta_tilde(z, b1):
    """The map z -> -1 - b1/(1+z), with an infinity marker at z = -1."""
    if z == INFINITY:
        return Fraction(-1)
    z = Fraction(z)
    if z == -1:
        return INFINITY
    return -1 - Fraction(b1) / (1 + z)


def tightness(ia, theta1, thetaD):
    """Exact evaluation of the fundamental bound expression.

    Returns (is_tight, gap) where gap is the value of
    (theta_1 + b0/(a1+1)) (theta_D + b0/(a1+1)) + b0 a1 b1 / (a1+1)^2,
    which is zero exactly for tight graphs.
    """
    b0, a1, b1 = ia.b[0], ia.a[1], ia.b[1]
    shift = Fraction(b0, a1 + 1)
    gap = (Fraction(theta1) + shift) * (Fraction(thetaD) + shift) + Fraction(
        b0 * a1 * b1, (a1 + 1) ** 2
    )
    return gap == 0, gap


# ---------------------------------------------------------------------------
# decomposition


@dataclass
class ModuleDescriptor:
    """One irreducible module of the standard module, layer-graded.

    ``slices`` maps a layer index to a list of exact integer basis vectors
    in layer-local coordinates.  ``end_dim`` is the dimension of the
    commutant computed for the final irreducibility certificate (1 means
    certified irreducible over the rationals).
    """

    algebra: str  # "T" or "Tf"
    endpoint: int
    diameter: int
    thin: bool
    slices: dict
    split: object = field(repr=False)
    local_eigenvalue: object = None  # Fraction, or None when undefined
    end_dim: int = 1
    exact: bool = True
    dual_endpoint: object = None  # filled lazily

    @property
    def dim(self):
        return sum(len(v) for v in self.slices.values())

    def slice_dims(self):
        return {i: len(v) for i, v in sorted(self.slices.items())}

    def slice_basis(self, i):
        return self.slices.get(i, [])

    def layers(self):
        return sorted(self.slices)


def _generators(algebra):
    if algebra == "T":
        return ("L", "F", "R")
    if algebra == "Tf":
        return ("L", "R")
    raise ValueError("algebra must be 'T' or 'Tf'")


def _apply(split, gen, layer, vec):
    """Apply a generator to a layer-local vector; returns (new_layer, vec)."""
    if gen == "L":
        if layer == 0:
            return None
        return layer - 1, split.apply_L(layer, vec)
    if gen == "R":
        if layer == split.eccentricity:
            return None
        return layer + 1, split.apply_R(layer, vec)
    return layer, split.apply_F(layer, vec)


def _layer_word_apply(split, r, k, vec):
    """Apply the self-adjoint word L^k R^k to a layer-r vector."""
    cur = vec
    top = split.eccentricity
    for i in range(k):
        if r + i >= top:
            return [0] * len(vec)
        cur = split.apply_R(r + i, cur)
    for i in range(k, 0, -1):
        cur = split.apply_L(r + i, cur)
    return cur


def _refine_seed(split, r, seed):
    """Project a seed into an eigencomponent of L^k R^k inside its layer.

    The closure of a refined seed meets only the module classes sharing
    that eigenvalue, which keeps closures (and the splitting work on
    them) small.  Self-adjoint words are diagonalizable, so evaluating
    minpoly/(t - lambda) at the word maps the seed exactly into the
    lambda-eigenspace.  Irrational eigencomponents are left alone.
    """
    for k in (1, 2):
        krylov = [seed]
        basis = IntRowBasis(len(seed))
        basis.add(seed)
        while True:
            nxt = _layer_word_apply(split, r, k, krylov[-1])
            if basis.add(nxt) is None:
                break
            krylov.append(nxt)
        deg = len(krylov)
        if deg <= 1:
            continue
        # minpoly of the word W on the Krylov space, t^deg - sum c_i t^i
        # with nxt = W^deg seed = sum c_i W^i seed.  The Krylov vectors are
        # independent on the pivot columns of their echelon, so a deg x deg
        # system there fixes the c_i; the relation is then checked on every
        # coordinate.
        pivots = sorted(basis.rows)
        sol = solve_affine(
            [[v[p] for v in krylov] for p in pivots], [nxt[p] for p in pivots]
        )
        if sol is None:
            raise ExactnessError("Krylov vectors are dependent on their pivot columns")
        coeffs, _ = clear_denominators([-x for x in sol[0]] + [1])
        check = [0] * len(seed)
        for c, v in zip(coeffs, krylov + [nxt]):
            if c:
                check = [a + c * b for a, b in zip(check, v)]
        if any(check):
            raise ExactnessError("the Krylov relation fails off the pivot columns")
        roots, residual = int_poly_rational_roots(coeffs)
        distinct = sorted(set(roots))
        if len(distinct) + (1 if len(residual) > 1 else 0) < 2:
            continue
        lam = distinct[0]
        # divide the minimal polynomial by (t - lam) and evaluate at the
        # word on the seed, whose powers are the Krylov vectors; clearing
        # the quotient's denominators scales the result by a positive
        # factor, which the normalization removes
        quot = []
        acc = 0
        for c in reversed(coeffs):
            acc = acc * lam + c
            quot.append(acc)
        quot, _ = clear_denominators(quot[:-1][::-1])  # lowest degree first
        out = [0] * len(seed)
        for c, power in zip(quot, krylov):
            if c:
                out = [a + c * b for a, b in zip(out, power)]
        refined = ivec_normalize(out)
        if refined is not None:
            seed = refined
    return seed


def _closure(split, algebra, r, seed):
    """Span of the module generated by a layer-r vector, per-layer bases."""
    slices = {r: IntRowBasis(len(seed))}
    first = slices[r].add(seed)
    if first is None:
        raise ExactnessError("closure seeded with the zero vector")
    work = [(r, first)]
    gens = _generators(algebra)
    sizes = split.layer_sizes()
    while work:
        layer, vec = work.pop()
        for gen in gens:
            res = _apply(split, gen, layer, vec)
            if res is None:
                continue
            new_layer, img = res
            if all(x == 0 for x in img):
                continue
            if new_layer < r:
                raise ExactnessError("closure escaped below its endpoint")
            if new_layer not in slices:
                slices[new_layer] = IntRowBasis(sizes[new_layer])
            added = slices[new_layer].add(img)
            if added is not None:
                work.append((new_layer, added))
    return {i: basis.basis() for i, basis in slices.items()}


def _action_matrices(split, algebra, slices):
    """Generator actions in the module basis; columns index source vectors.

    Raises when a slice basis is not exactly invariant, which certifies
    invariance of every reported module as a side effect.
    """
    actions = {}
    layers = sorted(slices)
    for gen in _generators(algebra):
        blocks = {}
        for layer in layers:
            rows = slices[layer]
            res_layer = None
            cols = []
            for vec in rows:
                res = _apply(split, gen, layer, vec)
                if res is None:
                    cols.append(None)
                    continue
                new_layer, img = res
                if all(x == 0 for x in img):
                    cols.append([])
                    continue
                target_rows = slices.get(new_layer)
                if target_rows is None:
                    raise ExactnessError("module basis is not invariant")
                coeffs = _express(target_rows, img)
                if coeffs is None:
                    raise ExactnessError("module basis is not invariant")
                res_layer = new_layer
                cols.append(coeffs)
            if res_layer is None:
                continue
            d_to = len(slices[res_layer])
            mat = [[Fraction(0)] * len(rows) for _ in range(d_to)]
            for b, col in enumerate(cols):
                if col:
                    for a, c in enumerate(col):
                        mat[a][b] = c
            blocks[layer] = (res_layer, mat)
        actions[gen] = blocks
    return actions


def _commutant(slices, actions):
    """Basis of block-diagonal matrices commuting with every action block."""
    layers = sorted(slices)
    dims = {i: len(slices[i]) for i in layers}
    offset = {}
    total = 0
    for i in layers:
        offset[i] = total
        total += dims[i] ** 2

    def var(layer, a, b):
        return offset[layer] + a * dims[layer] + b

    rows = []
    for blocks in actions.values():
        for src, (dst, mat) in blocks.items():
            dsrc, ddst = dims[src], dims[dst]
            for a in range(ddst):
                for b in range(dsrc):
                    row = [Fraction(0)] * total
                    # (X_dst M - M X_src)[a, b] = 0
                    for t in range(ddst):
                        row[var(dst, a, t)] += mat[t][b]
                    for t in range(dsrc):
                        row[var(src, t, b)] -= mat[a][t]
                    if any(x != 0 for x in row):
                        rows.append(row)
    basis = nullspace(rows, total) if rows else nullspace([], total)
    mats = []
    for flat in basis:
        mats.append(
            {
                i: [
                    [flat[var(i, a, b)] for b in range(dims[i])]
                    for a in range(dims[i])
                ]
                for i in layers
            }
        )
    return mats


def _full_matrix(slices, block_mat):
    layers = sorted(slices)
    dims = [len(slices[i]) for i in layers]
    total = sum(dims)
    out = [[Fraction(0)] * total for _ in range(total)]
    pos = 0
    for layer, d in zip(layers, dims):
        blk = block_mat[layer]
        for a in range(d):
            for b in range(d):
                out[pos + a][pos + b] = blk[a][b]
        pos += d
    return out


def _module_coords_to_slices(slices, vectors):
    """Graded sub-bases from module-coordinate vectors (projection per layer)."""
    layers = sorted(slices)
    dims = [len(slices[i]) for i in layers]
    out = {}
    for vec in vectors:
        pos = 0
        for layer, d in zip(layers, dims):
            part = vec[pos : pos + d]
            pos += d
            if all(x == 0 for x in part):
                continue
            ambient = [Fraction(0)] * len(slices[layer][0])
            for c, row in zip(part, slices[layer]):
                if c:
                    ambient = [a + c * b for a, b in zip(ambient, row)]
            iv = fvec_to_ivec(ambient)
            if iv is None:
                continue
            out.setdefault(layer, IntRowBasis(len(iv))).add(iv)
    return {i: b.basis() for i, b in out.items()}


def _poly_eval_matrix(coeffs, mat):
    n = len(mat)
    out = [[Fraction(0)] * n for _ in range(n)]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in coeffs:
        if c:
            for i in range(n):
                for j in range(n):
                    out[i][j] += c * power[i][j]
        power = mat_mul(power, mat)
    return out


def _split_candidates(comm_basis, rng, rounds):
    """Deterministic stream of candidate splitting elements."""
    for mat in comm_basis:
        yield mat
    layers = sorted(comm_basis[0])
    for _ in range(rounds):
        combo = {}
        for layer in layers:
            d = len(comm_basis[0][layer])
            combo[layer] = [[Fraction(0)] * d for _ in range(d)]
        for mat in comm_basis:
            c = rng.randint(-5, 5)
            if c == 0:
                continue
            for layer in layers:
                d = len(mat[layer])
                for a in range(d):
                    for b in range(d):
                        combo[layer][a][b] += c * mat[layer][a][b]
        yield combo


def _split_irreducible(split, algebra, slices, rng):
    """Recursively split an invariant graded subspace into irreducibles.

    Returns (list_of_slices, certified) where certified reports whether
    every piece has a one-dimensional commutant.
    """
    actions = _action_matrices(split, algebra, slices)
    comm = _commutant(slices, actions)
    if len(comm) == 1:
        return [slices], True
    for cand in _split_candidates(comm, rng, rounds=40):
        full = _full_matrix(slices, cand)
        minpoly = minimal_polynomial(full)
        roots, residual = int_poly_rational_roots(minpoly)
        distinct = sorted(set(roots))
        n_components = len(distinct) + (1 if len(residual) > 1 else 0)
        if n_components < 2:
            continue
        pieces = []
        for lam in distinct:
            mult = roots.count(lam)
            # ker (X - lam)^mult
            shifted = [
                [full[i][j] - (lam if i == j else 0) for j in range(len(full))]
                for i in range(len(full))
            ]
            power = shifted
            for _ in range(mult - 1):
                power = mat_mul(power, shifted)
            kernel = nullspace(power, len(full))
            pieces.append(kernel)
        if len(residual) > 1:
            gx = _poly_eval_matrix([Fraction(c) for c in residual], full)
            kernel = nullspace(gx, len(full))
            if kernel:
                pieces.append(kernel)
        out = []
        certified = True
        for kernel in pieces:
            sub = _module_coords_to_slices(slices, kernel)
            subs, ok = _split_irreducible(split, algebra, sub, rng)
            out.extend(subs)
            certified = certified and ok
        return out, certified
    return [slices], False  # could not split over Q; flagged upstream


def _orthogonalize(slices, siblings):
    """Project a graded subspace off its sibling modules, layer by layer.

    Pieces split from one closure can fail to be pairwise orthogonal, but
    every closure is orthogonal to all previously found modules (its seed
    lives in their invariant orthocomplement), so only siblings from the
    same closure need projecting.  The projector onto a module commutes
    with the algebra, so the image is again a module of equal dimension.
    """
    out = {}
    for layer, rows in slices.items():
        sib_slices = [mod[layer] for mod in siblings if layer in mod]
        if not sib_slices:
            out[layer] = [list(r) for r in rows]
            continue
        basis = IntRowBasis(len(rows[0]))
        for vec in rows:
            proj = [Fraction(x) for x in vec]
            for sib in sib_slices:
                proj = _project_off(proj, sib)
            iv = fvec_to_ivec(proj)
            if iv is not None:
                basis.add(iv)
        out[layer] = basis.basis()
    return out


def _project_off(vec, rows):
    """vec minus its orthogonal projection onto span(rows), exact."""
    gram = [[Fraction(sum(a * b for a, b in zip(r1, r2))) for r2 in rows] for r1 in rows]
    rhs = [Fraction(sum(a * b for a, b in zip(r, vec))) for r in rows]
    sol = solve_affine(gram, rhs)
    if sol is None:
        raise ExactnessError("singular Gram matrix of a module slice")
    coeffs, _ = sol
    out = [Fraction(x) for x in vec]
    for c, r in zip(coeffs, rows):
        if c:
            out = [a - c * b for a, b in zip(out, r)]
    return out


def _orthogonal_seed(constraints, width):
    """One nonzero integer vector orthogonal to the span of an echelon row
    basis, or None when the rows already span the whole space.

    The free coordinate is the smallest non-pivot index (canonical vertex
    order); pivot coordinates are back-solved in descending order, which
    works because every stored row starts at its pivot.  The substitution
    is fraction-free: instead of dividing by a pivot the whole vector is
    rescaled, and the accumulated content is stripped periodically so the
    entries stay small.
    """
    pivots = sorted(constraints.rows)
    taken = set(pivots)
    free = next((c for c in range(width) if c not in taken), None)
    if free is None:
        return None
    v = [0] * width
    v[free] = 1
    for steps, p in enumerate(reversed(pivots), start=1):
        row = constraints.rows[p]
        acc = sum(row[j] * v[j] for j in range(p + 1, width) if v[j])
        if acc == 0:
            continue
        piv = row[p]
        g = gcd(acc, piv)
        scale = piv // g
        if scale != 1:
            v = [x * scale for x in v]
        v[p] = -(acc // g)
        if steps % 8 == 0:
            v = ivec_normalize(v)
    result = ivec_normalize(v)
    if result is None:
        raise ExactnessError("back-substitution produced the zero vector")
    return result


def _local_eigenvalue(split, slices, endpoint):
    """F-eigenvalue on the first slice of a thin module, if defined."""
    w = slices[endpoint][0]
    fw = split.apply_F(endpoint, w)
    coeffs = _express(slices[endpoint], fw)
    if coeffs is None:
        return None
    return coeffs[0]


def decompose(g, x, algebra, max_endpoint=None, config=DEFAULT):
    """Orthogonal decomposition into irreducible modules.

    Layers are processed by increasing endpoint; at each endpoint the
    orthogonal complement of everything already found is seeded in
    canonical vertex order, closures are split through their commutants,
    and the pieces are orthogonalized.  With ``max_endpoint`` set, only
    modules with endpoint up to that bound are extracted (the remainder
    is ignored), which is enough for endpoint-one diagnostics.
    """
    dp = bfs_layers(g, x)
    split = lfr_split(g, dp)
    eps = dp.eccentricity
    sizes = split.layer_sizes()
    rng = random.Random(config.decomposition_seed)
    found = []  # slices dicts
    descriptors = []
    last = eps if max_endpoint is None else min(max_endpoint, eps)
    for r in range(last + 1):
        constraints = IntRowBasis(sizes[r])
        for mod in found:
            for vec in mod.get(r, []):
                constraints.add(vec)
        while True:
            seed = _orthogonal_seed(constraints, sizes[r])
            if seed is None:
                break
            seed = _refine_seed(split, r, seed)
            closure = _closure(split, algebra, r, seed)
            pieces, certified = _split_irreducible(split, algebra, closure, rng)
            siblings = []
            for piece in pieces:
                piece = _orthogonalize(piece, siblings)
                # re-verify invariance after the projection
                _action_matrices(split, algebra, piece)
                siblings.append(piece)
                found.append(piece)
                layers = sorted(piece)
                endpoint = layers[0]
                if endpoint != r or layers != list(range(endpoint, layers[-1] + 1)):
                    raise ExactnessError(
                        f"module at endpoint {r} occupies layers {layers}"
                    )
                thin = all(len(v) <= 1 for v in piece.values())
                descriptors.append(
                    ModuleDescriptor(
                        algebra=algebra,
                        endpoint=endpoint,
                        diameter=layers[-1] - endpoint,
                        thin=thin,
                        slices=piece,
                        split=split,
                        local_eigenvalue=(
                            _local_eigenvalue(split, piece, endpoint) if thin else None
                        ),
                        end_dim=1 if certified else 0,
                        exact=certified,
                    )
                )
                for vec in piece.get(r, []):
                    constraints.add(vec)
    if max_endpoint is None:
        total = sum(d.dim for d in descriptors)
        if total != g.n:
            raise ExactnessError(f"module dimensions sum to {total}, not {g.n}")
    return descriptors


# ---------------------------------------------------------------------------
# standard bases, ladder scalars, isomorphism classes


def _idempotent_images(mod, row, layer):
    """Columns M w for the layer-``layer`` slice basis w of ``mod``, where
    M = sum_h row[h] A_h for an integer coefficient row.

    Exact: the product runs in int64 when no sum can leave that range,
    and over Python ints otherwise."""
    split = mod.split
    vectors = mod.slices[layer]
    cols = split.g.distance_matrix()[:, split.dp.layers[layer]]
    bound = (
        max(abs(c) for c in row)
        * cols.shape[1]
        * max(abs(x) for vec in vectors for x in vec)
    )
    dtype = np.int64 if bound < 2**63 else object
    return np.array(row, dtype=dtype)[cols] @ np.array(vectors, dtype=dtype).T


def dual_endpoint(mod, spec):
    """Smallest i with E_i W nonzero, computed exactly."""
    if mod.dual_endpoint is not None:
        return mod.dual_endpoint
    for t, coeffs in enumerate(spec.idempotent_coefficients()):
        # E_t scaled to integers: the nonzero test does not see the scale
        row, _ = clear_denominators(coeffs)
        for layer in mod.layers():
            if np.count_nonzero(_idempotent_images(mod, row, layer)):
                mod.dual_endpoint = t
                return t
    raise ExactnessError("module vanished under every primitive idempotent")


def standard_basis(mod, spec):
    """Layer basis {E*_i v} for a nonzero v in E_t W, t the dual endpoint.

    Only defined for thin modules; the scalars of the ladder maps in this
    basis are the per-module intersection numbers.
    """
    if not mod.thin:
        raise NotThin("standard bases are defined for thin modules")
    dp = mod.split.dp
    t = dual_endpoint(mod, spec)
    row, den = clear_denominators(spec.idempotent_coefficients()[t])
    # E_t v for the first basis vector v, in layer order, it does not kill
    v = next(
        (
            [Fraction(int(x), den) for x in col]
            for layer in mod.layers()
            for col in _idempotent_images(mod, row, layer).T
            if np.count_nonzero(col)
        ),
        None,
    )
    if v is None:
        raise ExactnessError("no nonzero projection onto E_t")
    basis = []
    for layer in range(mod.endpoint, mod.endpoint + mod.diameter + 1):
        verts = dp.layers[layer]
        comp = [v[u] for u in verts]
        if all(x == 0 for x in comp):
            raise ExactnessError("standard basis vector vanished inside the support")
        basis.append((layer, comp))
    return basis


@dataclass(frozen=True)
class LadderScalars:
    beta: tuple  # beta_1..beta_d, L w_i = beta_i w_{i-1}
    gamma: tuple  # gamma_0..gamma_{d-1}, R w_i = gamma_i w_{i+1}


def ladder_scalars(split, basis):
    """Exact ladder coefficients for a layer basis of a thin module."""

    def scalar_of(img, vec):
        pivot = next((i for i, x in enumerate(vec) if x != 0), None)
        if pivot is None:
            raise NotALadder("zero basis vector")
        c = Fraction(img[pivot]) / Fraction(vec[pivot])
        if any(Fraction(a) != c * Fraction(b) for a, b in zip(img, vec)):
            raise NotALadder("image is not a scalar multiple of the next vector")
        return c

    beta = []
    gamma = []
    for idx in range(1, len(basis)):
        layer, vec = basis[idx]
        img = split.apply_L(layer, vec)
        beta.append(scalar_of(img, basis[idx - 1][1]))
    for idx in range(len(basis) - 1):
        layer, vec = basis[idx]
        img = split.apply_R(layer, vec)
        gamma.append(scalar_of(img, basis[idx + 1][1]))
    return LadderScalars(beta=tuple(beta), gamma=tuple(gamma))


def tf_isomorphic(mod1, lad1, mod2, lad2):
    """Ratio criterion: same endpoint, same diameter, and
    beta_{i+1}/beta'_{i+1} = gamma'_i/gamma_i for all i."""
    if mod1.endpoint != mod2.endpoint or mod1.diameter != mod2.diameter:
        return False
    return all(
        b1 * g1 == b2 * g2
        for b1, g1, b2, g2 in zip(lad1.beta, lad1.gamma, lad2.beta, lad2.gamma)
    )


def module_class_key(mod):
    """Isomorphism-class key for grouping.

    For thin modules the gauge-invariant data is the endpoint, the
    diameter, the per-layer scalars of LR (the products gamma_i
    beta_{i+1}), and for the full algebra the flat-action scalars.  For
    non-thin modules the slice-dimension profile is used together with a
    marker, which separates classes coarsely but never merges a thin and
    a non-thin class.
    """
    base = (mod.algebra, mod.endpoint, mod.diameter)
    if not mod.thin:
        return base + ("non-thin", tuple(sorted(mod.slice_dims().items())))
    split = mod.split
    lr_scalars = []
    f_scalars = []
    for layer in mod.layers():
        vec = mod.slices[layer][0]
        if layer < mod.endpoint + mod.diameter:
            img = split.apply_L(layer + 1, split.apply_R(layer, vec))
            coeffs = _express(mod.slices[layer], img)
            lr_scalars.append(coeffs[0] if coeffs else None)
        if mod.algebra == "T":
            coeffs = _express(mod.slices[layer], split.apply_F(layer, vec))
            f_scalars.append(coeffs[0] if coeffs else None)
    return base + (tuple(lr_scalars), tuple(f_scalars))


def group_modules(modules):
    """Group descriptors by isomorphism class; returns {key: [modules]}."""
    groups = {}
    for mod in modules:
        groups.setdefault(module_class_key(mod), []).append(mod)
    return groups


def endpoint1_census(g, x, modules, spec):
    """Group the endpoint-one modules by local eigenvalue and test the
    diameter / dual-endpoint predictions for each class.

    Returns a dict with the eigenvalue data, one entry per class carrying
    (eta, diameter, dual_endpoint, count, prediction_ok).
    """
    ia = spec.ia
    b1 = ia.b[1]
    tt1 = theta_tilde(spec.eigenvalues[1], b1)
    ttD = theta_tilde(spec.eigenvalues[-1], b1)
    classes = {}
    non_thin = []
    for mod in modules:
        if mod.endpoint != 1:
            continue
        if not mod.thin:
            non_thin.append(mod)
            continue
        eta = mod.local_eigenvalue
        classes.setdefault(eta, []).append(mod)
    report = []
    for eta, mods in sorted(classes.items()):
        d = mods[0].diameter
        t = dual_endpoint(mods[0], spec)
        if eta in (tt1, ttD):
            ok = d == spec.D - 2 and t in (1, 2)
        elif tt1 < eta < ttD:
            ok = d == spec.D - 1 and t == 1
        else:
            ok = False
        ok = ok and all(m.diameter == d for m in mods)
        report.append(
            {
                "eta": eta,
                "diameter": d,
                "dual_endpoint": t,
                "count": len(mods),
                "prediction_ok": ok,
            }
        )
    return {
        "theta1_tilde": tt1,
        "thetaD_tilde": ttD,
        "classes": report,
        "non_thin_endpoint1": len(non_thin),
        "all_predictions_ok": all(c["prediction_ok"] for c in report),
    }


# ---------------------------------------------------------------------------
# symbolic grid check for the Doob ladder rules


def _grid_apply_L(state, delta, p):
    out = {}
    for (l, j), c in state.items():
        if l - 1 >= 0:
            out[(l - 1, j)] = out.get((l - 1, j), Fraction(0)) + c * 3 * (delta - l + 1)
        if j - 1 >= 0:
            out[(l, j - 1)] = out.get((l, j - 1), Fraction(0)) + c * (p - j + 1)
    return {k: v for k, v in out.items() if v != 0}


def _grid_apply_R(state, delta, p):
    out = {}
    for (l, j), c in state.items():
        if j + 1 <= p:
            out[(l, j + 1)] = out.get((l, j + 1), Fraction(0)) + c * 3 * (j + 1)
        if l + 1 <= delta:
            out[(l + 1, j)] = out.get((l + 1, j), Fraction(0)) + c * (l + 1)
    return {k: v for k, v in out.items() if v != 0}


def doob_symbolic_check(delta, p, grid_bound=None):
    """Verify -1/2 RL^2 + LRL - 1/2 L^2R = 3L on the abstract ladder grid.

    The grid basis w_{l,j} (0 <= l <= delta, 0 <= j <= p) carries the
    actions L w = 3(delta-l+1) w_{l-1,j} + (p-j+1) w_{l,j-1} and
    R w = 3(j+1) w_{l,j+1} + (l+1) w_{l+1,j}, with out-of-grid terms zero.
    Returns (ok, report); the report collects, per operator word, the
    coefficient of each reachable target offset together with the closed
    forms it was checked against.
    """
    bound = DEFAULT.doob_grid_bound if grid_bound is None else grid_bound
    if not (0 <= delta <= bound and 0 <= p <= bound):
        raise ValueError(f"grid sizes must be within 0..{bound}")

    def closed_forms(l, j):
        dl = delta - l
        pj = p - j
        return {
            "RL2": {
                (-2, 1): 27 * (dl + 1) * (dl + 2) * (j + 1),
                (-1, 0): 9 * (dl + 1) * ((dl + 2) * (l - 1) + 2 * j * (pj + 1)),
                (0, -1): 3 * (pj + 1) * (2 * l * (dl + 1) + (j - 1) * (pj + 2)),
                (1, -2): (pj + 1) * (pj + 2) * (l + 1),
            },
            "LRL": {
                (-2, 1): 27 * (dl + 1) * (dl + 2) * (j + 1),
                (-1, 0): 9 * (dl + 1) * (l * (dl + 1) + 2 * j * pj + p),
                (0, -1): 3 * (pj + 1) * (delta * (2 * l + 1) - 2 * l * l - j * (j - p - 1)),
                (1, -2): (pj + 1) * (pj + 2) * (l + 1),
            },
            "L2R": {
                (-2, 1): 27 * (dl + 1) * (dl + 2) * (j + 1),
                (-1, 0): 9 * (dl + 1) * (dl * (l + 1) + 2 * (j + 1) * pj),
                (0, -1): 3 * (pj + 1) * (2 * dl * (l + 1) + (j + 1) * pj),
                (1, -2): (pj + 1) * (pj + 2) * (l + 1),
            },
        }

    ok = True
    report = []
    half = Fraction(1, 2)
    for l in range(delta + 1):
        for j in range(p + 1):
            start = {(l, j): Fraction(1)}
            Lw = _grid_apply_L(start, delta, p)
            words = {
                "RL2": _grid_apply_R(_grid_apply_L(Lw, delta, p), delta, p),
                "LRL": _grid_apply_L(_grid_apply_R(Lw, delta, p), delta, p),
                "L2R": _grid_apply_L(
                    _grid_apply_L(_grid_apply_R(start, delta, p), delta, p),
                    delta,
                    p,
                ),
            }
            expected = closed_forms(l, j)
            entry = {"source": (l, j), "coefficients": {}, "closed_form_ok": True}
            for word, state in words.items():
                for (tl, tj), c in state.items():
                    off = (tl - l, tj - j)
                    entry["coefficients"].setdefault(word, {})[off] = c
                    if expected[word].get(off) != c:
                        entry["closed_form_ok"] = False
                for off, val in expected[word].items():
                    tl, tj = l + off[0], j + off[1]
                    in_grid = 0 <= tl <= delta and 0 <= tj <= p
                    if in_grid and val and (tl, tj) not in state:
                        entry["closed_form_ok"] = False
            # the uniform identity itself
            combo = {}
            for key, c in words["RL2"].items():
                combo[key] = combo.get(key, Fraction(0)) - half * c
            for key, c in words["LRL"].items():
                combo[key] = combo.get(key, Fraction(0)) + c
            for key, c in words["L2R"].items():
                combo[key] = combo.get(key, Fraction(0)) - half * c
            for key, c in Lw.items():
                combo[key] = combo.get(key, Fraction(0)) - 3 * c
            identity_ok = all(v == 0 for v in combo.values())
            entry["identity_ok"] = identity_ok
            ok = ok and identity_ok and entry["closed_form_ok"]
            report.append(entry)
    return ok, report
