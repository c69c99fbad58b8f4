"""Irreducible module machinery for the Terwilliger algebra of a graph.

The standard module is decomposed into irreducible T- or T_f-modules with
exact rational arithmetic.  Everything is layer-graded: module basis
vectors live inside single subconstituents, closures under the lowering,
flat, and raising actions stay graded, and commutants respect the grading
block by block.  Modules are seeded from eigenspaces: at each endpoint r,
the layer-r slice of the orthogonal complement of the modules with lower
endpoints is split into the eigenspaces of F (for T) or of L R (for
T_f), whose basis vectors seed the closures.  Once some closure of a
layer has more than one endpoint vector, each further seed is taken
orthogonal to every module found at that layer.  A closure whose
endpoint slice is one-dimensional is irreducible as it stands and forms
no commutant; a wider one is split by commutant elements, each piece
projected off the pieces before it and checked invariant once.  The sum
is direct inside an eigenspace and orthogonal across eigenspaces and
endpoints, and one check per layer certifies it direct: with K_r the
complement at layer r, the slices of the modules with endpoint r must
give a nonsingular k x k matrix in K_r's coordinates, k = dim K_r
(``_certify_layer``).  The decomposition is a function of the graph,
the base and the algebra: eigenspaces come in ascending order of
eigenvalue, their bases from reduced echelon forms, and the splitting
elements are the commutant's basis elements, in order.

Also here: the local-eigenvalue map, the tightness test, standard bases,
ladder scalars with the isomorphism ratio criterion, an endpoint-one
census, and the symbolic two-parameter ladder-grid verifier used for the
Doob family.
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from .config import DOOB_GRID_BOUND
from .errors import ExactnessError, IrrationalSpectrum, NotALadder, NotThin
from .exactla import (
    IntRowBasis,
    clear_denominators,
    int_poly_rational_roots,
    int_product,
    ivec_normalize,
    kernel_gram,
    krylov_relation,
    minimal_polynomial,
    modular_kernel,
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
    in layer-local coordinates.  ``actions`` holds the algebra's generator
    actions in that basis, in ``_action_matrices``' format, as the module's
    closure or its invariance check formed them; the local eigenvalue and
    ``module_class_key`` read their scalars from it.  ``exact`` is True
    when every piece split from the module's closure has a
    one-dimensional endpoint slice or a one-dimensional commutant; either
    certifies the piece irreducible, over the complex numbers as well as
    the rationals (see ``_split_irreducible``).  A T_f module's
    ``local_eigenvalue`` is not a class invariant: it depends on which
    copy of its isotypic component the decomposition picks (see
    ``_local_eigenvalue``).
    """

    algebra: str  # "T" or "Tf"
    endpoint: int
    diameter: int
    thin: bool
    slices: dict
    split: object = field(repr=False)
    actions: dict = field(repr=False)
    local_eigenvalue: object = None  # Fraction, or None when undefined
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
        return "LFR"
    if algebra == "Tf":
        return "LR"
    raise ValueError("algebra must be 'T' or 'Tf'")


_STEP = {"L": -1, "F": 0, "R": 1}  # the layer a generator moves a vector by


def _closure(split, algebra, seeds):
    """The modules generated by graded seeds ``{layer: [vectors]}``, each
    seed's own span first: one (slices, actions) pair per seed.  A seed
    vector's closure is ``{r: [seed]}``'s.

    The closures are formed in lockstep: each round pops one basis vector
    from every unfinished closure, and the vectors of each layer are
    multiplied together, by one block product (``LFRSplit.images``), so
    each basis vector is multiplied once.  Each of its generator images
    is written in its closure's basis as it is formed
    (``IntRowBasis.extend``): an image in the span gets its coordinates,
    and any other becomes a new row, with its coordinates.  A closure
    inserts its rows in the order it would alone, and rows never change
    once inserted, so those coordinates hold in the final pivot-sorted
    slices, where they are the action matrices in ``_action_matrices``'
    format: every image of every basis vector is written exactly in the
    final basis, so each closure is invariant as built.
    """
    gens = _generators(algebra)
    states = []  # per seed: its slices, work list and images, which map
    # (gen, layer) to (image layer, {source pivot: image coordinates})
    for rows in seeds:
        slices = {i: IntRowBasis() for i in range(split.eccentricity + 1)}
        work = []
        for layer, vecs in sorted(rows.items()):
            for vec in vecs:
                row = slices[layer].add(vec)
                if row is None:
                    raise ExactnessError("closure seeded with dependent vectors")
                work.append((layer, row))
        states.append((slices, work, {}))
    while popped := [(state, *state[1].pop()) for state in states if state[1]]:
        formed = {}  # position in popped -> the vector's image under each generator
        for layer in {layer for _, layer, _ in popped}:
            at = [k for k, (_, i, _) in enumerate(popped) if i == layer]
            formed.update(zip(at, zip(*split.images(layer, [popped[k][2] for k in at], gens))))
        for k, ((slices, work, images), layer, vec) in enumerate(popped):
            src = next(i for i, x in enumerate(vec) if x)
            for gen, img in zip(gens, formed[k]):
                if not any(img):
                    continue
                new_layer = layer + _STEP[gen]
                coords, added = slices[new_layer].extend(img)
                images.setdefault((gen, layer), (new_layer, {}))[1][src] = coords
                if added is not None:
                    work.append((new_layer, added))
    out = []
    for slices, _, images in states:
        slices = {i: basis for i, basis in slices.items() if len(basis)}
        pivots = {i: sorted(basis.rows) for i, basis in slices.items()}
        actions = {gen: {} for gen in gens}
        for (gen, layer), (dst, cols) in sorted(images.items()):
            actions[gen][layer] = dst, [
                [cols.get(p, {}).get(q, Fraction(0)) for p in pivots[layer]] for q in pivots[dst]
            ]
        out.append(({i: basis.basis() for i, basis in slices.items()}, actions))
    return out


def _action_matrices(split, algebra, slices):
    """Generator actions in the module basis; columns index source vectors.

    ``actions[gen][src] = (dst, mat)``, where column b of mat holds the
    coordinates, in layer dst's slice, of gen applied to row b of layer
    src's slice; a layer whose images all vanish has no block.  The
    slices are echelon rows as ``IntRowBasis.basis`` returns them, and
    the actions are those of their ``_closure``, which must be the slices
    themselves: this is the one invariance check of a piece split from a
    closure, and it raises when the closure grows, within the piece's
    layers or below them.
    """
    [(closed, actions)] = _closure(split, algebra, [slices])
    if closed != slices:
        raise ExactnessError("module basis is not invariant")
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
                    row = [0] * total
                    # (X_dst M - M X_src)[a, b] = 0
                    for t in range(ddst):
                        row[var(dst, a, t)] += mat[t][b]
                    for t in range(dsrc):
                        row[var(src, t, b)] -= mat[a][t]
                    if any(x != 0 for x in row):
                        rows.append(row)
    basis = nullspace(rows, total)
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


def _kernel_slice(rows, mat):
    """The part of a layer slice that the kernel of ``mat`` picks out: each
    kernel vector, cleared of denominators, combines the slice's rows."""
    basis = IntRowBasis()
    for vec in _combine([clear_denominators(v)[0] for v in nullspace(mat, len(rows))], rows):
        basis.add(vec)
    return basis.basis()


def _poly_eval_matrix(coeffs, mat):
    """den^d p(M) for an integer polynomial p = [c0..cd] and a rational
    matrix M over the common denominator den of its entries: an integer
    matrix with the kernel of p(M).  Horner's rule on N = den M, since
    den^d p(N / den) = sum c_k den^(d-k) N^k."""
    n = len(mat)
    flat, den = clear_denominators([x for row in mat for x in row])
    scaled = np.array(flat, dtype=object).reshape(n, n)
    d = len(coeffs) - 1
    out = coeffs[d] * np.eye(n, dtype=object)
    for k in range(d - 1, -1, -1):
        out = int_product(out, scaled).astype(object)
        out.flat[:: n + 1] += coeffs[k] * den ** (d - k)
    return out.tolist()


def _split_by(slices, cand):
    """The pieces of an invariant graded subspace W cut out by the factors
    of a commutant element X's minimal polynomial, one per rational root
    and one for the factor with none; None when there is only one.

    W is generated by its slice W_r on its lowest layer r: a closure by
    its seed, and a piece P W, for P a spectral projector of a commutant
    element (a polynomial in it), by P(W_r).  X is fixed by its action on
    W_r, so X's d_r x d_r block there has X's minimal polynomial, which is
    read off that block.  X is block diagonal over the layers, so the
    kernel of a factor p is, layer by layer, the kernel of p on X's block
    there, and each piece is built one layer at a time.  The pieces'
    dimensions must add up to W's.
    """
    roots, residual = int_poly_rational_roots(minimal_polynomial(cand[min(slices)]))
    # (b t - a)^m for each root a/b of multiplicity m
    factors = [
        [comb(m, k) * lam.denominator**k * (-lam.numerator) ** (m - k) for k in range(m + 1)]
        for lam, m in sorted(Counter(roots).items())
    ]
    if len(residual) > 1:
        factors.append(residual)
    if len(factors) < 2:
        return None
    pieces = []
    for f in factors:
        piece = {}
        for layer in sorted(slices):
            kernel = _kernel_slice(slices[layer], _poly_eval_matrix(f, cand[layer]))
            if kernel:
                piece[layer] = kernel
        pieces.append(piece)
    dim = sum(map(len, slices.values()))
    if sum(len(rows) for piece in pieces for rows in piece.values()) != dim:
        raise ExactnessError("the endpoint block's minimal polynomial does not split the module")
    return pieces


def _split_irreducible(split, algebra, slices, actions):
    """Recursively split an invariant graded subspace W into irreducibles,
    through ``_split_by`` on the first element of ``_commutant``'s basis
    that splits it, trying the basis in order.  When no basis element
    splits W, W is returned whole and uncertified; the module it becomes
    has ``exact=False``.

    W is generated by its lowest slice W_r (see ``_split_by``).  When W_r
    is one-dimensional, W is irreducible and no commutant is formed.  The
    algebra is closed under transposition, so W is an orthogonal direct
    sum of irreducible modules U_i, and the orthogonal projection P_i onto
    U_i commutes with E*_r.  The E*_r U_i are orthogonal subspaces of W_r,
    so all but one are zero, and P_i v lies in E*_r U_i for v spanning
    W_r: v lies in one U_i, and v generates W, so W is that U_i.  The
    argument holds over the complex numbers as well.

    ``actions`` are W's action matrices.  Each piece split off is
    projected off the pieces before it (``_orthogonalize``), and its
    ``_action_matrices`` are then its one invariance check.  Returns
    (pieces, certified): one (slices, actions) pair per piece, and
    whether every piece has a one-dimensional endpoint slice or
    commutant.
    """
    if len(slices[min(slices)]) == 1:
        return [(slices, actions)], True
    comm = _commutant(slices, actions)
    if len(comm) == 1:
        return [(slices, actions)], True
    for cand in comm:
        pieces = _split_by(slices, cand)
        if pieces is None:
            continue
        out, done, certified = [], [], True
        for piece in pieces:
            if done:
                piece = _orthogonalize(piece, done)
            done.append(piece)
            subs, ok = _split_irreducible(split, algebra, piece, _action_matrices(split, algebra, piece))
            out.extend(subs)
            certified = certified and ok
        return out, certified
    return [(slices, actions)], False  # could not split over Q; flagged upstream


def _orthogonalize(slices, siblings):
    """Project a graded subspace off its sibling modules, layer by layer.

    The pieces of one split can fail to be pairwise orthogonal, so each
    is projected off the pieces of the same split before it.  The
    projector onto a module commutes with the algebra, so the image is
    again a module of equal dimension.
    """
    out = {}
    for layer, rows in slices.items():
        sib_slices = [mod[layer] for mod in siblings if layer in mod]
        if not sib_slices:
            out[layer] = [list(r) for r in rows]
            continue
        basis = IntRowBasis()
        for vec in rows:
            for sib in sib_slices:
                vec = _project_off(vec, sib)
            basis.add(vec)
        out[layer] = basis.basis()
    return out


def _project_off(vec, rows):
    """A positive integer multiple of vec minus its orthogonal projection
    onto span(rows): den vec - sum_k (den c_k) rows_k, for the projection
    coefficients c_k over their common denominator den."""
    products = int_product(rows, list(zip(*rows, vec))).tolist()  # [rows rows^T | rows vec]
    sol = solve_affine([p[:-1] for p in products], [p[-1] for p in products])
    if sol is None:
        raise ExactnessError("singular Gram matrix of a module slice")
    coeffs, den = clear_denominators(sol[0])
    return int_product([[den] + [-c for c in coeffs]], [vec] + rows)[0].tolist()


def _orthogonal_seed(width, rows):
    """K_r, the vectors of layer r orthogonal to ``rows``, the layer's
    slices of the modules with lower endpoints: ``modular_kernel``'s
    (free columns, basis)."""
    return modular_kernel(rows, width)


def _seed_images(split, algebra, r, vecs):
    """The images of a block of vectors of layer r under F_r for T, or
    L_{r+1} R_r for T_f: a symmetric map of layer r that the algebra
    contains and that maps K_r into itself.  One block product, or two
    for T_f."""
    if algebra == "T":
        return split.images(r, vecs, "F")[0]
    if r == split.eccentricity:
        return [[0] * len(vec) for vec in vecs]
    return split.images(r + 1, split.images(r, vecs, "R")[0], "L")[0]


def _combine(coords, basis):
    """The gcd-normalized integer vectors sum_j c_j basis[j], one per
    coordinate vector c."""
    return [ivec_normalize(v) for v in int_product(coords, basis).tolist()] if coords else []


def _certify_layer(r, width, lower, new, kernel):
    """Raise unless the layer-r slices ``lower`` of the modules with lower
    endpoints and ``new`` of those with endpoint r form a basis of it.

    ``kernel`` is ``modular_kernel(lower, width)``, K_r's (free, basis B).
    Modulo a prime a rank can only drop, and B is certified independent,
    so |free| = width - rank(lower): len(lower) + |free| = width makes
    the lower slices independent.  The map v -> B v has kernel
    rowspace(lower), so with len(new) = |free| = k, the new slices
    complete the lower ones to a basis exactly when the k x k matrix
    new B^T is nonsingular, whether or not they lie in K_r.
    ``kernel_gram`` forms it with a product over the width - k pivot
    columns only.
    """
    free, _ = kernel
    if len(lower) + len(free) != width or len(new) != len(free) or (
        new and modular_kernel(kernel_gram(new, kernel, width), len(new))[1]
    ):
        raise ExactnessError(f"the module slices of layer {r} are not a basis of it")


def _refine_seed(split, algebra, r, free, basis):
    """Split K_r, given as ``modular_kernel``'s (free, basis), into the
    exact eigenspaces of the map of ``_seed_images``: one pair
    (eigenvalue, seeds) per rational eigenvalue, ascending, and, when
    those do not fill K_r, a last pair (None, seeds) spanning the part of
    K_r that they leave, the irrational remainder.

    The eigenvalues are the rational roots of the Krylov relations of
    K_r's basis vectors, taken in order until their eigenspaces fill K_r.
    Each eigenspace is computed in K_r's coordinates: basis vector w_j is
    d_j at its free column f_j and 0 at the others, so an image A w_j,
    which lies in K_r, has coordinate A w_j[f_i] / d_i on w_i, and the
    eigenspace of a/b is the kernel of the integer matrix b N - a D, for
    N[i, j] = A w_j[f_i] and D = diag(d_i).  N is read off the images of
    the whole basis, formed together.  The map is symmetric, so the
    eigenspaces and the uncovered part are pairwise orthogonal.
    """
    if not basis:
        return []
    images = np.array(_seed_images(split, algebra, r, basis), dtype=object)[:, free].T
    diag = np.array([w[f] for f, w in zip(free, basis)], dtype=object)

    def step(vec):
        return _seed_images(split, algebra, r, [vec])[0]

    spaces = {}
    for w in basis:
        if sum(map(len, spaces.values())) == len(basis):
            break
        for lam in set(int_poly_rational_roots(krylov_relation(w, step)[0])[0]) - set(spaces):
            mat = lam.denominator * images
            mat.flat[:: len(basis) + 1] -= lam.numerator * diag
            spaces[lam] = _combine(modular_kernel(mat.tolist(), len(basis))[1], basis)
    groups = [(lam, spaces[lam]) for lam in sorted(spaces)]
    if sum(map(len, spaces.values())) < len(basis):
        covered = [v for _, group in groups for v in group]
        gram = int_product(covered, list(zip(*basis))).tolist() if covered else []
        groups.append((None, _combine(modular_kernel(gram, len(basis))[1], basis)))
    return groups


def _thin_scalar(actions, gen, layer):
    """The scalar by which ``gen`` maps a thin module's layer vector to the
    next one, read off its action matrices; a missing block is zero."""
    block = actions[gen].get(layer)
    return block[1][0][0] if block else Fraction(0)


def _local_eigenvalue(split, slices, endpoint, actions):
    """F-eigenvalue on the first slice of a thin module, if defined: the
    entry of the module's F action there, or, for T_f, whose actions have
    no F, F applied to that slice.

    For T, F is in the algebra, so the value is fixed by the module's
    class.  For T_f it is not: isomorphic T_f modules can sit in
    different eigenspaces of F, or in none (the value is then None), so
    it depends on which copy of the isotypic component is picked, and
    with it on the labelling of the graph.
    """
    if "F" in actions:
        return _thin_scalar(actions, "F", endpoint)
    w = slices[endpoint][0]
    coeffs = _express(slices[endpoint], split.apply_F(endpoint, w))
    if coeffs is None:
        return None
    return coeffs[0]


def decompose(g, x, algebra, max_endpoint=None):
    """Decomposition into irreducible modules, as a direct sum.

    Layers are processed by increasing endpoint r.  K_r, the layer-r
    slice of the orthogonal complement of the modules with endpoint below
    r, is split into the eigenspaces of F_r (for T) or L_{r+1} R_r (for
    T_f), and each eigenspace seeds closures, which ``_split_irreducible``
    splits into irreducibles; a closure with a one-dimensional endpoint
    slice is irreducible already.  While every closure of the layer has a
    one-dimensional endpoint slice, the seeds are the eigenspace basis
    vectors: each closure is then irreducible and spanned at r by its
    seed, so inside an eigenspace the sum is direct, though not
    orthogonal.  A wider closure can contain modules found already, so
    from the first one on each seed is taken from the part of its
    eigenspace orthogonal to every module found at the layer, until that
    part is empty, and the first one is kept only if its seed was
    orthogonal to them; the orthogonal complement of a module is a
    module.  Modules from different eigenspaces or endpoints are
    orthogonal.  An eigenspace's seeds are closed together
    (``_closure``), and the first wide closure drops the rest of the
    batch; the closures of the irrational remainder's seeds, which are no
    eigenvectors, are all wide, so they are closed one at a time.  After
    each layer, ``_certify_layer`` certifies the sum direct in K_r's
    coordinates, at the cost of a k x k system for k = dim K_r: K_r's
    kernel already shows the lower slices independent, and the Gram
    matrix of the new endpoint slices against K_r's basis must be
    nonsingular.  With ``max_endpoint`` set, only modules with endpoint
    up to that bound are extracted (the remainder is ignored), which is
    enough for endpoint-one diagnostics.
    """
    dp = bfs_layers(g, x)
    split = lfr_split(g, dp)
    sizes = split.layer_sizes()
    descriptors = []
    last = dp.eccentricity if max_endpoint is None else min(max_endpoint, dp.eccentricity)
    for r in range(last + 1):
        lower, start = [v for d in descriptors for v in d.slices.get(r, [])], len(descriptors)
        free, basis = _orthogonal_seed(sizes[r], lower)
        found, wide = [], False  # the layer's endpoint slices; whether a closure had several
        for lam, group in _refine_seed(split, algebra, r, free, basis):
            pending = group
            while True:
                if wide:
                    # the part of the group orthogonal to every module found
                    orth = modular_kernel(int_product(found, list(zip(*group))).tolist(), len(group))[1]
                    pending = _combine(orth[:1], group)
                if not pending:
                    break
                # a seed of the irrational remainder is no eigenvector, so
                # its closure has several endpoint vectors: close one
                n = len(pending) if lam is not None else 1
                batch, pending = pending[:n], pending[n:]
                closed = _closure(split, algebra, [{r: [seed]} for seed in batch])
                for seed, (closure, actions) in zip(batch, closed):
                    if min(closure) < r:  # the complement of the modules below r is invariant
                        raise ExactnessError("closure escaped below its endpoint")
                    pieces, certified = _split_irreducible(split, algebra, closure, actions)
                    ends = [v for piece, _ in pieces for v in piece[r]]
                    if len(ends) > 1 and not wide:
                        # such a closure can contain modules found already,
                        # unless its seed is orthogonal to them; the rest of
                        # its batch is seeded again, orthogonally
                        wide = True
                        if found and int_product(found, [[x] for x in seed]).any():
                            break
                    for piece, actions in pieces:
                        layers = sorted(piece)
                        if layers[0] != r or layers != list(range(r, layers[-1] + 1)):
                            raise ExactnessError(f"module at endpoint {r} occupies layers {layers}")
                        thin = all(len(v) <= 1 for v in piece.values())
                        descriptors.append(
                            ModuleDescriptor(
                                algebra=algebra,
                                endpoint=r,
                                diameter=layers[-1] - r,
                                thin=thin,
                                slices=piece,
                                split=split,
                                actions=actions,
                                local_eigenvalue=_local_eigenvalue(split, piece, r, actions) if thin else None,
                                exact=certified,
                            )
                        )
                    found.extend(ends)
                    if wide:
                        break
        new = [v for d in descriptors[start:] for v in d.slices[r]]
        _certify_layer(r, sizes[r], lower, new, (free, basis))
    return descriptors


# ---------------------------------------------------------------------------
# standard bases, ladder scalars, isomorphism classes


def _first_projection(mod, spec):
    """den E_t w, for t the dual endpoint, the smallest with E_t W nonzero,
    and w the first basis vector of W, in layer order, that E_t does not
    kill; den clears E_t's coefficients (``SpectralData.idempotent_rows``).
    Sets ``mod.dual_endpoint``, and starts the search there when it is set.

    For a row of coefficients, M = sum_h row[h] A_h is symmetric, so its
    columns at a layer's vertices are its rows there, read from whole
    rows of the distance matrix, and the images M w of the layer's slice
    basis are one exact product (``int_product``)."""
    split = mod.split
    rows = spec.idempotent_rows
    for t in range(mod.dual_endpoint or 0, len(rows)):
        for layer in mod.layers():
            dist = split.g.distance_matrix()[list(split.dp.layers[layer])]
            images = int_product(mod.slices[layer], rows[t][dist])
            hit = np.flatnonzero(images.any(axis=1))
            if len(hit):
                mod.dual_endpoint = t
                return images[hit[0]].tolist()
    raise ExactnessError("module vanished under every primitive idempotent")


def dual_endpoint(mod, spec):
    """Smallest i with E_i W nonzero, computed exactly."""
    if mod.dual_endpoint is None:
        _first_projection(mod, spec)
    return mod.dual_endpoint


def standard_basis(mod, spec):
    """Layer basis {E*_i v} for a nonzero v in E_t W, t the dual endpoint.

    Only defined for thin modules; the scalars of the ladder maps in this
    basis are the per-module intersection numbers.  The vectors are
    integers: v is E_t w scaled by the denominator that clears E_t, which
    leaves the ladder scalars, ratios, as they are.
    """
    if not mod.thin:
        raise NotThin("standard bases are defined for thin modules")
    dp = mod.split.dp
    v = _first_projection(mod, spec)
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
    beta_{i+1}), and for the full algebra the flat-action scalars.  They
    are read off the module's action matrices: the LR scalar of a layer is
    its R entry times the L entry one layer up, and a missing block is a
    zero action.  For non-thin modules the slice-dimension profile is used
    together with a marker, which separates classes coarsely but never
    merges a thin and a non-thin class.
    """
    base = (mod.algebra, mod.endpoint, mod.diameter)
    if not mod.thin:
        return base + ("non-thin", tuple(sorted(mod.slice_dims().items())))
    acts = mod.actions
    top = mod.endpoint + mod.diameter
    lr_scalars = tuple(
        _thin_scalar(acts, "R", i) * _thin_scalar(acts, "L", i + 1) for i in range(mod.endpoint, top)
    )
    f_scalars = tuple(_thin_scalar(acts, "F", i) for i in mod.layers()) if mod.algebra == "T" else ()
    return base + (lr_scalars, f_scalars)


def group_modules(modules):
    """Group descriptors by isomorphism class; returns {key: [modules]}."""
    groups = {}
    for mod in modules:
        groups.setdefault(module_class_key(mod), []).append(mod)
    return groups


def endpoint1_census(modules, spec):
    """Group the endpoint-one modules by local eigenvalue and test the
    diameter / dual-endpoint predictions for each class.

    Returns a dict with the eigenvalue data, one entry per class carrying
    (eta, diameter, dual_endpoint, count, prediction_ok).  Only for T is
    eta a class invariant, so the modules must be T-modules.  theta_1 and
    theta_D are read by position, so the spectrum must be rational.
    """
    if any(mod.algebra != "T" for mod in modules):
        raise ValueError("the endpoint-1 census groups T-modules only")
    if spec.numeric:
        raise IrrationalSpectrum("the endpoint-1 census needs a rational spectrum")
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
            out[(l - 1, j)] = out.get((l - 1, j), 0) + c * 3 * (delta - l + 1)
        if j - 1 >= 0:
            out[(l, j - 1)] = out.get((l, j - 1), 0) + c * (p - j + 1)
    return {k: v for k, v in out.items() if v != 0}


def _grid_apply_R(state, delta, p):
    out = {}
    for (l, j), c in state.items():
        if j + 1 <= p:
            out[(l, j + 1)] = out.get((l, j + 1), 0) + c * 3 * (j + 1)
        if l + 1 <= delta:
            out[(l + 1, j)] = out.get((l + 1, j), 0) + c * (l + 1)
    return {k: v for k, v in out.items() if v != 0}


def doob_symbolic_check(delta, p):
    """Verify -1/2 RL^2 + LRL - 1/2 L^2R = 3L on the abstract ladder grid,
    in integers, as -RL^2 + 2LRL - L^2R - 6L = 0.

    The grid basis w_{l,j} (0 <= l <= delta, 0 <= j <= p) carries the
    actions L w = 3(delta-l+1) w_{l-1,j} + (p-j+1) w_{l,j-1} and
    R w = 3(j+1) w_{l,j+1} + (l+1) w_{l+1,j}, with out-of-grid terms zero.
    Returns (ok, report); the report collects, per operator word, the
    coefficient of each reachable target offset together with the closed
    forms it was checked against.  Both grid sizes are limited to
    ``DOOB_GRID_BOUND``.
    """
    bound = DOOB_GRID_BOUND
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
    for l in range(delta + 1):
        for j in range(p + 1):
            start = {(l, j): 1}
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
            terms = ((words["RL2"], -1), (words["LRL"], 2), (words["L2R"], -1), (Lw, -6))
            for state, weight in terms:
                for key, c in state.items():
                    combo[key] = combo.get(key, 0) + weight * c
            identity_ok = all(v == 0 for v in combo.values())
            entry["identity_ok"] = identity_ok
            ok = ok and identity_ok and entry["closed_form_ok"]
            report.append(entry)
    return ok, report
