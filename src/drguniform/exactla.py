"""Small exact linear-algebra toolkit over the rationals.

Everything here works with ``fractions.Fraction`` entries (or plain ints,
which Fraction arithmetic absorbs) and produces zero-residual results.
Matrices are lists of lists; vectors are lists.  The routines are meant
for the small dense systems that show up when layer blocks and module
actions are vectorized, not for large-scale numerics.
"""

from fractions import Fraction
from math import gcd

from .errors import ExactnessError


def rref(rows):
    """Row-reduce a copy of ``rows`` in place-free fashion.

    Returns (reduced_rows, pivot_columns).  Zero rows are dropped.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pick = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pick = i
                break
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix ``rows`` (ncols columns)."""
    red, pivots = rref(rows) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve_affine(rows, rhs):
    """Solve ``rows @ x = rhs`` exactly.

    Returns (particular, homogeneous_basis) or None when inconsistent.
    The homogeneous basis spans the full solution set offset.
    """
    if not rows:
        raise ValueError("empty system needs an explicit column count")
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    for row, pc in zip(red, pivots):
        if pc == ncols:
            return None
    particular = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        particular[pc] = row[ncols]
    hom = nullspace([row[:ncols] for row in red], ncols)
    return particular, hom


def det(matrix):
    """Dense determinant by fraction-free style Gaussian elimination."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pick = None
        for i in range(c, n):
            if m[i][c] != 0:
                pick = i
                break
        if pick is None:
            return Fraction(0)
        if pick != c:
            m[c], m[pick] = m[pick], m[c]
            sign = -sign
        piv = m[c][c]
        result *= piv
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / piv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * result


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def ivec_normalize(v):
    """Divide an integer vector by the gcd of its entries; flip sign so the
    first nonzero entry is positive.  Returns None for the zero vector."""
    g = 0
    for x in v:
        g = gcd(g, x)
        if g == 1:
            break
    if g == 0:
        return None
    lead = next(x for x in v if x != 0)
    if lead < 0:
        g = -g
    return [x // g for x in v]


def clear_denominators(v):
    """(den * v, den) for the least positive integer den that makes the
    rational vector ``v`` integral."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in v], den


def fvec_to_ivec(v):
    """Clear denominators of a Fraction vector, then gcd-normalize."""
    return ivec_normalize(clear_denominators(v)[0])


class IntRowBasis:
    """Echelon basis of integer row vectors supporting exact reduction.

    Rows are gcd-normalized and kept in forward-eliminated form keyed by
    pivot position.  ``reduce`` returns the residual of a vector against
    the span (None when the vector is dependent); ``add`` inserts the
    residual as a new basis row.
    """

    def __init__(self, width):
        self.width = width
        self.rows = {}  # pivot -> integer row

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec):
        v = list(vec)
        steps = 0
        for p in sorted(self.rows):
            if v[p]:
                row = self.rows[p]
                a, b = v[p], row[p]
                g = gcd(a, b)
                ma, mb = b // g, a // g
                v = [ma * x - mb * y for x, y in zip(v, row)]
                steps += 1
                if steps % 16 == 0:
                    # keep intermediate entries small on long chains
                    nv = ivec_normalize(v)
                    if nv is None:
                        return None
                    v = nv
        return ivec_normalize(v)

    def add(self, vec):
        """Reduce ``vec`` and insert the residual.  Returns the inserted
        row or None when ``vec`` was already in the span."""
        v = self.reduce(vec)
        if v is None:
            return None
        pivot = next(i for i, x in enumerate(v) if x)
        self.rows[pivot] = v
        return v

    def basis(self):
        return [self.rows[p] for p in sorted(self.rows)]


def express(rows, target):
    """Coefficients of ``target`` in the span of ``rows``, or None when it
    lies outside.

    ``rows`` are integer vectors whose leading entries sit in strictly
    increasing columns, as ``IntRowBasis.basis`` returns them, so the
    coefficients come out by forward substitution.  The substitution is
    fraction-free, like ``IntRowBasis.reduce``: the residual is an integer
    vector over a common denominator, both are rescaled instead of
    divided, and a Fraction is built only for each returned coefficient.
    """
    v = list(target)
    den = 1
    coeffs = []
    for row in rows:
        p = next(i for i, x in enumerate(row) if x)
        a = v[p]
        if not a:
            coeffs.append(Fraction(0))
            continue
        b = row[p]
        g = gcd(a, b)
        a, b = a // g, b // g
        # v/den - a/(b den) row = (b v - a row) / (b den)
        if b == 1:
            v = [x - a * y for x, y in zip(v, row)]
        else:
            v = [b * x - a * y for x, y in zip(v, row)]
        den *= b
        coeffs.append(Fraction(a, den))
    if any(v):
        return None
    return coeffs


def _poly_eval(coeffs, r):
    val = Fraction(0)
    for ck in reversed(coeffs):
        val = val * r + ck
    return val


def _numeric_root_candidates(coeffs):
    """Rational candidates near the numeric roots; callers verify exactly."""
    import numpy as np

    scale = max(abs(c) for c in coeffs)
    arr = np.array([c / scale for c in reversed(coeffs)], dtype=np.float64)
    cands = []
    for z in np.roots(arr):
        if abs(z.imag) > 1e-7:
            continue
        x = float(z.real)
        for cand in (
            Fraction(round(x)),
            Fraction(x).limit_denominator(10**4),
            Fraction(x).limit_denominator(10**9),
        ):
            if cand not in cands:
                cands.append(cand)
    return cands


_DIVISOR_BOUND = 10**6


def int_poly_rational_roots(coeffs):
    """Rational roots (as Fractions, with multiplicity) of an integer
    polynomial given by ``coeffs`` = [c0, c1, ..., cd] (c0 + c1 t + ...).

    Returns (roots, deflated_coeffs); the deflated polynomial keeps every
    factor not recognized as a rational root.  Candidates come from the
    numeric roots and are verified exactly before deflating, so accepted
    roots are always true roots; when the outer coefficients are small a
    complete divisor search backs the numeric pass, and root extraction
    through huge coefficients stays cheap.
    """
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    roots = []
    while len(c) > 1:
        # split off t = 0 factors
        if c[0] == 0:
            roots.append(Fraction(0))
            c = c[1:]
            continue
        found = None
        for cand in _numeric_root_candidates(c):
            if cand != 0 and _poly_eval(c, cand) == 0:
                found = cand
                break
        if found is None and abs(c[0]) <= _DIVISOR_BOUND and abs(c[-1]) <= _DIVISOR_BOUND:
            for p in _divisors(abs(c[0])):
                for q in _divisors(abs(c[-1])):
                    if gcd(p, q) != 1:
                        continue
                    for num in (p, -p):
                        r = Fraction(num, q)
                        if _poly_eval(c, r) == 0:
                            found = r
                            break
                    if found is not None:
                        break
                if found is not None:
                    break
        if found is None:
            break
        roots.append(found)
        c = _deflate(c, found)
    return roots, c


def _divisors(n):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _deflate(coeffs, root):
    """Synthetic division of an integer-coefficient polynomial by (t - root);
    the quotient is rescaled back to integers."""
    c = [Fraction(x) for x in coeffs]
    d = len(c) - 1
    out = [Fraction(0)] * d
    acc = c[d]
    for k in range(d - 1, -1, -1):
        out[k] = acc
        acc = c[k] + acc * root
    if acc != 0:
        raise ExactnessError(f"{root} is not a root of the polynomial {coeffs}")
    return clear_denominators(out)[0]


def minimal_polynomial(mat):
    """Minimal polynomial of a square Fraction matrix via a Krylov sequence
    on vectorized powers.  Returns integer coefficients [c0..cd] of a
    primitive (content 1) polynomial with positive leading coefficient."""
    n = len(mat)
    basis = IntRowBasis(n * n)
    powers = [identity(n)]
    while True:
        flat = [x for row in powers[-1] for x in row]
        iv = fvec_to_ivec(flat)
        if iv is None or basis.reduce(iv) is None:
            break
        basis.add(iv)
        powers.append(mat_mul(powers[-1], mat))
    # express the last power in terms of the previous ones
    deg = len(powers) - 1
    rows = []
    rhs = []
    for i in range(n):
        for j in range(n):
            rows.append([powers[k][i][j] for k in range(deg)])
            rhs.append(powers[deg][i][j])
    sol = solve_affine(rows, rhs)
    if sol is None:
        raise ExactnessError("a matrix power left the span of the lower powers")
    part, _ = sol
    return clear_denominators([-x for x in part] + [Fraction(1)])[0]
