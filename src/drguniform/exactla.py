"""Small exact linear-algebra toolkit over the rationals.

Every result is exact; matrices are lists of lists and vectors are
lists.  There are two eliminations, one for each size of system.

``_substitute`` is the one fraction-free elimination, for the small
systems: it subtracts gcd-scaled multiples of echelon rows from an
integer vector, rescaling instead of dividing.  Everything else that
eliminates in Python ints goes through it:

- ``IntRowBasis`` keeps gcd-normalized integer rows in echelon form;
  ``add`` inserts a vector's residual and ``extend`` also returns the
  vector's coordinates in the basis;
- ``nullspace`` and ``solve_affine`` take rows of ints or Fractions,
  clear their denominators, back-eliminate the basis to the unique
  reduced echelon form and read the answer off as Fractions;
- ``express`` writes a vector in an echelon basis;
- ``krylov_relation`` finds the first linear relation of a Krylov
  sequence of integer vectors, and ``minimal_polynomial`` applies it to
  the flattened powers of a matrix.

``modular_kernel`` is the one modular elimination, for the wide kernels:
a reduced echelon form modulo each of a few primes below 2^26 in numpy
int64, combined by Chinese remaindering and rational reconstruction, and
certified exactly by M w = 0 (``_annihilates``).  ``tmodules.decompose``
takes from it the orthogonal complement K_r of the modules found so far,
the eigenspaces it seeds from, and each layer's direct-sum check: a
k x k system in K_r's coordinates, k = dim K_r, whose matrix
``kernel_gram`` forms from the kernel basis's pivot columns.

``int_product`` is the one exact integer matrix product: in int64 while
no partial sum can leave that range, over Python ints beyond.  It serves
``_annihilates``, ``kernel_gram``, ``krylov_relation``'s check of the
relation and ``minimal_polynomial``'s matrix powers, and in ``tmodules``
every dense integer product: ``decompose``'s combinations of kernel
vectors and its orthogonality tests, the Gram matrices of ``_refine_seed``
and ``_project_off``, the idempotent images behind ``dual_endpoint`` and
the matrix polynomials that split modules.

``int_poly_rational_roots`` finds every rational root of an integer
polynomial by p-adic lifting, and ``deflate`` divides one out.  The
routines are meant for the small dense systems that show up when layer
blocks and module actions are vectorized, not for large-scale numerics.
"""

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, prod

import numpy as np

from .errors import ExactnessError


def ivec_normalize(v):
    """Divide an integer vector by the gcd of its entries; flip sign so the
    first nonzero entry is positive.  Returns None for the zero vector."""
    g = gcd(*v)
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


class IntRowBasis:
    """Echelon basis of integer row vectors, kept gcd-normalized and keyed
    by pivot position.  ``add`` inserts the residual of a vector against
    the span (``_substitute``), and ``extend`` does so while also
    returning the vector's coordinates in the basis.
    """

    def __init__(self):
        self.rows = {}  # pivot -> integer row

    def __len__(self):
        return len(self.rows)

    def _insert(self, vec, coeffs=None):
        """Substitute ``vec`` into the basis and insert its gcd-normalized
        residual, if any.  Returns (pivoted, row): the basis's (pivot, row)
        pairs, the inserted one last, and the inserted row or None.  When
        a list ``coeffs`` is given, it receives vec's coordinates on
        pivoted, as integer (numerator, denominator) pairs."""
        pivoted = sorted(self.rows.items())
        v, den = _substitute(pivoted, vec, coeffs)
        row = ivec_normalize(v)
        if row is not None:
            pivot = next(i for i, x in enumerate(row) if x)
            self.rows[pivot] = row
            pivoted.append((pivot, row))
            if coeffs is not None:
                coeffs.append((v[pivot] // row[pivot], den))  # v = (v[pivot] / row[pivot]) row
        return pivoted, row

    def add(self, vec):
        """Insert the residual of ``vec`` against the span.  Returns the
        inserted row or None when ``vec`` was already in the span."""
        return self._insert(vec)[1]

    def extend(self, vec):
        """Write ``vec`` in the basis, first inserting its residual when it
        lies outside the span, by one forward substitution.  Returns
        (coords, row): coords maps pivots to the Fraction coefficients
        with vec = sum coords[p] rows[p], and row is the inserted row, as
        ``add`` would insert it, or None when vec was already in the span.
        """
        coeffs = []
        pivoted, row = self._insert(vec, coeffs)
        return {p: Fraction(*c) for (p, _), c in zip(pivoted, coeffs)}, row

    def basis(self):
        return [self.rows[p] for p in sorted(self.rows)]


def _reduced_echelon(rows):
    """The reduced echelon form of rows of ints or Fractions, kept
    fraction-free: pivot -> row, each row zero in every other row's pivot
    column and gcd-normalized with a positive pivot entry.  Divided by
    their pivot entries, they are the unique reduced row echelon form of
    the span.  Each echelon row is back-eliminated, from the last pivot
    up, against the rows already reduced (``_substitute``)."""
    basis = IntRowBasis()
    for row in rows:
        basis.add(clear_denominators(row)[0])
    out = []  # (pivot, reduced row), descending
    for p, row in sorted(basis.rows.items(), reverse=True):
        out.append((p, ivec_normalize(_substitute(reversed(out), row)[0])))
    return dict(out[::-1])


def _kernel(reduced, ncols):
    """Kernel basis of a reduced echelon form on its first ``ncols``
    columns: for each non-pivot column c, the vector that is 1 at c and 0
    at the other non-pivot columns."""
    basis = []
    for c in range(ncols):
        if c not in reduced:
            v = [Fraction(0)] * ncols
            v[c] = Fraction(1)
            for p, row in reduced.items():
                v[p] = Fraction(-row[c], row[p])
            basis.append(v)
    return basis


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix ``rows`` (ints or
    Fractions, ``ncols`` columns), read off its reduced echelon form."""
    return _kernel(_reduced_echelon(rows), ncols)


def solve_affine(rows, rhs):
    """Solve ``rows @ x = rhs`` exactly.

    Returns (particular, homogeneous_basis) or None when inconsistent.
    The particular solution is zero on the non-pivot columns, and the
    homogeneous basis is ``nullspace(rows)``.
    """
    if not rows:
        raise ValueError("empty system needs an explicit column count")
    ncols = len(rows[0])
    reduced = _reduced_echelon([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in reduced:
        return None
    particular = [Fraction(0)] * ncols
    for p, row in reduced.items():
        particular[p] = Fraction(row[ncols], row[p])
    return particular, _kernel(reduced, ncols)


_PRIME_BITS = 26  # the moduli are the largest primes below 2^26

_PRIMES = []  # the largest primes below 2^26 found so far, descending


def _large_primes(count):
    """The ``count`` largest primes below 2^26, in descending order.  The
    primes found are kept, so every prime is searched for once."""
    c = _PRIMES[-1] - 2 if _PRIMES else 2**_PRIME_BITS - 1
    while len(_PRIMES) < count:
        if all(c % d for d in range(3, isqrt(c) + 1, 2)):
            _PRIMES.append(c)
        c -= 2
    return tuple(_PRIMES[:count])


def _primes_for(bits):
    """How many of those primes a modulus of at least ``bits`` bits takes
    (each is above 2^25)."""
    return max(1, -(-bits // (_PRIME_BITS - 1)))


def _crt(residues, primes):
    """The integers in [0, P) with the residues residues[k] modulo
    primes[k] for every k, and P, the product of the primes.  Garner's
    mixed-radix digits are found in int64: digit k is residues[k] less the
    value of the digits before it, over their radix P_k = primes[0] ...
    primes[k - 1], modulo primes[k].  Every radix P_j modulo the later
    primes and the value of the digits before j are kept in int64, one
    vector update per digit, so no radix is reduced as a Python int.  The
    values are formed by one Horner pass over the digits, in Python ints."""
    q = np.array(primes, dtype=np.int64)[:, None]
    radix = np.ones_like(q)  # P_j modulo each prime
    acc = np.zeros_like(residues)  # the value of the digits before j, modulo each prime
    digits = np.empty_like(residues)
    for j, p in enumerate(primes):
        digits[j] = (residues[j] - acc[j]) % p * pow(int(radix[j, 0]), -1, p) % p
        later = slice(j + 1, None)  # every entry is below 2^26, each product below 2^52
        acc[later] = (acc[later] + radix[later] * digits[j]) % q[later]
        radix[later] = radix[later] * p % q[later]
    values = digits[-1].tolist()
    for i in range(len(primes) - 2, -1, -1):
        values = [v * primes[i] + d for v, d in zip(values, digits[i].tolist())]
    return values, prod(primes)


def _denominator(a, modulus, bound):
    """The denominator b <= bound of the fraction c/b with |c| <= bound
    and c = a b mod ``modulus`` (Wang's rational reconstruction), or None."""
    r0, r1, t0, t1 = modulus, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    return abs(t1)


def _rational_vector(values, modulus):
    """Integers proportional to the rationals that ``values`` stand for
    modulo ``modulus``, over one common denominator, or None when no
    reconstruction within sqrt(modulus / 2) fits them all."""
    bound = isqrt(modulus // 2)
    den = 1
    for v in values:
        a = v * den % modulus
        if min(a, modulus - a) > bound:  # not yet an integer over den
            b = _denominator(a, modulus, bound)
            if b is None:
                return None
            den *= b
            if den > bound:
                return None
    out = []
    for v in values:
        a = v * den % modulus
        if a > modulus // 2:
            a -= modulus
        if abs(a) > bound:
            return None
        out.append(a)
    return out


def _int_array(rows, ncols):
    """An integer matrix, given as rows or as such an array, as an int64
    array, or as an object array of Python ints when some entry does not
    fit int64."""
    try:
        return np.asarray(rows, dtype=np.int64).reshape(len(rows), ncols)
    except OverflowError:
        return np.asarray(rows, dtype=object).reshape(len(rows), ncols)


def _residues(mat, p):
    """An ``_int_array`` matrix modulo p, as int64."""
    return (mat % p).astype(np.int64)


def _echelon_mod(mat, p):
    """The reduced row echelon form of an ``_int_array`` matrix modulo a
    prime p below 2^26: (pivot columns, the nonzero rows as int64).

    Entries are reduced modulo p only where they are read: the pivot
    column and row.  An elimination step changes every other entry by a
    product below 2^52, so the matrix is reduced as a whole only once
    per 1024 steps, before any entry could leave int64."""
    a = _residues(mat, p)
    pivots = []
    for c in range(a.shape[1]):
        rank = len(pivots)
        if rank == a.shape[0]:
            break
        col = a[:, c] % p
        hit = np.flatnonzero(col[rank:])
        if not len(hit):
            continue
        i = rank + hit[0]
        row = a[i, c:] % p * pow(int(col[i]), -1, p) % p
        a[i], col[i] = a[rank], col[rank]
        a[rank, c:], col[rank] = row, 0
        rest = a[:, c:]
        rest -= col[:, None] * row
        pivots.append(c)
        if len(pivots) % 1024 == 0:
            a %= p
    return pivots, a[: len(pivots)] % p


def _max_abs(a):
    """The largest absolute entry of a nonempty ``_int_array`` matrix, as
    a Python int."""
    return max(int(a.max()), -int(a.min()))


def int_product(a, b):
    """The exact product a b of two nonempty integer matrices, given as
    rows or as ``_int_array`` arrays: in int64 when no partial sum can
    exceed int64, which ncols max|a| max|b| < 2^63 shows, and over Python
    ints otherwise."""
    a, b = _int_array(a, len(a[0])), _int_array(b, len(b[0]))
    if object in (a.dtype, b.dtype) or a.shape[1] * _max_abs(a) * _max_abs(b) >= 2**63:
        return a.astype(object) @ b.astype(object)
    return a @ b


def _annihilates(mat, vectors):
    """Whether M w = 0 for every integer vector w, exactly
    (``int_product``), for M as ``_int_array`` holds it."""
    if not mat.size or not vectors:
        return True
    return not int_product(mat, _int_array(vectors, mat.shape[1]).T).any()


def _lift(values, modulus, pivots, free, ncols):
    """Integer kernel vectors from the CRT values of the negated reduced
    echelon entries, row-major over (pivot row, free column); None when
    some vector does not reconstruct.

    A column whose centred values are all within the reconstruction
    bound is integral, and ``_rational_vector`` would return those
    values unchanged.  Such columns are read off one array of the centred
    values (int64 below 2^62); only the others are reconstructed."""
    k = len(free)
    dtype = np.int64 if modulus < 2**62 else object
    centred = np.array(values, dtype=dtype).reshape(-1, k) % modulus
    centred[centred > modulus // 2] -= modulus
    integral = (np.abs(centred) <= isqrt(modulus // 2)).all(axis=0).tolist()
    out = np.zeros((k, ncols), dtype=dtype)
    out[:, pivots] = centred.T
    out[range(k), free] = 1
    basis = out.tolist()
    for j, f in enumerate(free):
        if integral[j]:
            continue
        lifted = _rational_vector(values[j::k] + [1], modulus)
        if lifted is None:
            return None
        w = basis[j] = [0] * ncols
        for c, x in zip(pivots, lifted):
            w[c] = x
        w[f] = lifted[-1]
    return basis


def modular_kernel(rows, ncols):
    """A basis of the right kernel of an integer matrix M, certified.

    Returns (free, basis): the non-pivot columns f of M's reduced echelon
    form over the rationals and, for each, the kernel vector that is 1 at
    f and 0 at the other free columns, times its least denominator, an
    integer vector with w[f] > 0.

    M is reduced modulo primes below 2^26, one int64 elimination each.
    Modulo a prime a pivot can only move to a later column, so among
    primes whose pivot columns differ, those that do not find the
    earliest are unlucky and are replaced.  The negated echelon entries
    are combined by Chinese remaindering over all the primes in use
    (``_crt``) and by rational reconstruction; vectors that reconstruct
    and satisfy M w = 0 exactly (``_annihilates``) are the answer.  They
    are independent, being 1 on distinct free columns, and there are as
    many as the non-pivot columns modulo a prime, which is at least the
    kernel's dimension.  Otherwise the number of primes doubles, 1, 2,
    4, ..., up to the Hadamard cap: a modulus past 2 H^2, for H the
    product of the rows' Euclidean norms (squared in int64 while no sum
    can leave it), bounds every minor of M and so every numerator and
    denominator to reconstruct.  Past the cap it raises ExactnessError.
    """
    mat = _int_array(rows, ncols)
    forms, bad, nprimes = {}, set(), 1
    while True:
        primes = [p for p in _large_primes(nprimes + len(bad)) if p not in bad][:nprimes]
        for p in primes:
            if p not in forms:
                forms[p] = _echelon_mod(mat, p)
        # the earliest pivot columns, a missing pivot counting as column ncols
        best = min(forms[p][0] + [ncols] for p in primes)
        if any(forms[p][0] + [ncols] != best for p in primes):
            bad.update(p for p in primes if forms[p][0] + [ncols] != best)
            continue
        pivots = best[:-1]
        free = sorted(set(range(ncols)) - set(pivots))
        if not free:
            return [], []
        residues = np.stack([-forms[p][1][:, free] % p for p in primes]).reshape(nprimes, -1)
        basis = _lift(*_crt(residues, primes), pivots, free, ncols)
        if basis is not None and _annihilates(mat, basis):
            return free, basis
        wide = mat.dtype == object or ncols * _max_abs(mat) ** 2 >= 2**63
        norms = ((mat.astype(object) if wide else mat) ** 2).sum(axis=1).tolist()
        cap = _primes_for(2 * sum(-(-x.bit_length() // 2) for x in norms) + 2)
        if nprimes >= cap:
            raise ExactnessError(f"no kernel certified under {nprimes} primes, the Hadamard cap")
        nprimes = min(2 * nprimes, cap)


def kernel_gram(rows, kernel, ncols):
    """The integer matrix rows B^T, exactly, for a ``modular_kernel``
    result (free, B).  On the free columns, row j of B is d_j at f_j and
    zero elsewhere, so rows B^T is rows' free columns, column j scaled by
    d_j, plus a product over the pivot columns only."""
    free, basis = kernel
    a, b = np.array(rows, dtype=object), np.array(basis, dtype=object)
    gram = a[:, free] * b[range(len(free)), free]
    pivots = sorted(set(range(ncols)) - set(free))
    if pivots:
        gram += int_product(a[:, pivots], b[:, pivots].T)
    return gram.tolist()


def _substitute(pivoted, target, coeffs=None):
    """Fraction-free forward substitution of ``target`` against rows given
    as (pivot, row) pairs in increasing pivot order, each row zero before
    its pivot.

    Returns (v, den), the residual over a common denominator: an integer
    vector zero at every pivot with target = sum c_k rows[k] + v / den.
    Both are rescaled instead of divided, and every 16 rows the factor
    they share is divided out, which keeps long chains small.  When a
    list ``coeffs`` is given, it receives each coefficient c_k as an
    integer (numerator, denominator) pair, so no Fraction is built;
    callers that keep only the residual pass none and build no pairs.
    """
    v = list(target)
    den = 1
    for k, (p, row) in enumerate(pivoted, 1):
        a = v[p]
        if not a:
            if coeffs is not None:
                coeffs.append((0, 1))
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
        if coeffs is not None:
            coeffs.append((a, den))
        if k % 16 == 0 and den > 1:
            h = gcd(den, *v)
            if h > 1:
                v = [x // h for x in v]
                den //= h
    return v, den


def express(rows, target):
    """Coefficients of ``target`` in the span of ``rows``, or None when it
    lies outside.

    ``rows`` are integer vectors whose leading entries sit in strictly
    increasing columns, as ``IntRowBasis.basis`` returns them, so the
    coefficients come out by forward substitution (``_substitute``).
    """
    pivoted = ((next(i for i, x in enumerate(row) if x), row) for row in rows)
    coeffs = []
    if any(_substitute(pivoted, target, coeffs)[0]):
        return None
    return [Fraction(*c) for c in coeffs]


def _poly_eval(coeffs, r):
    val = Fraction(0)
    for ck in reversed(coeffs):
        val = val * r + ck
    return val


def _primitive(f):
    """An integer polynomial over its content, leading coefficient positive."""
    g = gcd(*f)
    return [x // (g if f[-1] > 0 else -g) for x in f]


def _pseudo_remainder(a, b):
    """The remainder of lc(b)^k a divided by b, without trailing zeros."""
    r = list(a)
    while len(r) >= len(b):
        lead, shift = r[-1], len(r) - len(b)
        r = [b[-1] * x for x in r]
        for i, y in enumerate(b):
            r[shift + i] -= lead * y
        while r and not r[-1]:
            r.pop()
    return r


def _square_free_part(f):
    """f / gcd(f, f'), primitive.  The gcd g ends the primitive remainder
    sequence; it is primitive and divides f, so f / g is integral."""
    g, b = f, [i * x for i, x in enumerate(f)][1:]
    while b:
        b = _primitive(b)
        g, b = b, _pseudo_remainder(g, b)
    q, r = [0] * (len(f) - len(g) + 1), list(f)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(g) - 1] // g[-1]
        for i, y in enumerate(g):
            r[k + i] -= q[k] * y
    return _primitive(q)


def _eval_mod(f, x, m):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def int_poly_rational_roots(coeffs):
    """Rational roots (as Fractions, with multiplicity, ascending) of an
    integer polynomial ``coeffs`` = [c0, c1, ..., cd] (c0 + c1 t + ...),
    and what is left after ``deflate`` divides them out, which has none.

    The roots are exact, by p-adic lifting (Loos 1983).  A nonzero root
    a/b of the primitive square-free part g has |a|, |b| <= B =
    max(|g(0)|, |lc(g)|) and is, modulo the first prime p not dividing
    lc(g) at which every root of g is simple, one of those roots.
    Newton's iteration lifts each to a root modulo p^k > 2 B^2, Wang's
    reconstruction recovers a/b from it, and every candidate is tested
    exactly.
    """
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    if len(c) < 2:
        return [], c
    zeros = next(i for i, x in enumerate(c) if x)  # t^zeros divides c
    roots, c = [Fraction(0)] * zeros, c[zeros:]
    g = _square_free_part(c)
    dg = [i * x for i, x in enumerate(g)][1:]
    for p in count(2):  # only the primes dividing lc(g) disc(g) fail
        if g[-1] % p and all(p % d for d in range(2, isqrt(p) + 1)):
            lifted = [x for x in range(p) if not _eval_mod(g, x, p)]
            if all(_eval_mod(dg, x, p) for x in lifted):
                break
    bound = max(abs(g[0]), g[-1])
    for x in lifted:
        m, inv = p, pow(_eval_mod(dg, x, p), -1, p)  # inv = 1 / g'(x) mod m
        while m <= 2 * bound * bound:
            m *= m
            x = (x - _eval_mod(g, x, m) * inv) % m
            inv = inv * (2 - _eval_mod(dg, x, m) * inv) % m
        den = _denominator(x, m, bound)
        if den is not None:
            num = x * den % m
            r = Fraction(num - m if num > m // 2 else num, den)
            while _poly_eval(c, r) == 0:
                roots.append(r)
                c = deflate(c, r)
    return sorted(roots), c


def deflate(coeffs, root):
    """Synthetic division of an integer-coefficient polynomial by (t - root);
    the quotient is rescaled back to integers.  Raises ExactnessError when
    ``root`` is not a root."""
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


def krylov_relation(start, step):
    """The first linear relation in the Krylov sequence of ``start``.

    ``start`` is a nonzero integer vector and ``step`` an integer linear
    map.  Returns (coeffs, krylov): ``krylov`` holds start, step(start),
    ... up to the last vector independent of those before it, and
    ``coeffs`` = [c0..cd] are the primitive integers, cd > 0, with
    sum c_i step^i(start) = 0.  The Krylov vectors are independent on the
    pivot columns of their echelon, so a d x d system there fixes the
    c_i; the relation is then checked on every coordinate.
    """
    basis = IntRowBasis()
    basis.add(start)
    krylov = [start]
    while True:
        nxt = step(krylov[-1])
        if basis.add(nxt) is None:
            break
        krylov.append(nxt)
    pivots = sorted(basis.rows)
    sol = solve_affine([[v[p] for v in krylov] for p in pivots], [nxt[p] for p in pivots])
    if sol is None:
        raise ExactnessError("Krylov vectors are dependent on their pivot columns")
    coeffs, _ = clear_denominators([-x for x in sol[0]] + [1])
    if int_product([coeffs], krylov + [nxt]).any():
        raise ExactnessError("the Krylov relation fails off the pivot columns")
    return coeffs, krylov


def minimal_polynomial(mat):
    """Minimal polynomial of a square rational matrix M, from the Krylov
    relation of the flattened powers of the integer matrix N = den M.
    Returns integer coefficients [c0..cd] of a primitive (content 1)
    polynomial with positive leading coefficient."""
    n = len(mat)
    flat, den = clear_denominators([x for row in mat for x in row])
    scaled = [flat[i : i + n] for i in range(0, n * n, n)]

    def times_n(v):  # the flattened product V N
        return int_product([v[i : i + n] for i in range(0, n * n, n)], scaled).ravel().tolist()

    coeffs, _ = krylov_relation([int(i == j) for i in range(n) for j in range(n)], times_n)
    # p(N) = 0 for N = den M gives sum c_i den^i M^i = 0
    coeffs = [c * den**i for i, c in enumerate(coeffs)]
    g = gcd(*coeffs)
    return [c // g for c in coeffs]
