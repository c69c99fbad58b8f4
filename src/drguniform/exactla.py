"""Small exact linear-algebra toolkit over the rationals.

Every result is exact; matrices are lists of lists and vectors are
lists.  All rational elimination goes through one integer echelon
kernel, ``IntRowBasis``, which keeps gcd-normalized integer rows and
eliminates fraction-free, rescaling rows instead of dividing them.  On
top of it:

- ``nullspace`` and ``solve_affine`` take rows of ints or Fractions,
  clear their denominators, back-eliminate the basis to the unique
  reduced echelon form and read the answer off as Fractions;
- ``express`` writes a vector in an echelon basis by forward
  substitution, and ``IntRowBasis.extend`` does the same while inserting
  the vector's residual when it lies outside the span;
- ``krylov_relation`` finds the first linear relation of a Krylov
  sequence of integer vectors, and ``minimal_polynomial`` applies it to
  the flattened powers of a matrix;
- ``int_poly_rational_roots`` finds every rational root of an integer
  polynomial by p-adic lifting, and ``deflate`` divides one out.

``ModularComplement`` eliminates modulo a few primes below 2^26 in numpy
and certifies what it returns exactly.  It gathers new vectors in a
pending block of at most 32 rows and folds them into the stored echelon
with one matmul per prime, so the stored rows are rewritten once per 32
vectors instead of once per vector.  The routines are meant for the
small dense systems that show up when layer blocks and module actions
are vectorized, not for large-scale numerics.
"""

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, prod
from operator import mul

import numpy as np

from .errors import ExactnessError


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


class IntRowBasis:
    """Echelon basis of integer row vectors supporting exact reduction.

    Rows are gcd-normalized and kept in forward-eliminated form keyed by
    pivot position.  ``reduce`` returns the residual of a vector against
    the span (None when the vector is dependent); ``add`` inserts the
    residual as a new basis row, and ``extend`` does so while also
    returning the vector's coordinates in the basis.
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

    def extend(self, vec):
        """Write ``vec`` in the basis, first inserting its residual when it
        lies outside the span, by one forward substitution.  Returns
        (coords, row): coords maps pivots to the Fraction coefficients
        with vec = sum coords[p] rows[p], and row is the inserted row, as
        ``add`` would insert it, or None when vec was already in the span.
        """
        pivots = sorted(self.rows)
        coeffs, v, den = _substitute(((p, self.rows[p]) for p in pivots), vec)
        coords = dict(zip(pivots, coeffs))
        row = ivec_normalize(v)
        if row is not None:
            pivot = next(i for i, x in enumerate(row) if x)
            # v = (v[pivot] / row[pivot]) row, exactly
            coords[pivot] = Fraction(v[pivot] // row[pivot], den)
            self.rows[pivot] = row
        return coords, row

    def basis(self):
        return [self.rows[p] for p in sorted(self.rows)]

    def reduced(self):
        """The rows in reduced echelon form, kept fraction-free: pivot ->
        row, each row zero in every other row's pivot column and
        gcd-normalized with a positive pivot entry.  Divided by their pivot
        entries, they are the unique reduced row echelon form of the span.
        """
        out = {}
        for p in sorted(self.rows, reverse=True):
            v = self.rows[p]
            for q, row in out.items():
                if v[q]:
                    g = gcd(v[q], row[q])
                    ma, mb = row[q] // g, v[q] // g
                    v = [ma * x - mb * y for x, y in zip(v, row)]
            out[p] = ivec_normalize(v)
        return dict(sorted(out.items()))


def _reduced_echelon(rows, width):
    """``IntRowBasis.reduced`` of rows of ints or Fractions."""
    basis = IntRowBasis(width)
    for row in rows:
        basis.add(clear_denominators(row)[0])
    return basis.reduced()


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
    return _kernel(_reduced_echelon(rows, ncols), ncols)


def solve_affine(rows, rhs):
    """Solve ``rows @ x = rhs`` exactly.

    Returns (particular, homogeneous_basis) or None when inconsistent.
    The particular solution is zero on the non-pivot columns, and the
    homogeneous basis is ``nullspace(rows)``.
    """
    if not rows:
        raise ValueError("empty system needs an explicit column count")
    ncols = len(rows[0])
    reduced = _reduced_echelon([list(row) + [b] for row, b in zip(rows, rhs)], ncols + 1)
    if ncols in reduced:
        return None
    particular = [Fraction(0)] * ncols
    for p, row in reduced.items():
        particular[p] = Fraction(row[ncols], row[p])
    return particular, _kernel(reduced, ncols)


_PRIME_BITS = 26  # the moduli are the largest primes below 2^26
_CHUNK = 1024  # int64 partial sums of 1024 products below 2^52 stay below 2^62
_BLOCK = 32  # pending rows per fold: the fold's int64 sums stay below 2^57


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


def _matmul_mod(a, b, p):
    """(a[k] @ b[k]) mod p[k] for every prime k: a is (K, r), b (K, r, m),
    p (K, 1); exact in int64 for entries below 2^26."""
    out = np.zeros((b.shape[0], b.shape[2]), dtype=np.int64)
    for s in range(0, a.shape[1], _CHUNK):
        out += np.einsum("kr,krm->km", a[:, s : s + _CHUNK], b[:, s : s + _CHUNK])
        out %= p
    return out


def _crt_prefixes(residues, primes):
    """For t = 1, 2, 4, ... and finally t = K: the integers in [0, P_t)
    with the residues residues[k] modulo primes[k] for every k < t, and
    P_t, the product of those primes.  Garner's mixed-radix digits are
    found once each, in int64: digit k is residues[k] less the value of
    the digits before it, over their radix P_k, modulo primes[k].  While a
    prefix's new primes are added, every radix P_j modulo them and the
    value of the digits before j are kept in int64, one vector update per
    digit, so no radix is reduced as a Python int.  Each prefix extends
    the values of the one before by Horner over its new digits, in Python
    ints."""
    digits = np.empty_like(residues)
    radices = [1]  # radices[k] = primes[0] ... primes[k - 1]
    values, t = [0] * residues.shape[1], 1
    while True:
        start = len(radices) - 1
        q = np.array(primes[start:t], dtype=np.int64)[:, None]
        radix = np.ones_like(q)  # P_j modulo each new prime
        acc = np.zeros((t - start, residues.shape[1]), dtype=np.int64)
        for j in range(t):
            if j >= start:
                p, k = primes[j], j - start
                digits[j] = (residues[j] - acc[k]) % p * pow(int(radix[k, 0]), -1, p) % p
                radices.append(radices[j] * p)
            if j + 1 < t:  # every entry is below 2^26, each product below 2^52
                acc += radix * digits[j]
                acc %= q
                radix *= primes[j]
                radix %= q
        tail = digits[t - 1].tolist()
        for i in range(t - 2, start - 1, -1):
            tail = [v * primes[i] + d for v, d in zip(tail, digits[i].tolist())]
        values = [v + radices[start] * x for v, x in zip(values, tail)]
        yield values, radices[t]
        if t == len(primes):
            return
        t = min(2 * t, len(primes))


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


class ModularComplement:
    """The orthogonal complement of a growing set of integer vectors, and
    its first vector in canonical column order.

    Modulo each of K primes below 2^26 the vectors are kept in reduced
    echelon form, in two parts.  The stored rows [I | N] keep only N,
    their entries in the non-pivot columns: one (rank x (width - rank))
    int64 block per prime.  A new independent vector goes into the
    pending block B instead: it is reduced against [I | N] by one matvec
    and against B's rows, and B stays in reduced echelon form among its
    own rows, which are zero in every stored pivot column.  When B holds
    32 rows, or before K changes, ``_fold`` clears B's pivot columns J
    from N with one matmul N - N[:, J] B per prime, appends B to the
    stored rows and drops J from the non-pivot columns.  So a new vector
    updates at most 32 rows, and N is rewritten once per 32 vectors.

    The primes must agree on every pivot, stored or pending; a prime that
    finds less rank than another divides a minor of the vectors (it is
    unlucky) and is replaced.  K comes from the bit size of the vectors:
    enough primes for a modulus of 2 log2(max ||row||_1) + 2 bits, taken
    from the vectors the complement is constructed with.  When larger
    vectors ask for more primes, or a certificate fails, K grows to at
    least 3K/2, and only the new primes then reduce the vectors already
    added.  K stops where the modulus passes 2 max(H^2, l1 H), for H the
    Hadamard bound of the vectors: there the seed must certify, so
    ``seed`` raises ExactnessError instead of growing K further.

    ``seed`` reads its answer off the first column f that is neither a
    stored nor a pending pivot, without a fold: the kernel vector w with
    w[f] = 1 is -B[:, f] on the pending pivots and -N[:, f] + N[:, J]
    B[:, f] on the stored ones.  It combines the primes by CRT and
    rational reconstruction (from a prefix of the primes first, since most
    seeds are small, each longer prefix extending the digits of the
    last), and certifies the integer vector w it gets: w[f] is nonzero
    and w vanishes past f; w is in the kernel of every stored and every
    pending row modulo every prime, so M w = 0 modulo their product P for
    the matrix M of added vectors; P > 2 max ||row||_1 ||w||_inf then
    forces M w = 0 over the integers.  Columns [0, f) are pivots modulo a
    prime, so they are independent over the rationals, and w is, up to
    scale, the only vector orthogonal to M supported on [0, f].
    """

    def __init__(self, width, rows=()):
        self.width = width
        self._rows = list(rows)  # every added vector, to rebuild the blocks from
        self._l1 = max((sum(map(abs, vec)) for vec in self._rows), default=0)
        self._bad = set()  # primes found unlucky
        self._h_bits = self._h_rows = 0  # log2 of the Hadamard bound of _rows[:_h_rows], rounded up
        self._rebuild(self._wanted())

    def _wanted(self):
        """How many primes the largest l1 norm of the vectors asks for."""
        return _primes_for(2 * self._l1.bit_length() + 2)

    def _grown(self, wanted):
        """The next K: at least ``wanted`` and at least 3K/2."""
        return max(wanted, -(-3 * len(self.primes) // 2))

    def _choose(self, count):
        """The ``count`` largest primes below 2^26 not found unlucky."""
        pool = _large_primes(count + len(self._bad))
        return [p for p in pool if p not in self._bad][:count]

    def _reset(self, primes):
        """An empty echelon under ``primes``."""
        self.primes = primes
        self._p = np.array(primes, dtype=np.int64)[:, None]
        self._pivots = []  # stored pivot columns, one per row of N
        self._free = np.arange(self.width)  # non-pivot columns, ascending
        self._n = np.zeros((len(primes), 0, self.width), dtype=np.int64)
        self._new_block()

    def _new_block(self):
        """An empty pending block over the current non-pivot columns."""
        self._j = []  # positions in _free of the pending pivots, one per row
        self._b = np.empty((len(self.primes), _BLOCK, len(self._free)), dtype=np.int64)

    def _rebuild(self, count):
        """Reduce every vector afresh under ``count`` primes."""
        while True:
            self._reset(self._choose(count))
            if all(self._insert(vec) for vec in self._rows):
                return

    def _extend(self, count):
        """Use ``count`` primes, reducing the vectors under the new ones
        only; a full rebuild when the new primes disagree with the old."""
        self._fold()
        primes, n, pivots = self.primes, self._n, self._pivots
        self._reset(self._choose(count)[len(primes) :])
        if all(self._insert(vec) for vec in self._rows):
            self._fold()
            if self._pivots == pivots:
                self.primes = primes + self.primes
                self._p = np.array(self.primes, dtype=np.int64)[:, None]
                self._n = np.concatenate([n, self._n])
                self._new_block()
                return
        self._rebuild(count)

    def add(self, vec):
        """Add an integer vector to the set."""
        self._rows.append(vec)
        self._l1 = max(self._l1, sum(map(abs, vec)))
        wanted = self._wanted()
        count = self._grown(wanted) if wanted > len(self.primes) else len(self.primes)
        if not self._insert(vec):
            self._rebuild(count)
        elif count > len(self.primes):
            self._extend(count)

    def _residues(self, vec):
        """(K, width) int64 residues of an integer vector.  Past int64, the
        absolute values are written as little-endian bytes, one int64
        product of that (width x size) byte matrix with the powers of 256
        modulo each prime gives their residues (its sums stay below
        size * 2^34), and the negative entries' residues are negated."""
        if -(2**63) <= min(vec) and max(vec) < 2**63:
            return np.array(vec, dtype=np.int64) % self._p
        size = (max(map(abs, vec)).bit_length() + 7) // 8
        data = b"".join(abs(x).to_bytes(size, "little") for x in vec)
        digits = np.frombuffer(data, dtype=np.uint8).reshape(len(vec), size).astype(np.int64)
        powers = np.ones((len(self.primes), 1), dtype=np.int64)  # 256^j mod p, j < size
        while powers.shape[1] < size:
            step = powers[:, -1:] * 256 % self._p
            powers = np.hstack([powers, powers * step % self._p])
        res = powers[:, :size] @ digits.T % self._p
        neg = np.array([x < 0 for x in vec])
        res[:, neg] = -res[:, neg] % self._p
        return res

    def _insert(self, vec):
        """Reduce ``vec`` under every prime and add it to the pending block
        when independent.  Returns False, after marking the unlucky primes,
        when the primes disagree on its pivot."""
        m, j = len(self._free), self._j
        if len(j) == m:
            return True  # full rank: every vector is dependent
        res = self._residues(vec)
        red = res[:, self._free]
        if self._pivots:
            red -= _matmul_mod(res[:, self._pivots], self._n, self._p)
            red %= self._p
        block = self._b[:, : len(j)]
        if j:
            red -= _matmul_mod(red[:, j], block, self._p)
            red %= self._p
        nonzero = red != 0
        lead = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), m)
        c = int(lead.min())
        if (lead != c).any():
            self._bad.update(p for p, x in zip(self.primes, lead) if x != c)
            return False
        if c == m:
            return True  # dependent under every prime
        inv = np.array([[pow(int(x), -1, p)] for x, p in zip(red[:, c], self.primes)])
        row = red * inv % self._p
        # clear column c from the pending rows
        block -= block[:, :, c : c + 1] * row[:, None]
        block %= self._p[:, :, None]
        self._b[:, len(j)] = row
        j.append(c)
        if len(j) == _BLOCK:
            self._fold()
        return True

    def _fold(self):
        """Clear the pending pivot columns J from N, append the pending rows
        to the stored ones and drop J from the non-pivot columns."""
        j = self._j
        if not j:
            return
        keep = np.ones(len(self._free), dtype=bool)
        keep[j] = False
        r, block = len(self._pivots), self._b[:, : len(j), keep]
        n = np.empty((len(self.primes), r + len(j), len(self._free) - len(j)), dtype=np.int64)
        for k, p in enumerate(self.primes):  # one prime at a time keeps the temporaries small
            np.remainder(self._n[k][:, keep] - self._n[k][:, j] @ block[k], p, out=n[k, :r])
        n[:, r:] = block
        self._n = n
        self._pivots += self._free[j].tolist()
        self._free = self._free[keep]
        self._new_block()

    def _first_free(self):
        """Position in _free of the first column that is no pending pivot."""
        pending = set(self._j)
        return next(i for i in range(len(self._free)) if i not in pending)

    def seed(self):
        """The first nonzero integer vector, in canonical column order,
        orthogonal to every added vector: gcd-normalized, its first
        nonzero entry positive, supported on the columns up to the first
        non-pivot.  None when the vectors span the whole space."""
        while len(self._j) < len(self._free):
            # lift from the first t primes, doubling t; every candidate
            # is certified under all of them
            for w in self._candidates():
                if w is not None and self._certified(w):
                    return w
            cap = _primes_for(self._sufficient_bits())
            if len(self.primes) >= cap:
                raise ExactnessError(
                    f"no seed certified under {len(self.primes)} primes, past the Hadamard bound"
                )
            self._extend(min(self._grown(len(self.primes) + 1), cap))
        return None  # full rank modulo a prime, hence over the rationals

    def _sufficient_bits(self):
        """Bits of a modulus past 2 max(H^2, l1 H), for H the Hadamard bound
        of the added vectors: the product of their nonzero Euclidean norms.

        The seed is, up to scale, a vector of minors of those vectors
        (Cramer), so its entries and the numerators and denominator of the
        rationals it is lifted from are at most H: modulo such a modulus
        the full lift reconstructs it and the certificate accepts it."""
        for vec in self._rows[self._h_rows :]:  # each vector is measured once
            self._h_bits += -(-sum(x * x for x in vec).bit_length() // 2)
        self._h_rows = len(self._rows)
        return 1 + max(2 * self._h_bits, self._l1.bit_length() + self._h_bits)

    def _candidates(self):
        """w with w[f] = 1 and zero on the other non-pivot columns, in the
        kernel of every row, lifted to the integers from the first t primes
        for t = 1, 2, 4, ..., K; None where reconstruction fails."""
        i, j = self._first_free(), self._j
        bf = self._b[:, : len(j), i]
        stored = np.matmul(self._n[:, :, j], bf[:, :, None])[:, :, 0] - self._n[:, :, i]
        residues = np.concatenate([stored, -bf], axis=1) % self._p
        cols = self._pivots + self._free[j].tolist() + [int(self._free[i])]
        for values, modulus in _crt_prefixes(residues, self.primes):
            lifted = _rational_vector(values + [1], modulus)
            if lifted is None:
                yield None
                continue
            w = [0] * self.width
            for c, x in zip(cols, lifted):
                w[c] = x
            yield ivec_normalize(w)

    def _certified(self, w):
        i = self._first_free()
        f = int(self._free[i])
        if not w[f] or any(w[f + 1 :]):
            return False
        if prod(self.primes) <= 2 * self._l1 * max(map(abs, w)):
            return False
        res = self._residues(w)
        # w vanishes on every non-pivot column but f, so against row k of
        # [I | N] or of B only its pending pivots and f count
        cols = self._j + [i]
        wc = res[:, self._free[cols], None]
        stored = res[:, self._pivots] + np.matmul(self._n[:, :, cols], wc)[:, :, 0]
        pending = np.matmul(self._b[:, : len(self._j)][:, :, cols], wc)[:, :, 0]
        return not (stored % self._p).any() and not (pending % self._p).any()


def _substitute(pivoted, target):
    """Fraction-free forward substitution of ``target`` against rows given
    as (pivot, row) pairs in increasing pivot order, each row zero before
    its pivot.

    Returns (coeffs, v, den) with target = sum coeffs[k] rows[k] + v / den
    and v zero at every pivot: the residual is an integer vector over a
    common denominator, both are rescaled instead of divided, and a
    Fraction is built only for each coefficient.  Every 16 rows the
    factor v and den share is divided out, which keeps long chains small.
    """
    v = list(target)
    den = 1
    coeffs = []
    for p, row in pivoted:
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
        if len(coeffs) % 16 == 0 and den > 1:
            h = gcd(den, *v)
            if h > 1:
                v = [x // h for x in v]
                den //= h
    return coeffs, v, den


def express(rows, target):
    """Coefficients of ``target`` in the span of ``rows``, or None when it
    lies outside.

    ``rows`` are integer vectors whose leading entries sit in strictly
    increasing columns, as ``IntRowBasis.basis`` returns them, so the
    coefficients come out by forward substitution (``_substitute``).
    """
    pivoted = ((next(i for i, x in enumerate(row) if x), row) for row in rows)
    coeffs, v, _ = _substitute(pivoted, target)
    if any(v):
        return None
    return coeffs


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
    basis = IntRowBasis(len(start))
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
    check = [0] * len(start)
    for c, v in zip(coeffs, krylov + [nxt]):
        if c:
            check = [a + c * b for a, b in zip(check, v)]
    if any(check):
        raise ExactnessError("the Krylov relation fails off the pivot columns")
    return coeffs, krylov


def minimal_polynomial(mat):
    """Minimal polynomial of a square rational matrix M, from the Krylov
    relation of the flattened powers of the integer matrix N = den M.
    Returns integer coefficients [c0..cd] of a primitive (content 1)
    polynomial with positive leading coefficient."""
    n = len(mat)
    flat, den = clear_denominators([x for row in mat for x in row])
    cols = [flat[j::n] for j in range(n)]

    def times_n(v):  # the flattened product V N
        return [sum(map(mul, v[i : i + n], col)) for i in range(0, n * n, n) for col in cols]

    coeffs, _ = krylov_relation([int(i == j) for i in range(n) for j in range(n)], times_n)
    # p(N) = 0 for N = den M gives sum c_i den^i M^i = 0
    coeffs = [c * den**i for i, c in enumerate(coeffs)]
    g = gcd(*coeffs)
    return [c // g for c in coeffs]
