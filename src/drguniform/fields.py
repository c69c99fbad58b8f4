"""Arithmetic in GF(p) and GF(p^2) for small primes, with conjugation.

Elements of GF(p^2) are encoded as integers a + b*p standing for a + b*t,
where t is a root of the fixed irreducible polynomial below.  Using fixed
irreducibles keeps every derived vertex ordering reproducible.  Operations
are table-driven, so they are plain list lookups in hot loops; the
Hermitian form runs on the components a, b instead.
"""

import numpy as np

from .errors import UnsupportedField

# fixed irreducible t^2 + u1*t + u0 over GF(p), stored as (u1, u0)
_IRREDUCIBLE = {
    2: (1, 1),  # t^2 + t + 1
    3: (0, 1),  # t^2 + 1
    5: (0, 2),  # t^2 + 2
    7: (0, 1),  # t^2 + 1
}


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FiniteField:
    """GF(p^k) with k in {1, 2}; elements are ints in range(p**k)."""

    def __init__(self, p, k=1):
        if not _is_prime(p):
            raise UnsupportedField(f"{p} is not prime")
        if k == 2 and p not in _IRREDUCIBLE:
            raise UnsupportedField(f"no fixed irreducible stored for GF({p}^2)")
        if k not in (1, 2):
            raise UnsupportedField("only GF(p) and GF(p^2) are supported")
        self.p = p
        self.k = k
        self.order = p**k
        self._build_tables()

    def _build_tables(self):
        p, q = self.p, self.order
        self.add = [[0] * q for _ in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        if self.k == 1:
            for x in range(q):
                for y in range(q):
                    self.add[x][y] = (x + y) % p
                    self.mul[x][y] = (x * y) % p
        else:
            u0, u1 = _IRREDUCIBLE[p][1], _IRREDUCIBLE[p][0]
            # t^2 = -u1*t - u0
            for x in range(q):
                a1, b1 = x % p, x // p
                for y in range(q):
                    a2, b2 = y % p, y // p
                    self.add[x][y] = (a1 + a2) % p + p * ((b1 + b2) % p)
                    hi = b1 * b2
                    a = (a1 * a2 - hi * u0) % p
                    b = (a1 * b2 + a2 * b1 - hi * u1) % p
                    self.mul[x][y] = a + p * b
        self.neg = [self.mul[x][self._mod_neg_one()] for x in range(q)]
        self.inv = [0] * q
        for x in range(1, q):
            for y in range(1, q):
                if self.mul[x][y] == 1:
                    self.inv[x] = y
                    break
        # Frobenius x -> x^p fixes GF(p) and is the conjugation on GF(p^2)
        self.conj = [self._pow(x, p) for x in range(q)] if self.k == 2 else list(range(q))

    def _mod_neg_one(self):
        return (self.p - 1) % self.p  # -1 lives in the prime subfield

    def _pow(self, x, e):
        acc = 1
        for _ in range(e):
            acc = self.mul[acc][x]
        return acc

    def prime_subfield(self):
        """Elements fixed by conjugation (= GF(p) inside GF(p^2))."""
        return [x for x in range(self.order) if self.conj[x] == x]


def hermitian_inner(field, u, v):
    """sum_i u_i * conj(v_i) over GF(r^2).

    ``u`` and ``v`` are integer arrays (or sequences) whose last axis holds
    the coordinates; the leading axes broadcast, so one call gives a whole
    Gram matrix.  Write u_i = a + b t, with t^2 = r0 + r1 t, and conj(v_i)
    = c + d t from the table: their product is (ac + r0 bd) + (ad + bc +
    r1 bd) t, so each GF(p) component of the form is one contraction of
    (a, b) with (c, r0 d) or with (d, c + r1 d), reduced mod p.  The
    contractions run in float32 BLAS and are reduced in uint16, exact
    while their sums stay below 2^16: each of the 2k terms of a sum over k
    coordinates is below p^3, and more coordinates are refused.
    """
    p = field.p
    u1, u0 = _IRREDUCIBLE[p] if field.k == 2 else (0, 0)
    r0, r1 = -u0 % p, -u1 % p
    u = np.asarray(u, dtype=np.int64)
    if 2 * u.shape[-1] * p**3 >= 2**16:
        raise ValueError("too many coordinates for an exact Hermitian form")
    b, a = np.divmod(u, p)
    d, c = np.divmod(np.asarray(field.conj)[np.asarray(v)], p)
    x = np.concatenate([a, b], axis=-1).astype(np.float32)

    def component(y0, y1):
        y = np.concatenate([y0, y1], axis=-1).astype(np.float32)
        return np.einsum("...k,...k->...", x, y, optimize=True).astype(np.uint16) % p

    return (component(c, r0 * d) + p * component(d, c + r1 * d)).astype(np.uint8)
