import random
from fractions import Fraction
from math import gcd, isqrt, prod
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drguniform import exactla
from drguniform.errors import ExactnessError
from drguniform.exactla import (
    IntRowBasis,
    _annihilates,
    _crt,
    _int_array,
    _large_primes,
    _primes_for,
    _reduced_echelon,
    _residues,
    deflate,
    express,
    int_poly_rational_roots,
    int_product,
    kernel_gram,
    minimal_polynomial,
    modular_kernel,
    nullspace,
    solve_affine,
)

from oracles import (
    bigint_crt_prefixes,
    dense_det,
    fraction_express,
    fraction_minimal_polynomial,
    fraction_nullspace,
    fraction_solve_affine,
    rref,
)

fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@given(st.lists(st.lists(fracs, min_size=3, max_size=3), min_size=1, max_size=5))
def test_rref_idempotent(rows):
    reduced = _reduced_echelon(rows)
    assert _reduced_echelon(list(reduced.values())) == reduced
    red, pivots = rref(rows)
    assert list(reduced) == pivots
    assert [[Fraction(x, row[p]) for x in row] for p, row in reduced.items()] == red


@given(st.lists(st.lists(fracs, min_size=4, max_size=4), min_size=2, max_size=4))
def test_nullspace_annihilates(rows):
    for v in nullspace(rows, 4):
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


@given(
    st.lists(st.lists(fracs, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(fracs, min_size=3, max_size=3),
)
def test_solve_affine_consistent(rows, x):
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    sol = solve_affine(rows, rhs)
    assert sol is not None
    part, hom = sol
    for row, b in zip(rows, rhs):
        assert sum(a * c for a, c in zip(row, part)) == b
        for h in hom:
            assert sum(a * c for a, c in zip(row, h)) == 0


def test_solve_affine_inconsistent():
    assert solve_affine([[1, 1], [1, 1]], [1, 2]) is None


@st.composite
def rational_systems(draw):
    """Rows of ints and Fractions with entries up to 2^100, zero rows and
    rows that combine earlier ones, and a right-hand side that is either
    consistent, arbitrary, or made inconsistent on a repeated row."""
    width = draw(st.integers(min_value=1, max_value=6))
    bits = draw(st.sampled_from([2, 30, 100]))
    num = st.integers(min_value=-(2**bits), max_value=2**bits)
    entry = st.one_of(num, st.builds(Fraction, num, st.integers(1, 2**bits)))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        kind = draw(st.sampled_from(["generic", "zero", "combo"]))
        if kind == "zero":
            zero = st.sampled_from([0, Fraction(0)])
            rows.append(draw(st.lists(zero, min_size=width, max_size=width)))
        elif kind == "combo" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(entry)
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=width, max_size=width)))
    x = draw(st.lists(entry, min_size=width, max_size=width))
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    rhs_kind = draw(st.sampled_from(["consistent", "arbitrary", "inconsistent"]))
    if rhs_kind == "arbitrary":
        rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    elif rhs_kind == "inconsistent":
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rows.append(rows[i])
        rhs.append(rhs[i] + 1)
    return width, rows, rhs, rhs_kind


def _all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


@given(rational_systems())
@settings(max_examples=300, deadline=None)
def test_nullspace_and_solve_affine_match_fraction_oracle(case):
    width, rows, rhs, rhs_kind = case
    kernel = nullspace(rows, width)
    assert kernel == fraction_nullspace(rows, width) and _all_fractions(kernel)
    sol = solve_affine(rows, rhs)
    assert sol == fraction_solve_affine(rows, rhs)
    if rhs_kind == "consistent":
        assert sol is not None
    if rhs_kind == "inconsistent":
        assert sol is None
    if sol is not None:
        assert sol[1] == kernel and _all_fractions([sol[0]])


def test_nullspace_of_no_rows_is_the_standard_basis():
    assert nullspace([], 2) == [[1, 0], [0, 1]] == fraction_nullspace([], 2)


def test_rational_roots():
    # (t-2)(t+3)(t^2+1) = t^4 + t^3 - 5t^2 + t - 6
    roots, residual = int_poly_rational_roots([-6, 1, -5, 1, 1])
    assert sorted(roots) == [Fraction(-3), Fraction(2)]
    assert len(residual) == 3  # irreducible quadratic left

    roots, residual = int_poly_rational_roots([6, -5, 1])  # (t-2)(t-3)
    assert sorted(roots) == [2, 3] and residual == [1]

    roots, residual = int_poly_rational_roots([0, 0, 1])  # t^2
    assert roots == [0, 0] and residual == [1]

    roots, _ = int_poly_rational_roots([-1, 0, 2])  # 2t^2 - 1, irrational
    assert roots == []


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sympy_rational_roots(coeffs):
    """The rational roots that sympy's factorization finds, with
    multiplicity, ascending."""
    found = sympy.Poly(coeffs[::-1], sympy.Symbol("t")).ground_roots()
    return sorted(Fraction(int(r.p), int(r.q)) for r, k in found.items() for _ in range(k))


def _irreducible_quadratic(q):
    disc = q[1] ** 2 - 4 * q[0] * q[2]
    return q[2] != 0 and (disc < 0 or isqrt(disc) ** 2 != disc)


BIG = 2**2000


@st.composite
def products_of_linear_factors(draw):
    """A constant times powers of t, of (b t - a) factors with coefficients
    up to 2^2000 and multiplicities 1 to 3, and maybe of an irreducible
    quadratic, multiplied out."""
    coeffs = [draw(st.integers(-(2**64), 2**64).filter(bool))]
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(-BIG, BIG)), draw(st.integers(1, BIG))
        for _ in range(draw(st.integers(1, 3))):
            coeffs = _poly_mul(coeffs, [-a, b])
    coeffs = [0] * draw(st.integers(0, 2)) + coeffs
    if draw(st.booleans()):
        quadratic = st.lists(st.integers(-BIG, BIG), min_size=3, max_size=3)
        coeffs = _poly_mul(coeffs, draw(quadratic.filter(_irreducible_quadratic)))
    return coeffs


@given(products_of_linear_factors())
@settings(max_examples=40, deadline=None)
def test_rational_roots_match_sympy(coeffs):
    roots, residual = int_poly_rational_roots(coeffs)
    assert sorted(roots) == _sympy_rational_roots(coeffs)
    assert _sympy_rational_roots(residual) == []
    # the residual is f / prod(t - a/b), so residual * prod(b t - a) is
    # f * prod(b)
    product, scale = residual, 1
    for r in roots:
        product = _poly_mul(product, [-r.numerator, r.denominator])
        scale *= r.denominator
    assert product == [scale * c for c in coeffs]


# Minimal polynomials of splitting elements that decompose met on J(9,4)
# relabelled by random.Random("2:0:johnson-9-4").shuffle, base 0, algebra
# T: each has two rational roots, which a floating-point search missed,
# so their modules were left unsplit.
J94_QUADRATICS = [
    [
        -13887219656126133256015873597118566273518653945391146804354807395739304892871,
        -435127377713704220555837317785078844251,
        2,
    ],
    [
        890783713361382748504882063024939383444738293443543737049123339269012310025263003038212800696739195930609516525671606972674937173676620486391213117931086079536552968877933195891055546631570823037502576982886717599206884657842876884796,
        4777167899349299465750061110474730879572909522163733651056793864468275146988823557164173021990153062250444876979949777,
        2,
    ],
    [
        -43483063906247683073450923477166993849060488566204371111842456775615155904255038079377289137221611441370052785558985019907248903789249357537945143984673645452618661564842314065525924372856640853403395379854677600774883503823804153908920220825847516217646747520820822581264164620329548288601257405520220446053881832175573423329336834586849172560258051793009177199659950220194221783502674893378398967888849973283967080398419986588969539704593320543948100228976593578963473893063262239904798231283832290406065976026792046499177,
        -337870897050192604216155152949323983863797852118757197156958099247744743992482234792916252711856679297029824173731958321718622121140848479999649443211292459291723299229954868579962547411695367384983124780448224215540777709303005188782625876232067944357260726589564403717427368187593172548208824769594494118744119974784732234171296673789836679487195028,
        7234825946804261308813842167073864222599696392249778425378691446679217250380368703529522425507526640563222973533058481587083176956995517268981669047219517948918686497438473640605,
    ],
]


@pytest.mark.parametrize("coeffs", J94_QUADRATICS)
def test_rational_roots_of_large_quadratics(coeffs):
    c, b, a = coeffs
    d = isqrt(b * b - 4 * a * c)
    assert d * d == b * b - 4 * a * c
    roots, residual = int_poly_rational_roots(coeffs)
    assert roots == sorted([Fraction(-b - d, 2 * a), Fraction(-b + d, 2 * a)])
    assert len(residual) == 1


def test_minimal_polynomial_diagonalizable():
    m = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    assert minimal_polynomial(m) == [6, -5, 1]  # (t-2)(t-3)


def test_minimal_polynomial_nilpotent():
    m = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    assert minimal_polynomial(m) == [0, 0, 1]  # t^2


@st.composite
def small_matrices(draw):
    """Small rational matrices: generic, low rank, nilpotent (strictly
    upper triangular), scalar, and diagonal with repeated entries."""
    n = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["generic", "low_rank", "nilpotent", "scalar", "diagonal"]))
    if kind == "scalar":
        c = draw(fracs)
        return [[c if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    if kind == "diagonal":
        values = st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(3)])
        diag = draw(st.lists(values, min_size=n, max_size=n))
        return [[diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    m = [draw(st.lists(fracs, min_size=n, max_size=n)) for _ in range(n)]
    if kind == "nilpotent":
        return [[x if j > i else Fraction(0) for j, x in enumerate(row)]
                for i, row in enumerate(m)]
    if kind == "low_rank":
        return [[m[0][i] * m[1 % n][j] for j in range(n)] for i in range(n)]
    return m


@given(small_matrices())
@settings(max_examples=200, deadline=None)
def test_minimal_polynomial_matches_fraction_oracle(m):
    coeffs = minimal_polynomial(m)
    assert coeffs == fraction_minimal_polynomial(m)
    assert coeffs[-1] > 0 and all(type(c) is int for c in coeffs)


def test_int_row_basis():
    basis = IntRowBasis()
    assert basis.add([2, 4, 6]) == [1, 2, 3]
    assert basis.add([1, 2, 3]) is None
    assert basis.add([0, 0, 5]) == [0, 0, 1]
    assert express(basis.basis(), [3, 6, 14]) is not None  # 3*(1,2,3) + 5*(0,0,1)
    assert len(basis) == 2


@st.composite
def spans(draw):
    """Integer vectors, a combination of them, and one more vector."""
    width = draw(st.integers(min_value=1, max_value=24))
    vec = st.lists(st.integers(min_value=-9, max_value=9), min_size=width, max_size=width)
    vectors = draw(st.lists(vec, min_size=1, max_size=24))
    combo = draw(st.lists(st.integers(-9, 9), min_size=len(vectors), max_size=len(vectors)))
    return width, vectors, combo, draw(vec)


@given(spans())
@settings(max_examples=150)
def test_express_matches_fraction_oracle(case):
    width, vectors, combo, extra = case
    basis = IntRowBasis()
    for v in vectors:
        basis.add(v)
    rows = basis.basis()
    inside = [sum(c * v[j] for c, v in zip(combo, vectors)) for j in range(width)]
    coeffs = express(rows, inside)
    assert coeffs is not None
    assert coeffs == fraction_express(rows, inside)
    assert [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(width)] == inside
    if express(rows, extra) is None:
        outside = [a + b for a, b in zip(inside, extra)]
        assert express(rows, outside) is None
        assert fraction_express(rows, outside) is None


@given(spans())
@settings(max_examples=150)
def test_add_and_extend_insert_the_same_rows(case):
    # add and extend share one substitution: on twin bases they insert the
    # same rows, and extend's coordinates rebuild each vector exactly
    width, vectors, combo, extra = case
    added, extended = IntRowBasis(), IntRowBasis()
    inside = [sum(c * v[j] for c, v in zip(combo, vectors)) for j in range(width)]
    for vec in vectors + [inside, extra]:
        row = added.add(vec)
        coords, ext_row = extended.extend(vec)
        assert ext_row == row and extended.rows == added.rows
        assert [sum(c * extended.rows[p][j] for p, c in coords.items()) for j in range(width)] == vec
        assert [coords[p] for p in sorted(extended.rows)] == fraction_express(extended.basis(), vec)


def test_deflate_rejects_a_non_root():
    assert deflate([-2, 1], Fraction(2)) == [1]
    with pytest.raises(ExactnessError):
        deflate([1, 0, 1], Fraction(1))  # t^2 + 1 has no root at 1


@st.composite
def row_sets(draw):
    """Integer row sets with generic pivots, zero leading columns, gaps
    (dependent rows, so the first free column comes before the rank),
    and entries up to 2^300."""
    width = draw(st.integers(min_value=1, max_value=10))
    bits = draw(st.sampled_from([3, 40, 100, 300]))
    entry = st.integers(min_value=-(2**bits), max_value=2**bits)
    zero_lead = draw(st.integers(min_value=0, max_value=width - 1))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=width + 2))):
        kind = draw(st.sampled_from(["generic", "sparse", "combo"]))
        if kind == "combo" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(st.integers(-3, 3))
            rows.append([x + c * y for x, y in zip(a, b)])
            continue
        row = [0] * zero_lead + [draw(entry) for _ in range(width - zero_lead)]
        if kind == "sparse":
            row = [x if draw(st.booleans()) else 0 for x in row]
        rows.append(row)
    return width, rows


def _as_fractions(free, basis):
    """Each kernel vector over its entry at its free column."""
    return [[Fraction(x, w[f]) for x in w] for f, w in zip(free, basis)]


def _check_kernel(rows, width):
    # the complement of the rows, computed modulo primes, is the exact
    # nullspace, each vector over its least denominator
    free, basis = modular_kernel(rows, width)
    assert free == sorted(set(range(width)) - set(_reduced_echelon(rows)))
    assert _as_fractions(free, basis) == nullspace(rows, width)
    for f, w in zip(free, basis):
        assert all(type(x) is int for x in w) and w[f] > 0 and gcd(*w) == 1
    return free, basis


@given(row_sets())
@settings(max_examples=200, deadline=None)
def test_modular_complement_seed_matches_oracle(case):
    width, rows = case
    _check_kernel(rows, width)


def test_modular_complement_full_rank_is_none():
    assert modular_kernel([[2, 1, 0], [0, 3, 1], [5, 0, 2**200]], 3) == ([], [])
    assert modular_kernel([], 2) == ([0, 1], [[1, 0], [0, 1]])


def _record_primes(monkeypatch):
    """The primes ``modular_kernel`` reduces under, in the order it does."""
    used = []
    echelon = exactla._echelon_mod

    def recorded(mat, p):
        used.append(p)
        return echelon(mat, p)

    monkeypatch.setattr(exactla, "_echelon_mod", recorded)
    return used


def _record_moduli(monkeypatch):
    """The moduli ``modular_kernel`` lifts under, in the order it does."""
    moduli, lift = [], exactla._lift

    def recorded(values, modulus, *args):
        moduli.append(modulus)
        return lift(values, modulus, *args)

    monkeypatch.setattr(exactla, "_lift", recorded)
    return moduli


def test_modular_complement_replaces_a_prime_that_loses_rank(monkeypatch):
    # modulo p0 the row is (0, 1, 0, 0): its pivot moves to column 1, the
    # vector lifted from p0 alone is not in the kernel, and the next prime
    # finds the pivot at column 0
    used, moduli = _record_primes(monkeypatch), _record_moduli(monkeypatch)
    p0 = _large_primes(1)[0]
    rows = [[p0, 1, 0, 0]]
    assert _check_kernel(rows, 4) == ([1, 2, 3], [[-1, p0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert used[0] == p0 and p0 not in used[1:]
    # each lift is over all the primes of its round, so each holds more
    # primes than the one before: p0 alone, then two and three of the next
    assert [sum(m % p == 0 for p in _large_primes(8)) for m in moduli] == [1, 2, 3]


def test_modular_complement_grows_when_every_prime_is_unlucky(monkeypatch):
    # tridiagonal rows with small entries whose leading block has
    # determinant p0 (a continuant of the continued fraction of p0/q):
    # the first prime, p0, finds a pivot past that block, so the first
    # certificate must fail and the primes double
    p0 = _large_primes(1)[0]
    quotients = []
    a, b = p0, p0 * 618 // 1000
    while b:
        quotients.append(a // b)
        a, b = b, a % b
    f = len(quotients)
    rows = []
    for i, q in enumerate(quotients):
        row = [0] * (f + 1)
        if i:
            row[i - 1] = -1
        row[i] = q
        row[i + 1] = 1
        rows.append(row)
    assert dense_det([r[:f] for r in rows]) == p0
    used = _record_primes(monkeypatch)
    assert _check_kernel(rows, f + 1)[0] == [f]
    assert used[0] == p0 and p0 not in used[1:] and len(used) >= 3


@pytest.mark.parametrize("bits", [3, 60])
def test_modular_complement_seed_stops_at_the_hadamard_cap(monkeypatch, bits):
    # a certificate that never passes: the primes double up to the cap,
    # a modulus past 2 H^2, then the kernel raises
    rng = random.Random(bits)
    rows = [[rng.randint(-(2**bits), 2**bits) for _ in range(12)] for _ in range(8)]
    h_bits = sum(-(-sum(x * x for x in row).bit_length() // 2) for row in rows)
    used = _record_primes(monkeypatch)
    monkeypatch.setattr(exactla, "_annihilates", lambda mat, vectors: False)
    with pytest.raises(ExactnessError, match="Hadamard cap"):
        modular_kernel(rows, 12)
    assert len(set(used)) == _primes_for(2 * h_bits + 2)
    monkeypatch.undo()
    _check_kernel(rows, 12)


@st.composite
def _lift_columns(draw):
    """(values, modulus, pivots, free, ncols) as ``modular_kernel`` hands
    them to ``_lift``: a modulus of one prime, below 2^62, or of three,
    past it, and columns whose values stand for integers within the
    reconstruction bound or at it, for fractions, or for nothing in
    particular."""
    modulus = prod(_large_primes(draw(st.sampled_from([1, 3]))))
    bound = isqrt(modulus // 2)
    ncols = draw(st.integers(1, 6))
    free = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=1)))
    pivots = [c for c in range(ncols) if c not in free]
    columns = []
    for _ in free:
        kind = draw(st.sampled_from(["integer", "edge", "fraction", "any"]))
        column = []
        for _ in pivots:
            if kind == "integer":
                column.append(draw(st.integers(-bound, bound)) % modulus)
            elif kind == "edge":  # integers at the reconstruction bound
                column.append((draw(st.sampled_from([-bound, bound])) + draw(st.integers(-2, 2))) % modulus)
            elif kind == "fraction":
                num, den = draw(st.integers(-50, 50)), draw(st.integers(2, 50))
                column.append(num * pow(den, -1, modulus) % modulus)
            else:
                column.append(draw(st.integers(0, modulus - 1)))
        columns.append(column)
    values = [columns[j][i] for i in range(len(pivots)) for j in range(len(free))]
    return values, modulus, pivots, free, ncols


@given(_lift_columns())
@settings(max_examples=300)
def test_lift_reads_integral_columns_off_directly(case):
    # the columns whose centred values are integers are read off an
    # array, int64 below 2^62 and Python ints beyond, the others
    # reconstructed; either way, each vector is _rational_vector's on its
    # column, placed at the pivot columns and its free column, and
    # _rational_vector sees only the columns that are not integral
    values, modulus, pivots, free, ncols = case
    k = len(free)
    expected = [exactla._rational_vector(values[j::k] + [1], modulus) for j in range(k)]
    with mock.patch.object(exactla, "_rational_vector", wraps=exactla._rational_vector) as spy:
        basis = exactla._lift(values, modulus, pivots, free, ncols)
    if None in expected:
        assert basis is None
        return
    centred = [[min(v, modulus - v) for v in values[j::k]] for j in range(k)]
    integral = [max(column, default=0) <= isqrt(modulus // 2) for column in centred]
    assert spy.call_count == integral.count(False)
    for w, lifted, f in zip(basis, expected, free):
        assert [w[c] for c in pivots] == lifted[:-1] and w[f] == lifted[-1]
        assert all(type(x) is int for x in w) and not any(w[c] for c in range(ncols) if c not in pivots + [f])


def test_modular_complement_certificate(monkeypatch):
    mat = _int_array([[1, 2, 0]], 3)
    assert _annihilates(mat, [[2, -1, 0], [0, 0, 1]])
    assert not _annihilates(mat, [[2, -1, 0], [3, -1, 0]])  # one outside the kernel
    # off the kernel by a multiple of P, the product of the four largest
    # primes below 2^26; the second matrix has an entry past int64
    P = prod(_large_primes(4))
    assert not _annihilates(mat, [[2 + P, -1, 0]])
    assert not _annihilates(_int_array([[2**70, 1]], 2), [[1, -(2**70) + P]])
    # M w = 2^64, which int64 sums would wrap to 0
    assert not _annihilates(_int_array([[2**32, 1]], 2), [[2**32, 0]])
    # a lifted vector corrupted by its modulus agrees with the kernel
    # modulo every prime it was lifted from: every candidate is rejected
    lift = exactla._lift

    def corrupted(values, modulus, pivots, free, ncols):
        basis = lift(values, modulus, pivots, free, ncols)
        if basis is not None:
            basis[0][pivots[0]] += modulus
        return basis

    monkeypatch.setattr(exactla, "_lift", corrupted)
    with pytest.raises(ExactnessError, match="Hadamard cap"):
        modular_kernel([[3, 5, 7], [1, -2, 4]], 3)


_EDGE = isqrt((2**63 - 1) // 3)  # 3 m^2 < 2^63 <= 3 (m + 1)^2 for m = _EDGE


@pytest.mark.parametrize("m, dtype", [(_EDGE, np.int64), (_EDGE + 1, object)])
def test_annihilates_on_both_sides_of_the_int64_bound(m, dtype):
    # ncols max|M| max|w| = 3 m^2 is just below 2^63 for the first m, so
    # the certificate's product runs in int64, and just above it for the
    # second, over Python ints; the second vector misses the kernel by one
    mat = _int_array([[m, -(m - 1), 1]], 3)
    kernel, off = [m - 1, m, 0], [m - 1, m, 1]
    assert int_product(mat, np.array([kernel, off]).T).dtype == dtype
    assert _annihilates(mat, [kernel])
    assert not _annihilates(mat, [off])
    assert not _annihilates(mat, [kernel, off])


@pytest.mark.parametrize("m", [_EDGE, _EDGE + 1])
def test_hadamard_cap_on_both_sides_of_the_int64_bound(monkeypatch, m):
    # 3 m^2 is just below 2^63 for the first m, so the rows' squared norms
    # are summed in int64, and just above it for the second, over Python
    # ints: either way the cap is the one Python sums give, and no set of
    # primes is lifted twice on the way to it
    rows = [[m, -m, m], [1, m, 0]]
    h_bits = sum(-(-sum(x * x for x in row).bit_length() // 2) for row in rows)
    used, moduli = _record_primes(monkeypatch), _record_moduli(monkeypatch)
    monkeypatch.setattr(exactla, "_annihilates", lambda mat, vectors: False)
    with pytest.raises(ExactnessError, match="Hadamard cap"):
        modular_kernel(rows, 3)
    assert len(set(used)) == _primes_for(2 * h_bits + 2)
    assert len(moduli) == len(set(moduli)) > 1


def _python_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def int_matrix_pairs(draw):
    """Integer matrices a and b with a b defined, of up to about 40 bits
    each, so the bound ncols max|a| max|b| falls on both sides of 2^63."""
    m, n, k = (draw(st.integers(1, 8)) for _ in range(3))

    def matrix(rows, cols):
        bits = draw(st.integers(0, 40))
        entry = st.integers(-(2**bits), 2**bits)
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    return matrix(m, n), matrix(n, k)


@given(int_matrix_pairs())
@settings(max_examples=200, deadline=None)
def test_int_product_matches_python_ints(case):
    a, b = case
    assert int_product(a, b).tolist() == _python_product(a, b)


@pytest.mark.parametrize(
    "a, b, dtype",
    [
        # odd sums on both sides of 2^53, which float64 would round to even
        ([[2**26 + 1]], [[2**26 + 1]], np.int64),
        ([[2**25 + 1, 2**25 + 1]], [[2**26 + 1], [2**26 + 1]], np.int64),
        ([[2**27 + 1]], [[2**26 + 1]], np.int64),
        ([[2**26 + 1, 2**26 + 1]], [[2**26 + 1], [2**26 + 1]], np.int64),
        # past 2^63: entries fit int64 but the sum does not
        ([[2**62, 2**62]], [[1], [1]], object),
        ([[2**32 + 1]], [[-(2**31) - 1]], object),
        ([[2**70, -1]], [[1], [2**70]], object),
        # an entry past float64's range, times zero
        ([[2**1100]], [[0]], object),
    ],
)
def test_int_product_on_both_sides_of_the_int64_bound(a, b, dtype):
    out = int_product(a, b)
    assert out.dtype == dtype
    assert out.tolist() == _python_product(a, b)


@given(row_sets(), st.data())
@settings(max_examples=100, deadline=None)
def test_kernel_gram_is_the_product_with_the_kernel_basis(case, data):
    # rows B^T from B's diagonal free block and its pivot columns is the
    # whole product, for small rows and rows past int64
    width, rows = case
    free, basis = modular_kernel(rows, width)
    bits = data.draw(st.sampled_from([3, 40, 70]))
    entry = st.integers(-(2**bits), 2**bits)
    probe = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=4))
    if free:
        assert kernel_gram(probe, (free, basis), width) == _python_product(probe, list(zip(*basis)))


@st.composite
def wide_row_sets(draw):
    """Banded rows wider than 64 columns: small entries, dependent
    combinations, and now and then a row of 40 or 120 bits."""
    width = draw(st.integers(min_value=65, max_value=88))
    rows = []
    for i in range(draw(st.integers(min_value=64, max_value=width + 2))):
        kind = draw(st.sampled_from(["sparse"] * 7 + ["combo", "large", "anywhere"]))
        if kind == "combo" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([x + 2 * y for x, y in zip(a, b)])
            continue
        bits = draw(st.sampled_from([40, 120])) if kind == "large" else 2
        lead = draw(st.integers(0, width - 1)) if kind == "anywhere" else i % width
        row = [0] * width
        row[lead] = draw(st.integers(min_value=1, max_value=2**bits))
        for c in draw(st.lists(st.integers(lead, min(lead + 4, width - 1)), max_size=3)):
            row[c] = draw(st.integers(min_value=-(2**bits), max_value=2**bits))
        rows.append(row)
    return width, rows


@given(wide_row_sets())
@settings(max_examples=25, deadline=None)
def test_modular_complement_wide_seeds_match_oracle(case):
    width, rows = case
    _check_kernel(rows, width)


def test_large_primes_reach_past_the_recursion_limit():
    primes = _large_primes(1500)
    expected = [2**26]
    for _ in range(1500):
        expected.append(sympy.prevprime(expected[-1]))
    assert list(primes) == expected[1:]
    assert _large_primes(7) == primes[:7]


@pytest.mark.parametrize("seed", range(5))
def test_residues_of_big_vectors_match_the_remainder(seed):
    rng = random.Random(seed)
    edges = [2**63, -(2**63), 2**63 - 1, -(2**63) - 1, 0, 1, -1, 255, -256]
    vec = edges + [rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 400)) for _ in range(31)]
    rng.shuffle(vec)
    for p in _large_primes(9):
        got = _residues(_int_array([vec], 40), p)
        assert got.dtype == np.int64
        assert got.tolist() == [[x % p for x in vec]]
        # entries that all fit in int64 take the int64 path
        small = [-(2**63), 2**63 - 1, -5, 7]
        assert _int_array([small], 4).dtype == np.int64
        assert _residues(_int_array([small], 4), p).tolist() == [[x % p for x in small]]


@given(st.integers(1, 300), st.integers(1, 70), st.integers(0, 2**32 - 1))
@example(300, 70, 0)
@example(1, 1, 0)
@settings(max_examples=40, deadline=None)
def test_crt_matches_the_bigint_garner_oracle(k, width, seed):
    # the values and modulus over all K primes are the oracle's last
    # prefix, which reduces every earlier radix as a Python int, and each
    # value has the given residues modulo every prime
    primes = _large_primes(k)
    p = np.array(primes, dtype=np.int64)[:, None]
    residues = np.random.default_rng(seed).integers(0, 2**26, size=(k, width)) % p
    got = _crt(residues, primes)
    assert got == list(bigint_crt_prefixes(residues, primes))[-1]
    values, modulus = got
    assert modulus == prod(primes)
    assert [[v % q for v in values] for q in primes] == residues.tolist()
