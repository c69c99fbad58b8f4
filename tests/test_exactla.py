from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drguniform.errors import ExactnessError
from drguniform.exactla import (
    IntRowBasis,
    _deflate,
    det,
    express,
    int_poly_rational_roots,
    minimal_polynomial,
    nullspace,
    rref,
    solve_affine,
)

from oracles import dense_det, fraction_express

fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@given(st.lists(st.lists(fracs, min_size=3, max_size=3), min_size=1, max_size=5))
def test_rref_idempotent(rows):
    red, pivots = rref(rows)
    red2, pivots2 = rref(red) if red else ([], [])
    assert red == red2 and pivots == pivots2


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


@given(st.lists(st.lists(fracs, min_size=4, max_size=4), min_size=4, max_size=4))
@settings(max_examples=50)
def test_det_matches_oracle(m):
    assert det(m) == dense_det(m)


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


def test_minimal_polynomial_diagonalizable():
    m = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    assert minimal_polynomial(m) == [6, -5, 1]  # (t-2)(t-3)


def test_minimal_polynomial_nilpotent():
    m = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    assert minimal_polynomial(m) == [0, 0, 1]  # t^2


def test_int_row_basis():
    basis = IntRowBasis(3)
    assert basis.add([2, 4, 6]) == [1, 2, 3]
    assert basis.add([1, 2, 3]) is None
    assert basis.add([0, 0, 5]) == [0, 0, 1]
    assert basis.reduce([3, 6, 14]) is None  # 3*(1,2,3) + 5*(0,0,1)
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
    basis = IntRowBasis(width)
    for v in vectors:
        basis.add(v)
    rows = basis.basis()
    inside = [sum(c * v[j] for c, v in zip(combo, vectors)) for j in range(width)]
    coeffs = express(rows, inside)
    assert coeffs is not None
    assert coeffs == fraction_express(rows, inside)
    assert [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(width)] == inside
    if basis.reduce(extra) is not None:
        outside = [a + b for a, b in zip(inside, extra)]
        assert express(rows, outside) is None
        assert fraction_express(rows, outside) is None


def test_deflate_rejects_a_non_root():
    assert _deflate([-2, 1], Fraction(2)) == [1]
    with pytest.raises(ExactnessError):
        _deflate([1, 0, 1], Fraction(1))  # t^2 + 1 has no root at 1
