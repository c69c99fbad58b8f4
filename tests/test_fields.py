from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drguniform import UnsupportedField
from drguniform.fields import FiniteField, hermitian_inner

from oracles import rank_gf, rref_gf, scalar_hermitian_inner


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    F = FiniteField(p, k)
    q = F.order
    elems = range(q)
    for a in elems:
        assert F.add[a][0] == a and F.mul[a][1] == a and F.mul[a][0] == 0
        assert F.add[a][F.neg[a]] == 0
        if a:
            assert F.mul[a][F.inv[a]] == 1
        for b in elems:
            assert F.add[a][b] == F.add[b][a]
            assert F.mul[a][b] == F.mul[b][a]
            for c in elems:
                assert F.add[F.add[a][b]][c] == F.add[a][F.add[b][c]]
                assert F.mul[F.mul[a][b]][c] == F.mul[a][F.mul[b][c]]
                assert F.mul[a][F.add[b][c]] == F.add[F.mul[a][b]][F.mul[a][c]]


@pytest.mark.parametrize("p", [2, 3])
def test_conjugation_involutive_automorphism(p):
    F = FiniteField(p, 2)
    for a in range(F.order):
        assert F.conj[F.conj[a]] == a
        for b in range(F.order):
            assert F.conj[F.mul[a][b]] == F.mul[F.conj[a]][F.conj[b]]
            assert F.conj[F.add[a][b]] == F.add[F.conj[a]][F.conj[b]]
    fixed = [a for a in range(F.order) if F.conj[a] == a]
    assert len(fixed) == p  # exactly the prime subfield
    assert fixed == F.prime_subfield()


def test_unsupported_fields():
    with pytest.raises(UnsupportedField):
        FiniteField(4)
    with pytest.raises(UnsupportedField):
        FiniteField(2, 3)


def test_hermitian_inner_conjugate_symmetry():
    F = FiniteField(2, 2)
    for u in product(range(4), repeat=2):
        for v in product(range(4), repeat=2):
            assert hermitian_inner(F, u, v) == F.conj[hermitian_inner(F, v, u)]


@pytest.mark.parametrize("p", [2, 3])
def test_hermitian_gram_matches_scalar_inner(p):
    F = FiniteField(p, 2)
    vecs = list(product(range(F.order), repeat=2))
    gram = hermitian_inner(F, [[u] for u in vecs], [vecs])
    assert gram.shape == (len(vecs), len(vecs))
    for i, u in enumerate(vecs):
        for j, v in enumerate(vecs):
            assert gram[i, j] == scalar_hermitian_inner(F, u, v)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 8), st.data())
def test_hermitian_gram_of_longer_vectors_matches_scalar_inner(p, k, data):
    F = FiniteField(p, 2)
    vecs = st.lists(st.lists(st.integers(0, F.order - 1), min_size=k, max_size=k), min_size=1, max_size=6)
    us, vs = data.draw(vecs), data.draw(vecs)
    gram = hermitian_inner(F, [[u] for u in us], [vs])
    assert gram.tolist() == [[scalar_hermitian_inner(F, u, v) for v in vs] for u in us]


def test_hermitian_inner_refuses_sums_it_cannot_reduce_exactly():
    F = FiniteField(7, 2)
    assert hermitian_inner(F, [48] * 95, [48] * 95) == scalar_hermitian_inner(F, [48] * 95, [48] * 95)
    with pytest.raises(ValueError, match="too many coordinates"):
        hermitian_inner(F, [48] * 96, [48] * 96)


def test_rref_rank():
    F = FiniteField(2, 2)
    rows = [(1, 0, 2), (0, 1, 3), (1, 1, 1)]  # row3 = row1 + row2 over GF(4)
    assert rank_gf(F, rows) == 2
    reduced, pivots = rref_gf(F, rows)
    assert pivots == [0, 1]
    assert reduced == [(1, 0, 2), (0, 1, 3)]
