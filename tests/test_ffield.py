import pytest
from hypothesis import given, settings, strategies as st

from charp.ffield import (TABLE_LIMIT, FiniteField, _fp_mulmod, _fp_powmod,
                          canonical_modulus)


def test_canonical_moduli_are_deterministic():
    assert canonical_modulus(2, 1) == (0, 1)
    assert canonical_modulus(2, 2) == (1, 1, 1)
    assert canonical_modulus(2, 3) == (1, 1, 0, 1)
    assert canonical_modulus(3, 2) == (1, 0, 1)


def test_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        FiniteField(4)
    with pytest.raises(ValueError):
        FiniteField(2, 0)


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
def test_field_axioms_exhaustive(p, d):
    F = FiniteField(p, d)
    elems = list(F.elements())
    assert len(elems) == p ** d
    for a in elems:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        assert F.pow(a, F.order) == a  # x^(p^d) = x
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == F.one
    # a couple of distributivity spot checks on the full square
    for a in elems[:6]:
        for b in elems[:6]:
            for c in elems[:6]:
                lhs = F.mul(a, F.add(b, c))
                rhs = F.add(F.mul(a, b), F.mul(a, c))
                assert lhs == rhs


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (2, 3)])
def test_pth_root_inverts_frobenius(p, d):
    F = FiniteField(p, d)
    for a in F.elements():
        assert F.pth_root(F.frob(a)) == a
        assert F.frob(F.pth_root(a)) == a


def test_trace_values():
    F4 = FiniteField(2, 2)
    assert F4.trace_to_prime(F4.one) == 0
    assert F4.trace_to_prime(F4.gen) == 1
    F2 = FiniteField(2)
    assert F2.trace_to_prime(F2.one) == 1


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_artin_schreier_solvability_matches_trace(p, d):
    F = FiniteField(p, d)
    for c in F.elements():
        x = F.solve_artin_schreier(c)
        if F.trace_to_prime(c) == 0:
            assert x is not None and F.sub(F.pow(x, p), x) == c
        else:
            assert x is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_f9_commutativity(i, j):
    F = FiniteField(3, 2)
    elems = list(F.elements())
    a, b = elems[i], elems[j]
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(a, b) == F.add(b, a)


def _reference(F, coeffs):
    return tuple(coeffs) + (0,) * (F.d - len(coeffs))


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2)])
def test_tables_match_modulus_reduction(p, d):
    # In GF(9) and GF(49) the generator g has order 4, so tables built from
    # powers of g would miss most of the field.
    F = FiniteField(p, d)
    mod = list(F.modulus)
    elems = list(F.elements())
    for a in elems:
        for b in elems:
            assert F.mul(a, b) == _reference(F, _fp_mulmod(list(a), list(b), mod, p))
        if F.is_zero(a):
            with pytest.raises(ZeroDivisionError):
                F.inv(a)
        else:
            assert F.inv(a) == _reference(F, _fp_powmod(list(a), F.order - 2, mod, p))
            assert F.div(F.one, a) == F.inv(a)
            assert F.pow(a, -1) == F.inv(a)
    with pytest.raises(KeyError):
        F.mul(F.one, (p,) + (0,) * (d - 1))  # digit out of range: no element


@pytest.mark.parametrize("p,d", [(2, 13), (3, 8), (2, 17)])
def test_large_field_multiplies_without_tables(p, d):
    F = FiniteField(p, d)
    assert F.order > TABLE_LIMIT
    mod = list(F.modulus)
    a = F.pow(F.gen, 16)
    b = F.from_coeffs([1, 0, 1, 1])
    for x, y in [(a, a), (a, b), (b, F.gen), (F.zero, a)]:
        assert F.mul(x, y) == _reference(F, _fp_mulmod(list(x), list(y), mod, p))
    assert F.mul(b, F.inv(b)) == F.one
    assert F.pth_root(F.frob(b)) == b
    assert F._tables() is None
