import pytest
from hypothesis import given, settings, strategies as st

from charp.ffield import TABLE_LIMIT, FiniteField, _exp_log_tables, canonical_modulus


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


def _mod(a, m, p):
    """a mod the monic m over GF(p), on int lists, by schoolbook long division."""
    a = [x % p for x in a]
    for k in range(len(a) - len(m), -1, -1):
        c = a[k + len(m) - 1]
        for j, mj in enumerate(m):
            a[k + j] = (a[k + j] - c * mj) % p
    return a[:len(m) - 1] if len(a) >= len(m) else a


def _reference_mul(F, a, b):
    """The product of two elements of F: schoolbook product reduced by the
    modulus, on ints, padded to d digits."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    r = _mod(prod, F.modulus, F.p)
    return tuple(r) + (0,) * (F.d - len(r))


def _reference_pow(F, a, e):
    out = F.one
    for _ in range(e):
        out = _reference_mul(F, out, a)
    return out


def _reference_inv(F, a):
    """a^(q-2) by square-and-multiply on the schoolbook product."""
    out, base, e = F.one, a, F.order - 2
    while e:
        if e & 1:
            out = _reference_mul(F, out, base)
        base = _reference_mul(F, base, base)
        e >>= 1
    return out


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2)])
def test_tables_match_modulus_reduction(p, d):
    # In GF(9) and GF(49) the generator g has order 4, so tables built from
    # powers of g would miss most of the field.
    F = FiniteField(p, d)
    elems = list(F.elements())
    for a in elems:
        for b in elems:
            assert F.mul(a, b) == _reference_mul(F, a, b)
        if F.is_zero(a):
            with pytest.raises(ZeroDivisionError):
                F.inv(a)
        else:
            assert _reference_mul(F, a, F.inv(a)) == F.one
            assert F.div(F.one, a) == F.inv(a)
            assert F.pow(a, -1) == F.inv(a)
    with pytest.raises(KeyError):
        F.mul(F.one, (p,) + (0,) * (d - 1))  # digit out of range: no element


@pytest.mark.parametrize("p,d", [(2, 13), (3, 8), (2, 17)])
def test_large_field_multiplies_without_tables(p, d):
    tables_before = _exp_log_tables.cache_info().currsize
    F = FiniteField(p, d)
    assert F.order > TABLE_LIMIT
    a = F.pow(F.gen, 16)
    assert a == _reference_pow(F, F.gen, 16)
    b = (1, 0, 1, 1) + (0,) * (d - 4)
    for x, y in [(a, a), (a, b), (b, F.gen), (F.zero, a)]:
        assert F.mul(x, y) == _reference_mul(F, x, y)
    assert F.mul(b, F.inv(b)) == F.one
    for x in [F.one, F.gen, a, b, (p - 1,) * d, (2 % p, 1, 0, 1, 1) + (0,) * (d - 5)]:
        x_inv = F.inv(x)
        assert x_inv == _reference_inv(F, x)
        assert _reference_mul(F, x, x_inv) == F.one
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)
    assert F.pth_root(F.frob(b)) == b
    assert _exp_log_tables.cache_info().currsize == tables_before


def _has_small_factor(f, p):
    """Whether the monic f over GF(p) has a monic factor of degree 1 ..
    deg(f) // 2, by trial division with every such polynomial."""
    d = len(f) - 1
    for k in range(1, d // 2 + 1):
        for code in range(p ** k):
            g = [(code // p ** i) % p for i in range(k)] + [1]
            if not any(_mod(f, g, p)):
                return True
    return False


@pytest.mark.parametrize("p,d", [(p, d) for p in (2, 3, 5) for d in range(1, 9) if p ** d <= 256])
def test_canonical_modulus_is_first_irreducible_by_trial_division(p, d):
    for code in range(p ** d):
        f = [(code // p ** i) % p for i in range(d)] + [1]
        if not _has_small_factor(f, p):
            break
    assert canonical_modulus(p, d) == tuple(f)
