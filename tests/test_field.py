import random

import pytest

from reflexff import field_make, field_from_order
from reflexff.field import poly_is_irreducible


def test_prime_field_construction():
    f = field_make(2)
    assert (f.p, f.k, f.q) == (2, 1, 2)
    assert f.modulus is None


def test_gf4_default_modulus_is_forced():
    # x^2 + x + 1 is the only monic irreducible quadratic over GF(2)
    f = field_make(2, 2)
    assert f.modulus == (1, 1, 1)


def test_explicit_modulus_gf9():
    f = field_make(3, 2, [2, 1, 1])  # x^2 + x + 2, no root in GF(3)
    assert f.q == 9
    assert f.modulus == (2, 1, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        field_make(2, 2, [1, 0, 1])  # x^2 + 1 = (x + 1)^2 over GF(2)


def test_wrong_degree_and_nonmonic_modulus_rejected():
    with pytest.raises(ValueError):
        field_make(3, 2, [1, 1])
    with pytest.raises(ValueError):
        field_make(3, 2, [1, 1, 2])


def test_nonprime_characteristic_rejected():
    for bad in (1, 4, 6, 9):
        with pytest.raises(ValueError):
            field_make(bad)


def test_modulus_on_prime_field_rejected():
    with pytest.raises(ValueError):
        field_make(5, 1, [1, 1])


def test_order_limit():
    # the order is bounded before any primality test, power or factor loop,
    # so a huge p, k or q is rejected at once
    for p, k in [(2, 17), (257, 2), (1000000000000000003, 1), (3, 100000000)]:
        with pytest.raises(ValueError, match=r"exceeds the supported 2\^16"):
            field_make(p, k)
    with pytest.raises(ValueError, match=r"exceeds the supported 2\^16"):
        field_from_order(1000000000000000003)


def test_basic_arithmetic_examples():
    gf2 = field_make(2)
    assert gf2.add(1, 1) == 0
    gf4 = field_make(2, 2)
    assert gf4.mul(2, 2) == 3  # alpha * alpha = alpha + 1
    gf3 = field_make(3)
    assert gf3.inv(2) == 2     # 2 * 2 = 4 = 1


def test_inv_zero_is_error():
    for f in (field_make(2), field_make(3), field_make(2, 2)):
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_irreducibility_brute_matches():
    # brute factor search over GF(3): every monic quadratic with a root is
    # reducible, and x^2+x+2 / x^2+1 / x^2+2x+2 are the irreducible ones
    p = 3
    for a in range(p):
        for b in range(p):
            poly = (a, b, 1)
            has_root = any((x * x + b * x + a) % p == 0 for x in range(p))
            assert poly_is_irreducible(poly, p) == (not has_root)


FULL_AXIOM_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (3, 3)]
SAMPLED_AXIOM_ORDERS = [(5, 2), (7, 2), (2, 6)]


@pytest.mark.parametrize("p,k", FULL_AXIOM_ORDERS)
def test_field_axioms_full_tables(p, k):
    f = field_make(p, k)
    q = f.q
    els = range(q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,k", SAMPLED_AXIOM_ORDERS)
def test_field_axioms_sampled(p, k):
    f = field_make(p, k)
    q = f.q
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.add(a, f.neg(a)) == 0
    rng = random.Random(20260808)
    for _ in range(20000):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_large_field_without_full_tables():
    f = field_make(2, 10)  # q = 1024 > table limit
    assert f.add_t is None and f.mul_t is None
    assert f.mul(2, f.inv(2)) == 1
    rng = random.Random(5)
    for _ in range(2000):
        a, b, c = rng.randrange(1024), rng.randrange(1024), rng.randrange(1024)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_field_from_order():
    assert field_from_order(8) == field_make(2, 3)
    assert field_from_order(9) == field_make(3, 2)
    assert field_from_order(7) == field_make(7)
    with pytest.raises(ValueError):
        field_from_order(6)
    with pytest.raises(ValueError):
        field_from_order(12)


def test_field_value_semantics_and_pickle():
    import pickle

    f = field_make(3, 2)
    g = pickle.loads(pickle.dumps(f))
    assert f == g
    assert hash(f) == hash(g)
    assert g.mul(3, 3) == f.mul(3, 3)


def test_field_hash_is_cached_and_agrees_with_equality():
    import pickle

    from reflexff.field import FieldSpec

    for p, k, modulus in ((2, 3, (1, 1, 0, 1)), (3, 2, (1, 0, 1)), (5, 1, None)):
        f = field_make(p, k)
        equal = (field_make(p, k, modulus), FieldSpec(p, k, modulus),
                 pickle.loads(pickle.dumps(f)))
        for g in equal:
            assert g == f
            assert hash(g) == hash(f) == hash((p, k, modulus))
    assert field_make(2, 3) != field_make(2, 3, (1, 0, 1, 1))


def test_element_encoding_is_base_p_digits():
    # alpha in GF(9) is encoded as 3 (digits [0, 1]); alpha + 2 is 5
    f = field_make(3, 2)
    assert f.add(3, 2) == 5
    # constant terms add as GF(3) scalars
    assert f.add(1, 2) == 0
