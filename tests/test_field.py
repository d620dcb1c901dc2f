import hashlib
import random

import pytest

from reflexff import field, field_make, field_from_order
from reflexff.field import poly_is_irreducible
from oracles import digit_add, digit_mul, digit_neg


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
    # 63001 = 251^2 and 65535 = 3 * 5 * 17 * 257 need the whole trial division
    for bad in (1, 4, 6, 9, 63001, 65535):
        with pytest.raises(ValueError):
            field_make(bad)


def test_non_integer_modulus_coefficients_rejected():
    from reflexff.field import FieldSpec

    for bad in (1.9, "1", None):
        for make in (field_make, FieldSpec):
            with pytest.raises(ValueError, match=f"coefficient {bad!r} is not an integer"):
                make(2, 2, [bad, 1, 1])
    # 1.0 == 1 hashes alike, yet it does not reach a field cached for 1
    f = field_make(2, 2, [1, 1, 1])
    with pytest.raises(ValueError, match="coefficient 1.0 is not an integer"):
        field_make(2, 2, [1.0, 1, 1])
    assert field_make(2, 2, (1, 1, 1)) is f


@pytest.mark.parametrize("p,k", [(2.0, 1), (5, 1.0), (3, True)])
def test_non_int_characteristic_and_degree_rejected(monkeypatch, p, k):
    # rejected in a fresh process and once the int field is cached: 2.0 == 2
    # and True == 1 hash alike, so they must not reach its cache key
    from reflexff.field import FieldSpec

    monkeypatch.setattr(field, "_FIELDS", {})
    for make in (field_make, FieldSpec):
        with pytest.raises(ValueError, match="p and k must be integers"):
            make(p, k, None)
    f = field_make(int(p), int(k))
    with pytest.raises(ValueError, match="p and k must be integers"):
        field_make(p, k)
    assert field_make(int(p), int(k)) is f


def test_degree_and_coefficient_range_rejected():
    with pytest.raises(ValueError, match="extension degree must be >= 1, got 0"):
        field_make(2, 0)
    for bad in ([3, 0, 1], [-1, 0, 1], [1, 5, 1]):
        with pytest.raises(ValueError, match=r"coefficients must lie in \[0, 3\)"):
            field_make(3, 2, bad)


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


def test_order_limit_names_the_order_one_way():
    # a (p, k) pair and its order q are refused in the same words; past
    # k = 16 the pair is named as p^k, since its power is never formed
    for p, k in [(257, 2), (65537, 1), (3, 11)]:
        with pytest.raises(ValueError) as by_pair:
            field_make(p, k)
        with pytest.raises(ValueError) as by_order:
            field_from_order(p**k)
        assert str(by_pair.value) == str(by_order.value)
    assert str(by_pair.value) == "field order 177147 exceeds the supported 2^16"
    with pytest.raises(ValueError, match=r"^field order 2\^17 exceeds"):
        field_make(2, 17)


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


@pytest.mark.parametrize("p,k", [(2, 10), (3, 6), (257, 1), (2, 16)])
def test_large_field_without_full_tables(p, k):
    f = field_make(p, k)  # q > table limit
    q = f.q
    # no stored q*q tables: add_t and mul_t are stand-ins (see below)
    assert not isinstance(f.add_t, list) and not isinstance(f.mul_t, list)
    assert f.mul(2, f.inv(2)) == 1
    rng = random.Random(5)
    for _ in range(2000):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [257, 512, 65521, 1 << 16])
def test_lookups_past_the_table_limit_answer_add_and_mul(q):
    # the stand-ins the kernels index as q*q tables: entry a * q + b is
    # add(a, b) or mul(a, b), on seeded pairs and on the corners 0, 1, q - 1
    f = field_from_order(q)
    assert q > field.TABLE_LIMIT
    rng = random.Random(q)
    corners = [0, 1, q - 1]
    pairs = [(a, b) for a in corners for b in corners]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    pairs += [(a, rng.randrange(q)) for a in corners for _ in range(50)]
    pairs += [(rng.randrange(q), b) for b in corners for _ in range(50)]
    for a, b in pairs:
        assert f.add_t[a * q + b] == f.add(a, b)
        assert f.mul_t[a * q + b] == f.mul(a, b)
    # add and mul commute, so the order of the operands is checked apart:
    # the row is the first one, the column the second
    pair = field._Lookup(q, lambda a, b: (a, b))
    for a, b in pairs:
        assert pair[a * q + b] == (a, b)


def test_field_from_order():
    assert field_from_order(8) == field_make(2, 3)
    assert field_from_order(9) == field_make(3, 2)
    assert field_from_order(7) == field_make(7)
    with pytest.raises(ValueError):
        field_from_order(6)
    with pytest.raises(ValueError):
        field_from_order(12)
    for bad in (1, 0, -4, 2.0):
        with pytest.raises(ValueError, match="field order must be an integer >= 2"):
            field_from_order(bad)


def test_field_from_order_splits_like_brute_force():
    # least[q] is q's least prime factor, by the sieve of Eratosthenes
    top = 2**16 + 1
    least = list(range(top))
    for d in range(2, top):
        if least[d] == d:
            for m in range(d * d, top, d):
                least[m] = min(least[m], d)

    def split(q):
        p, k, rest = least[q], 0, q
        while rest % p == 0:
            k, rest = k + 1, rest // p
        return (p, k) if rest == 1 else None

    # the split alone, without building the fields
    for q in [*range(2, 20000), 65521, 65535, 65536]:
        try:
            got = field.order_split(q)
        except ValueError as e:
            got = str(e)
        assert got == (split(q) or f"{q} is not a prime power"), q


def test_field_value_semantics_and_pickle():
    import pickle

    f = field_make(3, 2)
    g = pickle.loads(pickle.dumps(f))
    assert f == g
    assert hash(f) == hash(g)
    assert g.mul(3, 3) == f.mul(3, 3)


@pytest.mark.parametrize("p,k,modulus", [
    (2, 1, None), (3, 2, None), (3, 2, (2, 1, 1)), (257, 1, None), (2, 16, None)])
def test_field_pickle_returns_the_cached_field(p, k, modulus):
    import pickle

    f = field_make(p, k, modulus)
    assert pickle.loads(pickle.dumps(f)) is f


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


# -- the encoding contract against an independent oracle: base-p digits
# added digit by digit, and a schoolbook product reduced by the modulus
# (oracles.digit_add, digit_neg and digit_mul); nothing below calls
# FieldSpec arithmetic


def _prime_powers(limit):
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        k = 0
        while p**(k + 1) <= q and q % p**(k + 1) == 0:
            k += 1
        if p**k == q:
            yield p, k


@pytest.mark.parametrize("p,k,modulus", [
    *((p, k, None) for p, k in _prime_powers(64)),
    (3, 2, (2, 1, 1)), (2, 4, (1, 1, 1, 1, 1)),
])
def test_tables_match_the_digit_oracle(p, k, modulus):
    f = field_make(p, k, modulus)
    q = f.q
    for a in range(q):
        assert f.neg_t[a] == digit_neg(f, a)
        row = [digit_mul(f, a, b) for b in range(q)]
        assert f.mul_t[a * q:(a + 1) * q] == row
        assert f.add_t[a * q:(a + 1) * q] == [digit_add(f, a, b) for b in range(q)]
        if a:
            assert f.inv_t[a] == row.index(1)


# x^6 + 2x^2 + 1 over GF(3): x has order 52, so the generator (14) is not x
NONPRIMITIVE_729 = (3, 6, (1, 0, 2, 0, 0, 0, 1))


@pytest.mark.parametrize("q", [
    243, 256, 257, 512, 729, 1024, 2048, 4096, 8192, 16384, 32768,
    59049, 65521, 65536,
    pytest.param(NONPRIMITIVE_729, id="729-nonprimitive"),
])
def test_sampled_arithmetic_matches_the_digit_oracle(q):
    f = field_make(*q) if isinstance(q, tuple) else field_from_order(q)
    q = f.q
    rng = random.Random(q)
    for _ in range(500):
        a, b = rng.randrange(q), rng.randrange(q)
        assert f.add(a, b) == digit_add(f, a, b)
        assert f.mul(a, b) == digit_mul(f, a, b)
        assert f.neg(a) == digit_neg(f, a)
        if a:
            assert digit_mul(f, a, f.inv(a)) == 1


# SHA-256 of bytes(add_t + mul_t + neg_t + inv_t) for every field with full
# tables, pinned from the construction that stepped exp/log by digit-list
# products and filled the tables one entry at a time
TABLE_DIGESTS = {
    (2, 1, None): "e79137bf2149c7d1dc14cb6f00a61efafab0ad8ba5597b1e7648cc4251c9659b",
    (3, 1, None): "0cfbcb5926b4e7437ae8d33ee358d02aa11806bb32750f5ee5433d295986b9e4",
    (2, 2, None): "be3768ff42d1c6df14b1d3ff365a8c3e18445c5ce22dc0d98cb81e34075e2c72",
    (5, 1, None): "ba166c49a24eaf45e58b175405fe11a1972461049df134a6cc95a583e1d2d19b",
    (7, 1, None): "ac5bcca3c46429128361420c9cc61fb04da89bdb4ae80f04846b6098b994cd52",
    (2, 3, None): "9dc30e01aec45be43bee2bd04ca701905d446aa47340fd154fb738f7f90cd96f",
    (3, 2, None): "8a52fc4606ab9be73a29fb483fdac205c1258fbf9d40f30db48414f55ca38d3a",
    (11, 1, None): "1c697aadbb0ee389c87dc3e815b748dee0a55a1b7fe0788188f42c52c090e34f",
    (13, 1, None): "279ad02c7a25343c0e3766f2b95f65e76d143d6cb732bf46f51d6cd1e6b8b0a2",
    (2, 4, None): "0046fa46959f1b7afb92cadad2972cc4752782058281ed6e463b835b7bbeec9e",
    (17, 1, None): "aed2e41e01454cbb492c0a3c75a6bf9774994f4a92c46f7926ec8f8ba4237bcf",
    (19, 1, None): "31331e20eafaf16b69a12cf326ffef1bb9012f6d3e29e984d1f000463ff23f3f",
    (23, 1, None): "d3ecd2523184db683cc992170e972fa579af7fc745b95eb3d7b1022c8fbcc09f",
    (5, 2, None): "0edec5dd4660d0e84a536bba69f19e14cff2a66739febab5ebdb8c9d70250498",
    (3, 3, None): "d9d46e1702dad18942cc349173c0d09c8334bbe68898dab5d25b4928d9636cfa",
    (29, 1, None): "30e1ebd036a7c60355c118ef6b321ed16c61c16c053d695d1043b7b9fcc0dd66",
    (31, 1, None): "0c945e16fcc2f812a6a06a4260a71fdfb0925ed0e16cf4fbbbfad31c43681ef5",
    (2, 5, None): "0855e7f46f7b2573c02d4a1605552ba25205a2b8c4d5c2571d08403cc36480b8",
    (37, 1, None): "6b9b1efd62404ee59a1c23f28910e3e7fe5d1a57cff7568f1107215914e76a4b",
    (41, 1, None): "52f37f1a248334debdfd2e4d7f8ac4d48fe1aa7b5c67523511de23a2ac250e42",
    (43, 1, None): "a4614a636d13693192a05127f5d68703c5bdefd673a3ea5b84ca7084039f9233",
    (47, 1, None): "d4f7270b5d8077dd1b9510b2b83b8587fa98a1264fa6a3d66e9aa0c448d0d6d9",
    (7, 2, None): "3c0e5b97a854c15008d5d83f60b4958903f4cb12d24f7bf100bcf69070154fb1",
    (53, 1, None): "a1481f5905dcb3019831def1b6780d4749db73ebee696c3389c9cb2054f248b4",
    (59, 1, None): "1aa135c82105f5a6f0dd0c075ff7604b4223d26a4439db961b38629c22936cb2",
    (61, 1, None): "9af0000180d5db8dd8201d5a185b6b19fd669538ee6cc10bedf770b3d4db2c6f",
    (2, 6, None): "78288bcf58c861793e5e770498669489ee2633d92a31c4734904b12c6742030b",
    (67, 1, None): "6f17d351811b3eef32a2d5ffbc8eabf0e054c17971687076b2596f976120db2b",
    (71, 1, None): "64e0d75dfe559619ddb20f2e44247eb66610302db3e9831c90a83fd76663fbcc",
    (73, 1, None): "a4c891f4b9e6748e377975e0f59497eede86499548a38216e949899c79e82b91",
    (79, 1, None): "9c6cbc8837d6802f23a5949bfd4ccd8f87533ba05571a0d045cd344f9fa80e6b",
    (3, 4, None): "d503945c36de6cee283813d0ddfbba03ca312eada882c6929c0e37f13e5495f8",
    (83, 1, None): "8de26483951972bedb8976557f2ab320196fac9d752df2526bd9f0b612526122",
    (89, 1, None): "f81febba4e2901ce2edbebe1165a50e4791e8ff260eb328bc8ee2bf27ce074dc",
    (97, 1, None): "db6f968346fb015c5b3b266b464046ecd0f9df8daf4a57387f76f3d5f725dd26",
    (101, 1, None): "c9badea3cf830536bcb0b3c30d566b9b7ebf54a99d42b49f1c3f14235d1cfc0d",
    (103, 1, None): "09358e2a959d7615135db701b264fe0a8d86d2b97d61e95cf28dfc750028145c",
    (107, 1, None): "f4f359424fb0a077d96f543b312018d4a3a52344f551b1a8626639c6e72987c7",
    (109, 1, None): "c3a3706933d14514aa6b3131ec8606cb38a619458c9bb67ce0f5d3d6c55d8086",
    (113, 1, None): "0cf36dab499f44121c99b72cb4cee57a2cc9441944f1e4f94afc3068f2b22f54",
    (11, 2, None): "d5664e03439d3350355ea687c7f6c211b506abec1cc4f03da0e9e3c2715fa1a2",
    (5, 3, None): "7a6c215d0268243afca2f0bbedb50bf96811e890f0e6ba00c17dd20568d42b68",
    (127, 1, None): "3831109e112a82c345f6f6aabec76e38cb3e2ddf7a905e0a9009b48c7175866b",
    (2, 7, None): "4b7344fb42044a042cc7931679101bf0384ea794297f3992f1a7f00af66309a2",
    (131, 1, None): "71303dbcb5ac29562557a2902463b9014ed04f7cf9f83b481921522285c8c358",
    (137, 1, None): "71e7de43fffa16e9e55af9884e51bdc0c9bbc0608fd2c49fe433126b3406c620",
    (139, 1, None): "2056abb8eeddaadced2f9b01363d3e5ab90ccad3835e0059834496408df917c6",
    (149, 1, None): "1c3ee9a563c4aa3b90ec2d6e3e433f243eecc04e884ff980706212cbf37dd8d2",
    (151, 1, None): "105c20165cb94b9384b57a69de36c581f31e7e0b1eea2b17112dd8d0b602ad2f",
    (157, 1, None): "1e747242c06a2dd2e481234c25cbcf1fa55a8ebcd366a376296ed390a8781e90",
    (163, 1, None): "76f8a544d96cb0b9e1de916cec1122b4cab6b98e8f1b81efc7f159869d504585",
    (167, 1, None): "83cd255981977e16a9c3519a9bc8b3489bfcba27d4ca3f465d9db2a1a29696c8",
    (13, 2, None): "f34081191170f1575be9f535dc3719bf56f9cb221c635483ca7b2e51d061de81",
    (173, 1, None): "bf1724890fe3442a820284948c443b10a86a4e0e334a15e877431e1d4c27a4ab",
    (179, 1, None): "955a0028087033f2e57be38b7a632f7f792bdb05bba298d21609e785c6096218",
    (181, 1, None): "08509b22ee46ef2c5b05f018da7f24a1e68e6f19d8425be54c255235e3b4d529",
    (191, 1, None): "b68c6dee09fce35a5d1d24c8516417f0b9513f0e2823ac700bfa0327af5195e4",
    (193, 1, None): "4f16263e1f001a0a8ac0b027fbb2dcd6beee25bc98357c97e8b8ec557a256606",
    (197, 1, None): "306892695c91579d2d1fa2a90e6e532cfbce37e47e3324720f21c3a0444922bb",
    (199, 1, None): "70db4a6302929744d4874ef99ef2ffe40ab844172d24b12648b5ac6bf54e99d8",
    (211, 1, None): "46371a80e474e8a4e425aec65380fe37515a2887904a9f19eaad9d2a5a9c4969",
    (223, 1, None): "e528cf76764ec01360747c95145913bb0e5fb2b516110260cc3a307c258357ac",
    (227, 1, None): "202cc713d1e1df9c120843288b5c62eef7ba56e121ad5624138b8ea4b67e268f",
    (229, 1, None): "6c9f3bda86ea976bf74f34a9a9fc811fb62e7e2ac8203cc723505bf4702229fc",
    (233, 1, None): "e8b9b9f6f4c83a71dc83906faa715c5e52a00730b3641bcbe66f47e0a752d350",
    (239, 1, None): "7b54f31f5fb755494b0f4f364258c841b5bfe8f038eb665da44cd14f504cb994",
    (241, 1, None): "79f826a137ac7ef277ec174c49ecc5795df0c33833ad84b3552b1c07aa029140",
    (3, 5, None): "1d7fd0cc82a39387cbee37efa3b6db20194cf94ee46370be0288574ebdced764",
    (251, 1, None): "3cf11a72a2a9f04dd9fc542680111b41df2d4f1e3b5a45c6c2d2ca7370b35379",
    (2, 8, None): "9d7d87e8dc55cfa676d2ec14d658565adde0cfee3565b6d7e4d832a1879b42b6",
    (3, 2, (2, 1, 1)): "7e7e37117374f5098d457cf5dde19ece817a92ce76a4a72d7898051350f2d64e",
    (2, 4, (1, 1, 1, 1, 1)): "7147ea5d4446c342311678a745fcef6ef57cacda3782e8e3177f564008c111e2",
}


@pytest.mark.parametrize("p,k,modulus", list(TABLE_DIGESTS),
                         ids=lambda v: "default" if v is None else str(v).replace(" ", ""))
def test_small_field_tables_match_their_pinned_digests(p, k, modulus):
    f = field_make(p, k, modulus)
    tables = bytes(f.add_t + f.mul_t + f.neg_t + f.inv_t)
    assert hashlib.sha256(tables).hexdigest() == TABLE_DIGESTS[p, k, modulus]
