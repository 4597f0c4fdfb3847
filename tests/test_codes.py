import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from skewlat import (
    AlgebraSpec,
    ConstacyclicCode,
    QuotientRing,
    SkewPoly,
    brute_force_dual,
    central_poly,
    dual_lattice_basis,
    inner_product,
    monic_right_divisors,
)
from skewlat.errors import LengthMismatch, NotADivisor, TooLarge, UnsupportedU
from skewlat.fixtures import FIXTURE_NAMES, GAUSSIAN_P3, fixture_code, fixture_ring

from helpers import (
    CUBIC,
    divisor_codes,
    enumerated_dual,
    enumerated_self_duality,
    random_element,
    random_message,
    skew_encode,
    skew_is_codeword,
    valid_specs,
)

SELF_DUAL = {
    "gaussian-p3-inert": False,
    "gaussian-p5-split": True,
    "gaussian-p2-ramified": True,
    "sqrt2-p3-selfdual": True,
}


@pytest.fixture
def p3_code():
    return fixture_code("gaussian-p3-inert")


def test_from_generator_computes_parity_check(p3_code):
    ring = p3_code.ring
    a = ring.gen
    assert p3_code.k == 1
    assert p3_code.h == SkewPoly(ring, (a - 1, 1))
    assert p3_code.h * p3_code.g == central_poly(ring, 2, -1)
    assert p3_code.g * p3_code.h == central_poly(ring, 2, -1)


def test_from_generator_edge_cases():
    ring = fixture_ring("gaussian-p3-inert")
    full = ConstacyclicCode.from_generator(SkewPoly.one(ring))
    assert full.k == 2
    zero = ConstacyclicCode.from_generator(central_poly(ring, 2, -1))
    assert zero.k == 0
    assert list(zero.codewords()) == [(ring.zero, ring.zero)]
    with pytest.raises(NotADivisor):
        ConstacyclicCode.from_generator(SkewPoly(ring, (1, 1)))
    with pytest.raises(NotADivisor):
        ConstacyclicCode.from_generator(SkewPoly(ring, (1, 0, 0, 1)))


def test_non_monic_generator_is_normalized():
    ring = fixture_ring("gaussian-p5-split")
    unit_lead = SkewPoly(ring, (1, 2))  # 1 + 2x, unit leading coefficient
    code = ConstacyclicCode.from_generator(unit_lead)
    assert code.g == SkewPoly(ring, (3, 1))
    assert code == fixture_code("gaussian-p5-split")


def test_encode_examples(p3_code):
    ring = p3_code.ring
    a = ring.gen
    assert p3_code.encode([ring.one]) == (a + 1, ring.one)
    assert p3_code.encode([ring.zero]) == (ring.zero, ring.zero)
    ring5 = fixture_ring("gaussian-p5-split")
    code5 = fixture_code("gaussian-p5-split")
    for t in list(ring5.elements())[:7]:
        assert code5.encode([t]) == (3 * t, t)
    with pytest.raises(LengthMismatch):
        p3_code.encode([])


def test_encode_is_linear(code):
    ring = code.ring
    rng = random.Random(21)
    for _ in range(60):
        m1 = random_message(code, rng)
        m2 = random_message(code, rng)
        r = random_element(ring, rng)
        both = code.encode([x + y for x, y in zip(m1, m2)])
        assert both == tuple(x + y for x, y in zip(code.encode(m1), code.encode(m2)))
        scaled = code.encode([r * x for x in m1])
        assert scaled == tuple(r * x for x in code.encode(m1))


def test_is_codeword_examples(p3_code):
    ring = p3_code.ring
    a = ring.gen
    assert p3_code.is_codeword((a + 1, ring.one))
    assert not p3_code.is_codeword((ring.one, ring.zero))
    assert p3_code.is_codeword((ring.zero, ring.zero))


def test_membership_agrees_with_enumeration(code):
    ring = code.ring
    words = set(code.codewords())
    assert len(words) == ring.size**code.k
    for v in product(list(ring.elements()), repeat=code.n):
        assert code.is_codeword(v) == (v in words)


# The oracles multiply skew polynomials; encode and is_codeword use the F_p
# matrices G and H = ker G instead.  divisor_codes starts at g = 1 (k = n).
@settings(max_examples=15, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**32 - 1))
@example(spec=replace(CUBIC, p=7, u=3), seed=0)
def test_encode_and_membership_match_the_skew_products(spec, seed):
    ring = QuotientRing(spec)
    rng = random.Random(seed)
    for code in divisor_codes(ring, per_degree=2):
        for _ in range(4):
            msg = random_message(code, rng)
            word = code.encode(msg)
            assert word == skew_encode(code, msg)
            assert code.is_codeword(word) and skew_is_codeword(code, word)
            noise = tuple(random_element(ring, rng) for _ in range(code.n))
            while not any(noise):
                noise = tuple(random_element(ring, rng) for _ in range(code.n))
            moved = tuple(c + e for c, e in zip(word, noise))
            assert code.is_codeword(moved) == skew_is_codeword(code, moved)


@settings(max_examples=10, deadline=None)
@given(spec=valid_specs())
def test_codewords_list_the_skew_products_in_message_order(spec):
    ring = QuotientRing(spec)
    for code in divisor_codes(ring, per_degree=1):
        if ring.size**code.k > 2000:
            continue
        messages = product(list(ring.elements()), repeat=code.k)
        assert list(code.codewords()) == [skew_encode(code, msg) for msg in messages]


def test_shift_examples(p3_code):
    ring = p3_code.ring
    a = ring.gen
    shifted = p3_code.shift((a + 1, ring.one))
    assert shifted == (ring.from_int(-1), ring.one - a)
    assert p3_code.is_codeword(shifted)
    zero = (ring.zero, ring.zero)
    assert p3_code.shift(zero) == zero


def test_shift_closure(code):
    for v in code.codewords():
        assert code.is_codeword(code.shift(v))


def test_shift_with_u_one_has_order_n():
    ring = QuotientRing(AlgebraSpec((1, 0, 1), (0, -1), u=1, p=3))
    code = ConstacyclicCode.from_generator(SkewPoly.one(ring))
    rng = random.Random(2)
    for _ in range(20):
        v = (random_element(ring, rng), random_element(ring, rng))
        w = v
        for _ in range(code.n):
            w = code.shift(w)
        assert w == v


def test_dual_generator_values():
    ring = fixture_ring("gaussian-p3-inert")
    a = ring.gen
    assert fixture_code("gaussian-p3-inert").dual_generator() == SkewPoly(ring, (1, -(a + 1)))

    ring4 = fixture_ring("sqrt2-p3-selfdual")
    a4 = ring4.gen
    gp = fixture_code("sqrt2-p3-selfdual").dual_generator()
    assert gp == SkewPoly(ring4, (1, -a4))
    assert gp == (-a4) * SkewPoly(ring4, (a4, 1))

    ring5 = fixture_ring("gaussian-p5-split")
    assert fixture_code("gaussian-p5-split").dual_generator() == SkewPoly(ring5, (1, 2))


def test_dual_generator_needs_u_squared_one():
    ring = QuotientRing(AlgebraSpec((1, 0, 1), (0, -1), u=2, p=5))
    code = ConstacyclicCode.from_generator(SkewPoly.one(ring))
    with pytest.raises(UnsupportedU):
        code.dual_generator()
    assert code.is_self_dual() is False


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_self_duality(name):
    assert fixture_code(name).is_self_dual() == SELF_DUAL[name]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_brute_force_dual_matches_dual_generator(name):
    code = fixture_code(name)
    brute = set(brute_force_dual(code))
    assert brute == set(code.dual_code().codewords())
    assert brute_force_dual(code) == enumerated_dual(code)


def test_brute_force_dual_values(p3_code):
    ring = p3_code.ring
    a = ring.gen
    assert set(brute_force_dual(p3_code)) == {(t, -(a + 1) * t) for t in ring.elements()}
    zero = ConstacyclicCode.from_generator(central_poly(ring, 2, -1))
    assert set(brute_force_dual(zero)) == set(product(list(ring.elements()), repeat=2))


def test_dual_size_law(code):
    assert len(set(code.codewords())) * len(set(brute_force_dual(code))) == code.ring.size**code.n


# The oracle scans |R|^n vectors; above this many only the size law is checked.
ORACLE_VECTORS = 5000


@settings(max_examples=12, deadline=None)
@given(spec=valid_specs())
@example(spec=AlgebraSpec((1, 0, 1), (0, -1), u=-1, p=7))
@example(spec=replace(CUBIC, p=2, u=1))
@example(spec=replace(CUBIC, p=3, u=1))
def test_dual_matches_enumeration(spec):
    ring = QuotientRing(spec)
    for code in divisor_codes(ring, per_degree=2):
        if ring.size ** (code.n - code.k) > ORACLE_VECTORS:
            with pytest.raises(TooLarge):
                brute_force_dual(code, bound=ORACLE_VECTORS)
            continue
        dual = brute_force_dual(code)
        if ring.size**code.n <= ORACLE_VECTORS:
            assert dual == enumerated_dual(code)
            continue
        assert len(dual) * ring.size**code.k == ring.size**code.n
        assert dual == sorted(dual, key=lambda v: tuple(c.coeffs for c in v))
        words = code.additive_generators()
        assert all(inner_product(c, v) == ring.zero for c in words for v in dual)


def test_cubic_dual_and_its_lattice():
    ring = QuotientRing(CUBIC)
    a = ring.gen
    code = ConstacyclicCode.from_generator(SkewPoly(ring, (2 * a * a, 1)))
    dual = brute_force_dual(code)
    assert len(dual) == 125
    words = code.additive_generators()
    assert all(inner_product(c, v) == ring.zero for c in words for v in dual)
    assert dual_lattice_basis(code).index == 5**6


# valid_specs draws u in [-6, 6], so most specs have u^2 != 1 and no dual generator.
@settings(max_examples=15, deadline=None)
@given(spec=valid_specs())
@example(spec=AlgebraSpec((1, 0, 1), (0, -1), u=2, p=5))
@example(spec=AlgebraSpec((-2, 0, 1), (0, -1), u=3, p=7, conjugation_mode="identity"))
@example(spec=replace(CUBIC, p=3, u=1))
def test_self_duality_matches_the_enumerated_dual_for_every_u(spec):
    ring = QuotientRing(spec)
    for code in divisor_codes(ring):
        assert code.is_self_dual() == enumerated_self_duality(code)


def test_orthogonality_of_generators_decides_the_dual_code(p3_code):
    ring = p3_code.ring
    zero = ConstacyclicCode.from_generator(central_poly(ring, 2, -1))
    full = ConstacyclicCode.from_generator(SkewPoly.one(ring))
    assert p3_code.dual_code().is_orthogonal_to(p3_code)
    assert p3_code.is_orthogonal_to(p3_code.dual_code())
    assert not p3_code.is_orthogonal_to(p3_code)
    assert zero.is_orthogonal_to(full) and full.is_orthogonal_to(zero)
    assert not full.is_orthogonal_to(full)


def test_cubic_self_duality_at_p31_without_a_dual_generator():
    ring = QuotientRing(replace(CUBIC, p=31))
    a = ring.gen
    g = SkewPoly(ring, (11 * a * a, 1))
    code = ConstacyclicCode.from_generator(g)
    cofactor = ConstacyclicCode.from_generator(code.h)
    assert (code.k, cofactor.k) == (2, 1)
    assert not code.is_self_dual() and not cofactor.is_self_dual()


# Each fixture also runs on a few random valid specs, cubics included.
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=valid_specs())
def test_proposition_both_sided_for_all_degree_one_divisors(code, spec):
    for ring in (code.ring, QuotientRing(spec)):
        central = central_poly(ring, ring.n, ring.u)
        for g in monic_right_divisors(ring, ring.n, ring.spec.u, 1):
            built = ConstacyclicCode.from_generator(g)
            assert built.h * built.g == central
            assert built.g * built.h == central


def test_code_equality_by_mutual_membership(p3_code):
    ring = p3_code.ring
    a = ring.gen
    same = ConstacyclicCode.from_generator(SkewPoly(ring, ((a + 1) * 2, 2)))
    assert same == p3_code
    other = ConstacyclicCode.from_generator(SkewPoly(ring, (a + 2, 1)))
    assert other != p3_code


def test_codeword_enumeration_bound(p3_code):
    with pytest.raises(TooLarge):
        list(p3_code.codewords(bound=4))
    assert len(brute_force_dual(p3_code, bound=9)) == 9
    with pytest.raises(TooLarge):
        brute_force_dual(p3_code, bound=8)


@given(st.lists(st.integers(0, 2), min_size=2, max_size=2))
def test_inner_product_symmetry(vec):
    ring = QuotientRing(GAUSSIAN_P3)
    v = tuple(ring.element([c]) for c in vec)
    w = (ring.gen, ring.one)
    assert inner_product(v, w) == inner_product(w, v)


def test_serialization(p3_code):
    d = p3_code.to_dict()
    assert d["n"] == 2 and d["k"] == 1
    assert d["g"] == [[1, 1], [1, 0]]
    assert d["h"] == [[2, 1], [1, 0]]
    assert d["u"] == [2, 0]
