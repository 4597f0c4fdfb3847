import random
from itertools import product
from operator import mul

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from skewlat import (
    AlgebraSpec,
    ConstacyclicCode,
    QuotientRing,
    SkewPoly,
    brute_force_dual,
    central_poly,
    construction_a_basis,
    dual_lattice_basis,
    inner_product,
    monic_right_divisors,
)
from skewlat import codes, lattice
from skewlat.errors import LengthMismatch, NonUnitLeading, NotADivisor, TooLarge, UnsupportedU
from skewlat.fixtures import FIXTURE_NAMES, GAUSSIAN_P2, GAUSSIAN_P3, fixture_code, fixture_ring

from helpers import (
    CUBIC,
    column_sum_encode,
    composed_additive_generators,
    divisor_codes,
    enumerated_dual,
    enumerated_self_duality,
    generator_pairs_orthogonal,
    random_element,
    random_message,
    replace_spec,
    row_dot_is_codeword,
    skew_encode,
    skew_is_codeword,
    sorted_span_dual,
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


def test_codes_equal_no_integer_and_no_code_over_another_ring():
    code = fixture_code("gaussian-p3-inert")
    assert code.__eq__(5) is NotImplemented
    assert (code == 5) is False and code != 5
    assert code == fixture_code("gaussian-p3-inert")
    assert code != fixture_code("gaussian-p5-split")


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


# The oracles multiply skew polynomials, or sum the columns of G and dot the
# rows of H = ker G as encode and is_codeword did before their kernels.
# divisor_codes runs from g = 1 (k = n, H empty, a parity kernel with no row)
# to g = x^n - u (k = 0, an encoder that reads no coefficient).
@settings(max_examples=15, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**32 - 1))
@example(spec=replace_spec(CUBIC, p=7, u=3), seed=0)
@example(spec=AlgebraSpec((1, 0, 1), (0, -1), u=-1, p=5), seed=1)
def test_encode_and_membership_match_the_skew_products(spec, seed):
    ring = QuotientRing(spec)
    rng = random.Random(seed)
    degrees = set()
    for code in divisor_codes(ring, per_degree=2):
        degrees.add(int(code.g.degree))
        for _ in range(4):
            msg = random_message(code, rng)
            word = code.encode(msg)
            assert word == skew_encode(code, msg) == column_sum_encode(code, msg)
            assert all(c is ring._make(c.coeffs) for c in word)
            assert code.is_codeword(word) and skew_is_codeword(code, word)
            assert row_dot_is_codeword(code, word)
            noise = tuple(random_element(ring, rng) for _ in range(code.n))
            while not any(noise):
                noise = tuple(random_element(ring, rng) for _ in range(code.n))
            moved = tuple(c + e for c, e in zip(word, noise))
            assert code.is_codeword(moved) == skew_is_codeword(code, moved)
            assert code.is_codeword(moved) == row_dot_is_codeword(code, moved)
            one = list(word)
            one[rng.randrange(code.n)] += random_element(ring, rng)
            assert code.is_codeword(one) == row_dot_is_codeword(code, one)
        if code.k == code.n:
            assert not code._parity_rows
    assert {0, ring.n} <= degrees


def _error(call, *args):
    try:
        call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("spec", [GAUSSIAN_P3, CUBIC], ids=["gaussian-p3", "cubic"])
def test_kernels_raise_as_the_oracles_do(spec):
    ring = QuotientRing(spec)
    other = QuotientRing(replace_spec(spec, p=7))
    for code in divisor_codes(ring, per_degree=1):
        one, stranger = [ring.one] * code.k, other.gen
        cases = [
            (code.encode, column_sum_encode, one + [ring.one]),
            (code.encode, column_sum_encode, one[1:] if one else [ring.one, ring.one]),
            (code.is_codeword, row_dot_is_codeword, [ring.one] * (code.n + 1)),
            (code.is_codeword, row_dot_is_codeword, [ring.one] * (code.n - 1)),
            (code.is_codeword, row_dot_is_codeword, [ring.one] * (code.n - 1) + [stranger]),
        ]
        if code.k:
            cases.append((code.encode, column_sum_encode, one[1:] + [stranger]))
        for kernel, oracle, arg in cases:
            expected = _error(oracle, code, arg)
            assert expected is not None and expected[0] in (LengthMismatch, ValueError)
            assert _error(kernel, arg) == expected
        foreign = (ValueError, "element belongs to a different ring")
        assert _error(code.is_codeword, [stranger] * code.n) == foreign
        if code.k:
            assert _error(code.encode, [stranger] * code.k) == foreign


def test_kernels_compile_once_and_only_on_first_use(monkeypatch):
    compiled = []
    compile_function = codes.compile_function

    def counting(source, name):
        compiled.append(name)
        return compile_function(source, name)

    monkeypatch.setattr(codes, "compile_function", counting)
    for spec in (GAUSSIAN_P3, CUBIC):
        ring = QuotientRing(spec)
        rng = random.Random(5)
        for g in monic_right_divisors(ring, ring.n, spec.u, 1)[:2]:
            code = ConstacyclicCode.from_generator(g)
            code.to_dict()
            construction_a_basis(code)
            code.is_self_dual()
            if spec is GAUSSIAN_P3:
                dual_lattice_basis(code)
            assert compiled == []
            for _ in range(3):
                code.encode(random_message(code, rng))
            assert compiled == ["encoder"]
            for _ in range(3):
                code.is_codeword(code.encode(random_message(code, rng)))
            assert code == code
            assert compiled == ["encoder", "parity"]
            compiled.clear()


def test_kernel_sums_of_961_terms_compile_at_any_depth():
    # n = m = 31 is the largest degree AlgebraSpec admits (n^4 <= 10^6), so
    # a column of G or a row of H has at most N = 961 terms; a single chain
    # of that many additions overflows CPython's compiler recursion when the
    # caller is deep, so the kernels write it as shorter parenthesized sums.
    m, p = 31, 31
    N = m * m
    rng = random.Random(9)
    dense = [rng.randrange(1, p) for _ in range(N)]
    zeros = [0] * N
    columns = [dense] + [zeros] * (N - 2) + [[1] + [0] * (N - 1)]
    words = [tuple(rng.randrange(p) for _ in range(m)) for _ in range(m)]
    flat = [c for word in words for c in word]

    def deep(depth, call):
        return deep(depth - 1, call) if depth else call()

    encoder_source = codes._encoder_source(columns, m, m, p)
    parity_source = codes._parity_source([zeros, dense], m, m, p)
    encode = deep(800, lambda: codes.compile_function(encoder_source, "encoder"))(tuple)
    parity = deep(800, lambda: codes.compile_function(parity_source, "parity"))
    dot = sum(map(mul, dense, flat)) % p
    first, middle, last = (dot,) + (0,) * (m - 1), (0,) * m, (0,) * (m - 1) + (flat[0],)
    assert encode(words) == (first,) + (middle,) * (m - 2) + (last,)
    assert parity(words) == (dot == 0)
    assert parity([(0,) * m] * m)


# codewords() lists the span of the rows of G, and calls no encode: the
# patched encode raises.  divisor_codes ends with g = x^n - u, whose one
# codeword is the zero word.
@settings(max_examples=10, deadline=None)
@given(spec=valid_specs())
def test_codewords_list_the_skew_products_in_message_order(spec):
    ring = QuotientRing(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ConstacyclicCode, "encode", lambda code, msg: pytest.fail("encode called"))
        for code in divisor_codes(ring, per_degree=1):
            if ring.size**code.k > 2000:
                continue
            messages = product(list(ring.elements()), repeat=code.k)
            assert list(code.codewords()) == [skew_encode(code, msg) for msg in messages]
        assert list(code.codewords()) == [(ring.zero,) * ring.n]
        assert all(c is ring.zero for c in next(code.codewords()))


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
@example(spec=replace_spec(CUBIC, p=2, u=1))
@example(spec=replace_spec(CUBIC, p=3, u=1))
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
        words = composed_additive_generators(code)
        assert all(inner_product(c, v) == ring.zero for c in words for v in dual)


def assert_dual_words_in_order(code, bound):
    """brute_force_dual against the sorted-span oracle: equal words, flat
    coefficient vectors strictly increasing, the zero word first and built
    from the ring's own zero; both refuse a dual above bound."""
    ring = code.ring
    if ring.size ** (code.n - code.k) > bound:
        for dual in (brute_force_dual, sorted_span_dual):
            with pytest.raises(TooLarge):
                dual(code, bound=bound)
        return
    words = brute_force_dual(code, bound=bound)
    assert words == sorted_span_dual(code, bound=bound)
    flat = [tuple(v for c in word for v in c.coeffs) for word in words]
    assert all(a < b for a, b in zip(flat, flat[1:]))
    assert all(c is ring.zero for c in words[0])


@settings(max_examples=15, deadline=None)
@given(spec=valid_specs())
@example(spec=AlgebraSpec((1, 0, 1), (0, -1), u=-1, p=7))
@example(spec=replace_spec(CUBIC, p=3, u=1))
def test_dual_words_come_in_order(spec):
    for code in divisor_codes(QuotientRing(spec)):
        assert_dual_words_in_order(code, ORACLE_VECTORS)


def test_cubic_dual_words_at_p7_come_in_order():
    # 7 ramifies in the cubic; with u = 1 the first code of each degree has
    # a dual of 1, 7^3, 7^6 and (refused) 7^9 words.
    ring = QuotientRing(replace_spec(CUBIC, p=7, u=1))
    codes = list(divisor_codes(ring, per_degree=1))
    assert [code.k for code in codes] == [3, 2, 1, 0]
    for code in codes:
        assert_dual_words_in_order(code, 7**6)


def test_cubic_dual_and_its_lattice():
    ring = QuotientRing(CUBIC)
    a = ring.gen
    code = ConstacyclicCode.from_generator(SkewPoly(ring, (2 * a * a, 1)))
    dual = brute_force_dual(code)
    assert len(dual) == 125
    words = composed_additive_generators(code)
    assert all(inner_product(c, v) == ring.zero for c in words for v in dual)
    assert dual_lattice_basis(code).index == 5**6


# valid_specs draws u in [-6, 6], so most specs have u^2 != 1 and no dual generator.
@settings(max_examples=15, deadline=None)
@given(spec=valid_specs())
@example(spec=AlgebraSpec((1, 0, 1), (0, -1), u=2, p=5))
@example(spec=AlgebraSpec((-2, 0, 1), (0, -1), u=3, p=7, conjugation_mode="identity"))
@example(spec=replace_spec(CUBIC, p=3, u=1))
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


# is_orthogonal_to reads g against the k' words x^i g' of the other code, the
# oracle every pair of their k*m additive generators; the examples with u^2 != 1
# mod p check the sigma-u^-1-constacyclic dual that lets g stand for its code.
@settings(max_examples=15, deadline=None)
@given(spec=valid_specs())
@example(spec=AlgebraSpec((1, 0, 1), (0, -1), u=2, p=5))
@example(spec=CUBIC)
@example(spec=replace_spec(CUBIC, p=13, u=5))
@example(spec=replace_spec(CUBIC, p=3, u=1))
def test_orthogonality_of_the_basis_words_matches_every_generator_pair(spec):
    codes_ = list(divisor_codes(QuotientRing(spec), per_degree=4))
    for code, other in product(codes_, repeat=2):
        assert code.is_orthogonal_to(other) == generator_pairs_orthogonal(code, other)


def _refuse_elimination(*args):
    raise AssertionError("echelon_mod_p called")


# The dual of a code of dimension k has |R|^(n-k) = p^(m(n-k)) words, so
# brute_force_dual checks its bound before any elimination over F_p.
@settings(max_examples=15, deadline=None)
@given(spec=valid_specs())
@example(spec=replace_spec(CUBIC, p=7, u=1))
def test_the_dual_has_p_to_the_m_n_minus_k_words(spec):
    ring = QuotientRing(spec)
    p, m = spec.p, ring.n
    found = list(divisor_codes(ring, per_degree=2))
    for code in found:
        size = p ** (m * (code.n - code.k))
        if size <= ORACLE_VECTORS:
            assert len(brute_force_dual(code, bound=size)) == size
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codes, "echelon_mod_p", _refuse_elimination)
        for code in found:
            dim = m * (code.n - code.k)
            with pytest.raises(TooLarge) as refused:
                brute_force_dual(code, bound=p**dim - 1)
            assert str(refused.value) == f"{p}^{dim} dual vectors exceeds bound {p**dim - 1}"


def test_dual_lattice_of_the_k1_cubic_at_p31_is_refused_before_any_elimination(monkeypatch):
    ring = QuotientRing(replace_spec(CUBIC, p=31))
    a = ring.gen
    code = ConstacyclicCode.from_generator(SkewPoly(ring, (11 * a * a, 1)))
    cofactor = ConstacyclicCode.from_generator(code.h)
    assert cofactor.k == 1
    for module in (codes, lattice):
        monkeypatch.setattr(module, "echelon_mod_p", _refuse_elimination)
    with pytest.raises(TooLarge) as refused:
        dual_lattice_basis(cofactor)
    assert str(refused.value) == "31^6 dual vectors exceeds bound 1000000"


def test_cubic_self_duality_at_p31_without_a_dual_generator():
    ring = QuotientRing(replace_spec(CUBIC, p=31))
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


def test_codeword_enumeration_bound(p3_code):
    words = p3_code.codewords(bound=4)  # a generator: nothing is checked yet
    with pytest.raises(TooLarge, match=r"^9\^1 codewords exceeds bound 4$"):
        next(words)
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


# Equality is equality of the reduced echelon forms of G, read off rows the
# code builds once; the oracle sets are the skew products b*g of every
# message b.  Codes whose oracle set would exceed EQUALITY_WORDS only meet the
# checks that need no set: a unit multiple of g, another ring, an integer.
EQUALITY_WORDS = 1000


@settings(max_examples=10, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**32 - 1))
@example(spec=GAUSSIAN_P3, seed=0)
@example(spec=replace_spec(CUBIC, p=7, u=1), seed=1)
def test_code_equality_is_row_space_equality(spec, seed):
    ring = QuotientRing(spec)
    rng = random.Random(seed)
    elements = list(ring.elements())
    units = [a for a in elements if ring.norm(a)]
    other = QuotientRing(replace_spec(spec, p=next(q for q in (2, 3, 5) if q != spec.p), u=1))
    strangers = list(divisor_codes(other, per_degree=1))
    built = list(divisor_codes(ring, per_degree=4))
    sets = [
        {skew_encode(code, msg) for msg in product(elements, repeat=code.k)}
        if ring.size**code.k <= EQUALITY_WORDS
        else None
        for code in built
    ]
    compiled, compile_function = [], codes.compile_function

    def recording(source, name):
        compiled.append(name)
        return compile_function(source, name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codes, "compile_function", recording)
        for a, words_a in zip(built, sets):
            fresh = ConstacyclicCode.from_generator(a.g)
            assert fresh == a and a == fresh
            assert ConstacyclicCode.from_generator(rng.choice(units) * a.g) == a
            assert a.__eq__(5) is NotImplemented and a != 5
            assert all(a != b for b in strangers if b.k == a.k)
            for b, words_b in zip(built, sets):
                if words_a is not None and words_b is not None:
                    assert (a == b) == (words_a == words_b)
                elif a.k != b.k:
                    assert a != b
    assert compiled == []
    assert {0, ring.n} <= {code.k for code in built}


# The rows of G are cached per code; the oracle composes each skew product afresh.
@settings(max_examples=15, deadline=None)
@given(spec=valid_specs())
@example(spec=replace_spec(CUBIC, p=7, u=3))
def test_cached_generators_match_the_composed_skew_products(spec):
    ring = QuotientRing(spec)
    for code in divisor_codes(ring):
        words = composed_additive_generators(code)
        assert code._rows == tuple(tuple(v for c in word for v in c.coeffs) for word in words)


@pytest.mark.parametrize("spec", [GAUSSIAN_P3, CUBIC], ids=["gaussian-p3", "cubic"])
def test_a_code_makes_its_generator_products_once(monkeypatch, spec):
    ring = QuotientRing(spec)
    products = []
    mul = SkewPoly.__mul__

    def counting_mul(self, other):
        products.append(1)
        return mul(self, other)

    for code in divisor_codes(ring, per_degree=2):  # each built fresh, outside the count
        twin = ConstacyclicCode.from_generator(code.g)
        twin._rows
        monkeypatch.setattr(SkewPoly, "__mul__", counting_mul)
        code._rows
        assert len(products) == code.k  # one per word x^i g, scaled by each theta^j
        products.clear()
        code.is_self_dual()
        code.is_orthogonal_to(code)
        if ring.size ** (code.n - code.k) <= ORACLE_VECTORS:
            brute_force_dual(code)
        if ring.size**code.k <= ORACLE_VECTORS:
            list(code.codewords())
        construction_a_basis(code)
        code.encode([ring.one] * code.k)
        assert code == twin
        code._rows
        assert not products, code
        monkeypatch.undo()


def test_a_generator_with_a_non_unit_lead_is_rejected():
    # 2 ramifies in Z[i]: 1 + a is nilpotent in Z[i]/2, so it has no inverse
    # to make the generator monic.
    ring = QuotientRing(GAUSSIAN_P2)
    g = SkewPoly(ring, [ring.one, ring.one + ring.gen])
    with pytest.raises(NonUnitLeading, match="not a unit"):
        ConstacyclicCode.from_generator(g)


def test_vectors_of_the_wrong_length_are_rejected():
    code = fixture_code("gaussian-p3-inert")
    one = code.ring.one
    with pytest.raises(LengthMismatch, match="expected length 2, got 1"):
        code.to_poly([one])
    with pytest.raises(LengthMismatch, match="different lengths"):
        inner_product([one], [one, one])
