import random
import sys
import threading
from itertools import product
from math import isqrt

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skewlat import (
    AlgebraSpec,
    NaturalOrder,
    QuotientRing,
    RingElement,
    SkewPoly,
    intpoly,
)
from skewlat.errors import (
    InvalidSigma,
    InvalidSpec,
    NonUnitU,
    NotInvertible,
    NotIrreducible,
    NotPrime,
    TooLarge,
)
from skewlat.fixtures import GAUSSIAN_P3, GAUSSIAN_P5, SQRT2_P3
from skewlat.number_ring import (
    IntegralArithmetic,
    _factor_mod_p,
    _is_prime,
    echelon_mod_p,
    nullspace_mod_p,
)

from helpers import SPEC_CALLS, norm_witnesses, random_element, valid_specs


def test_ring_new_fixture_parameters():
    ring = QuotientRing(GAUSSIAN_P3)
    assert ring.size == 9
    assert ring.modulus == (1, 0, 1)
    assert ring.sigma_poly == (0, 2)

    ring5 = QuotientRing(GAUSSIAN_P5)
    assert ring5.size == 25
    assert ring5.decompose().ramification() == "split"


def test_subtraction_from_an_integer():
    ring = QuotientRing(GAUSSIAN_P3)
    a = ring.element([1, 2])
    assert (1 - a).coeffs == (0, 1)
    assert (7 - a).coeffs == (0, 1)  # 7 = 1 mod 3
    assert 1 - a == ring.one - a == -(a - 1)


def test_an_element_equals_the_integers_of_its_residue():
    ring = QuotientRing(GAUSSIAN_P3)
    assert ring.from_int(4) == 1 and ring.from_int(4) != 2
    assert ring.gen != 0 and ring.zero == 3


def test_factor_scan_of_degree_two():
    # y^4 - 4y^2 + 2 = (y^2 + 1)(y^2 + 2) mod 7 has no root, so only the
    # scan over monic quadratics finds its factors.
    assert _factor_mod_p((2, 0, -4, 0, 1), 7) == [((1, 0, 1), 1), ((2, 0, 1), 1)]


def test_ring_new_rejects_bad_sigma():
    # y -> 1 + y is no ring map of Z[i], and the identity has order 1, not 2.
    # The order and the norm search apply the same sigma, so they reject it too.
    bad = {(1, 1): "not divisible", (0, 1): "order is 1, expected 2"}
    for sigma_image, message in bad.items():
        spec = AlgebraSpec((1, 0, 1), sigma_image, u=-1, p=3)
        for build in (QuotientRing, NaturalOrder, lambda s: norm_witnesses(s, 1)):
            with pytest.raises(InvalidSigma, match=message):
                build(spec)


@st.composite
def reducible_specs(draw):
    """Specs whose m is reducible over Q: m = (y - r)(y - s) with sigma
    swapping the roots, a ring map of order 2, so only the discriminant
    check can reject it; or the cubic (y + 1)^2 (y - 2) with the sigma of
    the cyclic cubics, which has no order 3 on that m."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    u = draw(st.integers(-6, 6).filter(lambda v: v % p))
    if draw(st.booleans()):
        roots = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
        r, s = draw(roots.filter(lambda t: t[0] != t[1]))
        return AlgebraSpec((r * s, -(r + s), 1), (r + s, -1), u=u, p=p, conjugation_mode="identity")
    return AlgebraSpec((-2, -3, 0, 1), (-2, 0, 1), u=u, p=p, conjugation_mode="identity")


@settings(max_examples=20, deadline=None)
@given(spec=reducible_specs())
def test_order_and_norms_reject_a_reducible_min_poly(spec):
    # Without the check in the shared core, NaturalOrder builds y^2 - 4 and
    # matrix_rep(2 + y).det() is (0, 0), with no error.
    error, message = (NotIrreducible, "integer root") if spec.n == 2 else (InvalidSigma, "no sigma")
    for build in (QuotientRing, NaturalOrder, lambda s: norm_witnesses(s, 1)):
        with pytest.raises(error, match=message):
            build(spec)


# The Gaussian fields with u = -1 over p = 3, which the rejection tests vary.
GAUSSIAN_FIELDS = dict(min_poly=(1, 0, 1), sigma_image=(0, -1), u=-1, p=3, conjugation_mode="complex")


def test_spec_rejects_a_non_monic_or_linear_min_poly():
    # Raised by AlgebraSpec itself, so no ring, order or norm sees such an m:
    # the order's folding row assumes m monic.
    for call in SPEC_CALLS:
        with pytest.raises(InvalidSpec, match="must be monic"):
            call({**GAUSSIAN_FIELDS, "min_poly": (1, 0, 2)})
        for min_poly in ((), (1,), (1, 1)):
            with pytest.raises(InvalidSpec, match="degree at least 2"):
                call({**GAUSSIAN_FIELDS, "min_poly": min_poly, "sigma_image": (0, 1), "u": 1})


def test_spec_rejects_values_that_are_not_ints():
    # int() would truncate these to the p = 3 ring or read "5" and True as 5 and 1.
    for field, value, message in (
        ("p", 3.7, "p must be an integer"),
        ("u", "5", "u must be an integer"),
        ("u", True, "u must be an integer"),
        ("min_poly", (1.9, 0, 1), "min_poly must be a sequence of integers"),
        ("sigma_image", (0, False), "sigma_image must be a sequence of integers"),
        ("min_poly", "101", "min_poly must be a sequence of integers"),
    ):
        for call in SPEC_CALLS:
            with pytest.raises(InvalidSpec, match=message):
                call({**GAUSSIAN_FIELDS, field: value})


# Each field rule raises from AlgebraSpec itself, so no ring, order, norm
# search or matrix is ever built on such a spec.
FIELD_VIOLATIONS = (
    (dict(conjugation_mode="bogus"), InvalidSpec, "conjugation_mode must be 'complex' or 'identity'"),
    (dict(p=4), NotPrime, "p = 4 is not prime"),
    (dict(u=6), NonUnitU, "u = 6 is not a unit modulo p = 3"),
    (dict(u=0), NonUnitU, "u = 0 is not a unit modulo p = 3"),
)


@pytest.mark.parametrize(
    "fields, error, message", FIELD_VIOLATIONS, ids=("bogus-mode", "p4", "u6", "u0")
)
def test_spec_is_the_one_gate_for_field_rules(fields, error, message):
    for call in SPEC_CALLS:
        with pytest.raises(error) as info:
            call({**GAUSSIAN_FIELDS, **fields})
        assert str(info.value) == message


def test_spec_bounds_the_degree_before_any_core_work():
    def spec(n, p=2, call=SPEC_CALLS[0]):
        # y^n + 1 with y -> 1 + y, which is no ring map of Z[y]/(y^n + 1).
        min_poly = (1,) + (0,) * (n - 1) + (1,)
        return call(dict(min_poly=min_poly, sigma_image=(1, 1), u=1, p=p, conjugation_mode="identity"))

    with pytest.raises(InvalidSigma, match="not divisible"):
        NaturalOrder(spec(31))
    for call in SPEC_CALLS:
        with pytest.raises(TooLarge, match="degree 32"):
            spec(32, call=call)
        # The bound is the last field check, so a quick answer such as NotPrime keeps its precedence.
        with pytest.raises(NotPrime):
            spec(1200, p=4, call=call)


def test_ring_new_rejects_bad_p_and_u():
    with pytest.raises(NotPrime):
        QuotientRing(AlgebraSpec((1, 0, 1), (0, -1), u=-1, p=4))
    with pytest.raises(NonUnitU):
        QuotientRing(AlgebraSpec((1, 0, 1), (0, -1), u=6, p=3))
    with pytest.raises(NotIrreducible):
        QuotientRing(AlgebraSpec((-4, 0, 1), (0, -1), u=-1, p=3))
    # y -> -y has order 2 on Z[y]/(y^2 - 1), so only the discriminant rejects it.
    with pytest.raises(NotIrreducible, match="integer root -1"):
        QuotientRing(AlgebraSpec((-1, 0, 1), (0, -1), u=1, p=3))
    with pytest.raises(InvalidSpec):
        QuotientRing(AlgebraSpec((1, 1), (0, 1), u=1, p=3))


def _integer_roots(m):
    """Every integer root of m, scanned inside the Cauchy bound 1 + max|m_i|."""
    bound = 1 + max(map(abs, m[:-1]))
    return [x for x in range(-bound, bound + 1) if sum(c * x**i for i, c in enumerate(m)) == 0]


def test_a_quadratic_is_not_irreducible_exactly_when_a_root_scan_finds_a_root():
    # y -> -m1 - y swaps the roots of every monic quadratic, a ring map of
    # order 2, so only the discriminant decides.
    for m0, m1 in product(range(-12, 13), repeat=2):
        m = (m0, m1, 1)
        roots = _integer_roots(m)
        if roots:
            with pytest.raises(NotIrreducible) as info:
                IntegralArithmetic(m, (-m1, -1))
            assert str(info.value) == f"min_poly has the integer root {min(roots)}"
        else:
            assert IntegralArithmetic(m, (-m1, -1)).n == 2


def test_the_order_of_sigma_rejects_every_cubic_with_an_integer_root():
    # The core scans no cubic for roots, yet every (m, s) it accepts has an m
    # free of integer roots, and every m with one raises InvalidSigma for every s.
    accepted = set()
    for low in product(range(-2, 3), repeat=3):
        m = low + (1,)
        has_root = bool(_integer_roots(m))
        for s in product(range(-2, 3), repeat=3):
            try:
                IntegralArithmetic(m, s)
            except InvalidSigma:
                continue
            assert not has_root, (m, s)
            accepted.add(m)
    assert accepted == {(-1, -2, 1, 1), (-1, -1, 2, 1), (1, -2, -1, 1), (1, -1, -2, 1)}


def test_invalid_sigma_names_a_wrong_order_or_no_order():
    # y -> 1 on y^4 - 1 never returns y to y; y -> -y on y^4 + 1 has order 2.
    # The reducible cubic (y + 1)^2 (y - 2) gets the first message too.
    # Past n = 2 both name the other cause, a reducible min_poly; a quadratic's
    # discriminant has already decided that, so y -> y on y^2 + 1 does not.
    reducible = ", or min_poly is reducible"
    no_order = "no sigma^k with k <= {0} returns y to y, so s(y) is no automorphism of order {0}"
    for m, s, message in (
        ((-1, 0, 0, 0, 1), (1,), no_order.format(4) + reducible),
        ((-2, -3, 0, 1), (-2, 0, 1), no_order.format(3) + reducible),
        ((1, 0, 0, 0, 1), (0, -1), "automorphism order is 2, expected 4" + reducible),
        ((1, 0, 1), (0, 1), "automorphism order is 1, expected 2"),
    ):
        with pytest.raises(InvalidSigma) as info:
            IntegralArithmetic(m, s)
        assert str(info.value) == message


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    for n in range(-100, 2 * 10**4):
        assert _is_prime(n) == _trial_division_is_prime(n), n


def test_is_prime_rejects_strong_pseudoprimes():
    # Strong pseudoprimes to every prime base up to 7, 31 and 37 respectively.
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(10**18 + 3)
    with pytest.raises(TooLarge):
        _is_prime(3_317_044_064_679_887_385_961_981)


def test_nineteen_digit_prime_builds_but_decompose_is_too_large():
    ring = QuotientRing(AlgebraSpec((1, 0, 1), (0, -1), u=-1, p=10**18 + 3))
    assert ring.p == 10**18 + 3
    with pytest.raises(TooLarge):
        ring.decompose()


def _span_mod_p(vectors, ncols, p):
    out = set()
    for coeffs in product(range(p), repeat=len(vectors)):
        out.add(tuple(sum(a * v[j] for a, v in zip(coeffs, vectors)) % p for j in range(ncols)))
    return out


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7)),
    ncols=st.integers(1, 4),
    data=st.data(),
)
def test_echelon_and_nullspace_match_enumeration(p, ncols, data):
    rows = data.draw(
        st.lists(st.lists(st.integers(-10, 10), min_size=ncols, max_size=ncols), max_size=4)
    )
    basis, pivots = echelon_mod_p(rows, p)
    assert pivots == sorted(set(pivots)) and len(pivots) == len(basis)
    for row, pivot in zip(basis, pivots):
        assert all(0 <= v < p for v in row)
        assert not any(row[:pivot]) and row[pivot] == 1
        assert all(other[pivot] == 0 for other in basis if other is not row)
    assert _span_mod_p(basis, ncols, p) == _span_mod_p(rows, ncols, p)

    kernel = nullspace_mod_p((basis, pivots), ncols, p)
    assert len(kernel) == ncols - len(basis)
    solutions = {
        v for v in product(range(p), repeat=ncols)
        if all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows)
    }
    assert _span_mod_p(kernel, ncols, p) == solutions


def test_gaussian_p3_multiplication():
    ring = QuotientRing(GAUSSIAN_P3)
    a = ring.gen
    assert (a + 1) * (a - 1) == ring.one
    assert a * a == -ring.one
    assert (a + 1) * (a + 2) == ring.one  # a+2 == a-1


@pytest.mark.parametrize("coeffs", [[1.9, 2.5], ["2", 1]])
def test_element_rejects_coefficients_that_are_not_integers(coeffs):
    with pytest.raises(TypeError):
        QuotientRing(GAUSSIAN_P3).element(coeffs)


def test_element_of_another_ring_is_rejected_everywhere():
    ring = QuotientRing(GAUSSIAN_P3)
    alien = QuotientRing(GAUSSIAN_P5).gen
    a = ring.gen
    entry_points = [
        lambda: a + alien,
        lambda: alien + a,
        lambda: a - alien,
        lambda: alien - a,
        lambda: a * alien,
        lambda: alien * a,
        lambda: ring.coerce(alien),
        lambda: ring.element(alien),
        lambda: SkewPoly(ring, [1, alien]),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match="different ring"):
            call()
    # An equal ring built separately is the same ring, not another one.
    twin = QuotientRing(GAUSSIAN_P3)
    assert ring.coerce(twin.gen) == a and ring.element(twin.gen) == a


def test_ramified_nilpotent():
    ring = QuotientRing(AlgebraSpec((1, 0, 1), (0, -1), u=-1, p=2))
    ups = ring.element([1, 1])
    assert not (ups * ups)
    assert not ups.is_unit()
    with pytest.raises(NotInvertible):
        ups.inverse()


@given(
    st.lists(st.integers(0, 4), min_size=2, max_size=2),
    st.lists(st.integers(0, 4), min_size=2, max_size=2),
    st.lists(st.integers(0, 4), min_size=2, max_size=2),
)
def test_ring_axioms_split_ring(xs, ys, zs):
    ring = QuotientRing(GAUSSIAN_P5)
    x, y, z = ring.element(xs), ring.element(ys), ring.element(zs)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + (-x) == ring.zero
    assert x * ring.one == x


def test_sigma_is_automorphism_all_pairs(ring):
    els = list(ring.elements())
    if len(els) <= 100:
        pairs = product(els, repeat=2)
    else:
        rng = random.Random(11)
        pairs = ((rng.choice(els), rng.choice(els)) for _ in range(1000))
    for x, y in pairs:
        assert (x * y).sigma() == x.sigma() * y.sigma()
        assert (x + y).sigma() == x.sigma() + y.sigma()
    for x in els:
        assert x.sigma(ring.n) == x
        assert x.sigma(-1).sigma(1) == x


def test_sigma_fixes_prime_field():
    ring = QuotientRing(GAUSSIAN_P3)
    for c in range(3):
        assert ring.from_int(c).sigma() == ring.from_int(c)
    assert ring.gen.sigma() == -ring.gen


def test_sigma_swaps_split_projections():
    ring = QuotientRing(GAUSSIAN_P5)
    dec = ring.decompose()
    for _ in range(20):
        rng = random.Random(_)
        x = random_element(ring, rng)
        left, right = dec.project(x)
        assert dec.project(x.sigma()) == (right, left)


# The fixture ring is only read, so sharing it across examples is safe.
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=valid_specs())
def test_inverse_matches_exhaustive_search(ring, spec):
    for r in (ring, QuotientRing(spec)):
        els = list(r.elements())
        for x in els:
            by_search = [y for y in els if x * y == r.one]
            try:
                inv = x.inverse()
                assert [inv] == by_search
            except NotInvertible:
                assert by_search == []


def test_inverse_examples():
    ring = QuotientRing(GAUSSIAN_P3)
    assert ring.from_int(2).inverse() == ring.from_int(2)
    a = ring.gen
    # oracle: exhaustive search over all 9 elements
    expected = [y for y in ring.elements() if (a + 1) * y == ring.one]
    assert expected == [a + 2]
    assert (a + 1).inverse() == a + 2


def test_decompose_split_projection_formula():
    ring = QuotientRing(GAUSSIAN_P5)
    dec = ring.decompose()
    assert [f for f, _ in dec.factors] == [(3, 1), (2, 1)]  # y - 2, y - 3
    assert dec.project(ring.gen) == ((2,), (3,))
    for aa in range(5):
        for bb in range(5):
            assert dec.project(ring.element([aa, bb])) == (
                ((aa + 2 * bb) % 5,),
                ((aa + 3 * bb) % 5,),
            )


def test_decompose_inert_and_ramified():
    inert = QuotientRing(GAUSSIAN_P3).decompose()
    assert inert.ramification() == "inert"
    assert inert.factors == [((1, 0, 1), 1)]

    ram = QuotientRing(AlgebraSpec((1, 0, 1), (0, -1), u=-1, p=2)).decompose()
    assert ram.ramification() == "ramified"
    assert ram.factors == [((1, 1), 2)]


def _local_mul(u, v, modulus, p):
    prod = [0] * (len(u) + len(v))
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            prod[i + j] += ui * vj
    rem = tuple(v % p for v in intpoly.mod_monic(prod, modulus))
    return rem + (0,) * (len(modulus) - 1 - len(rem))


def test_decompose_projections_are_homomorphisms(ring):
    dec = ring.decompose()
    rng = random.Random(3)
    for _ in range(50):
        x, y = random_element(ring, rng), random_element(ring, rng)
        px, py = dec.project(x), dec.project(y)
        psum = dec.project(x + y)
        pprod = dec.project(x * y)
        for i, q in enumerate(dec.moduli):
            assert psum[i] == tuple((u + v) % ring.p for u, v in zip(px[i], py[i]))
            assert pprod[i] == _local_mul(px[i], py[i], q, ring.p)


def test_decompose_jointly_injective(ring):
    dec = ring.decompose()
    images = {dec.project(x) for x in ring.elements()}
    assert len(images) == ring.size


def test_enumerate_elements(ring):
    els = list(ring.elements())
    assert len(els) == ring.size
    assert len(set(els)) == ring.size
    assert els[0] == ring.zero
    assert els[-1].coeffs == (ring.p - 1,) * ring.n
    with pytest.raises(TooLarge):
        list(ring.elements(bound=2))


def test_a_ring_keeps_one_element_per_residue():
    ring = QuotientRing(GAUSSIAN_P3)
    assert ring._make((1, 2)) is ring._make((1, 2))
    assert ring.zero is ring.zero is ring.from_int(3) is ring.element([3, 0, 3])
    assert ring.one is ring.from_int(4) is ring.element([1]) is ring.gen**4
    assert ring.gen is ring.element([0, 1]) is ring.element(ring.gen)
    # The public constructor still builds a new element, equal to the shared one.
    fresh = RingElement(ring, (1, 2))
    assert fresh == ring._make((1, 2)) and fresh is not ring._make((1, 2))
    assert hash(fresh) == hash(ring._make((1, 2)))


@settings(max_examples=30, deadline=None)
@given(spec=valid_specs(), data=st.data())
def test_ring_results_are_the_shared_elements_of_their_residues(spec, data):
    # Expected coefficients come from the core over Z, reduced afterwards.
    ring = QuotientRing(spec)
    core, p, n = ring._core, ring.p, ring.n
    vectors = st.lists(st.integers(-40, 40), min_size=n, max_size=n)
    x, y = ring.element(data.draw(vectors)), ring.element(data.draw(vectors))
    power = data.draw(st.integers(0, 2 * n))
    expected = [
        (x + y, [a + b for a, b in zip(x.coeffs, y.coeffs)]),
        (x - y, [a - b for a, b in zip(x.coeffs, y.coeffs)]),
        (-x, [-a for a in x.coeffs]),
        (x * y, core.mul(x.coeffs, y.coeffs)),
        (x.sigma(power), core.sigma(x.coeffs, power)),
    ]
    if x.is_unit():
        inverse = x.inverse()
        assert x * inverse is ring.one
        expected.append((inverse, inverse.coeffs))
    for result, coeffs in expected:
        reduced = tuple(v % p for v in coeffs)
        assert result == RingElement(ring, reduced)
        assert result is ring._make(reduced)


def test_a_ring_holds_at_most_one_element_per_residue(ring):
    table = ring._make.__self__  # the dict behind the bound lookup
    elements = list(ring.elements())
    assert len(table) == ring.size
    assert all(a is b for a, b in zip(elements, ring.elements()))
    results = [x * y + x.sigma() - y for x in elements[:20] for y in elements[-20:]]
    assert all(z is table[z.coeffs] for z in results)
    assert len(table) == ring.size


def test_threads_building_one_ring_share_each_element():
    # More threads than cores, released together, and a short switch interval,
    # so first lookups of one residue interleave; every thread must get the
    # element the ring keeps, and the ring keeps one per residue.
    spec = AlgebraSpec((1, 0, 1), (0, -1), u=-1, p=31)
    residues = [list(c) for c in product(range(spec.p), repeat=spec.n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):  # each round catches a lost update most of the time
            ring = QuotientRing(spec)
            barrier = threading.Barrier(6, timeout=30)
            results = {}

            def build(index):
                barrier.wait()
                results[index] = [ring.element(c) for c in residues]

            threads = [threading.Thread(target=build, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == len(threads)
            kept = [ring.element(c) for c in residues]
            assert all(a is b for built in results.values() for a, b in zip(built, kept))
            assert len(ring._make.__self__) == ring.size
    finally:
        sys.setswitchinterval(interval)


def test_norm_witnesses():
    assert norm_witnesses(GAUSSIAN_P3, 20) == []
    assert norm_witnesses(SQRT2_P3, 20) == []
    hits = norm_witnesses(AlgebraSpec((1, 0, 1), (0, -1), u=1, p=3), 1)
    assert (1, 0, 1) in hits
    # y -> y has order 1 on a cubic, so sigma is rejected before any norm.
    with pytest.raises(InvalidSigma):
        norm_witnesses(AlgebraSpec((-1, -1, 0, 1), (0, 1), u=2, p=5, conjugation_mode="identity"), 5)


def test_norm_witnesses_matches_quadratic_norm():
    # oracle: the norm of a + b*sqrt(2) is a^2 - 2 b^2
    found = norm_witnesses(AlgebraSpec((-2, 0, 1), (0, -1), u=7, p=3), 4)
    brute = [
        (a, b, 1)
        for a in range(-4, 5)
        for b in range(-4, 5)
        if a * a - 2 * b * b == 7
    ]
    assert found == brute and found  # (3, 1) is a witness


def test_element_serialization_round_trip(ring):
    rng = random.Random(9)
    for _ in range(20):
        x = random_element(ring, rng)
        assert ring.element(x.to_list()) == x
        assert len(x.to_list()) == ring.n


def test_negative_powers_are_powers_of_the_inverse():
    ring = QuotientRing(GAUSSIAN_P3)
    for x in ring.elements():
        if x:
            assert x ** -1 == x.inverse() and x ** -2 == x.inverse() * x.inverse()


def test_the_factor_scan_stops_past_the_enumeration_bound():
    # The quartic has no root modulo 1013, and its degree-2 scan would take
    # 1013^2 > 10^6 candidates.
    with pytest.raises(TooLarge, match="1013\\^2 candidates exceeds bound"):
        _factor_mod_p((2, 0, -4, 0, 1), 1013)
