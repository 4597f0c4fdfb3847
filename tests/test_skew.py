import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from skewlat import (
    AlgebraSpec,
    OppositePoly,
    QuotientRing,
    SkewPoly,
    central_poly,
    monic_right_divisors,
    opposite,
)
from skewlat.errors import DivisionByZero, NonUnitLeading, TooLarge
from skewlat.fixtures import GAUSSIAN_P2, GAUSSIAN_P3

from helpers import (
    CUBIC,
    QUARTIC,
    brute_force_right_divisors,
    division_cofactors,
    quiet_ring,
    random_poly,
    random_unit_lead_poly,
    valid_specs,
)

NEG_INF = float("-inf")


@pytest.fixture
def p3():
    return QuotientRing(GAUSSIAN_P3)


def test_twist_relation(p3):
    a = p3.gen
    x = SkewPoly.monomial(p3, 1)
    assert x * a == SkewPoly(p3, (0, -a))
    assert a * x == SkewPoly(p3, (0, a))
    assert x * a != a * x  # the twist is active


def test_addition(p3):
    f = SkewPoly(p3, (1, 1))
    assert f + SkewPoly.zero(p3) == f
    assert SkewPoly(p3, (1, 1)) + SkewPoly(p3, (2, 2)) == SkewPoly.zero(p3)
    g = SkewPoly(p3, (1, 0, 1)) + SkewPoly(p3, (p3.gen, 1))
    assert g == SkewPoly(p3, (1 + p3.gen, 1, 1))


def test_subtraction_from_a_constant(p3):
    a = p3.gen
    f = SkewPoly(p3, (a, 1))  # x + a
    assert 1 - f == SkewPoly(p3, (1 - a, -1))
    assert a - f == SkewPoly(p3, (0, -1))
    assert (1 - f) + f == SkewPoly.one(p3)


def test_factorization_of_central(p3):
    a = p3.gen
    x = SkewPoly.monomial(p3, 1)
    assert (x + (a - 1)) * (x + (a + 1)) == central_poly(p3, 2, -1)
    f = random_poly(p3, random.Random(0))
    assert f * SkewPoly.one(p3) == f


def test_zero_polynomial_degree(p3):
    z = SkewPoly.zero(p3)
    assert z.coeffs == ()
    assert z.degree == NEG_INF
    assert z.degree < SkewPoly.one(p3).degree


def test_right_division_examples(p3):
    a = p3.gen
    x = SkewPoly.monomial(p3, 1)
    central = central_poly(p3, 2, -1)
    q, r = central.right_divmod(x + (a + 1))
    assert q == x + (a - 1) and r.is_zero
    for f in (x + (a + 1), central, SkewPoly(p3, (a, 1, 2))):
        q, r = f.right_divmod(f)
        assert q == SkewPoly.one(p3) and r.is_zero
    q, r = central.right_divmod(x + 1)
    assert q == x + 2 and r == SkewPoly(p3, (2,))


def test_left_division_examples(p3):
    a = p3.gen
    x = SkewPoly.monomial(p3, 1)
    central = central_poly(p3, 2, -1)
    q, r = central.left_divmod(x + (a - 1))
    assert q == x + (a + 1) and r.is_zero
    q, r = central.left_divmod(central)
    assert q == SkewPoly.one(p3) and r.is_zero
    q, r = central.left_divmod(x + 1)
    assert central == (x + 1) * q + r and r.degree < 1
    assert not r.is_zero


def test_division_errors(p3):
    f = SkewPoly(p3, (1, 1, 1))
    with pytest.raises(DivisionByZero):
        f.right_divmod(SkewPoly.zero(p3))
    with pytest.raises(DivisionByZero):
        f.left_divmod(SkewPoly.zero(p3))
    ring2 = QuotientRing(GAUSSIAN_P2)
    ups = ring2.element([1, 1])
    g = SkewPoly(ring2, (1, ups))
    with pytest.raises(NonUnitLeading):
        SkewPoly(ring2, (1, 0, 1)).right_divmod(g)
    with pytest.raises(NonUnitLeading):
        SkewPoly(ring2, (1, 0, 1)).left_divmod(g)


def test_division_identity_randomized(ring):
    rng = random.Random(42)
    for _ in range(200):
        f = random_poly(ring, rng, max_degree=5)
        g = random_unit_lead_poly(ring, rng, max_degree=3)
        q, r = f.right_divmod(g)
        assert f == q * g + r
        assert r.degree < g.degree
        q2, r2 = f.left_divmod(g)
        assert f == g * q2 + r2
        assert r2.degree < g.degree


def test_division_deterministic_repeat(ring):
    def run():
        rng = random.Random(7)
        out = []
        for _ in range(50):
            f = random_poly(ring, rng, max_degree=5)
            g = random_unit_lead_poly(ring, rng, max_degree=3)
            q, r = f.right_divmod(g)
            out.append((q.to_lists(), r.to_lists()))
        return out

    assert run() == run()


@given(
    st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2), min_size=1, max_size=5),
    st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2), min_size=1, max_size=3),
)
def test_division_identity_hypothesis(fc, gc):
    ring = QuotientRing(GAUSSIAN_P3)
    f = SkewPoly(ring, fc)
    g = SkewPoly(ring, gc)
    if g.is_zero or not g.lead.is_unit():
        return
    q, r = f.right_divmod(g)
    assert f == q * g + r and r.degree < g.degree


def test_reduce_mod_central(p3):
    a = p3.gen
    x = SkewPoly.monomial(p3, 1)
    assert (x * x).mod_central(2, -1) == SkewPoly(p3, (-1,))
    ring5 = QuotientRing(AlgebraSpec((1, 0, 1), (0, -1), u=2, p=5))
    x5 = SkewPoly.monomial(ring5, 1)
    assert (x5 * x5 * x5).mod_central(2, 2) == SkewPoly(ring5, (0, 2))
    assert ((x + (a + 1)) * x).mod_central(2, -1) == SkewPoly(p3, (-1, a + 1))
    f = SkewPoly(p3, (1, a))
    assert f.mod_central(2, -1) is f


@settings(max_examples=15, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**16))
def test_mod_central_fold_is_the_division_remainder(spec, seed):
    ring = QuotientRing(spec)
    rng = random.Random(seed)
    n = ring.n
    for cls in (SkewPoly, OppositePoly):
        central = central_poly(ring, n, spec.u, cls=cls)
        for _ in range(10):
            f = cls(ring, random_poly(ring, rng, max_degree=2 * n + 1).coeffs)
            assert f.mod_central(n, spec.u) == f.right_divmod(central)[1]


def test_centrality(ring):
    rng = random.Random(5)
    central = central_poly(ring, ring.n, ring.spec.u)
    for _ in range(30):
        f = random_poly(ring, rng, max_degree=4)
        assert central * f == f * central


def test_opposite_examples(p3):
    a = p3.gen
    x = SkewPoly.monomial(p3, 1)
    c = SkewPoly(p3, (a + 2,))
    assert opposite(c) == OppositePoly(p3, (a + 2,))
    f = SkewPoly(p3, (0, a))
    assert opposite(f) == OppositePoly(p3, (0, a.sigma(-1)))
    w = OppositePoly.monomial(p3, 1)
    lhs = opposite((x + (a - 1)) * (x + (a + 1)))
    assert lhs == opposite(x + (a + 1)) * opposite(x + (a - 1)) == w * w + 1


def test_opposite_reverses_products(ring):
    rng = random.Random(12)
    for _ in range(300):
        f = random_poly(ring, rng, max_degree=4)
        g = random_poly(ring, rng, max_degree=4)
        assert opposite(f * g) == opposite(g) * opposite(f)
        assert opposite(f + g) == opposite(f) + opposite(g)
        h = OppositePoly(ring, g.coeffs)
        assert opposite(opposite(f)) == f and opposite(opposite(h)) == h


def test_opposite_twist(p3):
    a = p3.gen
    w = OppositePoly.monomial(p3, 1)
    assert w * a == OppositePoly(p3, (0, a.sigma(-1)))
    with pytest.raises(ValueError):
        w * SkewPoly.monomial(p3, 1)


def test_monic_right_divisors_oracle(ring):
    # degree-1 oracle: x + c right divides x^n - u iff c * sigma(c) = u
    if ring.n != 2:
        return
    u = ring.u
    expected = [c for c in ring.elements() if c * c.sigma() == u]
    divisors = monic_right_divisors(ring, ring.n, ring.spec.u, 1)
    assert [d.coeff(0) for d in divisors] == expected
    assert all(d.is_monic and d.degree == 1 for d in divisors)


def test_monic_right_divisors_p3_count(p3):
    a = p3.gen
    divisors = monic_right_divisors(p3, 2, -1, 1)
    assert len(divisors) == 4
    assert SkewPoly(p3, (a + 1, 1)) in divisors


def test_monic_right_divisors_edge_degrees(p3):
    assert monic_right_divisors(p3, 2, -1, 0) == [SkewPoly.one(p3)]
    deg2 = monic_right_divisors(p3, 2, -1, 2)
    assert central_poly(p3, 2, -1) in deg2
    assert monic_right_divisors(p3, 2, -1, 3) == []
    with pytest.raises(TooLarge):
        monic_right_divisors(p3, 2, -1, 1, bound=5)


def test_root_scan_checks_its_bound_first_and_needs_an_integer_target(p3):
    # sigma fixes all of Z[i]/(2), so x^2 - a is central; every norm is an
    # integer residue, so no x + c divides it.
    p2 = QuotientRing(GAUSSIAN_P2)
    a = p2.gen
    assert monic_right_divisors(p2, 2, a, 1) == brute_force_right_divisors(p2, 2, a, 1) == []
    for ring, u in ((p3, -1), (p2, a)):
        bound = ring.size - 1
        with pytest.raises(TooLarge, match=f"^{ring.size} elements exceeds bound {bound}$"):
            monic_right_divisors(ring, 2, u, 1, bound=bound)


# Above this many candidates the brute-force oracle takes seconds.
ORACLE_BUDGET = 5_000


def assert_divisors_match_oracle(ring, u):
    n = ring.n
    central = central_poly(ring, n, u)
    for degree in range(n + 2):
        found = monic_right_divisors(ring, n, u, degree)
        if ring.size**degree <= ORACLE_BUDGET:
            assert found == brute_force_right_divisors(ring, n, u, degree), degree
        elif degree >= n:
            assert found == ([central] if degree == n else [])
        else:
            for g in found:
                assert g.is_monic and g.degree == degree
                assert central.right_divmod(g)[1].is_zero


@settings(max_examples=20, deadline=None)
@given(valid_specs())
@example(replace(CUBIC, p=2, u=1))
@example(replace(CUBIC, p=3, u=-1))
@example(AlgebraSpec((1, 0, 1), (0, -1), u=-1, p=3))
def test_divisors_match_brute_force(spec):
    assert_divisors_match_oracle(QuotientRing(spec), spec.u)


def test_quartic_middle_degree_scan_and_cofactors():
    # y^4 + y^3 + y^2 + y + 1 with sigma: y -> y^2, at p = 2: degree 2 is
    # the candidate scan and degree 3 the cofactors of the roots.
    ring = quiet_ring(AlgebraSpec((1, 1, 1, 1, 1), (0, 0, 1), u=1, p=2, conjugation_mode="identity"))
    assert [len(monic_right_divisors(ring, 4, 1, d)) for d in range(6)] == [1, 15, 35, 15, 1, 0]
    assert_divisors_match_oracle(ring, 1)


def test_cubic_p13_roots_and_cofactors():
    ring = QuotientRing(replace(CUBIC, p=13))
    central = central_poly(ring, 3, 2)
    roots = monic_right_divisors(ring, 3, 2, 1)
    quadratics = monic_right_divisors(ring, 3, 2, 2)
    assert len(roots) == len(quadratics) == 144
    assert roots == brute_force_right_divisors(ring, 3, 2, 1)
    cofactors = set()
    for h in quadratics:
        q, r = central.right_divmod(h)
        assert r.is_zero
        cofactors.add(q)
    assert cofactors == set(roots)


def assert_quotients_match_division(ring, n, u):
    """Degree n - 1 equals the division cofactors, and each divisor q is the
    Lam-Leroy quotient of one root a: q*(x - a) = x^n - u with
    a = sigma(q_(n-2)), since q_(n-2) = sigma^(n-1)(a) and sigma^n = id."""
    central = central_poly(ring, n, u)
    quotients = monic_right_divisors(ring, n, u, n - 1)
    assert quotients == division_cofactors(ring, n, u, n - 1)
    roots = {-g.coeff(0) for g in monic_right_divisors(ring, n, u, 1)}
    assert {q.coeff(n - 2).sigma() for q in quotients} == roots
    assert len(quotients) == len(roots)
    x = SkewPoly.monomial(ring, 1)
    for q in quotients:
        assert q * (x - q.coeff(n - 2).sigma()) == central
    return quotients


@settings(max_examples=20, deadline=None)
@given(valid_specs(), st.sampled_from((1, 2)))
@example(replace(CUBIC, p=7, u=3), 2)
@example(AlgebraSpec((1, 0, 1), (0, -1), u=2, p=5), 2)
def test_degree_n_minus_one_divisors_are_the_division_cofactors(spec, multiple):
    ring = QuotientRing(spec)
    assert_quotients_match_division(ring, multiple * ring.n, spec.u)


def test_cubic_degree_two_counts():
    # [3 choose 2]_5 = 31 at the inert p = 5, 12^2 = 144 at the split
    # p = 13, and none at the ramified p = 7 with u = 2.
    for p, u, count in ((5, 2, 31), (13, 2, 144), (7, 2, 0)):
        ring = QuotientRing(replace(CUBIC, p=p, u=u))
        assert len(assert_quotients_match_division(ring, 3, u)) == count, p


def test_quartic_degree_three_quotients():
    ring = quiet_ring(QUARTIC)
    assert len(assert_quotients_match_division(ring, 4, QUARTIC.u)) == 156


def test_monic_right_divisors_needs_a_multiple_of_the_sigma_order(p3):
    with pytest.raises(ValueError):
        monic_right_divisors(p3, 3, -1, 1)
    assert monic_right_divisors(p3, 4, -1, 1) == brute_force_right_divisors(p3, 4, -1, 1)


def test_central_poly_requires_fixed_u():
    ring5 = QuotientRing(AlgebraSpec((1, 0, 1), (0, -1), u=-1, p=5))
    moved = ring5.gen  # sigma(gen) = -gen != gen
    with pytest.raises(ValueError):
        central_poly(ring5, 2, moved)
    with pytest.raises(ValueError):
        SkewPoly.monomial(ring5, 2).mod_central(2, moved)


def test_serialization(p3):
    f = SkewPoly(p3, (p3.gen + 1, 1))
    assert f.to_lists() == [[1, 1], [1, 0]]
    assert SkewPoly(p3, f.to_lists()) == f
