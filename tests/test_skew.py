import random

import pytest
from hypothesis import example, given, settings, strategies as st

from skewlat import (
    ENUMERATION_BOUND,
    AlgebraSpec,
    OppositePoly,
    QuotientRing,
    RingElement,
    SkewPoly,
    central_poly,
    monic_right_divisors,
    opposite,
)
from skewlat import skew
from skewlat.errors import DivisionByZero, InvalidSpec, NonUnitLeading, TooLarge
from skewlat.fixtures import GAUSSIAN_P2, GAUSSIAN_P3, GAUSSIAN_P5

from helpers import (
    CUBIC,
    QUARTIC,
    QUINTIC,
    brute_force_right_divisors,
    division_cofactors,
    oracle_add,
    oracle_left_divmod,
    oracle_mod_central,
    oracle_neg,
    oracle_right_divmod,
    oracle_skew_mul,
    oracle_sub,
    quiet_ring,
    random_poly,
    random_unit_lead_poly,
    replace_spec,
    root_classes,
    scan_roots,
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


def test_zero_polynomial_prints_as_zero(p3):
    assert str(SkewPoly.zero(p3)) == "0"
    assert str(SkewPoly.zero(p3) * SkewPoly.one(p3)) == "0"


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


def assert_canonical(f, ring, cls):
    """f is a cls over ring whose coefficients are the ring's own elements,
    with a nonzero last one."""
    assert type(f) is cls and f.ring is ring
    assert all(c is ring._make(c.coeffs) for c in f.coeffs)
    assert not f.coeffs or any(f.coeffs[-1].coeffs)


@settings(max_examples=25, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**16), cls=st.sampled_from((SkewPoly, OppositePoly)))
@example(spec=QUARTIC, seed=1, cls=SkewPoly)
@example(spec=QUARTIC, seed=2, cls=OppositePoly)
@example(spec=QUINTIC, seed=3, cls=SkewPoly)
@example(spec=QUINTIC, seed=4, cls=OppositePoly)
def test_products_and_divisions_equal_the_object_oracles(spec, seed, cls):
    ring = quiet_ring(spec)
    rng = random.Random(seed)
    zero = cls.zero(ring)
    for _ in range(6):
        f = cls(ring, random_poly(ring, rng, max_degree=6).coeffs)
        h = cls(ring, random_poly(ring, rng).coeffs)
        g = cls(ring, random_unit_lead_poly(ring, rng).coeffs)
        for a, b in ((f, h), (h, f), (f, g), (g, zero), (zero, f)):
            product = a * b
            assert product == oracle_skew_mul(a, b)
            assert_canonical(product, ring, cls)
        for a in (f, h, g, zero):
            q, r = a.right_divmod(g)
            assert (q, r) == oracle_right_divmod(a, g)
            assert q * g + r == a and r.degree < g.degree
            q2, r2 = a.left_divmod(g)
            assert (q2, r2) == oracle_left_divmod(a, g)
            assert g * q2 + r2 == a and r2.degree < g.degree
            for result in (q, r, q2, r2):
                assert_canonical(result, ring, cls)


def test_polynomials_over_different_rings_or_twists_do_not_mix():
    p3, p5 = QuotientRing(GAUSSIAN_P3), QuotientRing(GAUSSIAN_P5)
    operations = (
        lambda f, g: f + g,
        lambda f, g: f - g,
        lambda f, g: f * g,
        lambda f, g: f.right_divmod(g),
        lambda f, g: f.left_divmod(g),
    )
    pairs = (
        (SkewPoly(p3, (p3.gen, 1)), SkewPoly(p5, (p5.gen, 1)), "different ring"),
        (SkewPoly.one(p3), SkewPoly.one(p5), "different ring"),
        (SkewPoly(p3, (p3.gen, 1)), OppositePoly(p3, (p3.gen, 1)), "different twists"),
        (OppositePoly.one(p3), SkewPoly.one(p3), "different twists"),
    )
    for f, g, message in pairs:
        for operation in operations:
            with pytest.raises(ValueError, match=message):
                operation(f, g)
    # A ring built again from the same spec is equal, so its polynomials mix.
    twin = QuotientRing(GAUSSIAN_P3)
    f, g = SkewPoly(p3, (p3.gen, 1)), SkewPoly(twin, (twin.gen, 1))
    assert f * g == oracle_skew_mul(f, g) and f.right_divmod(g) == (SkewPoly.one(p3), SkewPoly.zero(p3))


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
    # x^m - u is central for every multiple m of the order of sigma, and
    # opposite maps it to w^m - u: sigma fixes 1 and u.
    for m in (ring.n, 2 * ring.n):
        for central in (central_poly(ring, m, spec.u), opposite(central_poly(ring, m, spec.u))):
            cls = type(central)
            for _ in range(10):
                f = cls(ring, random_poly(ring, rng, max_degree=3 * m).coeffs)
                assert f.mod_central(m, spec.u) == f.right_divmod(central)[1]


@settings(max_examples=25, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**16), cls=st.sampled_from((SkewPoly, OppositePoly)))
@example(spec=QUARTIC, seed=5, cls=SkewPoly)
@example(spec=QUINTIC, seed=6, cls=OppositePoly)
def test_sums_negations_and_folds_equal_the_object_oracles(spec, seed, cls):
    ring = quiet_ring(spec)
    rng = random.Random(seed)
    zero = cls.zero(ring)
    for _ in range(6):
        f = cls(ring, random_poly(ring, rng, max_degree=6).coeffs)
        g = cls(ring, random_poly(ring, rng, max_degree=6).coeffs)
        for a, b in ((f, g), (g, f), (f, f), (f, zero), (zero, f)):
            for result, expected in ((a + b, oracle_add(a, b)), (a - b, oracle_sub(a, b)), (-a, oracle_neg(a))):
                assert result == expected
                assert_canonical(result, ring, cls)
        for m in (ring.n, 2 * ring.n):
            h = cls(ring, random_poly(ring, rng, max_degree=3 * m).coeffs)
            folded = h.mod_central(m, spec.u)
            assert folded == oracle_mod_central(h, m, spec.u) and folded.degree < m
            assert_canonical(folded, ring, cls)


def test_mod_central_folds_a_sigma_fixed_u_outside_f_p():
    # At p = 2, sigma: i -> -i acts trivially on F_2[i], so x^m - i is
    # central although i is no integer.
    ring = QuotientRing(GAUSSIAN_P2)
    u = ring.gen
    rng = random.Random(11)
    for m in (2, 4):
        for central in (central_poly(ring, m, u), opposite(central_poly(ring, m, u))):
            cls = type(central)
            for _ in range(30):
                f = cls(ring, random_poly(ring, rng, max_degree=3 * m).coeffs)
                folded = f.mod_central(m, u)
                assert folded == oracle_mod_central(f, m, u) == f.right_divmod(central)[1]
                assert_canonical(folded, ring, cls)
    x = SkewPoly.monomial(ring, 1)
    assert (x * x * x).mod_central(2, u) == SkewPoly(ring, (0, u))


def test_sums_negations_and_folds_take_no_element_arithmetic(monkeypatch):
    ring = QuotientRing(GAUSSIAN_P3)
    a = ring.gen
    f, g = SkewPoly(ring, (1, a, 2, a + 1, a)), SkewPoly(ring, (a, 1, 2))
    expected = (oracle_add(f, g), oracle_sub(f, g), oracle_neg(f), oracle_mod_central(f, 2, -1))

    def forbidden(*args):
        raise AssertionError("element arithmetic or a coercing constructor")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__"):
        monkeypatch.setattr(RingElement, name, forbidden)
    monkeypatch.setattr(SkewPoly, "__init__", forbidden)
    assert (f + g, f - g, -f, f.mod_central(2, -1)) == expected


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
    classes = root_classes(p3)
    with pytest.raises(
        TooLarge, match=rf"^{classes} classes of \(R - 0\)/F_3\* exceeds bound {classes - 1}$"
    ):
        monic_right_divisors(p3, 2, -1, 1, bound=classes - 1)
    assert len(monic_right_divisors(p3, 2, -1, 1, bound=classes)) == 4


def _unexpected(*args):
    raise AssertionError("unexpected call")


def test_root_scan_checks_its_bound_first_and_needs_an_integer_target(p3, monkeypatch):
    # The roots visit the 4 classes of (R - 0)/F_3*, and the bound is checked
    # before the norm kernel runs on any of them.
    classes = root_classes(p3)
    assert classes == 4
    monkeypatch.setattr(p3._core, "_norm_program", _unexpected)
    for bound in (0, classes - 1):
        with pytest.raises(
            TooLarge, match=rf"^{classes} classes of \(R - 0\)/F_3\* exceeds bound {bound}$"
        ):
            monic_right_divisors(p3, 2, -1, 1, bound=bound)
    monkeypatch.undo()
    assert monic_right_divisors(p3, 2, -1, 1, bound=classes) == brute_force_right_divisors(p3, 2, -1, 1)
    # sigma fixes all of Z[i]/(2), so x^2 - a is central; every norm is an
    # integer residue, so no x + c divides it, which is decided after the
    # bound check on the 3 classes.
    p2 = QuotientRing(GAUSSIAN_P2)
    a = p2.gen
    assert monic_right_divisors(p2, 2, a, 1) == brute_force_right_divisors(p2, 2, a, 1) == []
    classes = root_classes(p2)
    assert classes == 3
    with pytest.raises(
        TooLarge, match=rf"^{classes} classes of \(R - 0\)/F_2\* exceeds bound {classes - 1}$"
    ):
        monic_right_divisors(p2, 2, a, 1, bound=classes - 1)
    assert monic_right_divisors(p2, 2, a, 1, bound=classes) == []


@settings(max_examples=40, deadline=None)
@given(
    valid_specs(primes=(2, 3, 5, 7, 11, 13)),
    st.sampled_from((1, 2)),
    st.one_of(st.none(), st.integers(-13, 13), st.just("a")),
)
@example(replace_spec(CUBIC, p=11, u=3), 1, None)
@example(replace_spec(CUBIC, p=13, u=5), 2, None)
@example(replace_spec(CUBIC, p=7, u=3), 2, None)
@example(replace_spec(CUBIC, p=7, u=3), 1, 7)
@example(AlgebraSpec((1, 0, 1), (0, -1), u=2, p=13), 2, None)
@example(GAUSSIAN_P2, 1, "a")
@example(GAUSSIAN_P2, 2, 0)
def test_roots_and_quotients_equal_their_oracles(spec, multiple, u):
    """At every p, ramified included, and for u the spec's unit (None), any
    integer (p | u included) or the generator a where sigma fixes it: the
    degree-1 divisors are the scan's roots, degree n - 1 the division
    cofactors, and the bound counts the classes of (R - 0)/F_p*."""
    ring = QuotientRing(spec)
    n = multiple * ring.n
    u = spec.u if u is None else ring.gen if u == "a" else u
    if ring.sigma(ring.coerce(u)) != ring.coerce(u):
        return
    target = (ring.coerce(u) * (-1) ** n).coeffs
    roots = monic_right_divisors(ring, n, u, 1)
    assert [g.coeff(0).coeffs for g in roots] == scan_roots(ring, multiple, target, ring.size)
    assert all(g.coeffs[-1] == ring.one and len(g.coeffs) == 2 for g in roots)
    if n > 2:
        assert monic_right_divisors(ring, n, u, n - 1) == division_cofactors(ring, n, u, n - 1)
    classes = root_classes(ring)
    for degree in {1, n - 1}:
        with pytest.raises(
            TooLarge,
            match=rf"^{classes} classes of \(R - 0\)/F_{ring.p}\* exceeds bound {classes - 1}$",
        ):
            monic_right_divisors(ring, n, u, degree, bound=classes - 1)
    assert monic_right_divisors(ring, n, u, 1, bound=classes) == roots


@pytest.mark.parametrize(
    "p, count",
    [(5, (5**3 - 1) // 4), (31, (31**3 - 1) // 30), (13, 12**2), (29, 28**2)],
    ids=["inert-5", "inert-31", "split-13", "split-29"],
)
def test_cubic_root_counts(p, count):
    ring = QuotientRing(replace_spec(CUBIC, p=p))
    assert ring.decompose().ramification() == ("inert" if p in (5, 31) else "split")
    roots = skew._roots(central_poly(ring, 3, 2), ENUMERATION_BOUND)
    assert len(roots) == count
    assert roots == scan_roots(ring, 1, (-2 % p, 0, 0), ring.size)


def test_roots_at_a_ramified_p_and_at_p_dividing_u(p3):
    p2 = QuotientRing(GAUSSIAN_P2)
    assert monic_right_divisors(p2, 2, -1, 1) == brute_force_right_divisors(p2, 2, -1, 1)
    for u in (2, 3):
        ring = QuotientRing(replace_spec(CUBIC, p=7, u=u))
        assert ring.decompose().ramification() == "ramified"
        assert monic_right_divisors(ring, 3, u, 1) == brute_force_right_divisors(ring, 3, u, 1)
    # x^2 with p | u: the only root of the field Z[i]/(3) is 0.
    assert monic_right_divisors(p3, 2, 0, 1) == [SkewPoly.monomial(p3, 1)]


def test_hilbert90_roots_keep_the_norm_rationality_check():
    # y (y^2 - 2y - 1)(y^3 + y^2 - 2y - 1) is squarefree mod 5, but its sigma
    # fixes Q^3: a class meets a norm that is not rational and raises as the
    # scan does.
    spec = AlgebraSpec(
        (0, 1, 4, 2, -5, -1, 1), (0, -115, -190, 215, 70, -49), u=1, p=5,
        conjugation_mode="identity",
    )
    ring = quiet_ring(spec)
    assert ring.decompose().ramification() == "split"
    with pytest.raises(InvalidSpec, match="not rational"):
        monic_right_divisors(ring, 6, 1, 1)


def test_root_classes_check_every_norm(monkeypatch):
    """Each class of (R - 0)/F_p* is one kernel call, none repeated, and the
    rationality check runs on every one: a kernel whose product on the last
    class has a nonzero higher coordinate raises, at degrees 1 and n - 1."""
    ring = QuotientRing(CUBIC)
    core = ring._core
    program, calls = core._norm_program, []

    def last_class_not_rational(b):
        calls.append(b)
        prod, suffixes = program(b)
        return (prod[0], int(b == (0, 0, 1)), 0), suffixes

    monkeypatch.setattr(core, "_norm_program", last_class_not_rational)
    for degree in (1, 2):
        calls.clear()
        with pytest.raises(InvalidSpec, match="not rational"):
            monic_right_divisors(ring, 3, 2, degree)
        assert len(calls) == len(set(calls)) == root_classes(ring) == 31
        assert calls[-1] == (0, 0, 1)


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
@example(replace_spec(CUBIC, p=2, u=1))
@example(replace_spec(CUBIC, p=3, u=-1))
@example(AlgebraSpec((1, 0, 1), (0, -1), u=-1, p=3))
def test_divisors_match_brute_force(spec):
    assert_divisors_match_oracle(QuotientRing(spec), spec.u)


def test_quartic_middle_degree_scan_and_cofactors():
    # y^4 + y^3 + y^2 + y + 1 with sigma: y -> y^2, at p = 2: degree 2 is
    # the candidate scan and degree 3 the cofactors of the roots.
    ring = quiet_ring(AlgebraSpec((1, 1, 1, 1, 1), (0, 0, 1), u=1, p=2, conjugation_mode="identity"))
    assert [len(monic_right_divisors(ring, 4, 1, d)) for d in range(6)] == [1, 15, 35, 15, 1, 0]
    assert_divisors_match_oracle(ring, 1)


def test_the_middle_degree_scan_takes_its_candidates_as_they_are(monkeypatch):
    # y^4 + y^3 + y^2 + y + 1 at p = 2: degree 2 scans 16^2 candidates, each
    # made of the ring's own elements without a constructor, and divides
    # x^4 - 1 by each once; only the central polynomial is constructed.
    ring = quiet_ring(AlgebraSpec((1, 1, 1, 1, 1), (0, 0, 1), u=1, p=2, conjugation_mode="identity"))
    calls = {"init": 0, "right_divmod": 0}
    init, right_divmod = SkewPoly.__init__, SkewPoly.right_divmod

    def counting(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    monkeypatch.setattr(SkewPoly, "__init__", counting("init", init))
    monkeypatch.setattr(SkewPoly, "right_divmod", counting("right_divmod", right_divmod))
    divisors = monic_right_divisors(ring, 4, 1, 2)
    assert calls == {"init": 1, "right_divmod": 16**2}
    assert len(divisors) == 35
    for g in divisors:
        assert_canonical(g, ring, SkewPoly)


def test_cubic_p13_roots_and_cofactors():
    ring = QuotientRing(replace_spec(CUBIC, p=13))
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
@example(replace_spec(CUBIC, p=7, u=3), 2)
@example(AlgebraSpec((1, 0, 1), (0, -1), u=2, p=5), 2)
def test_degree_n_minus_one_divisors_are_the_division_cofactors(spec, multiple):
    ring = QuotientRing(spec)
    assert_quotients_match_division(ring, multiple * ring.n, spec.u)


def test_cubic_degree_two_counts():
    # [3 choose 2]_5 = 31 at the inert p = 5, 12^2 = 144 at the split
    # p = 13, and none at the ramified p = 7 with u = 2.
    for p, u, count in ((5, 2, 31), (13, 2, 144), (7, 2, 0)):
        ring = QuotientRing(replace_spec(CUBIC, p=p, u=u))
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


def test_the_middle_degree_scan_stops_past_its_bound():
    # Degree 2 of x^4 - 3 over the quartic at p = 5 scans 625^2 candidates.
    ring = quiet_ring(QUARTIC)
    with pytest.raises(TooLarge, match="625\\^2 candidates exceeds bound 1000"):
        monic_right_divisors(ring, 4, QUARTIC.u, 2, bound=1000)


def test_value_errors_of_divisors_padding_and_leads(p3):
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        monic_right_divisors(p3, 2, -1, -1)
    with pytest.raises(ValueError, match="degree too large"):
        SkewPoly(p3, [p3.one, p3.one, p3.one]).padded_coeffs(2)
    with pytest.raises(ValueError, match="no leading coefficient"):
        SkewPoly(p3).lead
