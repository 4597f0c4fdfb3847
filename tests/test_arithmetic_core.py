"""Differential tests of the shared O_K arithmetic.

QuotientRing (modulo p) and NaturalOrder (over Z) both run on one
IntegralArithmetic per spec.  These tests cross the two views against each
other and against plain intpoly arithmetic, on quadratic and cubic specs
whose primes cover the inert, split and ramified cases, and on random valid
specs from helpers.valid_specs.  The core's compiled product, powers of
sigma and norm are checked against the intpoly oracles of helpers, which
share no code with it, up to degree 30, and its traces against Newton's
identities.
"""

import random
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from skewlat import AlgebraSpec, NaturalOrder, QuotientRing, det_int, intpoly, number_ring
from skewlat.errors import InvalidSpec, LengthMismatch
from skewlat.number_ring import IntegralArithmetic, integral_arithmetic

from helpers import (
    CUBIC,
    QUARTIC,
    newton_trace_sums,
    oracle_mul,
    oracle_norm_suffixes,
    oracle_sigma,
    valid_specs,
)

# (min_poly, sigma_image, conjugation_mode)
FIELDS = {
    "gaussian": ((1, 0, 1), (0, -1), "complex"),
    "sqrt2": ((-2, 0, 1), (0, -1), "identity"),
    # The cyclic cubic field of 2cos(2pi/7): 2, 3 and 5 are inert, 7 ramifies
    # as (y + 5)^3 and 13 splits into three linear factors.
    "cubic": ((-1, -2, 1, 1), (-2, 0, 1), "identity"),
}

CASES = [
    ("gaussian", 2, "ramified"),
    ("gaussian", 3, "inert"),
    ("gaussian", 5, "split"),
    ("gaussian", 7, "inert"),
    ("sqrt2", 2, "ramified"),
    ("sqrt2", 3, "inert"),
    ("sqrt2", 5, "inert"),
    ("sqrt2", 7, "split"),
    ("cubic", 2, "inert"),
    ("cubic", 3, "inert"),
    ("cubic", 5, "inert"),
    ("cubic", 7, "ramified"),
    ("cubic", 13, "split"),
]
IDS = [f"{name}-p{p}" for name, p, _ in CASES]


def _build(name, p):
    min_poly, sigma_image, mode = FIELDS[name]
    # u = -1 is a unit modulo every p.
    return _rings(AlgebraSpec(min_poly, sigma_image, u=-1, p=p, conjugation_mode=mode))


def _rings(spec):
    return QuotientRing(spec), NaturalOrder(spec)


def _vectors(n, seed, count=25, box=12):
    rng = random.Random(seed)
    return [tuple(rng.randint(-box, box) for _ in range(n)) for _ in range(count)]


def _mod(vec, p):
    return tuple(v % p for v in vec)


@pytest.mark.parametrize("field,p,kind", CASES, ids=IDS)
def test_ring_and_order_agree(field, p, kind):
    ring, order = _build(field, p)
    m, s, _ = FIELDS[field]
    n = ring.n
    vecs = _vectors(n, seed=p * 31 + n)
    for a, b in zip(vecs, reversed(vecs)):
        product = order.ok_mul(a, b)
        assert product == oracle_mul(a, b, m)
        assert (ring.element(a) * ring.element(b)).coeffs == _mod(product, p)
        for k in range(n + 1):
            image = order.ok_sigma(a, k)
            assert image == oracle_sigma(a, s, m, k % n)
            assert ring.sigma(ring.element(a), k).coeffs == _mod(image, p)


# (min_poly, sigma_image) above degree 3: Q(zeta_16)^+, Q(zeta_11)^+ with
# sigma: y -> y^2 - 2, and Q(zeta_17) with sigma: y -> y^3 (n = 16).
HIGHER = {
    "quartic": (QUARTIC.min_poly, QUARTIC.sigma_image),
    "quintic": ((1, 3, -3, -4, 1, 1), (-2, 0, 1, 0, 0)),
    "phi17": ((1,) * 17, (0, 0, 0, 1)),
}


def assert_core_matches_the_oracles(core, min_poly, sigma_image, vecs):
    """core.mul, and core.sigma(., k) for k in [-n, 2n], equal the intpoly
    oracles, which share no code with the compiled core."""
    n = core.n
    for a, b in zip(vecs, reversed(vecs)):
        assert core.mul(a, b) == oracle_mul(a, b, min_poly)
        images = [a]
        for _ in range(n - 1):
            images.append(oracle_sigma(images[-1], sigma_image, min_poly, 1))
        for k in range(-n, 2 * n + 1):
            assert core.sigma(a, k) == images[k % n], k


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(st.integers(-50, 50), max_size=12),
    m=st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(lambda c: (*c, 1)),
)
def test_mod_monic_is_the_remainder_of_divmod_monic(a, m):
    # mod_monic builds no quotient and leaves m's check to its caller; it
    # returns divmod_monic's remainder padded to deg(m) coefficients, which
    # is what every core's reduce returns for its m.
    rem = intpoly.divmod_monic(a, m)[1]
    assert intpoly.mod_monic(a, m) == rem + (0,) * (len(m) - 1 - len(rem))
    core = integral_arithmetic(CUBIC.min_poly, CUBIC.sigma_image)
    rem = intpoly.divmod_monic(a, CUBIC.min_poly)[1]
    assert core.reduce(a) == rem + (0,) * (3 - len(rem))


@settings(max_examples=30, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**32))
def test_core_products_and_sigma_powers_match_the_oracles(spec, seed):
    core = integral_arithmetic(spec.min_poly, spec.sigma_image)
    vecs = _vectors(core.n, seed, count=10)
    assert_core_matches_the_oracles(core, spec.min_poly, spec.sigma_image, vecs)


@pytest.mark.parametrize("field", HIGHER)
def test_core_products_and_sigma_powers_match_the_oracles_above_degree_three(field):
    min_poly, sigma_image = HIGHER[field]
    core = integral_arithmetic(min_poly, sigma_image)
    vecs = _vectors(core.n, seed=core.n, count=6)
    assert_core_matches_the_oracles(core, min_poly, sigma_image, vecs)


def test_degree_30_core_compiles_at_any_depth():
    # Phi_31 with sigma: y -> y^3 has n = 30, near the largest degree
    # AlgebraSpec admits (n^4 <= 10^6).  Building its core compiles the
    # product, whose longest sum has 2n - 1 terms, and sigma, which the
    # check then applies up to 29 times for each other power; CPython's
    # compiler has less recursion to spare the deeper its caller, so the
    # core is built and checked from 850 frames down.
    min_poly, sigma_image = (1,) * 31, (0, 0, 0, 1)

    def deep(depth, call):
        return deep(depth - 1, call) if depth else call()

    def build_and_check():
        core = IntegralArithmetic(min_poly, sigma_image)
        vecs = _vectors(30, seed=31, count=2)
        assert_core_matches_the_oracles(core, min_poly, sigma_image, vecs)

    deep(850, build_and_check)


def assert_trace_sums_match_newton(min_poly, sigma_image):
    """trace_sums, read off the sigma tables, equals the power sums of
    Newton's identities, and every sum_k sigma^k(y^j) is rational."""
    core = integral_arithmetic(min_poly, sigma_image)
    assert core.trace_sums == newton_trace_sums(min_poly)
    n = core.n
    for j in range(n):
        power = tuple(int(i == j) for i in range(n))
        total = [sum(images) for images in zip(*(core.sigma(power, k) for k in range(n)))]
        assert total == [core.trace_sums[j]] + [0] * (n - 1), j


@settings(max_examples=30, deadline=None)
@given(spec=valid_specs())
def test_trace_sums_match_newton(spec):
    assert_trace_sums_match_newton(spec.min_poly, spec.sigma_image)


@pytest.mark.parametrize("field", [*HIGHER, "phi31"])
def test_trace_sums_match_newton_above_degree_three(field):
    # Phi_31 with sigma: y -> y^3, n = 30, as in the degree-30 test above.
    min_poly, sigma_image = HIGHER.get(field, ((1,) * 31, (0, 0, 0, 1)))
    assert_trace_sums_match_newton(min_poly, sigma_image)


@pytest.mark.parametrize("field", ["gaussian", "cubic", *HIGHER])
def test_core_build_compiles_mul_and_sigma_only(monkeypatch, field):
    # Every other power of sigma, the identity included, applies the one
    # compiled sigma, compiles nothing, and equals the oracle.
    min_poly, sigma_image = FIELDS[field][:2] if field in FIELDS else HIGHER[field]
    compiled = []
    compile_function = number_ring.compile_function

    def counting(source, name):
        compiled.append(name)
        return compile_function(source, name)

    monkeypatch.setattr(number_ring, "compile_function", counting)
    core = IntegralArithmetic(min_poly, sigma_image)
    assert compiled == ["mul", "sigma"]
    n = core.n
    for a in _vectors(n, seed=n, count=2):
        image = a
        for k in range(n):
            assert core.sigma(a, k) == image
            image = oracle_sigma(image, sigma_image, min_poly, 1)
    assert compiled == ["mul", "sigma"]


def test_order_products_reject_a_short_vector():
    # The core's compiled functions unpack exactly n coordinates, and sigma
    # checks the length itself at every other power: 0, and those it reaches
    # by applying sigma^1 again.
    order = _build("gaussian", 3)[1]
    with pytest.raises(LengthMismatch):
        order.ok_mul((1,), (1, 0))
    for power in (0, 1):
        with pytest.raises(LengthMismatch):
            order.ok_sigma((1,), power)
    order = _build("cubic", 5)[1]
    for power in (0, 1, 2, -1, order.n + 2):
        with pytest.raises(LengthMismatch):
            order.ok_sigma((1, 0), power)


def test_order_products_reject_a_long_vector():
    order = _build("gaussian", 3)[1]
    with pytest.raises(LengthMismatch):
        order.ok_mul((1, 2, 3), (1, 2, 3))
    for power in (0, 1):
        with pytest.raises(LengthMismatch):
            order.ok_sigma((1, 0, 0), power)
    order = _build("cubic", 5)[1]
    for power in (0, 1, 2, -1, order.n + 2):
        with pytest.raises(LengthMismatch):
            order.ok_sigma((1, 0, 0, 0), power)


# Each fixed case also runs on a few random valid specs.
@pytest.mark.parametrize("field,p,kind", CASES, ids=IDS)
@settings(max_examples=3, deadline=None)
@given(spec=valid_specs())
def test_inverse_agrees_with_order(field, p, kind, spec):
    for ring, order in (_build(field, p), _rings(spec)):
        n, q = ring.n, ring.p
        one = (1,) + (0,) * (n - 1)
        for a in _vectors(n, seed=q * 17 + n):
            x = ring.element(a)
            assert ring.norm(x) == order.ok_norm(a) % q
            # R is finite, so x is a unit exactly when its norm is prime to p.
            assert x.is_unit() == (order.ok_norm(a) % q != 0)
            if x.is_unit():
                inv = x.inverse().coeffs
                assert _mod(order.ok_mul(a, inv), q) == one


# Each fixed case also runs on a few random valid specs.
@pytest.mark.parametrize("field,p,kind", CASES, ids=IDS)
@settings(max_examples=3, deadline=None)
@given(spec=valid_specs())
def test_norm_is_det_of_multiplication_matrix(field, p, kind, spec):
    for ring, order in (_build(field, p), _rings(spec)):
        n = ring.n
        basis = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        vecs = _vectors(n, seed=ring.p * 7 + n)
        for a, b in zip(vecs, reversed(vecs)):
            cols = [order.ok_mul(a, e) for e in basis]
            assert order.ok_norm(a) == det_int([list(row) for row in zip(*cols)])
            assert order.ok_norm(order.ok_mul(a, b)) == order.ok_norm(a) * order.ok_norm(b)


def assert_norm_matches_the_oracle(spec, seed):
    """The compiled norm_cofactor and norm_suffixes equal the intpoly
    oracle on every element of R, as representatives in [0, p), and on
    random vectors over Z: the norm, and the suffix products
    S_r = sigma^(n-1)(vec)...sigma^(n-r)(vec), the last the cofactor."""
    core = integral_arithmetic(spec.min_poly, spec.sigma_image)
    n = core.n
    rng = random.Random(seed)
    wide = [tuple(rng.randint(-(10**6), 10**6) for _ in range(n)) for _ in range(200)]
    for vec in [*product(range(spec.p), repeat=n), *wide]:
        norm, suffixes = oracle_norm_suffixes(spec.min_poly, spec.sigma_image, vec)
        assert core.norm_cofactor(vec) == (norm, suffixes[-1]), vec
        assert core.norm_suffixes(vec) == (norm, suffixes), vec


@settings(max_examples=30, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**32))
def test_compiled_norm_matches_the_table_oracle(spec, seed):
    assert_norm_matches_the_oracle(spec, seed)


@pytest.mark.parametrize("spec", [CUBIC, QUARTIC], ids=["cubic", "quartic"])
def test_compiled_norm_matches_the_table_oracle_on_the_fixtures(spec):
    assert_norm_matches_the_oracle(spec, seed=spec.n)


def test_reducible_min_poly_norms_above_degree_three():
    # Irreducibility is trusted above degree 3.  y^2 (y - 1)^2 with this s
    # swaps its two local factors with order 4; such a sigma fixes only Q, so
    # every norm is rational and InvalidSpec cannot be reached on a quartic.
    m, s = (0, 0, 1, -2, 1), (1, -1, -2, 2)
    quartic = integral_arithmetic(m, s)
    for vec in product(range(-3, 4), repeat=4):
        norm, suffixes = oracle_norm_suffixes(m, s, vec)
        assert quartic.norm_cofactor(vec) == (norm, suffixes[-1])
    # y (y^2 - 2y - 1)(y^3 + y^2 - 2y - 1) with s acting on Q, Q(sqrt 2) and
    # the cubic field by their Galois groups: sigma has order lcm(2, 3) = 6
    # and fixes Q^3, so the norm of y is not rational.
    spec = AlgebraSpec(
        (0, 1, 4, 2, -5, -1, 1), (0, -115, -190, 215, 70, -49), u=1, p=5,
        conjugation_mode="identity",
    )
    sextic = integral_arithmetic(spec.min_poly, spec.sigma_image)
    y = (0, 1, 0, 0, 0, 0)
    oracle = partial(oracle_norm_suffixes, spec.min_poly, spec.sigma_image)
    for norm in (sextic.norm_cofactor, oracle, NaturalOrder(spec).ok_norm):
        with pytest.raises(InvalidSpec, match="not rational"):
            norm(y)
    assert sextic.norm_cofactor((1, 0, 0, 0, 0, 0)) == (1, (1, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("field,p,kind", CASES, ids=IDS)
def test_decomposition_factors_multiply_to_m(field, p, kind):
    ring, _ = _build(field, p)
    dec = ring.decompose()
    assert dec.ramification() == kind
    product = (1,)
    for f, e in dec.factors:
        assert f[-1] == 1
        for _ in range(e):
            product = tuple(v % p for v in intpoly.mul(product, f))
    assert product == ring.modulus


def test_cubic_factorizations():
    assert _build("cubic", 7)[0].decompose().factors == [((5, 1), 3)]
    split = _build("cubic", 13)[0].decompose().factors
    assert len(split) == 3 and all(len(f) == 2 and e == 1 for f, e in split)


def test_factor_mod_p_linear_times_irreducible_quadratic():
    # y^3 - 2 = (y + 2)(y^2 + 3y + 4) mod 5; no Galois field above has this
    # shape, so the factor search is called directly.
    from skewlat.number_ring import _factor_mod_p

    assert _factor_mod_p((-2, 0, 0, 1), 5) == [((2, 1), 1), ((4, 3, 1), 1)]
