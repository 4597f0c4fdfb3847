"""Differential tests of the shared O_K arithmetic.

QuotientRing (modulo p) and NaturalOrder (over Z) both run on one
IntegralArithmetic per spec.  These tests cross the two views against each
other and against plain intpoly arithmetic, on quadratic and cubic specs
whose primes cover the inert, split and ramified cases, and on random valid
specs from helpers.valid_specs.
"""

import random
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from skewlat import AlgebraSpec, NaturalOrder, QuotientRing, det_int, intpoly
from skewlat.errors import InvalidSpec
from skewlat.number_ring import integral_arithmetic

from helpers import CUBIC, QUARTIC, table_norm_cofactor, valid_specs

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


def _padded(coeffs, m):
    return tuple(coeffs) + (0,) * (len(m) - 1 - len(coeffs))


def _oracle_mul(a, b, m):
    return _padded(intpoly.mod_monic(intpoly.mul(a, b), m), m)


def _oracle_sigma(a, s, m, k):
    """sigma^k(a) as a(s(y)) modulo m, composed k times by Horner's rule."""
    out = tuple(a)
    for _ in range(k):
        acc = ()
        for c in reversed(out):
            acc = list(intpoly.mul(acc, s)) or [0]
            acc[0] += c
            acc = intpoly.mod_monic(acc, m)
        out = acc
    return _padded(out, m)


@pytest.mark.parametrize("field,p,kind", CASES, ids=IDS)
def test_ring_and_order_agree(field, p, kind):
    ring, order = _build(field, p)
    m, s, _ = FIELDS[field]
    n = ring.n
    vecs = _vectors(n, seed=p * 31 + n)
    for a, b in zip(vecs, reversed(vecs)):
        product = order.ok_mul(a, b)
        assert product == _oracle_mul(a, b, m)
        assert (ring.element(a) * ring.element(b)).coeffs == _mod(product, p)
        for k in range(n + 1):
            image = order.ok_sigma(a, k)
            assert image == _oracle_sigma(a, s, m, k % n)
            assert ring.sigma(ring.element(a), k).coeffs == _mod(image, p)


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


def assert_norm_matches_table_oracle(spec, seed):
    """The compiled norm_cofactor equals the table oracle on every element
    of R, as representatives in [0, p), and on random vectors over Z, and
    norm_suffixes gives the same norm and the table's suffix products
    S_r = sigma^(n-1)(vec)...sigma^(n-r)(vec)."""
    core = integral_arithmetic(spec.min_poly, spec.sigma_image)
    n = core.n
    rng = random.Random(seed)
    wide = [tuple(rng.randint(-(10**6), 10**6) for _ in range(n)) for _ in range(200)]
    for vec in [*product(range(spec.p), repeat=n), *wide]:
        norm, cofactor = table_norm_cofactor(core, vec)
        assert core.norm_cofactor(vec) == (norm, cofactor), vec
        suffixes = [tuple(core.sigma(vec, n - 1))]
        for k in range(n - 2, 0, -1):
            suffixes.append(tuple(core.mul(suffixes[-1], core.sigma(vec, k))))
        assert core.norm_suffixes(vec) == (norm, tuple(suffixes)), vec


@settings(max_examples=30, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**32))
def test_compiled_norm_matches_the_table_oracle(spec, seed):
    assert_norm_matches_table_oracle(spec, seed)


@pytest.mark.parametrize("spec", [CUBIC, QUARTIC], ids=["cubic", "quartic"])
def test_compiled_norm_matches_the_table_oracle_on_the_fixtures(spec):
    assert_norm_matches_table_oracle(spec, seed=spec.n)


def test_reducible_min_poly_norms_above_degree_three():
    # Irreducibility is trusted above degree 3.  y^2 (y - 1)^2 with this s
    # swaps its two local factors with order 4; such a sigma fixes only Q, so
    # every norm is rational and InvalidSpec cannot be reached on a quartic.
    quartic = integral_arithmetic((0, 0, 1, -2, 1), (1, -1, -2, 2))
    for vec in product(range(-3, 4), repeat=4):
        assert quartic.norm_cofactor(vec) == table_norm_cofactor(quartic, vec)
    # y (y^2 - 2y - 1)(y^3 + y^2 - 2y - 1) with s acting on Q, Q(sqrt 2) and
    # the cubic field by their Galois groups: sigma has order lcm(2, 3) = 6
    # and fixes Q^3, so the norm of y is not rational.
    spec = AlgebraSpec(
        (0, 1, 4, 2, -5, -1, 1), (0, -115, -190, 215, 70, -49), u=1, p=5,
        conjugation_mode="identity",
    )
    sextic = integral_arithmetic(spec.min_poly, spec.sigma_image)
    y = (0, 1, 0, 0, 0, 0)
    oracle = partial(table_norm_cofactor, sextic)
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
