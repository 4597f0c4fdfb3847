"""Degree-3 coverage: the generic code paths beyond the quadratic fixtures.

Uses the cyclic cubic field generated by 2*cos(2*pi/7), minimal polynomial
y^3 + y^2 - 2y - 1, whose Galois group is generated by y -> y^2 - 2.
"""

import random
import warnings

import pytest

from skewlat import (
    AlgebraSpec,
    ConstacyclicCode,
    NaturalOrder,
    OppositePoly,
    QuotientRing,
    SkewPoly,
    central_poly,
    construction_a_basis,
    gram_matrix,
    hnf,
    matrix_rep,
    opposite,
    right_multiplication_det,
)
from skewlat.errors import InvalidSigma

from helpers import (
    CUBIC,
    QUARTIC,
    QUINTIC,
    norm_witnesses,
    random_element,
    random_poly,
    random_unit_lead_poly,
    replace_spec,
)


@pytest.fixture
def ring():
    return QuotientRing(CUBIC)


def test_irreducibility_is_checked_for_cubics_and_trusted_above():
    # The order of sigma proves odd prime degrees irreducible, so the cubic
    # and the quintic build silently; a reducible cubic admits no sigma of
    # order 3, so the sigma check rejects it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        QuotientRing(CUBIC)
        QuotientRing(QUINTIC)
    quartic = AlgebraSpec((1, 1, 1, 1, 1), (0, 0, 1), u=1, p=2, conjugation_mode="identity")
    for spec in (quartic, QUARTIC):
        with pytest.warns(UserWarning, match="verified for prime degrees; degree 4 is trusted"):
            QuotientRing(spec)
    big = 10**18 + 9
    for min_poly in (
        (-2, -3, 0, 1),  # (y + 1)^2 (y - 2)
        (0, 0, 1, 1),  # y^2 (y + 1)
        (3, 0, -4, 1),  # (y - 1)(y^2 - 3y - 3): the root 1 between the critical points
        (-big, 1 - big, 1 - big, 1),  # (y - big)(y^2 + y + 1)
    ):
        with pytest.raises(InvalidSigma):
            QuotientRing(replace_spec(CUBIC, min_poly=min_poly))


def test_sigma_has_order_three(ring):
    t = ring.gen
    assert t.sigma() == t * t - 2
    assert t.sigma(3) == t
    assert t.sigma() != t and t.sigma(2) != t
    rng = random.Random(0)
    for _ in range(200):
        x, y = random_element(ring, rng), random_element(ring, rng)
        assert (x * y).sigma() == x.sigma() * y.sigma()


def test_division_and_reversal_in_degree_three(ring):
    rng = random.Random(1)
    for _ in range(200):
        f = random_poly(ring, rng, max_degree=6)
        g = random_unit_lead_poly(ring, rng, max_degree=4)
        q, r = f.right_divmod(g)
        assert f == q * g + r and r.degree < g.degree
        q2, r2 = f.left_divmod(g)
        assert f == g * q2 + r2 and r2.degree < g.degree
        h = random_poly(ring, rng, max_degree=4)
        assert opposite(f * h) == opposite(h) * opposite(f)
        w = OppositePoly(ring, h.coeffs)
        assert opposite(opposite(f)) == f and opposite(opposite(w)) == w


def test_opposite_ring_division(ring):
    rng = random.Random(2)
    for _ in range(100):
        f = opposite(random_poly(ring, rng, max_degree=5))
        g = opposite(random_unit_lead_poly(ring, rng, max_degree=3))
        q, r = f.right_divmod(g)
        assert f == q * g + r and r.degree < g.degree


def test_centrality_of_modulus(ring):
    central = central_poly(ring, 3, 2)
    rng = random.Random(3)
    for _ in range(50):
        f = random_poly(ring, rng, max_degree=5)
        assert central * f == f * central


def test_order_multiplication_is_associative():
    order = NaturalOrder(CUBIC)
    rng = random.Random(4)
    for _ in range(100):
        a, b, c = (
            order.element([[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)])
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_matrix_rep_reverses_products_in_degree_three():
    order = NaturalOrder(CUBIC)
    rng = random.Random(5)
    for _ in range(100):
        a = order.element([[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)])
        b = order.element([[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)])
        assert matrix_rep(a * b) == matrix_rep(b) * matrix_rep(a)
        assert matrix_rep(a + b) == matrix_rep(a) + matrix_rep(b)


def test_determinant_two_ways_in_degree_three():
    order = NaturalOrder(CUBIC)
    rng = random.Random(6)
    for _ in range(20):
        a = order.element([[rng.randrange(-2, 3) for _ in range(3)] for _ in range(3)])
        assert right_multiplication_det(a) == order.ok_norm(matrix_rep(a).det())


def test_edge_lattices_and_gram(ring):
    full = ConstacyclicCode.from_generator(SkewPoly.one(ring))
    zero = ConstacyclicCode.from_generator(central_poly(ring, 3, 2))
    identity9 = [[1 if i == j else 0 for j in range(9)] for i in range(9)]
    assert construction_a_basis(full).basis == identity9
    assert construction_a_basis(zero).basis == [
        [5 if i == j else 0 for j in range(9)] for i in range(9)
    ]
    gram = gram_matrix(identity9, CUBIC)
    for i in range(9):
        assert gram[i][i] > 0
        for j in range(9):
            assert gram[i][j] == gram[j][i]
    # trace form per block: Tr(1) = 3, Tr(t) = -1, Tr(t^2) = 5
    assert gram[0][0] == 3 and gram[0][1] == -1 and gram[1][1] == 5
    assert hnf(gram) == hnf(hnf(gram))


def test_norm_search_covers_cubics():
    # 2 is inert with residue degree 3, so neither 2 nor 4 is a norm.
    assert norm_witnesses(CUBIC, 3) == []
    # N(3 + y) = -m(-3) = 13 for m = y^3 + y^2 - 2y - 1.
    hits = norm_witnesses(replace_spec(CUBIC, u=13), 3)
    assert (3, 1, 0, 1) in hits
    assert all(i in (1, 2) for *_, i in hits)
