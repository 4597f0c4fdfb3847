import random
from dataclasses import replace
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from skewlat import (
    AlgebraSpec,
    ConstacyclicCode,
    NaturalOrder,
    QuotientRing,
    SkewPoly,
    brute_force_dual,
    central_poly,
    construction_a_basis,
    det_int,
    dual_lattice_basis,
    dual_lattice_inclusion_check,
    gram_matrix,
    hnf,
    lattice_contains,
    lift_codeword,
    reduce_element,
)
from skewlat.errors import IndefiniteForm, InvalidSpec, LengthMismatch
from skewlat.fixtures import FIXTURE_SPECS, fixture_code, fixture_ring
from skewlat.lattice import _lift_basis

from helpers import (
    CUBIC,
    divisor_codes,
    lattice_inclusion,
    lifted_lattice_basis,
    pairwise_gram_matrix,
    random_element,
    random_order_element,
    valid_specs,
)

IDENTITY4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def order_for(name):
    return NaturalOrder(FIXTURE_SPECS[name])


# -- lift / reduce -------------------------------------------------------


def test_lift_examples():
    order = order_for("gaussian-p3-inert")
    ring = fixture_ring("gaussian-p3-inert")
    a = ring.gen
    lifted = lift_codeword(order, (a + 1, ring.one))
    assert lifted.rows == ((1, 1), (1, 0))  # 1 + i + e
    assert lift_codeword(order, (ring.zero, ring.zero)) == order.zero

    order4 = order_for("sqrt2-p3-selfdual")
    ring4 = fixture_ring("sqrt2-p3-selfdual")
    lifted4 = lift_codeword(order4, (ring4.gen, ring4.one))
    assert lifted4.rows == ((0, 1), (1, 0))  # sqrt(2) + e


def test_reduce_examples():
    order = order_for("gaussian-p3-inert")
    ring = fixture_ring("gaussian-p3-inert")
    a = ring.gen
    el = order.element([[1, 1], [1, 0]])
    assert reduce_element(el, ring) == (a + 1, ring.one)
    rng = random.Random(0)
    for _ in range(20):
        w = order.element([[rng.randrange(-9, 10) for _ in range(2)] for _ in range(2)])
        assert reduce_element(3 * w, ring) == (ring.zero, ring.zero)


def test_section_identity_on_all_fixture_codewords(fixture_name):
    code = fixture_code(fixture_name)
    order = order_for(fixture_name)
    for v in code.codewords():
        assert reduce_element(lift_codeword(order, v), code.ring) == v


def test_lift_is_multiplicative_modulo_p(fixture_name):
    """Reducing a product of lifts equals the skew product of the polynomials."""
    code = fixture_code(fixture_name)
    ring = code.ring
    order = order_for(fixture_name)
    rng = random.Random(17)
    for _ in range(60):
        v = tuple(random_element(ring, rng) for _ in range(code.n))
        w = tuple(random_element(ring, rng) for _ in range(code.n))
        prod_lift = lift_codeword(order, v) * lift_codeword(order, w)
        poly_prod = (SkewPoly(ring, v) * SkewPoly(ring, w)).mod_central(code.n, code.u)
        assert reduce_element(prod_lift, ring) == poly_prod.padded_coeffs(code.n)


# -- order arithmetic ------------------------------------------------------


@pytest.mark.parametrize(
    "spec", [FIXTURE_SPECS["gaussian-p3-inert"], CUBIC], ids=["quaternion", "cubic"]
)
def test_integer_operands_are_the_scalar_embedding(spec):
    order = NaturalOrder(spec)
    rng = random.Random(5)
    for _ in range(20):
        a = random_order_element(order, rng)
        k = rng.randrange(-6, 7)
        scalar = order.one * k
        assert a + k == a + scalar
        assert k + a == scalar + a
        assert a - k == a - scalar
        assert k - a == scalar - a
        assert a * k == a * scalar
        assert k * a == scalar * a


def test_one_and_zero_rows():
    quaternion = order_for("gaussian-p3-inert")
    assert quaternion.one.rows == ((1, 0), (0, 0))
    assert quaternion.zero.rows == ((0, 0), (0, 0))
    cubic = NaturalOrder(CUBIC)
    assert cubic.one.rows == ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    assert cubic.zero.rows == ((0, 0, 0),) * 3


def test_element_of_another_order_is_rejected():
    a = order_for("gaussian-p3-inert").basis_element(1)
    alien = order_for("sqrt2-p3-selfdual").basis_element(1)
    for call in (
        lambda: a + alien,
        lambda: alien + a,
        lambda: a - alien,
        lambda: alien - a,
        lambda: a * alien,
        lambda: alien * a,
    ):
        with pytest.raises(ValueError, match="different orders"):
            call()


def test_reduce_element_rejects_a_point_of_another_order():
    # Same m and sigma but p = 5: reducing it modulo 3 would answer silently.
    ring = fixture_ring("gaussian-p3-inert")
    rows = [[4, 1], [1, 0]]
    alien = NaturalOrder(replace(ring.spec, p=5)).element(rows)
    with pytest.raises(ValueError, match="^elements belong to different orders$"):
        reduce_element(alien, ring)
    # An equal spec built separately names the same order.
    same = NaturalOrder(replace(ring.spec)).element(rows)
    assert reduce_element(same, ring) == (ring.element((1, 1)), ring.one)


# -- hnf ------------------------------------------------------------------


def brute_hnf_2x2(cols):
    """Canonical triangular basis of a rank-2 planar lattice by brute search."""
    points = set()
    for s, t in product(range(-8, 9), repeat=2):
        points.add((s * cols[0][0] + t * cols[1][0], s * cols[0][1] + t * cols[1][1]))
    d1 = min(y for (x, y) in points if x == 0 and y > 0)
    d0 = min(x for (x, y) in points if x > 0)
    y0 = min(y for (x, y) in points if x == d0 and 0 <= y < d1)
    return [[d0, 0], [y0, d1]]


def test_hnf_frozen_example():
    # columns (2, 0) and (1, 1); oracle computed independently
    assert brute_hnf_2x2([(2, 0), (1, 1)]) == [[1, 0], [1, 2]]
    assert hnf([[2, 1], [0, 1]]) == [[1, 0], [1, 2]]


def test_hnf_random_2x2_against_oracle():
    rng = random.Random(31)
    for _ in range(40):
        cols = [(rng.randrange(-4, 5), rng.randrange(-4, 5)) for _ in range(2)]
        if cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0] == 0:
            continue
        rows = [[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]]
        assert hnf(rows) == brute_hnf_2x2(cols)


def test_hnf_identity_and_permutation():
    assert hnf(IDENTITY4) == IDENTITY4
    for perm in permutations(range(3)):
        rows = [[1 if perm[j] == i else 0 for j in range(3)] for i in range(3)]
        assert hnf(rows) == [[1 if i == j else 0 for j in range(3)] for i in range(3)]


def test_hnf_idempotent_and_span_invariant():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randrange(2, 5)
        mat = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        h = hnf(mat)
        assert hnf(h) == h
        # random unimodular column operations preserve the span
        cols = [list(c) for c in zip(*mat)]
        for _ in range(12):
            op = rng.randrange(3)
            i, j = rng.sample(range(n), 2)
            if op == 0:
                f = rng.randrange(-3, 4)
                cols[i] = [a + f * b for a, b in zip(cols[i], cols[j])]
            elif op == 1:
                cols[i], cols[j] = cols[j], cols[i]
            else:
                cols[i] = [-a for a in cols[i]]
        mixed = [[cols[j][i] for j in range(n)] for i in range(n)]
        assert hnf(mixed) == h


def test_hnf_rank_deficient_drops_zero_columns():
    h = hnf([[2, 4, 0], [1, 2, 0], [3, 6, 0]])
    assert len(h[0]) == 1
    assert lattice_contains(h, [2, 1, 3])
    assert not lattice_contains(h, [1, 1, 1])


def test_det_int_against_permutation_expansion():
    def leibniz(mat):
        n = len(mat)
        total = 0
        for perm in permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = 1
            for i in range(n):
                term *= mat[i][perm[i]]
            total += sign * term
        return total

    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(1, 5)
        mat = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        assert det_int(mat) == leibniz(mat)
    assert det_int([[2, 1], [4, 2]]) == 0


# -- gram matrices ---------------------------------------------------------


def test_gram_gaussian_order():
    g = gram_matrix(IDENTITY4, FIXTURE_SPECS["gaussian-p3-inert"])
    assert g == [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    assert det_int(g) == 16


def test_gram_sqrt2_order_and_e_weight():
    spec = FIXTURE_SPECS["sqrt2-p3-selfdual"]
    assert gram_matrix(IDENTITY4, spec) == [
        [2, 0, 0, 0],
        [0, 4, 0, 0],
        [0, 0, 2, 0],
        [0, 0, 0, 4],
    ]
    assert gram_matrix(IDENTITY4, spec, e_weight=5) == [
        [2, 0, 0, 0],
        [0, 4, 0, 0],
        [0, 0, 10, 0],
        [0, 0, 0, 20],
    ]


def test_gram_wrong_mode_is_indefinite():
    bad = AlgebraSpec((-2, 0, 1), (0, -1), u=-5, p=3, conjugation_mode="complex")
    with pytest.raises(IndefiniteForm):
        gram_matrix(IDENTITY4, bad)


def test_gram_is_symmetric_positive_on_fixture_lattices(fixture_name):
    lat = construction_a_basis(fixture_code(fixture_name))
    n = len(lat.gram)
    for i in range(n):
        assert lat.gram[i][i] > 0
        for j in range(n):
            assert lat.gram[i][j] == lat.gram[j][i]
    assert lat.det > 0


def _other_mode(spec):
    """The spec with the conjugation mode that does not fit its field, when
    the field is quadratic; cubic specs allow only "identity"."""
    if spec.n != 2:
        return spec
    return replace(
        spec, conjugation_mode="identity" if spec.conjugation_mode == "complex" else "complex"
    )


@settings(max_examples=60, deadline=None)
@given(
    spec=valid_specs(),
    e_weight=st.sampled_from((1, 2, 3)),
    flip_mode=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(spec=FIXTURE_SPECS["gaussian-p3-inert"], e_weight=2, flip_mode=True, seed=0)
@example(spec=FIXTURE_SPECS["sqrt2-p3-selfdual"], e_weight=3, flip_mode=True, seed=1)
def test_gram_matrix_matches_the_pairwise_oracle(spec, e_weight, flip_mode, seed):
    # Random sparse columns, zero columns included; in the mode that does not
    # fit the field the form may be indefinite, and both must then fail at
    # the same row with the same message.
    if flip_mode:
        spec = _other_mode(spec)
    rng = random.Random(seed)
    N = spec.n * spec.n
    size = rng.randrange(1, N + 2)
    basis = [[rng.choice((0, 0, rng.randrange(-9, 10))) for _ in range(size)] for _ in range(N)]
    try:
        expected = pairwise_gram_matrix(basis, spec, e_weight)
    except IndefiniteForm as exc:
        with pytest.raises(IndefiniteForm) as caught:
            gram_matrix(basis, spec, e_weight)
        assert str(caught.value) == str(exc)
    else:
        assert gram_matrix(basis, spec, e_weight) == expected
    for wrong in (basis[:-1], basis + [basis[0]]):  # every column N - 1 or N + 1 long
        with pytest.raises(LengthMismatch) as caught:
            gram_matrix(wrong, spec, e_weight)
        with pytest.raises(LengthMismatch) as oracle:
            pairwise_gram_matrix(wrong, spec, e_weight)
        assert str(caught.value) == str(oracle.value)


# -- construction A --------------------------------------------------------


def test_construction_a_edge_codes():
    ring = fixture_ring("gaussian-p3-inert")
    zero = ConstacyclicCode.from_generator(central_poly(ring, 2, -1))
    full = ConstacyclicCode.from_generator(SkewPoly.one(ring))
    assert construction_a_basis(zero).basis == [
        [3 if i == j else 0 for j in range(4)] for i in range(4)
    ]
    assert construction_a_basis(full).basis == IDENTITY4
    assert construction_a_basis(zero).index == 81
    assert construction_a_basis(full).index == 1


def test_construction_a_worked_example():
    lat = construction_a_basis(fixture_code("gaussian-p3-inert"))
    assert lat.index == 9  # |order / p*order| / |code| = 81 / 9
    assert lat.det == 1296  # 9^2 * 16


def test_lattice_matches_codeword_residues(fixture_name):
    """Independent oracle: a residue box vector lies in the lattice exactly
    when its reduction is a codeword."""
    code = fixture_code(fixture_name)
    p, n = code.ring.p, code.ring.n
    basis = construction_a_basis(code).basis
    words = set(code.codewords())
    for v in product(range(p), repeat=n * n):
        residue = tuple(
            code.ring.element(v[i * n : (i + 1) * n]) for i in range(n)
        )
        assert lattice_contains(basis, list(v)) == (residue in words)


def test_determinant_index_law(fixture_name):
    code = fixture_code(fixture_name)
    spec = code.ring.spec
    lat = construction_a_basis(code)
    p, n, k = spec.p, code.n, code.k
    gram_full = gram_matrix([[1 if i == j else 0 for j in range(n * n)] for i in range(n * n)], spec)
    assert lat.index == p ** (n * (n - k))
    assert lat.det == p ** (2 * n * (n - k)) * det_int(gram_full)


def test_sublattice_chain(fixture_name):
    code = fixture_code(fixture_name)
    N = code.n * code.n
    identity = [[1 if i == j else 0 for j in range(N)] for i in range(N)]
    basis = construction_a_basis(code).basis
    for col in zip(*basis):
        assert lattice_contains(identity, list(col))
    for r in range(N):
        unit = [0] * N
        unit[r] = code.ring.p
        assert lattice_contains(basis, unit)


# -- dual lattices and the inclusion check ---------------------------------


def test_inclusion_self_dual_fixtures():
    for name in ("gaussian-p5-split", "gaussian-p2-ramified", "sqrt2-p3-selfdual"):
        code = fixture_code(name)
        assert dual_lattice_inclusion_check(code, code)
        assert construction_a_basis(code).basis == dual_lattice_basis(code).basis


def test_inclusion_fails_when_code_not_self_orthogonal():
    code = fixture_code("gaussian-p3-inert")
    assert not dual_lattice_inclusion_check(code, code)


def test_zero_code_included_in_everything():
    ring = fixture_ring("gaussian-p3-inert")
    zero = ConstacyclicCode.from_generator(central_poly(ring, 2, -1))
    code = fixture_code("gaussian-p3-inert")
    assert dual_lattice_inclusion_check(zero, code)
    assert dual_lattice_inclusion_check(zero, zero)


def test_inclusion_matches_orthogonality_oracle():
    from skewlat import brute_force_dual

    code = fixture_code("gaussian-p3-inert")
    dual_words = set(brute_force_dual(code))
    # dual code's lattice is included exactly because its words are orthogonal
    dual_code = code.dual_code()
    assert set(dual_code.codewords()) <= dual_words
    assert dual_lattice_inclusion_check(dual_code, code)


# The full-lattice oracle lists the dual of code_b; above this many dual
# vectors the pair is left out.
ORACLE_DUAL_VECTORS = 5000


@settings(max_examples=10, deadline=None)
@given(spec=valid_specs())
@example(spec=AlgebraSpec((1, 0, 1), (0, -1), u=2, p=5))
@example(spec=replace(CUBIC, u=1))
def test_inclusion_matches_the_full_lattice_oracle(spec):
    ring = QuotientRing(spec)
    codes = list(divisor_codes(ring, per_degree=2))
    for code_b in codes:
        if ring.size ** (code_b.n - code_b.k) > ORACLE_DUAL_VECTORS:
            continue
        for code_a in codes:
            assert dual_lattice_inclusion_check(code_a, code_b) == lattice_inclusion(code_a, code_b)


@settings(max_examples=10, deadline=None)
@given(spec=valid_specs())
@example(spec=CUBIC)
def test_lattices_match_the_lifted_words_oracle(spec):
    # Construction A reads the columns of the code's F_p generator matrix,
    # and the dual lattice the flat coefficients of the dual words; lifting
    # the same words to order elements must give the same HNF basis.
    ring = QuotientRing(spec)
    for code in divisor_codes(ring, per_degree=2):
        assert construction_a_basis(code).basis == lifted_lattice_basis(
            spec, code.additive_generators()
        )
        if ring.size ** (code.n - code.k) <= ORACLE_DUAL_VECTORS:
            assert dual_lattice_basis(code).basis == lifted_lattice_basis(
                spec, brute_force_dual(code)
            )


@settings(max_examples=15, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**32 - 1))
@example(spec=CUBIC, seed=0)
def test_lift_basis_matches_the_lifted_words_oracle_on_awkward_generators(spec, seed):
    # The lattice contains pZ^N, so duplicated vectors, nonzero vectors that
    # vanish mod p, and entries shifted by multiples of p (negative or >= p)
    # span the lattice of the code's words; the zero code has index p^N and
    # the full code index 1.
    rng = random.Random(seed)
    ring = QuotientRing(spec)
    p, N = spec.p, ring.n * ring.n
    for code in divisor_codes(ring, per_degree=2):
        words = code.additive_generators()
        flat = [[v for c in word for v in c.coeffs] for word in words]
        awkward = flat + flat
        awkward += [[p * rng.randrange(-3, 4) for _ in range(N)] for _ in range(2)]
        awkward += [[v + p * rng.choice((-2, -1, 1, 2)) for v in row] for row in flat]
        rng.shuffle(awkward)
        expected = lifted_lattice_basis(spec, words)
        lat = _lift_basis(awkward, spec, 1)
        assert lat.basis == expected == construction_a_basis(code).basis
        assert lat.gram == pairwise_gram_matrix(expected, spec)
        assert lat.det == det_int(lat.gram)
        assert lat.index == prod(expected[i][i] for i in range(N))
        if code.k in (0, code.n):  # the zero code and the full code
            assert lat.index == p ** (N - code.k * ring.n)
    assert _lift_basis([], spec, 1).basis == lifted_lattice_basis(spec, [])


def test_cubic_inclusion_at_p31_builds_no_lattice():
    ring = QuotientRing(replace(CUBIC, p=31))
    a = ring.gen
    code = ConstacyclicCode.from_generator(SkewPoly(ring, (11 * a * a, 1)))
    cofactor = ConstacyclicCode.from_generator(code.h)  # 31^6 dual vectors
    zero = ConstacyclicCode.from_generator(central_poly(ring, 3, 2))
    for c in (code, cofactor):
        assert not dual_lattice_inclusion_check(c, c)
        assert dual_lattice_inclusion_check(zero, c) and dual_lattice_inclusion_check(c, zero)


# -- integers only, never truncated ------------------------------------------


def test_det_int_rejects_a_float_entry():
    with pytest.raises(TypeError):
        det_int([[1.5, 0], [0, 1]])


def test_construction_a_rejects_a_float_e_weight():
    with pytest.raises(InvalidSpec, match="e_weight must be a positive integer"):
        construction_a_basis(fixture_code("gaussian-p3-inert"), e_weight=1.5)
