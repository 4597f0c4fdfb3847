import os
import random
import subprocess
import sys
from itertools import permutations, product
from math import prod
from pathlib import Path

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
from skewlat import lattice
from skewlat.errors import IndefiniteForm, InvalidSpec, LengthMismatch
from skewlat.fixtures import FIXTURE_SPECS, GAUSSIAN_P2, GAUSSIAN_P3, fixture_code, fixture_ring
from skewlat.lattice import _lift_basis
from skewlat.number_ring import echelon_mod_p

from helpers import (
    CUBIC,
    QUARTIC,
    all_words_dual_lattice_basis,
    composed_additive_generators,
    divisor_codes,
    lattice_inclusion,
    lifted_lattice_basis,
    oracle_order_mul,
    oracle_conj_power,
    pairwise_gram_matrix,
    pool_hnf,
    quiet_ring,
    random_element,
    random_order_element,
    replace_spec,
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


@settings(max_examples=20, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**16))
def test_reduction_is_the_isomorphism_onto_the_skew_quotient(spec, seed):
    """Lambda/p Lambda = R[x; sigma]/(x^n - u) on signed order elements: reducing
    a product equals folding the skew product of the reductions, and the
    product equals the object-loop oracle and is associative."""
    ring, order = QuotientRing(spec), NaturalOrder(spec)
    n, u = spec.n, spec.u
    rng = random.Random(seed)
    for _ in range(10):
        a, b, c = (random_order_element(order, rng) for _ in range(3))
        product = a * b
        assert product == oracle_order_mul(a, b)
        assert product * c == a * (b * c)
        fa, fb = (SkewPoly(ring, reduce_element(x, ring)) for x in (a, b))
        assert reduce_element(product, ring) == (fa * fb).mod_central(n, u).padded_coeffs(n)


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
    alien = NaturalOrder(replace_spec(ring.spec, p=5)).element(rows)
    with pytest.raises(ValueError, match="^elements belong to different orders$"):
        reduce_element(alien, ring)
    # An equal spec built separately names the same order.
    same = NaturalOrder(replace_spec(ring.spec)).element(rows)
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


@settings(max_examples=200, deadline=None)
@given(
    mat=st.integers(1, 9).flatmap(
        lambda rows: st.lists(
            st.lists(st.integers(-7, 7) | st.just(0), min_size=rows, max_size=rows),
            max_size=10,
        ).map(lambda cols: [list(row) for row in zip(*cols)] if cols else [[] for _ in range(rows)])
    ),
    copies=st.lists(st.tuples(st.integers(0, 9), st.integers(-3, 3)), max_size=3),
)
def test_hnf_equals_the_pool_rescan_oracle(mat, copies):
    # Random integer matrices of 1-9 rows and 0-10 columns, negative entries
    # and zero columns included; each copy appends c times an existing
    # column, so the rank is often deficient.
    cols = [list(c) for c in zip(*mat)]
    for j, c in copies:
        if cols:
            cols.append([c * v for v in cols[j % len(cols)]])
    rows = [list(row) for row in zip(*cols)] if cols else mat
    assert hnf(rows) == pool_hnf(rows)


def test_hnf_of_an_hnf_input_is_one_pass(monkeypatch):
    # The Construction A input is already in HNF: no extended gcd runs.
    code = fixture_code("gaussian-p5-split")
    basis = construction_a_basis(code).basis
    monkeypatch.setattr(lattice, "_xgcd", lambda *args: pytest.fail("combined a bucket"))
    assert hnf(basis) == basis == pool_hnf(basis)


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


def test_det_int_rejects_a_matrix_that_is_not_square():
    with pytest.raises(LengthMismatch):
        det_int([[1, 2, 3], [4, 5, 6]])


def test_lattice_contains_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(LengthMismatch):
        lattice_contains([[2, 0], [0, 2]], [2, 2, 2])


# -- gram matrices ---------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(spec=valid_specs())
def test_gram_determinant_in_closed_form_is_the_eliminated_one(spec):
    # det = det(T block)^n * index^2 against Bareiss on the whole Gram
    # matrix, for Construction A and, where the dual is small, its dual.
    ring = QuotientRing(spec)
    for code in divisor_codes(ring, per_degree=2):
        lats = [construction_a_basis(code)]
        if ring.size ** (code.n - code.k) <= ORACLE_DUAL_VECTORS:
            lats.append(dual_lattice_basis(code))
        for lat in lats:
            assert lat.det == det_int(lat.gram)


def test_cubic_gram_determinant_at_p31():
    # The k = 2 code of x + 11a^2: det(T) = 49^3, the discriminant cubed,
    # and index 31^3.
    ring = QuotientRing(replace_spec(CUBIC, p=31))
    code = ConstacyclicCode.from_generator(SkewPoly(ring, [11 * ring.gen**2, ring.one]))
    lat = construction_a_basis(code)
    assert (lat.index, lat.det) == (31**3, 104_413_920_565_969)
    assert lat.det == 49**3 * 29_791**2 == det_int(lat.gram)


def test_gram_gaussian_order():
    g = gram_matrix(IDENTITY4, FIXTURE_SPECS["gaussian-p3-inert"])
    assert g == [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    assert det_int(g) == 16


def test_gram_sqrt2_order_and_e_weight():
    # The form has no e-block weight: every block of T is the same trace form.
    spec = FIXTURE_SPECS["sqrt2-p3-selfdual"]
    assert gram_matrix(IDENTITY4, spec) == [
        [2, 0, 0, 0],
        [0, 4, 0, 0],
        [0, 0, 2, 0],
        [0, 0, 0, 4],
    ]
    with pytest.raises(TypeError):
        gram_matrix(IDENTITY4, spec, e_weight=5)


def test_gram_mode_spellings_give_one_gram():
    # Z[sqrt 2] is real: either spelling gives one spec, the identity
    # conjugation and one positive definite Gram matrix.
    spellings = [
        AlgebraSpec((-2, 0, 1), (0, -1), u=-5, p=3, conjugation_mode=mode)
        for mode in ("complex", "identity")
    ]
    assert spellings[0] == spellings[1] == FIXTURE_SPECS["sqrt2-p3-selfdual"]
    assert NaturalOrder(spellings[0]).conj_power == 0
    assert gram_matrix(IDENTITY4, spellings[0]) == gram_matrix(IDENTITY4, spellings[1])


@pytest.mark.parametrize(
    "min_poly, sigma_image, power",
    [
        ((1, 0, 1), (0, -1), 1),  # Z[i]
        ((5, 0, 1), (0, -1), 1),  # Z[sqrt -5]
        ((1, -3, 1), (3, -1), 0),  # Z[(1 + sqrt 5)/2], real
        ((-1, -2, 1, 1), (-2, 0, 1), 0),  # cyclic cubic
        ((2, 0, -4, 0, 1), (0, -3, 0, 1), 0),  # Q(zeta_16)^+, real quartic
        ((1, 1, 1, 1, 1), (0, 0, 1), 2),  # Q(zeta_5)
        ((1, 1, 1, 1, 1, 1, 1), (0, 0, 0, 1), 3),  # Q(zeta_7)
    ],
)
def test_conjugation_is_derived_from_the_field(min_poly, sigma_image, power):
    order = NaturalOrder(AlgebraSpec(min_poly, sigma_image, u=1, p=11))
    assert order.conj_power == oracle_conj_power(order) == power


def test_ok_conj_is_complex_conjugation():
    # sigma on Z[i], the identity on the real cubic field.
    assert NaturalOrder(FIXTURE_SPECS["gaussian-p3-inert"]).ok_conj((1, 2)) == (1, -2)
    assert NaturalOrder(CUBIC).ok_conj((1, 2, 3)) == (1, 2, 3)


@pytest.mark.parametrize(
    "spec, traces",
    [
        (CUBIC, 9),
        (QUARTIC, 16),  # Q(zeta_16)^+, real: c = 0 passes
        (AlgebraSpec((1, 1, 1, 1, 1), (0, 0, 1), u=2, p=11), 32),  # Q(zeta_5): c = 0, then c = 2
    ],
)
def test_the_trace_block_is_built_once_per_spec(monkeypatch, spec, traces):
    # The order's trace_block picks the conjugation and gives every Gram
    # matrix and its determinant, so two Construction A builds from cleared
    # caches take n^2 traces for each power of sigma tried, once.
    for cached in vars(lattice).values():
        if getattr(cached, "__module__", None) == lattice.__name__:
            getattr(cached, "cache_clear", lambda: None)()
    calls = []
    trace = NaturalOrder.ok_trace
    monkeypatch.setattr(NaturalOrder, "ok_trace", lambda self, v: calls.append(v) or trace(self, v))
    ring = quiet_ring(spec)
    code = ConstacyclicCode.from_generator(SkewPoly(ring, [ring.one]))
    assert construction_a_basis(code) == construction_a_basis(code)
    assert len(calls) == traces


def test_gram_is_symmetric_positive_on_fixture_lattices(fixture_name):
    lat = construction_a_basis(fixture_code(fixture_name))
    n = len(lat.gram)
    for i in range(n):
        assert lat.gram[i][i] > 0
        for j in range(n):
            assert lat.gram[i][j] == lat.gram[j][i]
    assert lat.det > 0


@settings(max_examples=60, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**32 - 1))
@example(spec=FIXTURE_SPECS["gaussian-p3-inert"], seed=0)
@example(spec=FIXTURE_SPECS["sqrt2-p3-selfdual"], seed=1)
@example(spec=AlgebraSpec((1, -3, 1), (3, -1), u=3, p=7, conjugation_mode="complex"), seed=2)
@example(spec=AlgebraSpec((1, 1, 1, 1, 1), (0, 0, 1), u=2, p=11), seed=3)
@example(spec=AlgebraSpec((1, 1, 1, 1, 1, 1, 1), (0, 0, 0, 1), u=2, p=13), seed=4)
def test_gram_matrix_matches_the_pairwise_oracle(spec, seed):
    # Random sparse columns, zero columns included: the form is positive
    # definite, so both fail, at the same row with the same message, exactly
    # at the first zero column.
    rng = random.Random(seed)
    N = spec.n * spec.n
    size = rng.randrange(1, N + 2)
    basis = [[rng.choice((0, 0, rng.randrange(-9, 10))) for _ in range(size)] for _ in range(N)]
    try:
        expected = pairwise_gram_matrix(basis, spec)
    except IndefiniteForm as exc:
        with pytest.raises(IndefiniteForm) as caught:
            gram_matrix(basis, spec)
        assert str(caught.value) == str(exc) == "diagonal entry 0 <= 0"
        assert not all(map(any, zip(*basis)))
    else:
        assert gram_matrix(basis, spec) == expected
        assert all(map(any, zip(*basis)))
    for wrong in (basis[:-1], basis + [basis[0]]):  # every column N - 1 or N + 1 long
        with pytest.raises(LengthMismatch) as caught:
            gram_matrix(wrong, spec)
        with pytest.raises(LengthMismatch) as oracle:
            pairwise_gram_matrix(wrong, spec)
        assert str(caught.value) == str(oracle.value)


@pytest.mark.parametrize("name", ["gaussian-p3-inert", "sqrt2-p3-selfdual"])
def test_gram_matrix_of_fewer_than_n_columns(name):
    # Every proper prefix of a Construction A basis, 1 to N - 1 columns,
    # has the pairwise oracle's Gram matrix through the compiled image.
    code = fixture_code(name)
    spec, basis = code.ring.spec, construction_a_basis(code).basis
    for k in range(1, len(basis)):
        prefix = [row[:k] for row in basis]
        assert gram_matrix(prefix, spec) == pairwise_gram_matrix(prefix, spec)


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
@example(spec=replace_spec(CUBIC, u=1))
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
            spec, composed_additive_generators(code)
        )
        if ring.size ** (code.n - code.k) <= ORACLE_DUAL_VECTORS:
            assert dual_lattice_basis(code).basis == lifted_lattice_basis(
                spec, brute_force_dual(code)
            )


def _recording_echelon(seen):
    """echelon_mod_p that first records how many rows it was handed."""

    def recording(rows, p):
        rows = [list(row) for row in rows]
        seen.append(len(rows))
        return echelon_mod_p(rows, p)

    return recording


# dual_lattice_basis echelons the dual's m(n-k) basis words, those at the
# indices p^j of brute_force_dual, not all p^(m(n-k)) of them; the oracle
# echelons every word.  Every divisor degree runs, so k = n (dual {0}, no
# rows, the lattice pZ^N) and, where the dual is small, k = 0 (dual R^n,
# N rows, the whole order) are included.
@settings(max_examples=10, deadline=None)
@given(spec=valid_specs())
@example(spec=GAUSSIAN_P2)  # 2 ramifies in Z[i]
@example(spec=GAUSSIAN_P3)  # k = 0: 4 rows of the 81 dual words
@example(spec=CUBIC)  # u = 2, so u^2 != 1 and there is no dual generator
def test_dual_lattice_echelons_only_the_basis_words(spec):
    ring = QuotientRing(spec)
    p, N = spec.p, ring.n * ring.n
    for code in divisor_codes(ring, per_degree=2):
        if ring.size ** (code.n - code.k) > ORACLE_DUAL_VECTORS:
            continue
        expected = all_words_dual_lattice_basis(code)
        seen = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice, "echelon_mod_p", _recording_echelon(seen))
            got = dual_lattice_basis(code)
        assert seen == [ring.n * (code.n - code.k)]
        assert got.to_dict() == expected.to_dict()
        if code.k in (0, code.n):
            scale = 1 if code.k == 0 else p
            assert got.basis == [[scale if i == j else 0 for j in range(N)] for i in range(N)]


RANK_CHECK = """
import sys
from skewlat import brute_force_dual, lattice
from skewlat.fixtures import fixture_code
code = fixture_code("gaussian-p3-inert")
words = brute_force_dual(code)
zero = (code.ring.zero,) * code.n
lattice.brute_force_dual = lambda c: [zero] * len(words)
try:
    lattice.dual_lattice_basis(code)
except RuntimeError:
    sys.exit(0)
sys.exit(1)
"""


def test_dual_lattice_refuses_words_of_too_low_rank(monkeypatch):
    # gaussian-p3-inert has k = 1, so its dual has 9 words and rank 2.  Words
    # whose basis positions span less, the zero word 9 times or one basis
    # word repeated, must raise RuntimeError, not give a wrong lattice; the
    # zero words again in a python -O child, where asserts are stripped.
    code = fixture_code("gaussian-p3-inert")
    words = brute_force_dual(code)
    repeated = list(words)
    repeated[3] = words[1]
    for fake in ([(code.ring.zero,) * code.n] * len(words), repeated):
        monkeypatch.setattr(lattice, "brute_force_dual", lambda c, fake=fake: fake)
        with pytest.raises(RuntimeError):
            dual_lattice_basis(code)
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", RANK_CHECK],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=15, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**32 - 1))
@example(spec=CUBIC, seed=0)
def test_lift_basis_matches_the_lifted_words_oracle_on_awkward_generators(spec, seed):
    # The lattice contains pZ^N, so duplicated vectors, nonzero vectors that
    # vanish mod p, and entries shifted by multiples of p (negative or >= p)
    # span the lattice of the code's words, through their echelon form over
    # F_p; the zero code has index p^N and the full code index 1.
    rng = random.Random(seed)
    ring = QuotientRing(spec)
    p, N = spec.p, ring.n * ring.n
    for code in divisor_codes(ring, per_degree=2):
        words = composed_additive_generators(code)
        flat = [[v for c in word for v in c.coeffs] for word in words]
        awkward = flat + flat
        awkward += [[p * rng.randrange(-3, 4) for _ in range(N)] for _ in range(2)]
        awkward += [[v + p * rng.choice((-2, -1, 1, 2)) for v in row] for row in flat]
        rng.shuffle(awkward)
        expected = lifted_lattice_basis(spec, words)
        lat = _lift_basis(*echelon_mod_p(awkward, p), spec)
        assert lat.basis == expected == construction_a_basis(code).basis
        assert lat.gram == pairwise_gram_matrix(expected, spec)
        assert lat.det == det_int(lat.gram)
        assert lat.index == prod(expected[i][i] for i in range(N))
        if code.k in (0, code.n):  # the zero code and the full code
            assert lat.index == p ** (N - code.k * ring.n)
    assert _lift_basis([], [], spec).basis == lifted_lattice_basis(spec, [])


def test_cubic_inclusion_at_p31_builds_no_lattice():
    ring = QuotientRing(replace_spec(CUBIC, p=31))
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
    # Construction A takes no e-block weight at all, float or int.
    for e_weight in (1.5, 2):
        with pytest.raises(TypeError):
            construction_a_basis(fixture_code("gaussian-p3-inert"), e_weight=e_weight)


def test_the_empty_determinant_is_one():
    assert det_int([]) == 1


def test_order_rows_and_codewords_of_the_wrong_length_are_rejected():
    ring = fixture_ring("gaussian-p3-inert")
    order = NaturalOrder(ring.spec)
    with pytest.raises(LengthMismatch, match="expected 2 rows"):
        order.element([(1, 0)])
    with pytest.raises(LengthMismatch, match="expected length 2"):
        lift_codeword(order, [ring.one])


def test_inclusion_checks_need_one_ring():
    p3, p5 = fixture_code("gaussian-p3-inert"), fixture_code("gaussian-p5-split")
    with pytest.raises(InvalidSpec, match="share the same ring"):
        dual_lattice_inclusion_check(p3, p5)
