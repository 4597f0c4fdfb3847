import operator
import random
from itertools import combinations, combinations_with_replacement, islice, product
from math import inf, sqrt

import pytest
from hypothesis import given, settings, strategies as st

from skewlat import (
    AlgebraSpec,
    ConstacyclicCode,
    NaturalOrder,
    OrderElement,
    SkewPoly,
    SpaceTimeMatrix,
    construction_a_basis,
    coset_decode_label,
    coset_encode,
    lift_codeword,
    matrix_rep,
    min_det_sample,
    monic_right_divisors,
    reduce_element,
    right_multiplication_det,
    sample_offsets,
)
from skewlat import boxsweep, invariants, lattice, spacetime
from skewlat.errors import InvalidSpec, LengthMismatch, NotInLattice, TooLarge
from skewlat.fixtures import FIXTURE_NAMES, FIXTURE_SPECS, GAUSSIAN_P3_U1, fixture_code
from skewlat.number_ring import QuotientRing, integral_arithmetic

from helpers import (
    CUBIC,
    QUARTIC,
    QUINTIC,
    SEXTIC,
    basis_matrix_flat_form,
    composed_coset_decode,
    composed_coset_encode,
    divisor_codes,
    least_root_stop,
    product_order_sweep,
    quiet_ring,
    random_message,
    random_order_element,
    reduced_norm_form,
    replace_spec,
    valid_specs,
    vector_cofactor_det,
)

QUATERNION = FIXTURE_SPECS["gaussian-p3-inert"]


def sabotage_code():
    return ConstacyclicCode.from_generator(SkewPoly.one(QuotientRing(GAUSSIAN_P3_U1)))


def cubic_code():
    """The cubic code generated by x + 2a^2, a right divisor of x^3 - 2."""
    ring = QuotientRing(CUBIC)
    return ConstacyclicCode.from_generator(SkewPoly(ring, [ring.element([0, 0, 2]), ring.one]))


def quartic_code():
    """The quartic code generated by x + a^3, a right divisor of x^4 - 3."""
    ring = quiet_ring(QUARTIC)
    return ConstacyclicCode.from_generator(
        SkewPoly(ring, [ring.element([0, 0, 0, 1]), ring.one])
    )


def pairwise_min_det(code, coeff_bound, *, seed=0, samples=None):
    """Oracle: min |norm det(M(a) - M(a'))| over pairs of box points, one
    matrix per point.  All pairs when samples is None, otherwise `samples`
    random distinct pairs, z1 drawn before z2, from a generator seeded with
    `seed`."""
    order = NaturalOrder(code.ring.spec)
    cols = list(zip(*construction_a_basis(code).basis))
    N = len(cols)

    def mat(zs):
        flat = [sum(z * col[i] for z, col in zip(zs, cols)) for i in range(N)]
        return matrix_rep(order.from_flat(flat))

    if samples is None:
        box = range(-coeff_bound, coeff_bound + 1)
        mats = [mat(zs) for zs in product(box, repeat=N)]
        return min(abs((m1 - m2).norm_det()) for m1, m2 in combinations(mats, 2))
    rng = random.Random(seed)
    values = []
    while len(values) < samples:
        z1 = tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(N))
        z2 = tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(N))
        if z1 != z2:
            values.append(abs((mat(z1) - mat(z2)).norm_det()))
    return min(values)


def test_quaternion_matrix_form():
    order = NaturalOrder(QUATERNION)
    rng = random.Random(1)
    for _ in range(100):
        a = [rng.randrange(-5, 6), rng.randrange(-5, 6)]
        b = [rng.randrange(-5, 6), rng.randrange(-5, 6)]
        m = matrix_rep(order.element([a, b]))
        conj = lambda v: (v[0], -v[1])
        assert m.entries == (
            (tuple(a), tuple(-c for c in conj(b))),
            (tuple(b), conj(a)),
        )


def test_identity_matrix():
    order = NaturalOrder(QUATERNION)
    m = matrix_rep(order.one)
    assert m.entries == (((1, 0), (0, 0)), ((0, 0), (1, 0)))


def test_matrix_of_another_order_is_rejected():
    m = matrix_rep(NaturalOrder(QUATERNION).basis_element(1))
    alien = matrix_rep(NaturalOrder(FIXTURE_SPECS["sqrt2-p3-selfdual"]).basis_element(1))
    for call in (
        lambda: m + alien,
        lambda: alien + m,
        lambda: m - alien,
        lambda: alien - m,
        lambda: m * alien,
        lambda: alien * m,
    ):
        with pytest.raises(ValueError, match="different orders"):
            call()


def test_matrix_rep_additive_and_reverses_products():
    order = NaturalOrder(QUATERNION)
    rng = random.Random(2)
    for _ in range(300):
        q1 = random_order_element(order, rng)
        q2 = random_order_element(order, rng)
        assert matrix_rep(q1 + q2) == matrix_rep(q1) + matrix_rep(q2)
        # the pinned matrix layout reverses products
        assert matrix_rep(q1 * q2) == matrix_rep(q2) * matrix_rep(q1)


def test_matrix_rep_injectivity_witness():
    order = NaturalOrder(QUATERNION)
    zero = matrix_rep(order.zero)
    rng = random.Random(3)
    for _ in range(200):
        q = random_order_element(order, rng)
        assert (matrix_rep(q) == zero) == (q == order.zero)


def test_worked_product_matrix():
    """(a + be)(1+i+e) has the displayed codeword matrix, for concrete a, b."""
    order = NaturalOrder(QUATERNION)
    gen = order.element([[1, 1], [1, 0]])  # 1 + i + e
    rng = random.Random(4)
    for _ in range(100):
        a0, a1, b0, b1 = (rng.randrange(-5, 6) for _ in range(4))
        q = order.element([[a0, a1], [b0, b1]])
        t = q * gen
        # a(1+i) - b  and  a + b(1 - i), with conjugates in the second column
        assert t.rows[0] == (a0 - a1 - b0, a0 + a1 - b1)
        assert t.rows[1] == (a0 + b0 + b1, a1 - b0 + b1)
        m = matrix_rep(t)
        top_right = (-(a0 + b0 + b1), a1 - b0 + b1)  # -(conj(a) + conj(b)(1+i))
        assert m.entries[0][1] == top_right
        assert m.entries[1][1] == (a0 - a1 - b0, -(a0 + a1 - b1))
        assert matrix_rep(t) == matrix_rep(gen) * matrix_rep(q)


def test_determinant_two_ways():
    order = NaturalOrder(QUATERNION)
    rng = random.Random(5)
    for _ in range(60):
        q = random_order_element(order, rng, span=3)
        assert right_multiplication_det(q) == order.ok_norm(matrix_rep(q).det())


def test_min_det_positive_for_division_configuration():
    value = min_det_sample(fixture_code("gaussian-p3-inert"), 1)
    assert value > 0


def test_min_det_zero_for_zero_divisor_configuration():
    ring = QuotientRing(GAUSSIAN_P3_U1)
    code = ConstacyclicCode.from_generator(SkewPoly.one(ring))
    assert min_det_sample(code, 1) == 0
    # witness: 1 + e is a zero divisor when e^2 = 1
    order = NaturalOrder(GAUSSIAN_P3_U1)
    m = matrix_rep(order.element([[1, 0], [1, 0]]))
    assert m.entries == (((1, 0), (1, 0)), ((1, 0), (1, 0)))
    assert order.ok_norm(m.det()) == 0


def test_min_det_sampled_mode_is_deterministic():
    code = fixture_code("gaussian-p3-inert")
    kw = dict(seed=99, samples=40, enumeration_bound=10)
    assert min_det_sample(code, 2, **kw) == min_det_sample(code, 2, **kw)
    with pytest.raises(TooLarge):
        min_det_sample(code, 2, enumeration_bound=10, exhaustive=True)


@pytest.mark.parametrize("exhaustive", [None, False])
@pytest.mark.parametrize("coeff_bound, samples", [(0, 10), (-1, 10), (1, 0), (1, -3)])
def test_min_det_rejects_empty_box_and_no_samples(exhaustive, coeff_bound, samples):
    code = fixture_code("gaussian-p3-inert")
    with pytest.raises(ValueError):  # enumeration_bound=10 makes None sample
        min_det_sample(
            code, coeff_bound, samples=samples, enumeration_bound=10, exhaustive=exhaustive
        )


def test_min_det_exhaustive_sweep_ignores_samples():
    code = fixture_code("gaussian-p3-inert")
    assert min_det_sample(code, 1, samples=0) == 9
    with pytest.raises(ValueError):
        min_det_sample(code, 0, exhaustive=True)


@pytest.mark.parametrize(
    "build",
    [lambda name=name: fixture_code(name) for name in FIXTURE_NAMES] + [sabotage_code],
    ids=list(FIXTURE_NAMES) + ["gaussian-p3-u1"],
)
def test_min_det_difference_sweep_matches_pair_sweep(build):
    code = build()
    assert min_det_sample(code, 1, exhaustive=True) == pairwise_min_det(code, 1)


def test_min_det_exhaustive_sweep_visits_each_difference_once_up_to_sign(monkeypatch):
    code = fixture_code("gaussian-p3-inert")
    calls = []
    build = boxsweep.half_box_sweep

    def recording_build(columns, terms, box):
        calls.append((columns, box))
        return build(columns, terms, box)

    monkeypatch.setattr(boxsweep, "half_box_sweep", recording_build)
    assert min_det_sample(code, 1, exhaustive=True) == 9
    assert calls == [(tuple(zip(*construction_a_basis(code).basis)), 1)]
    # F(d) = sum_i d_i B^(N-1-i), B = 4 box + 1, is injective on the doubled
    # box, and every value the compiled loops evaluate passes through abs
    # once, so an abs that records its argument reads off the differences
    # they visit.  The loops leave to the build the differences whose first
    # nonzero coordinate is one of the last two; with those, every nonzero d
    # of the doubled box whose first nonzero coordinate is positive comes
    # exactly once, in lexicographic order, and never -d or 0.
    for N, box in [(N, 1) for N in range(1, 8)] + [(N, 2) for N in range(1, 4)] + [(2, 3)]:
        W, B = 2 * box, 4 * box + 1
        identity = tuple(tuple(int(i == j) for i in range(N)) for j in range(N))
        terms = tuple(((i,), B ** (N - 1 - i)) for i in range(N))
        seen = []
        namespace = {"abs": lambda x: seen.append(x) or abs(x)}
        source = boxsweep._sweep_source(boxsweep._compose(identity, terms), N, W)
        exec(compile(source, "<sweep>", "exec"), namespace)
        assert namespace["sweep"](0) == (1, (0,) * (N - 1) + (1,))
        visited = []
        for value in seen:
            d = []
            for _ in range(N):
                value, r = divmod(value + W, B)
                d.insert(0, r - W)
            visited.append(tuple(d))
        span = range(-W, W + 1)
        half = [d for d in product(span, repeat=N) if any(d) and next(filter(None, d)) > 0]
        assert [d for d in half if not any(d[:-2])] + visited == half


def test_the_certified_stop_ends_the_gaussian_p3_sweep_early():
    # Z[i] with u = -1 is definite, so no nonzero point of the index-9
    # lattice has |nrd| below 3 = 9^(1/2): the loops, whose 300 values pass
    # through abs once each, end with the first block that holds a 3, and
    # return what the sweep to the end returns.
    code = fixture_code("gaussian-p3-inert")
    spec, lat = code.ring.spec, construction_a_basis(code)
    stop = spacetime._certified_stop(code)
    assert (lat.index, stop) == (9, 3)
    form = boxsweep._compose(tuple(zip(*lat.basis)), spacetime._flat_form(*spec.algebra))
    source = boxsweep._sweep_source(form, 4, 2)
    results, evaluated = [], []
    for s in (0, stop):
        seen = []
        namespace = {"abs": lambda x: seen.append(x) or abs(x)}
        exec(compile(source, "<sweep>", "exec"), namespace)
        results.append(namespace["sweep"](s))
        evaluated.append(len(seen))
    assert results[0] == results[1] and results[0][0] == 3
    assert evaluated[0] == 300 and evaluated[1] < 300


def test_the_certified_stop_is_the_index_root_of_proven_algebras_only():
    cubic = cubic_code()
    cofactor = ConstacyclicCode.from_generator(cubic.h)
    cases = [
        (fixture_code("gaussian-p3-inert"), 3),  # index 9
        (fixture_code("gaussian-p2-ramified"), 2),  # index 4
        (sabotage_code(), 0),  # index 1, u = 1: not proven
        (cubic, 5),  # index 5^3
        (cofactor, 25),  # index 5^6
    ]
    for code, stop in cases:
        assert spacetime._certified_stop(code) == stop


def test_the_least_root_stop_oracle_takes_any_index():
    # 10 is the least s with s^2 >= 91, and 5 the least with s^3 >= 65;
    # an exact power gives its root, and an algebra not proven gives 0.
    assert least_root_stop(QUATERNION, 91) == 10
    assert least_root_stop(CUBIC, 65) == 5
    assert least_root_stop(CUBIC, 5**6) == 25
    assert least_root_stop(GAUSSIAN_P3_U1, 9) == 0


# A code of dimension k has |R|^k = p^(nk) words, so the lattice's index is
# p^(n(n-k)) and the stop its n-th root, p^(n-k), with no root search.
@settings(max_examples=15, deadline=None)
@given(spec=valid_specs())
def test_the_certified_stop_is_the_index_root_on_divisor_codes(spec):
    proven = invariants.division_proven(*spec.algebra)
    for code in divisor_codes(QuotientRing(spec), per_degree=2):
        index = construction_a_basis(code).index
        stop = spacetime._certified_stop(code)
        assert stop == least_root_stop(spec, index)
        assert stop**spec.n == index if proven else stop == 0


@settings(max_examples=8, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**16))
def test_the_certified_stop_changes_no_answer_on_divisor_codes(spec, seed):
    # A proven algebra's whole box-1 sweep, run to the end (stop = 0), finds
    # no zero and nothing below the stop.  With the certified stop both
    # compiled sweeps return the (value, difference) they return with
    # stop = 0, the nested one that of the product-order oracle, and
    # min_det_sample the value's n-th power.  Cubic codes meet the oracle on
    # four of their basis columns: points of the same lattice, so the stop
    # still holds.
    rng = random.Random(seed)
    ring = QuotientRing(spec)
    terms = spacetime._flat_form(*spec.algebra)
    proven = invariants.division_proven(*spec.algebra)
    for code in divisor_codes(ring, per_degree=1):
        lat = construction_a_basis(code)
        cols = tuple(zip(*lat.basis))
        stop = spacetime._certified_stop(code)
        assert bool(stop) == proven
        whole = boxsweep.half_box_sweep(cols, terms, 1)
        value, d = whole(0)
        assert not proven or value >= stop
        assert whole(stop) == (value, d)
        assert min_det_sample(code, 1, exhaustive=True) == value**spec.n
        sub = tuple(rng.sample(cols, 4)) if spec.n == 3 else cols
        for box in (1, 2):
            swept = boxsweep.half_box_sweep(sub, terms, box)
            assert swept(stop) == swept(0) == product_order_sweep(sub, terms, box)
        sampled = spacetime._sweep(cols, terms)
        for s in range(3):
            fed = [spacetime._sampled_pairs(random.Random(s), 2, len(cols)) for _ in range(2)]
            got = sampled(fed[0], inf, 200, stop)
            assert got == sampled(fed[1], inf, 200, 0)
            assert min_det_sample(code, 2, seed=s, samples=200, exhaustive=False) == got[0] ** spec.n


def assert_sweep_matches_the_oracle(columns, terms, box):
    got = boxsweep.half_box_sweep(columns, terms, box)(0)
    assert got == product_order_sweep(columns, terms, box)
    return got


@settings(max_examples=10, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**16))
def test_nested_sweeps_match_the_product_order_oracle_on_divisor_codes(spec, seed):
    # Quadratic codes are swept whole at boxes 1 and 2.  A cubic box holds
    # (4b + 1)^9 / 2 differences, so a cubic code is swept on four of its
    # basis columns at a time: the same cubic form, through a sublattice.
    rng = random.Random(seed)
    ring = QuotientRing(spec)
    terms = spacetime._flat_form(*spec.algebra)
    for code in divisor_codes(ring):
        cols = tuple(zip(*construction_a_basis(code).basis))
        if spec.n == 3:
            cols = tuple(rng.sample(cols, 4))
        for box in (1, 2):
            value, d = assert_sweep_matches_the_oracle(cols, terms, box)
            if spec.n == 2:
                assert min_det_sample(code, box, exhaustive=True) == value**2


def test_nested_sweep_matches_the_product_order_oracle_on_the_whole_cubic():
    code = cubic_code()
    cols = tuple(zip(*construction_a_basis(code).basis))
    terms = spacetime._flat_form(*CUBIC.algebra)
    value, d = assert_sweep_matches_the_oracle(cols, terms, 1)
    assert (value, d) == (5, (0, 0, 1, -2, -1, 1, 2, 0, 1))
    assert min_det_sample(code, 1, exhaustive=True) == 5**3


def test_min_det_sweeps_the_cubic_box_under_the_default_bound():
    # No argument but the box: the default bound sweeps the cubic's 976,562
    # differences.  Both values are p^(n(n - k)), the lower bound on the
    # lattice's |norm det| over a division algebra with p unramified and
    # prime to u, so there the box minimum is the lattice minimum.
    code = cubic_code()
    cofactor = ConstacyclicCode.from_generator(code.h)
    assert (code.k, cofactor.k) == (2, 1)
    assert min_det_sample(code, 1) == 5**3
    assert min_det_sample(cofactor, 1) == 5**6


@st.composite
def random_forms(draw):
    """(columns, terms, box): an integer form whose monomials have one or
    several degrees in 0-3, so it need not be homogeneous, in M <= 4 flat
    variables, often with ties and zeros, read through N <= 4 columns, the
    identity half of the time.  A third of the forms are
    sum_{i<j} (a_j x_i - a_i x_j)^2, zero exactly on the line through a
    random point a."""
    M, N = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.integers(0, 2)):
        degrees = sorted(draw(st.sets(st.integers(0, 3), min_size=1)))
        monomials = [m for d in degrees for m in combinations_with_replacement(range(M), d)]
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monomials), max_size=len(monomials)))
        terms = tuple((mono, c) for mono, c in zip(monomials, coeffs) if c)
    else:
        a = draw(st.lists(st.integers(-6, 6), min_size=M, max_size=M))
        line = {}
        for (i, ai), (j, aj) in combinations(enumerate(a), 2):
            for mono, c in [((i, i), aj * aj), ((i, j), -2 * ai * aj), ((j, j), ai * ai)]:
                line[mono] = line.get(mono, 0) + c
        terms = tuple((mono, c) for mono, c in line.items() if c)
    if draw(st.booleans()):
        M = N
        columns = tuple(tuple(int(i == j) for i in range(N)) for j in range(N))
    else:
        entries = st.lists(st.integers(-2, 2), min_size=M, max_size=M).map(tuple)
        columns = tuple(draw(st.lists(entries, min_size=N, max_size=N)))
    terms = tuple((mono, c) for mono, c in terms if max(mono, default=0) < M)
    return columns, terms, draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(form=random_forms())
def test_nested_sweeps_match_the_product_order_oracle_on_random_forms(form):
    # Small coefficients tie often, so a skipped, repeated or reordered
    # difference changes the first minimiser the sweep returns.
    assert_sweep_matches_the_oracle(*form)


def test_nested_sweeps_stop_at_the_loop_nesting_limit():
    # CPython nests at most 20 loops in one function, one per coordinate but
    # the last two: 22 coordinates compile (the sweep is not run; the form,
    # d_20^2 + d_21^2, is nonzero at every difference decided while building,
    # so all 20 loops are written), 23 raise TooLarge before any source is built.
    def identity(N):
        return tuple(tuple(int(i == j) for i in range(N)) for j in range(N))

    def last_squares(N):
        return (((N - 2, N - 2), 1), ((N - 1, N - 1), 1))

    form = boxsweep._compose(identity(22), last_squares(22))
    assert "for t19 in" in boxsweep._sweep_source(form, 22, 2)
    assert callable(boxsweep.half_box_sweep.__wrapped__(identity(22), last_squares(22), 1))
    with pytest.raises(TooLarge, match="at most 22 coordinates, not 23"):
        boxsweep.half_box_sweep(identity(23), last_squares(23), 1)


def test_exhaustive_sweep_bounds_the_differences_it_evaluates():
    code = fixture_code("gaussian-p3-inert")
    # At box 1 the 3^4 = 81 points fit in 100, but the (5^4 - 1) / 2 = 312
    # differences the sweep evaluates do not.
    assert not spacetime.exhaustive_sweep(code, 1, enumeration_bound=100)
    assert spacetime.exhaustive_sweep(code, 1, enumeration_bound=312)
    # The cubic's (5^9 - 1) / 2 = 976,562 differences fit in the default
    # bound; the quartic's (5^16 - 1) / 2, about 7.6e10, do not.
    cubic = cubic_code()
    assert spacetime.exhaustive_sweep(cubic, 1)
    assert not spacetime.exhaustive_sweep(cubic, 1, enumeration_bound=976_561)
    assert spacetime.exhaustive_sweep(cubic, 1, enumeration_bound=976_562)
    assert not spacetime.exhaustive_sweep(cubic, 2)
    assert not spacetime.exhaustive_sweep(quartic_code(), 1)
    with pytest.raises(TooLarge):
        min_det_sample(code, 1, enumeration_bound=100, exhaustive=True)


@pytest.mark.parametrize(
    "build, coeff_bound",
    [(lambda: fixture_code("gaussian-p3-inert"), 2), (cubic_code, 1), (quartic_code, 1)],
    ids=["gaussian-p3-box2", "cubic-box1", "quartic-box1"],
)
def test_min_det_sampled_differences_match_sampled_pairs(build, coeff_bound):
    code = build()
    for seed in range(10):
        got = min_det_sample(code, coeff_bound, seed=seed, samples=30, exhaustive=False)
        assert got == pairwise_min_det(code, coeff_bound, seed=seed, samples=30)


# Width 2 * 4 + 1 = 9 rejects 7 of every 16 four-bit draws; each difference
# takes at least 2N draws, so _DRAW_BATCH differences span at least 2N batches.
# Widths 255 and 257 lie either side of the one-byte read of each 32-bit word.
@pytest.mark.parametrize(
    "coeff_bound, count",
    [(1, 500), (2, 500), (3, 500), (4, 500), (2, spacetime._DRAW_BATCH), (127, 500), (128, 500)],
    ids=["1", "2", "3", "4", "2-batches", "127", "128"],
)
@pytest.mark.parametrize("N", [4, 9])
@pytest.mark.parametrize("seed", [0, 7])
def test_sampled_differences_are_those_of_randint_pairs(seed, coeff_bound, N, count):
    rng = random.Random(seed)
    expected = []
    while len(expected) < count:
        z1 = [rng.randint(-coeff_bound, coeff_bound) for _ in range(N)]
        z2 = [rng.randint(-coeff_bound, coeff_bound) for _ in range(N)]
        if z1 != z2:
            expected.append(tuple(a - b for a, b in zip(z1, z2)))
    pairs = spacetime._sampled_pairs(random.Random(seed), coeff_bound, N)
    got = (tuple(map(operator.sub, z1, z2)) for z1, z2 in pairs if z1 != z2)
    assert list(islice(got, count)) == expected


def test_min_det_sampled_outputs_are_pinned():
    # Recorded before the draws were batched: the cubic code of
    # bench/configs/cubic_p5.cfg at box 1, 50 samples, seeds 0-3.
    code = cubic_code()
    got = [min_det_sample(code, 1, seed=seed, samples=50, exhaustive=False) for seed in range(4)]
    assert got == [274625, 91125, 274625, 1000]


def _small_codes(spec):
    """The codes of g = 1 (the whole order) and of the first monic right
    divisor of degree 1, when there is one."""
    ring = QuotientRing(spec)
    for degree in (0, 1):
        for g in monic_right_divisors(ring, ring.n, spec.u, degree)[:1]:
            yield ConstacyclicCode.from_generator(g)


def assert_form_is_the_determinant(code, rng, trials):
    order = NaturalOrder(code.ring.spec)
    cols = list(zip(*construction_a_basis(code).basis))
    N = len(cols)
    nrd = reduced_norm_form(order, cols)
    for _ in range(trials):
        d = [rng.randint(-3, 3) for _ in range(N)]
        point = order.from_flat([sum(z * col[i] for z, col in zip(d, cols)) for i in range(N)])
        m = matrix_rep(point)
        det = m.det()
        assert not any(det[1:])
        assert nrd(d) == det[0]
        assert m.norm_det() == right_multiplication_det(point) == det[0] ** order.n


@settings(max_examples=12, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**16))
def test_reduced_norm_form_is_the_determinant(spec, seed):
    rng = random.Random(seed)
    for code in _small_codes(spec):
        assert_form_is_the_determinant(code, rng, 8)


def test_reduced_norm_form_is_the_determinant_on_a_quartic():
    assert_form_is_the_determinant(quartic_code(), random.Random(4), 20)


@settings(max_examples=8, deadline=None)
@given(spec=valid_specs().filter(lambda s: s.n == 2))
def test_min_det_exhaustive_matches_pairs_on_random_quadratics(spec):
    for code in _small_codes(spec):
        assert min_det_sample(code, 1, exhaustive=True) == pairwise_min_det(code, 1)


@settings(max_examples=4, deadline=None)
@given(spec=valid_specs().filter(lambda s: s.n == 3))
def test_min_det_sampled_matches_sampled_pairs_on_random_cubics(spec):
    for code in _small_codes(spec):
        for seed in range(3):
            got = min_det_sample(code, 1, seed=seed, samples=30, exhaustive=False)
            assert got == pairwise_min_det(code, 1, seed=seed, samples=30)


def test_determinant_with_an_irrational_coordinate_raises(monkeypatch):
    # diag(i, 1) is no codeword matrix: its determinant i is not rational.
    order = NaturalOrder(QUATERNION)
    m = SpaceTimeMatrix(order, [[(0, 1), (0, 0)], [(0, 0), (1, 0)]])
    assert m.det() == (0, 1)
    with pytest.raises(InvalidSpec, match="non-constant"):
        m.norm_det()
    # A form read off sigma tables whose sigma^1 is patched to the identity is
    # det [[a, u b], [b, a]] = a^2 - u b^2 for a = x0 + x1 i, b = x2 + x3 i,
    # whose i coordinate is 2 x0 x1 - 2 u x2 x3: it fails its one rationality
    # check, each time, since the cache starts empty and a failed expansion
    # is not cached.
    spacetime._flat_form.cache_clear()
    core = integral_arithmetic(QUATERNION.min_poly, QUATERNION.sigma_image)
    monkeypatch.setattr(core, "_sigma_tables", (core._sigma_tables[0],) * 2)
    for _ in range(2):
        with pytest.raises(InvalidSpec, match="non-constant"):
            reduced_norm_form(order, [(0, 1, 0, 0), (1, 0, 0, 0)])
    assert spacetime._flat_form.cache_info().currsize == 0


def bareiss_products(n):
    """The ok_mul calls of an n x n Bareiss elimination with no zero entry:
    two per entry below and right of pivot k, and a third, the exact
    division, from k = 1 on."""
    return sum((n - 1 - k) ** 2 * (2 + (k > 0)) for k in range(n - 1))


@settings(max_examples=40, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**32 - 1))
def test_det_matches_the_vector_cofactor_oracle(spec, seed):
    # Random entries, some zero and some rows zero (rarely a codeword
    # matrix), codeword matrices of elements with zero rows, and either
    # kind with its rows rotated, so zero pivots and row swaps come up.
    # det makes one ok_mul per product of elimination, none with a zero
    # factor, so at most bareiss_products(n): 2 for n = 2 and 11 for n = 3.
    rng = random.Random(seed)
    order = NaturalOrder(spec)
    n, calls = order.n, []
    order.ok_mul = lambda a, b, mul=order.ok_mul: calls.append(None) or mul(a, b)

    def vec(zero):
        return (0,) * n if zero else tuple(rng.randint(-3, 3) for _ in range(n))

    for _ in range(12):
        zero_row = rng.randrange(n + 2)  # no zero row when past n - 1
        if rng.random() < 0.5:
            rows = [[vec(r == zero_row or rng.random() < 0.3) for _ in range(n)] for r in range(n)]
        else:
            rows = matrix_rep(order.element([vec(r == zero_row) for r in range(n)])).entries
        shift = rng.randrange(n)
        m = SpaceTimeMatrix(order, rows[shift:] + rows[:shift])
        calls.clear()
        got, products = m.det(), len(calls)
        assert got == vector_cofactor_det(order, m.entries)[0]
        assert products <= bareiss_products(n)


def test_det_of_a_dense_matrix_makes_every_product():
    # Every entry and every intermediate minor is nonzero: the cubic
    # elimination makes all 11 products.
    order = NaturalOrder(CUBIC)
    calls = []
    order.ok_mul = lambda a, b, mul=order.ok_mul: calls.append(None) or mul(a, b)
    m = SpaceTimeMatrix(
        order,
        [
            [(1, 0, 0), (2, 0, 0), (3, 0, 0)],
            [(1, 1, 0), (1, 0, 0), (2, 0, 0)],
            [(0, 1, 0), (2, 0, 0), (4, 0, 0)],
        ],
    )
    assert m.det() == (-2, -1, 0) and len(calls) == bareiss_products(3) == 11
    assert vector_cofactor_det(order, m.entries)[0] == (-2, -1, 0)


def test_det_skips_the_zero_minors_the_vector_expansion_multiplies():
    order = NaturalOrder(QUATERNION)
    calls = []
    order.ok_mul = lambda a, b, mul=order.ok_mul: calls.append(None) or mul(a, b)
    m = SpaceTimeMatrix(order, [[(1, 2), (3, 0)], [(0, 0), (0, 0)]])
    assert m.det() == (0, 0) and calls == []
    assert vector_cofactor_det(order, m.entries) == ((0, 0), 2, True)


def test_det_makes_no_products_for_a_singular_minor():
    # Column 1 is y times column 0, so every 2 x 2 minor of those columns
    # is singular: after the 2 * 4 products of the first step, column 1
    # holds no nonzero pivot, and det is 0 with no product, norm or
    # division for the second step, where the oracle multiplies on.
    order = NaturalOrder(CUBIC)
    calls = []
    order.ok_mul = lambda a, b, mul=order.ok_mul: calls.append(None) or mul(a, b)
    m = SpaceTimeMatrix(
        order,
        [
            [(1, 0, 0), (0, 1, 0), (3, 0, 0)],
            [(2, 0, 0), (0, 2, 0), (5, 0, 0)],
            [(0, 1, 0), (0, 0, 1), (7, 0, 0)],
        ],
    )
    assert m.det() == (0, 0, 0) and len(calls) == 8
    assert vector_cofactor_det(order, m.entries) == ((0, 0, 0), 9, True)


@pytest.mark.parametrize("spec", [GAUSSIAN_P3_U1, replace_spec(CUBIC, u=1)], ids=["gaussian", "cubic"])
def test_det_of_the_u1_sabotage_is_zero_without_a_division_by_zero(spec):
    # With u = 1, (1 - e)(1 + e + ... + e^(n-1)) = 1 - e^n = 0: a = 1 - e is
    # a zero divisor and M(a) is singular.
    order = NaturalOrder(spec)
    n = order.n
    a = order.element([(1,) + (0,) * (n - 1), (-1,) + (0,) * (n - 1)] + [()] * (n - 2))
    assert matrix_rep(a).det() == (0,) * n
    assert matrix_rep(a).norm_det() == 0 == right_multiplication_det(a)


def test_a_pivot_of_norm_zero_raises_invalid_spec(monkeypatch):
    # Only a reducible m, trusted at composite degrees, has a nonzero pivot of
    # norm 0; det reports it instead of dividing by zero.
    order = NaturalOrder(CUBIC)
    monkeypatch.setattr(order._core, "norm_cofactor", lambda vec: (0, vec))
    one, zero = (1, 0, 0), (0, 0, 0)
    m = SpaceTimeMatrix(order, [[one, one, zero], [zero, one, one], [one, zero, one]])
    with pytest.raises(InvalidSpec, match="norm 0"):
        m.det()


@pytest.mark.parametrize("spec", [QUARTIC, SEXTIC], ids=["quartic", "sextic"])
def test_norm_det_is_the_right_multiplication_determinant(spec):
    order = NaturalOrder(spec)
    rng = random.Random(spec.n)
    n = order.n
    for _ in range(4):
        a = order.element([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        assert matrix_rep(a).norm_det() == right_multiplication_det(a)


def test_space_time_matrix_rejects_a_ragged_matrix():
    with pytest.raises(LengthMismatch):
        SpaceTimeMatrix(NaturalOrder(QUATERNION), [[(1, 0)], [(0, 0), (1, 0)]])


def test_space_time_matrix_rejects_an_entry_of_the_wrong_length():
    with pytest.raises(LengthMismatch):
        SpaceTimeMatrix(NaturalOrder(QUATERNION), [[(1, 0, 0), (0, 0)], [(0, 0), (1, 0)]])


def test_cofactor_expansions_stop_past_the_enumeration_bound(monkeypatch):
    # The cubic's reduced norm form makes 189 products of monomial
    # coefficients, and raises TooLarge under any lower bound.  The form is
    # cached once expanded, so each bounded call starts from an empty cache
    # and expands it again under the lowered bound.  det eliminates, with no
    # bound: this codeword matrix, whose rows 0 and 1 agree in column 2,
    # makes 10 products, one fewer than bareiss_products(3), under a bound
    # of 1 as under the real one.
    order = NaturalOrder(CUBIC)
    cols = list(zip(*construction_a_basis(cubic_code()).basis))
    unbounded = reduced_norm_form(order, cols)((1,) * 9)
    for bound in (189, 188):
        spacetime._flat_form.cache_clear()
        monkeypatch.setattr(spacetime, "ENUMERATION_BOUND", bound)
        if bound == 189:
            assert reduced_norm_form(order, cols)((1,) * 9) == unbounded
        else:
            with pytest.raises(TooLarge, match="exceeds 188 products"):
                reduced_norm_form(order, cols)((1,) * 9)
    spacetime._flat_form.cache_clear()
    calls = []
    order.ok_mul = lambda a, b, mul=order.ok_mul: calls.append(None) or mul(a, b)
    dense = matrix_rep(order.element([[1, 1, 1]] * 3))
    monkeypatch.setattr(spacetime, "ENUMERATION_BOUND", 1)
    assert dense.det() == (7, 0, 0) and len(calls) == 10
    assert vector_cofactor_det(order, dense.entries)[0] == (7, 0, 0)


def test_flat_form_expansions_drop_cancelled_monomials(monkeypatch):
    # A monomial whose coefficients sum to zero is dropped as the expansion
    # goes, so no product is made with it: the quartic's form makes 4,608
    # products instead of 4,992 and keeps its 404 monomials.  The form is
    # expanded with the product of the field's shared core, so the products
    # are counted there.
    expansions = ((CUBIC, 189, 57), (QUARTIC, 4608, 404), (QUINTIC, 168_125, 23_755))
    for spec, products, monomials in expansions:
        core, calls = integral_arithmetic(spec.min_poly, spec.sigma_image), []
        monkeypatch.setattr(core, "mul", lambda a, b, mul=core.mul: calls.append(None) or mul(a, b))
        spacetime._flat_form.cache_clear()
        assert len(spacetime._flat_form(*spec.algebra)) == monomials
        assert len(calls) == products


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(AlgebraSpec((1, 0, 1), (0, -1), u=1, p=5), id="gaussian-u1"),
        pytest.param(AlgebraSpec((1, 0, 1), (0, -1), u=-1, p=3), id="gaussian-u-1"),
        pytest.param(AlgebraSpec((-2, 0, 1), (0, -1), u=-5, p=3), id="sqrt2-u-5"),
        pytest.param(CUBIC, id="cubic-u2"),
        pytest.param(replace_spec(CUBIC, u=13, p=7), id="cubic-u13"),
        pytest.param(QUARTIC, id="quartic"),
        pytest.param(QUINTIC, id="quintic"),
    ],
)
def test_flat_form_is_the_expansion_of_matrix_rep_of_the_basis(monkeypatch, spec):
    # The form read off the core's sigma tables is, term for term and in the
    # same order, the one that matrix_rep of the n^2 basis elements of an
    # order of the algebra gives, with the same number of products; and no
    # order is built for it.
    builds, init = [], NaturalOrder.__init__
    monkeypatch.setattr(NaturalOrder, "__init__", lambda self, s: builds.append(s) or init(self, s))
    core, calls = integral_arithmetic(spec.min_poly, spec.sigma_image), []
    monkeypatch.setattr(core, "mul", lambda a, b, mul=core.mul: calls.append(None) or mul(a, b))
    spacetime._flat_form.cache_clear()
    terms = spacetime._flat_form(*spec.algebra)
    assert builds == []
    made = len(calls)
    assert basis_matrix_flat_form(NaturalOrder(spec)) == terms and len(calls) == 2 * made


def test_min_det_rechecks_its_witness(monkeypatch):
    def off_by_one(build):
        def perturbed_build(*args):
            sweep = build(*args)

            def perturbed(*fed):
                best, best_d = sweep(*fed)
                return best + 1, best_d

            return perturbed

        return perturbed_build

    code = fixture_code("gaussian-p3-inert")
    monkeypatch.setattr(boxsweep, "half_box_sweep", off_by_one(boxsweep.half_box_sweep))
    with pytest.raises(RuntimeError, match="disagrees with norm_det"):
        min_det_sample(code, 1)
    monkeypatch.setattr(spacetime, "_sweep", off_by_one(spacetime._sweep))
    with pytest.raises(RuntimeError, match="disagrees with norm_det"):
        min_det_sample(code, 1, exhaustive=False)


def test_flat_forms_are_cached_per_algebra_with_u_in_the_key():
    # gaussian-p3 and its u = 1 sabotage share a field but not a form.
    division, sabotage = fixture_code("gaussian-p3-inert"), sabotage_code()
    for first, second, values in [(division, sabotage, [9, 0, 9]), (sabotage, division, [0, 9, 0])]:
        spacetime._flat_form.cache_clear()
        assert [min_det_sample(c, 1) for c in (first, second, first)] == values
        assert spacetime._flat_form.cache_info().currsize == 2


def test_a_mindet_sweep_first_pass_expands_one_form_per_algebra():
    # The queries of one mindet-sweep pass: five box-1 sweeps and two sampled
    # queries over six specs, of which gaussian-p3, p5 and p2 share Z[i] with
    # u = -1.  G does not depend on p, so four forms are expanded, not six.
    spacetime._flat_form.cache_clear()
    for name in ("gaussian-p3-inert", "gaussian-p5-split", "gaussian-p2-ramified", "sqrt2-p3-selfdual"):
        min_det_sample(fixture_code(name), 1)
    min_det_sample(sabotage_code(), 1)
    min_det_sample(fixture_code("gaussian-p3-inert"), 2, seed=1, samples=2000, exhaustive=False)
    min_det_sample(cubic_code(), 1, seed=1, samples=2000, exhaustive=False)
    assert spacetime._flat_form.cache_info()[1:] == (4, 32, 4)  # misses, bound, size


def test_flat_forms_keep_the_32_most_recently_used_algebras(monkeypatch):
    # Z[i] at p = 101 with u = 1, ..., 33: 33 algebras.  Reading u = 1 again
    # once the cache is full makes u = 2 the least recently used, so u = 33
    # drops u = 2, not u = 1, and u = 2 is expanded again on its next use.
    expanded = []
    det = spacetime._cofactor_det
    spacetime._flat_form.cache_clear()
    monkeypatch.setattr(spacetime, "_cofactor_det", lambda *args: expanded.append(1) or det(*args))
    algebras = [AlgebraSpec((1, 0, 1), (0, -1), u=u, p=101).algebra for u in range(1, 34)]
    forms = [spacetime._flat_form(*algebra) for algebra in algebras[:32]]
    assert len(expanded) == 32 and spacetime._flat_form.cache_info().currsize == 32
    assert spacetime._flat_form(*algebras[0]) is forms[0] and len(expanded) == 32
    forms.append(spacetime._flat_form(*algebras[32]))
    assert len(expanded) == 33 and spacetime._flat_form.cache_info().currsize == 32
    assert spacetime._flat_form(*algebras[0]) is forms[0] and len(expanded) == 33
    assert spacetime._flat_form(*algebras[-1]) is forms[-1] and len(expanded) == 33
    assert spacetime._flat_form(*algebras[1]) == forms[1] and len(expanded) == 34
    assert spacetime._flat_form.cache_info()[:4] == (3, 34, 32, 32)  # hits, misses, bound, size


def test_compiled_sweeps_are_cached_per_columns_form_and_mode():
    # Exhaustive sweeps are kept per (columns, form, box) and sampled ones per
    # (columns, form).  The full codes of gaussian-p3 and of its u = 1
    # sabotage share their columns (the identity) but not a form; each query
    # must get its own compiled loop, whatever ran before it, and four nested
    # sweeps and one sampled loop are kept.
    code = fixture_code("gaussian-p3-inert")
    full = ConstacyclicCode.from_generator(SkewPoly.one(code.ring))
    sabotage = sabotage_code()
    assert construction_a_basis(full).basis == construction_a_basis(sabotage).basis
    queries = [
        lambda: min_det_sample(code, 1),
        lambda: min_det_sample(code, 2),
        lambda: min_det_sample(code, 1, seed=7, samples=50, exhaustive=False),
        lambda: min_det_sample(full, 1),
        lambda: min_det_sample(sabotage, 1),
    ]
    caches = (boxsweep.half_box_sweep, spacetime._sweep)
    fresh = []
    for query in queries:
        for cache in caches:
            cache.cache_clear()
        fresh.append(query())
    assert fresh[3:] == [1, 0]
    for cache in caches:
        cache.cache_clear()
    assert [query() for query in queries] == fresh
    assert [query() for query in reversed(queries)] == fresh[::-1]
    assert [cache.cache_info().currsize for cache in caches] == [4, 1]


def test_sampled_min_det_bounds_its_samples(monkeypatch):
    code = fixture_code("gaussian-p3-inert")
    monkeypatch.setattr(spacetime, "ENUMERATION_BOUND", 40)
    assert min_det_sample(code, 2, seed=99, samples=40, exhaustive=False) > 0
    monkeypatch.setattr(spacetime, "_sampled_pairs", None)  # nothing may be drawn
    with pytest.raises(TooLarge, match="41 samples exceed bound 40"):
        min_det_sample(code, 2, seed=99, samples=41, exhaustive=False)
    assert min_det_sample(code, 1, samples=41) == 9  # the sweep draws no samples


def test_coset_encode_examples():
    code = fixture_code("gaussian-p3-inert")
    ring = code.ring
    order = NaturalOrder(QUATERNION)
    enc = coset_encode(code, [ring.one], [0, 0, 0, 0])
    assert enc.point == order.element([[1, 1], [1, 0]])  # 1 + i + e
    assert enc.offset == order.zero

    enc0 = coset_encode(code, [ring.zero], [0, 0, 0, 0])
    assert enc0.point == order.zero

    enc1 = coset_encode(code, [ring.one], [1, 0, 0, 0])
    assert enc1.point == order.element([[4, 1], [1, 0]])  # 4 + i + e
    with pytest.raises(LengthMismatch):
        coset_encode(code, [ring.one], [0, 0])


def test_coset_encode_rejects_a_float_offset():
    code = fixture_code("gaussian-p3-inert")
    with pytest.raises(TypeError):
        coset_encode(code, [code.ring.one], [0.7, 1.2, 0, 0])


def test_space_time_matrix_rejects_a_float_entry():
    with pytest.raises(TypeError):
        SpaceTimeMatrix(NaturalOrder(QUATERNION), [[(1.5, 0), (0, 0)], [(0, 0), (1, 0)]])


def test_coset_decode_examples():
    code = fixture_code("gaussian-p3-inert")
    ring = code.ring
    order = NaturalOrder(QUATERNION)
    cw, off = coset_decode_label(code, order.element([[1, 1], [1, 0]]))
    assert cw == (ring.gen + 1, ring.one)
    assert off == order.zero

    w = order.element([[2, -1], [7, 0]])
    cw0, off0 = coset_decode_label(code, 3 * w)
    assert all(not c for c in cw0)
    assert off0 == 3 * w

    with pytest.raises(NotInLattice):
        coset_decode_label(code, order.element([[1, 1], [0, 0]]))  # 1 + i


def test_coset_round_trip(fixture_name):
    code = fixture_code(fixture_name)
    ring = code.ring
    N = code.n * code.n
    rng = random.Random(6)
    for _ in range(100):
        msg = random_message(code, rng)
        offset = [rng.randrange(-4, 5) for _ in range(N)]
        enc = coset_encode(code, msg, offset)
        assert reduce_element(enc.point, ring) == enc.codeword
        assert all(v % ring.p == 0 for row in enc.offset.rows for v in row)
        cw, off = coset_decode_label(code, enc.point)
        assert cw == enc.codeword == code.encode(msg)
        assert off == enc.offset


def test_coset_round_trips_return_the_shared_ring_elements(fixture_name):
    code = fixture_code(fixture_name)
    ring = code.ring
    rng = random.Random(8)
    for _ in range(20):
        offset = [rng.randrange(-4, 5) for _ in range(code.n * code.n)]
        enc = coset_encode(code, random_message(code, rng), offset)
        codeword, _ = coset_decode_label(code, enc.point)
        reduced = reduce_element(enc.point, ring)
        assert all(a is b is c for a, b, c in zip(codeword, reduced, enc.codeword))
        assert all(c is ring._make(c.coeffs) for c in reduced)


@settings(max_examples=10, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**32 - 1))
def test_decode_offset_is_the_point_minus_its_lifted_codeword(spec, seed):
    # Lattice points are drawn as integer combinations of the Construction A
    # basis, so their coordinates are negative as often as not.
    ring = QuotientRing(spec)
    order = NaturalOrder(spec)
    rng = random.Random(seed)
    for code in divisor_codes(ring, per_degree=1):
        basis = construction_a_basis(code).basis
        for _ in range(5):
            z = [rng.randint(-3, 3) for _ in basis]
            point = order.from_flat([sum(map(operator.mul, row, z)) for row in basis])
            codeword, offset = coset_decode_label(code, point)
            assert offset == point - lift_codeword(order, codeword)


@settings(max_examples=15, deadline=None)
@given(spec=valid_specs(), seed=st.integers(0, 2**32 - 1))
def test_coset_round_trip_matches_the_composed_oracle(spec, seed):
    # The coset functions build rows directly; the oracle composes lift_codeword,
    # from_flat, reduce_element and OrderElement arithmetic in a fresh order.
    ring = quiet_ring(spec)
    rng = random.Random(seed)
    for code in divisor_codes(ring, per_degree=1):
        for _ in range(4):
            msg = random_message(code, rng)
            offset = [rng.randint(-4, 4) for _ in range(ring.n * ring.n)]
            enc = coset_encode(code, msg, offset)
            assert (enc.codeword, enc.offset, enc.point) == composed_coset_encode(code, msg, offset)
            assert coset_decode_label(code, enc.point) == composed_coset_decode(code, enc.point)


def test_coset_decode_rejects_a_point_of_another_order():
    # Same m and sigma but p = 5: reducing it modulo 3 would answer silently.
    code = fixture_code("gaussian-p3-inert")
    rows = [[4, 1], [1, 0]]
    alien = NaturalOrder(replace_spec(code.ring.spec, p=5)).element(rows)
    with pytest.raises(ValueError, match="^elements belong to different orders$"):
        coset_decode_label(code, alien)
    # An equal spec built separately names the same order.
    same = NaturalOrder(replace_spec(code.ring.spec)).element(rows)
    codeword, offset = coset_decode_label(code, same)
    assert codeword == (code.ring.gen + 1, code.ring.one)
    assert offset.rows == ((3, 0), (0, 0))


def test_coset_encodings_share_one_order():
    code = fixture_code("gaussian-p3-inert")
    first = coset_encode(code, [code.ring.one], [1, 0, 0, 0])
    second = coset_encode(code, [code.ring.zero], [0, 2, -1, 0])
    assert first.point.order is second.point.order is first.offset.order
    assert second.point.order is second.offset.order


@pytest.mark.parametrize(
    "rows",
    [((1, 1, 0), (2, 0, 0)), ((1,), (2,)), ((1, 1), (2, 0), (0, 0))],
    ids=["long rows", "short rows", "three rows"],
)
def test_misshapen_point_rows_raise_and_build_no_element(rows):
    # The split kernel unpacks n rows of n coordinates before it builds any
    # element, so the ring's shared element table keeps no misshapen entry.
    code = fixture_code("gaussian-p3-inert")
    table = code.ring._make.__self__
    point = OrderElement(NaturalOrder(QUATERNION), rows)
    before = dict(table)
    with pytest.raises(LengthMismatch):
        coset_decode_label(code, point)
    with pytest.raises(LengthMismatch):
        reduce_element(point, code.ring)
    assert table == before


def test_coset_kernels_compile_once_per_degree(monkeypatch):
    compiled = []
    compile_function = lattice.compile_function

    def counting(source, name):
        compiled.append(name)
        return compile_function(source, name)

    monkeypatch.setattr(lattice, "compile_function", counting)
    lattice.coset_kernels.cache_clear()
    rng = random.Random(36)
    for name in ("gaussian-p3-inert", "gaussian-p5-split", "sqrt2-p3-selfdual"):
        code = fixture_code(name)
        for _ in range(5):
            enc = coset_encode(code, random_message(code, rng), [rng.randint(-4, 4) for _ in range(4)])
            assert coset_decode_label(code, enc.point) == (enc.codeword, enc.offset)
    assert compiled == ["kernels"]


def test_degree_30_coset_round_trip_compiles_at_any_depth():
    # Phi_31 with sigma: y -> y^3 at p = 2 and g = 1: the full code, k = 30.
    # The kernels unpack 900 coordinates and the encoder sums 900 columns;
    # the first round trip compiles them 800 frames down.
    ring = quiet_ring(AlgebraSpec((1,) * 31, (0, 0, 0, 1), u=3, p=2))
    code = ConstacyclicCode.from_generator(SkewPoly.one(ring))
    lattice.coset_kernels.cache_clear()
    rng = random.Random(31)

    def deep(depth, call):
        return deep(depth - 1, call) if depth else call()

    def round_trip():
        msg = random_message(code, rng)
        offset = [rng.randint(-3, 3) for _ in range(900)]
        enc = coset_encode(code, msg, offset)
        assert (enc.codeword, enc.offset, enc.point) == composed_coset_encode(code, msg, offset)
        assert coset_decode_label(code, enc.point) == composed_coset_decode(code, enc.point)

    assert code.k == 30
    deep(800, round_trip)
    round_trip()


def test_sample_offsets_contract():
    assert sample_offsets(5, 0, 3, 4) == []
    assert sample_offsets(5, 10, 3, 4) == sample_offsets(5, 10, 3, 4)
    assert sample_offsets(5, 10, 3, 4) != sample_offsets(6, 10, 3, 4)
    draws = sample_offsets(5, 50, 2, 4)
    assert all(len(v) == 4 and all(-2 <= c <= 2 for c in v) for v in draws)


def test_sample_offsets_uniformity_within_five_sigma():
    box = 3
    count = 10**4
    dims = 4
    draws = sample_offsets(12345, count, box, dims)
    total = count * dims
    prob = 1 / (2 * box + 1)
    expected = total * prob
    sigma = sqrt(total * prob * (1 - prob))
    for value in range(-box, box + 1):
        observed = sum(v.count(value) for v in draws)
        assert abs(observed - expected) < 5 * sigma
