import pytest
from hypothesis import given, settings

from skewlat import AlgebraSpec, invariants
from skewlat.fixtures import FIXTURE_SPECS, GAUSSIAN_P3_U1

from helpers import CUBIC, QUARTIC, QUINTIC, norm_witnesses, quaternion_division, valid_specs


def proven(min_poly, sigma_image, u):
    return invariants.division_proven(min_poly, sigma_image, u)


@pytest.mark.parametrize("name", FIXTURE_SPECS)
def test_every_fixture_algebra_is_proven(name):
    # Z[i] with u = -1 is definite (the real place); sqrt2-p3 has u = -5, and
    # 5 is inert in Q(sqrt 2).
    assert proven(*FIXTURE_SPECS[name].algebra)


def test_the_u1_sabotage_is_not_proven():
    assert not proven(*GAUSSIAN_P3_U1.algebra)


@pytest.mark.parametrize(
    "field, accepted, rejected",
    [
        # 2, 3 and 5 are inert in the cubic; 7 ramifies, 13 splits, and
        # v_2(8) = 3 is not prime to n = 3.
        (CUBIC.algebra[:2], (2, 3, 5, 6), (1, -1, 7, 8, 13)),
        # 3 is inert in Q(zeta_16)^+ (inv_3 = 1/4); 7 has residue degree 2,
        # and v_3(9) = 2 is not prime to n = 4.
        (QUARTIC.algebra[:2], (3,), (7, 9)),
        # 2 and 3 are inert in Q(zeta_11)^+; 23 and 89 split.
        (QUINTIC.algebra[:2], (2, 3), (23, 89)),
    ],
    ids=["cubic", "quartic", "quintic"],
)
def test_division_proven_pins_the_invariants_of_the_scale_fields(field, accepted, rejected):
    assert [proven(*field, u) for u in accepted] == [True] * len(accepted)
    assert [proven(*field, u) for u in rejected] == [False] * len(rejected)


def test_division_proven_is_kept_per_algebra_not_per_p():
    invariants.division_proven.cache_clear()
    specs = [AlgebraSpec((1, 0, 1), (0, -1), u=-1, p=p) for p in (2, 3, 5)]
    assert all(proven(*spec.algebra) for spec in specs)
    assert invariants.division_proven.cache_info()[:2] == (2, 1)  # hits, misses


@settings(max_examples=200, deadline=None)
@given(spec=valid_specs())
def test_division_proven_never_contradicts_the_hilbert_symbol(spec):
    # For n = 2 the algebra is the quaternion algebra (d, u), d = b^2 - 4c
    # the discriminant of y^2 + by + c, a division algebra exactly when one
    # of its Hilbert symbols is -1.
    if spec.n == 2:
        c, b, _ = spec.min_poly
        assert not proven(*spec.algebra) or quaternion_division(b * b - 4 * c, spec.u)


@settings(max_examples=200, deadline=None)
@given(spec=valid_specs())
def test_no_power_of_u_below_n_is_a_norm_in_a_proven_division_algebra(spec):
    # A norm u^i with 0 < i < n would make the index divide i, so where
    # division is proven the bounded witness search finds none.
    if proven(*spec.algebra):
        assert norm_witnesses(spec, 2) == []


def test_the_real_place_proves_every_definite_quaternion_algebra():
    # y^2 + y + c with c >= 1 has d = 1 - 4c < 0: with u < 0 the algebra is
    # definite, whatever the primes of u do.
    for c in range(1, 6):
        for u in range(-12, 0):
            assert proven((c, 1, 1), (-1, -1), u)
            assert quaternion_division(1 - 4 * c, u)
