"""Value semantics of the small hand-written record types.

AlgebraSpec, LatticeBasis, CosetEncoding and Config are plain classes on
number_ring.Record, and CheckResult is a namedtuple, so these tests pin what
callers rely on: constructors, field checks, equality, hashing, immutability
where it applies, and repr.
"""

import copy
import pickle

import pytest

from skewlat import AlgebraSpec, construction_a_basis, coset_encode
from skewlat.cli import Config
from skewlat.errors import InvalidSpec, NotPrime
from skewlat.fixtures import GAUSSIAN_P3, CheckResult, fixture_code
from skewlat.lattice import LatticeBasis
from skewlat.number_ring import ENUMERATION_BOUND

from helpers import SPEC_CALLS

BASE = dict(min_poly=(1, 0, 1), sigma_image=(0, -1), u=-1, p=3, conjugation_mode="complex")

# Field checks beyond those of tests/test_number_ring.py, which runs the rest
# through SPEC_CALLS too, as (changed fields, error, message).
SPEC_VIOLATIONS = (
    (dict(min_poly=5), InvalidSpec, "min_poly must be a sequence of integers"),
    # The checks run in order: the type of u before the degree, p before u.
    (dict(u=1.5, min_poly=(1,)), InvalidSpec, "u must be an integer"),
    (dict(p=4, u=6), NotPrime, "p = 4 is not prime"),
)


@pytest.mark.parametrize("changes, error, message", SPEC_VIOLATIONS)
def test_spec_checks_raise_positionally_and_by_keyword(changes, error, message):
    for call in SPEC_CALLS:
        with pytest.raises(error) as info:
            call({**BASE, **changes})
        assert str(info.value) == message


def test_spec_from_lists_or_tuples_is_one_value():
    listed = AlgebraSpec([1, 0, 1], [0, -1], -1, 3)
    tupled = AlgebraSpec(min_poly=(1, 0, 1), sigma_image=(0, -1), u=-1, p=3)
    assert listed == tupled == GAUSSIAN_P3
    assert listed.min_poly == (1, 0, 1) and listed.sigma_image == (0, -1)
    assert listed.n == 2 and not hasattr(listed, "conjugation_mode")
    assert hash(listed) == hash(tupled) == hash(((1, 0, 1), (0, -1), -1, 3))
    assert {listed: 1}[tupled] == 1
    for name, other in (("u", 2), ("p", 5), ("sigma_image", (0, 1))):
        assert AlgebraSpec(**{**BASE, name: other}) != listed
    # conjugation_mode is checked, not kept: both spellings give one spec, for
    # every degree, a cubic with "complex" included.
    identity = AlgebraSpec(**{**BASE, "conjugation_mode": "identity"})
    assert identity == listed and hash(identity) == hash(listed)
    cubic = dict(min_poly=(-1, -2, 1, 1), sigma_image=(-2, 0, 1), u=2, p=5)
    assert AlgebraSpec(**cubic, conjugation_mode="complex") == AlgebraSpec(**cubic)
    # Equal fields in another type are not a spec.
    assert listed != ((1, 0, 1), (0, -1), -1, 3)


def test_spec_is_immutable():
    spec = AlgebraSpec(**BASE)
    for name in AlgebraSpec._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(spec, name, 7)
    with pytest.raises(AttributeError):
        del spec.p
    assert spec == GAUSSIAN_P3 and hash(spec) == hash(GAUSSIAN_P3)


def test_spec_repr_copy_and_pickle():
    assert repr(GAUSSIAN_P3) == "AlgebraSpec(min_poly=(1, 0, 1), sigma_image=(0, -1), u=-1, p=3)"
    identity = AlgebraSpec(**{**BASE, "conjugation_mode": "identity"})
    for clone in (copy.copy(identity), pickle.loads(pickle.dumps(identity))):
        assert clone == GAUSSIAN_P3 and hash(clone) == hash(GAUSSIAN_P3)


def test_lattice_basis_to_dict_returns_fresh_lists():
    code = fixture_code("gaussian-p3-inert")
    lat = construction_a_basis(code)
    assert lat == construction_a_basis(code)
    assert lat != LatticeBasis(lat.basis, [row[::-1] for row in lat.gram], lat.det, lat.index)
    out = lat.to_dict()
    assert out == {"basis": lat.basis, "gram": lat.gram, "det": lat.det, "index": lat.index}
    assert all(type(row) is list for row in out["basis"] + out["gram"])
    out["basis"][0][0] += 1
    out["gram"].append([])
    out["basis"].pop()
    assert lat == construction_a_basis(code)
    assert lat.to_dict() != out


def test_coset_encodings_compare_by_value():
    code = fixture_code("gaussian-p3-inert")
    one = code.ring.one
    enc = coset_encode(code, [one], [1, 0, 0, 0])
    assert enc == coset_encode(code, [one], [1, 0, 0, 0])
    assert enc != coset_encode(code, [one], [0, 0, 0, 0])
    assert (enc.codeword, enc.offset, enc.point) == (
        code.encode([one]),
        enc.point.order.from_flat([3, 0, 0, 0]),
        enc.point,
    )
    assert repr(enc).startswith("CosetEncoding(codeword=")


def test_config_defaults_and_mutability():
    cfg = Config(p=3, min_poly=[1, 0, 1], sigma_image=[0, -1], u=-1)
    assert (cfg.generator, cfg.bound, cfg.seed) == (None, ENUMERATION_BOUND, 0)
    assert cfg.spec() == GAUSSIAN_P3
    same = Config(3, [1, 0, 1], [0, -1], -1, None, ENUMERATION_BOUND, 0)
    assert cfg == same
    cfg.bound, cfg.seed = 5, 7
    assert cfg != same and (cfg.bound, cfg.seed) == (5, 7)
    assert repr(same) == (
        "Config(p=3, min_poly=[1, 0, 1], sigma_image=[0, -1], u=-1, "
        f"generator=None, bound={ENUMERATION_BOUND}, seed=0)"
    )
    # Config has no trace-form field.
    for knob in ("conjugation_mode", "e_weight"):
        with pytest.raises(TypeError):
            Config(3, [1, 0, 1], [0, -1], -1, **{knob: 1})


def test_check_result_fields():
    result = CheckResult("gaussian-p3-inert", True, "ok")
    assert (result.name, result.passed, result.detail) == ("gaussian-p3-inert", True, "ok")
    assert result == CheckResult(name="gaussian-p3-inert", passed=True, detail="ok")
