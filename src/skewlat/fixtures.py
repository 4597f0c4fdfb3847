"""Bundled worked-example configurations with independently known answers.

Four small algebras over quadratic fields, one per ramification behavior of
the chosen prime plus a self-dual totally real case, each with its canonical
length-2 code.  worked_example_checks() replays every known fact about them
(factorizations, codeword sets, parity checks, duals) against the library and
is what the CLI command `verify-examples` runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import ConstacyclicCode, brute_force_dual
from .number_ring import AlgebraSpec, QuotientRing
from .skew import SkewPoly, central_poly

GAUSSIAN_P3 = AlgebraSpec(min_poly=(1, 0, 1), sigma_image=(0, -1), u=-1, p=3)
GAUSSIAN_P5 = AlgebraSpec(min_poly=(1, 0, 1), sigma_image=(0, -1), u=-1, p=5)
GAUSSIAN_P2 = AlgebraSpec(min_poly=(1, 0, 1), sigma_image=(0, -1), u=-1, p=2)
SQRT2_P3 = AlgebraSpec(
    min_poly=(-2, 0, 1), sigma_image=(0, -1), u=-5, p=3, conjugation_mode="identity"
)
# e^2 = 1 makes 1 + e a zero divisor; used to exhibit vanishing determinants.
GAUSSIAN_P3_U1 = AlgebraSpec(min_poly=(1, 0, 1), sigma_image=(0, -1), u=1, p=3)

FIXTURE_SPECS = {
    "gaussian-p3-inert": GAUSSIAN_P3,
    "gaussian-p5-split": GAUSSIAN_P5,
    "gaussian-p2-ramified": GAUSSIAN_P2,
    "sqrt2-p3-selfdual": SQRT2_P3,
}

# Generator coefficients (constant term first) of the canonical code of each
# fixture: x + 1 + a, x + 3, x + 1, x + a.
FIXTURE_GENERATORS = {
    "gaussian-p3-inert": ((1, 1), (1, 0)),
    "gaussian-p5-split": ((3, 0), (1, 0)),
    "gaussian-p2-ramified": ((1, 0), (1, 0)),
    "sqrt2-p3-selfdual": ((0, 1), (1, 0)),
}

FIXTURE_NAMES = tuple(FIXTURE_SPECS)


def fixture_ring(name: str) -> QuotientRing:
    return QuotientRing(FIXTURE_SPECS[name])


def fixture_code(name: str) -> ConstacyclicCode:
    ring = fixture_ring(name)
    return ConstacyclicCode.from_generator(SkewPoly(ring, FIXTURE_GENERATORS[name]))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _expect(condition, label):
    # An explicit test, not assert, so the checks still run under python -O.
    if not condition:
        raise AssertionError(label)


def _check_gaussian_p3() -> str:
    ring = fixture_ring("gaussian-p3-inert")
    a = ring.gen
    x = SkewPoly.monomial(ring, 1)
    code = fixture_code("gaussian-p3-inert")
    central = central_poly(ring, 2, -1)
    _expect((x + (a - 1)) * (x + (a + 1)) == central, "factorization of x^2 + 1")
    _expect(code.h == x + (a - 1), "parity check")
    words = set(code.codewords())
    expected = {((a + 1) * t, t) for t in ring.elements()}
    _expect(words == expected and len(words) == 9, "codeword set")
    gp = code.dual_generator()
    _expect(gp == SkewPoly(ring, (1, -(a + 1))), "dual generator")
    _expect(set(brute_force_dual(code)) == set(code.dual_code().codewords()), "dual oracle")
    _expect(not code.is_self_dual(), "not self-dual")
    return "x^2+1 = (x-1+a)(x+1+a); 9 codewords ((a+1)t, t); dual matches brute force"


def _check_gaussian_p5() -> str:
    ring = fixture_ring("gaussian-p5-split")
    dec = ring.decompose()
    _expect(dec.ramification() == "split", "5 splits")
    _expect(dec.project(ring.gen) == ((2,), (3,)), "generator projects to (2, 3)")
    for aa in range(5):
        for bb in range(5):
            el = ring.element([aa, bb])
            _expect(dec.project(el) == (((aa + 2 * bb) % 5,), ((aa + 3 * bb) % 5,)), "CRT map")
    code = fixture_code("gaussian-p5-split")
    words = set(code.codewords())
    _expect(words == {(3 * t, t) for t in ring.elements()} and len(words) == 25, "codeword set")
    _expect(code.is_self_dual(), "self-dual")
    _expect(set(brute_force_dual(code)) == words, "dual oracle")
    return "5 splits, a -> (2, 3); 25 codewords (3t, t); self-dual"


def _check_gaussian_p2() -> str:
    ring = fixture_ring("gaussian-p2-ramified")
    dec = ring.decompose()
    _expect(dec.ramification() == "ramified", "2 ramifies")
    nil = ring.element([1, 1])
    _expect(not (nil * nil), "nilpotent squares to zero")
    code = fixture_code("gaussian-p2-ramified")
    words = set(code.codewords())
    _expect(words == {(t, t) for t in ring.elements()} and len(words) == 4, "repetition code")
    return "2 ramified, (1+a)^2 = 0; repetition code with 4 codewords"


def _check_sqrt2_p3() -> str:
    ring = fixture_ring("sqrt2-p3-selfdual")
    a = ring.gen
    x = SkewPoly.monomial(ring, 1)
    code = fixture_code("sqrt2-p3-selfdual")
    central = central_poly(ring, 2, -5)
    _expect(central == SkewPoly(ring, (2, 0, 1)), "x^2 - u reduces to x^2 + 2")
    _expect((x + a) * (x + a) == central, "x^2 + 2 = (x+a)(x+a)")
    words = set(code.codewords())
    _expect(words == {(a * t, t) for t in ring.elements()} and len(words) == 9, "codeword set")
    gp = code.dual_generator()
    _expect(gp == SkewPoly(ring, (1, -a)), "dual generator 1 - a*x")
    _expect(gp == (-a) * (x + a), "dual generator factors as -a(a + x)")
    _expect(code.is_self_dual(), "self-dual")
    return "x^2+2 = (x+a)(x+a); 9 codewords (a t, t); self-dual via 1 - a*x"


_CHECKS = {
    "gaussian-p3-inert": _check_gaussian_p3,
    "gaussian-p5-split": _check_gaussian_p5,
    "gaussian-p2-ramified": _check_gaussian_p2,
    "sqrt2-p3-selfdual": _check_sqrt2_p3,
}


def worked_example_checks() -> list:
    """Replay every bundled worked example; one CheckResult per fixture."""
    results = []
    for name, fn in _CHECKS.items():
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
    return results
