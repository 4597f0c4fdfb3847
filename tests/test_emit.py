"""The source rules of skewlat.emit, checked by evaluating what they write.

Each generated sum, Horner form and tuple display is compiled and run
against the value computed directly from its terms, so the tests share no
arithmetic with the rules they check.
"""

import random
from math import prod

import pytest

from skewlat.emit import compile_function, horner, linear_source, tuple_source


def deep(depth, call):
    return deep(depth - 1, call) if depth else call()


def test_a_sum_of_10000_terms_compiles_800_frames_deep():
    # CPython's compiler recurses once per term of a + chain and has less
    # recursion to spare the deeper its caller; linear_source writes long
    # sums as parenthesized partial sums, so the depth stays near their size.
    rng = random.Random(10_000)
    coeffs = [rng.choice([0, 1, -1, rng.randint(-9, 9)]) for _ in range(10_000)]
    body = linear_source((c, f"x[{i}]") for i, c in enumerate(coeffs))
    total = deep(800, lambda: compile_function(f"def total(x):\n    return {body}\n", "total"))
    for _ in range(3):
        x = [rng.randint(-5, 5) for _ in coeffs]
        assert total(x) == sum(c * v for c, v in zip(coeffs, x))


def test_linear_source_writes_signs_and_skips_zero_coefficients():
    assert linear_source([(1, "a"), (-1, "b"), (0, "c"), (3, "d"), (-2, "e")]) == "a-b+3*d-2*e"
    assert linear_source([(0, "a")]) == linear_source([]) == "0"
    assert linear_source([(-1, "a"), (1, "b")]) == "-a+b"


def _evaluate(source, names, values):
    return compile_function(f"def f({', '.join(names)}):\n    return {source}\n", "f")(*values)


@pytest.mark.parametrize("seed", range(20))
def test_horner_equals_the_monomial_sum_of_a_multivariate_form(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 4)
    form = {}
    for _ in range(rng.randint(0, 12)):
        mono = tuple(sorted(rng.randrange(nvars) for _ in range(rng.randint(0, 4))))
        form[mono] = rng.choice([1, -1, rng.randint(-20, 20)])
    names = [f"x{i}" for i in range(nvars)]
    for _ in range(5):
        x = [rng.randint(-4, 4) for _ in names]
        direct = sum(c * prod(x[i] for i in mono) for mono, c in form.items())
        assert _evaluate(horner(form, names), names, x) == direct


@pytest.mark.parametrize("seed", range(20))
def test_horner_equals_the_power_sum_of_a_univariate_form_of_sources(seed):
    # Coefficients are source strings: names, signed constants and sums,
    # as the exhaustive sweep's levels write them.
    rng = random.Random(seed)
    names = [f"c{e}" for e in range(6)]
    values = [rng.randint(-9, 9) for _ in names]
    kinds = [lambda e: names[e], lambda e: f"({-e - 1})", lambda e: f"{names[e]}+{names[0]}"]
    exponents = rng.sample(range(6), rng.randint(1, 6))
    form = {(0,) * e: rng.choice(kinds)(e) for e in exponents}
    for t in range(-3, 4):
        direct = sum(_evaluate(src, names, values) * t ** len(mono) for mono, src in form.items())
        assert _evaluate(horner(form, ["t"]), ["t", *names], [t, *values]) == direct


def test_horner_groups_by_leading_variable():
    names = ["x", "y"]
    assert horner({(): 2, (0,): 1, (0, 1): 3, (1, 1): -1}, names) == "2+x*(1+y*(3))+y*(y*(-1))"
    assert horner({(0,) * 2: "c", (): "b"}, ["t"]) == "b+t*(t*c)"
    assert horner({}, names) == "0"


def test_a_tuple_source_target_round_trips_nested_rows():
    rows = ((1, 2, 3), (4, 5, 6))
    names = [f"v{t}" for t in range(6)]
    unpack = f"    {tuple_source(names, 3)} = s\n"
    flip = tuple_source(names[::-1], 2)
    swap = compile_function(f"def swap(s):\n{unpack}    return {flip}\n", "swap")
    assert swap(rows) == ((6, 5), (4, 3), (2, 1))
    same = compile_function(f"def same(s):\n{unpack}    return {tuple_source(names, 3)}\n", "same")
    assert same(rows) == rows
    with pytest.raises(ValueError):
        same(((1, 2), (3, 4), (5, 6)))
    assert tuple_source(["a", ["b", "c"]]) == "(a, (b, c,),)"
