"""Exhaustive min-det sweeps by nested partial evaluation over the half box.

The exhaustive mode of spacetime.min_det_sample asks for the least |F(d)|
over the nonzero d in [-2b, 2b]^N taken once up to sign, where F(d) = G(B d)
is the reduced norm form G of the order's flat coordinates read through the
lattice basis B.  It takes the d whose first nonzero coordinate is positive:
in lexicographic order, the ones after the middle of
itertools.product(range(-2b, 2b + 1), repeat=N).

half_box_sweep composes G with B once, giving the integer coefficients of F
in lattice coordinates, and compiles nested loops over d_0, ..., d_(N-3):
each loop substitutes its coordinate into the coefficients of the
coordinates left (multivariate Horner), so a level costs one expression per
monomial left that involves its coordinate, once per value of it; the
monomials that do not are carried down by name.  The last two coordinates
are unrolled over their (4b + 1)^2 values with constant powers, the values
at t and -t sharing their even and odd parts, and min and index find the
first least value of each block.  So a difference costs O(1) amortised
work, the loops visit the d in the order of the product, and the first
lexicographic minimiser is the one returned.  sweep(stop) returns as soon
as its least value is <= stop: stop = 0 sweeps to the first zero, and
spacetime passes p^(n-k) in a proven division algebra, below which no value
falls, so the first value that meets it is the first minimiser.
The loops are written here; their Horner forms, sums and tuples come from
skewlat.emit, which compiles the sweep.

A loop runs over [0, 2b] while every coordinate before it is 0 (its start
lo is 0) and over [-2b, 2b] once one is not (lo = -2b).  The differences
whose first nonzero coordinate is one of the last two come first in the
order; they are evaluated when the sweep is built, and their first least
value is written in as the starting best, which the sweep returns at once
when it is <= stop; the last loop starts at 1 while lo is 0.  CPython nests
at most 20 loops in one function, so a sweep of more than 22 coordinates
raises TooLarge; at box 1 that is already 5^23 / 2 differences.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .errors import TooLarge
from .emit import compile_function, horner, linear_source, tuple_source

_MAX_LOOPS = 20  # CPython's limit on statically nested blocks in one function


def _compose(columns, terms):
    """F = G o B as {exponent vector of d: coefficient}, nonzero coefficients only.

    terms are the (sorted variable indices, coefficient) pairs of G in the
    flat coordinates x; x_i = sum_j columns[j][i] * d_j.
    """
    N = len(columns)
    linear = [[(j, v) for j, v in enumerate(row) if v] for row in zip(*columns)]
    form = {}
    for mono, coeff in terms:
        poly = {(0,) * N: coeff}
        for i in mono:
            product = {}
            for exps, c in poly.items():
                for j, v in linear[i]:
                    e = exps[:j] + (exps[j] + 1,) + exps[j + 1 :]
                    product[e] = product.get(e, 0) + c * v
            poly = product
        for exps, c in poly.items():
            form[exps] = form.get(exps, 0) + c
    return {exps: c for exps, c in form.items() if c}


def _sweep_source(form, N, W):
    """Source of sweep() over the half box of width W = 2b in N coordinates."""
    span = range(-W, W + 1)
    # The differences whose first nonzero coordinate is one of the last two, in order.
    heads = [(0,) * (N - 1) + (t,) for t in range(1, W + 1)]
    if N > 1:
        heads += [(0,) * (N - 2) + (s, t) for s in range(1, W + 1) for t in span]
    first = [abs(sum(c * prod(map(pow, d, exps)) for exps, c in form.items())) for d in heads]
    best = min(first)
    lines = [f"    best, best_d = {best}, {heads[first.index(best)]}"]
    if best and N > 2:
        lines += ["    if best <= stop:", "        return best, best_d"]
        coeffs = {exps: f"({c})" if c < 0 else str(c) for exps, c in form.items()}
        names = 0

        def assign(pad, expr):  # a name for expr, a new local unless it is a name or a constant
            nonlocal names
            if expr.isidentifier() or expr.strip("()").lstrip("-").isdigit():
                return expr
            lines.append(f"{pad}c{names} = {expr}")
            names += 1
            return f"c{names - 1}"

        for j in range(N - 2):
            pad = "    " * (j + 1)
            start = "0" if j == 0 else f"lo{j}"
            if j == N - 3:
                start = "1" if j == 0 else f"{start} or 1"
            lines.append(f"{pad}for t{j} in range({start}, {W + 1}):")
            pad += "    "
            if j < N - 3:
                lines.append(f"{pad}lo{j + 1} = {-W} if t{j} else {'0' if j == 0 else f'lo{j}'}")
            groups = {}  # each coefficient left, as a form in t_j
            for exps, src in coeffs.items():
                groups.setdefault(exps[1:], {})[(0,) * exps[0]] = src
            coeffs = {rest: assign(pad, horner(form, [f"t{j}"])) for rest, form in groups.items()}
        pad = "    " * (N - 1)
        values = []
        for s in span:
            poly = {}  # the coefficients of d_(N-1)^e at d_(N-2) = s
            for (a, e), src in coeffs.items():
                poly.setdefault(e, []).append((s**a, src))
            poly = sorted((e, assign(pad, linear_source(pairs))) for e, pairs in poly.items())
            parts = [
                [linear_source((t**e, src) for e, src in poly if e % 2 == odd) for odd in (0, 1)]
                for t in range(W + 1)
            ]
            signed = [f"(even{t} := {even})-(odd{t} := {odd})" for t, (even, odd) in enumerate(parts)]
            values += signed[:0:-1] + [parts[0][0]] + [f"even{t}+odd{t}" for t in range(1, W + 1)]
        best_d = tuple_source([*(f"t{j}" for j in range(N - 2)), f"s - {W}", f"t - {W}"])
        lines += [
            f"{pad}values = [{', '.join(f'abs({v})' for v in values)}]",
            f"{pad}v = min(values)",
            f"{pad}if v < best:",
            f"{pad}    s, t = divmod(values.index(v), {2 * W + 1})",
            f"{pad}    best, best_d = v, {best_d}",
            f"{pad}    if v <= stop:",
            f"{pad}        return best, best_d",
        ]
    lines.append("    return best, best_d\n")
    return "def sweep(stop):\n" + "\n".join(lines)


@lru_cache(maxsize=32)
def half_box_sweep(columns, terms, box):
    """The compiled sweep(stop) -> (least |F(d)|, first such d) over the half box.

    F(d) = G(sum_j d_j columns[j]), G the form of terms, a tuple of (sorted
    flat variable indices, integer coefficient) pairs; d runs over the
    nonzero points of [-2 box, 2 box]^N whose first nonzero coordinate is
    positive, in lexicographic order, and the sweep returns once its least
    value is <= stop (at the first zero for stop = 0).  Compiled once per (columns, terms, box) and kept in a bounded
    cache.  Raises TooLarge past 22 coordinates (see the module docstring).
    """
    N = len(columns)
    if N - 2 > _MAX_LOOPS:
        raise TooLarge(f"an exhaustive sweep nests at most {_MAX_LOOPS + 2} coordinates, not {N}")
    return compile_function(_sweep_source(_compose(columns, terms), N, 2 * box), "sweep")
