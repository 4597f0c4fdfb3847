"""Matrix representations of order elements and coset encoding.

matrix_rep(a) is the classical n x n codeword matrix of a = sum a_i e^i over
O_K: column c holds the coordinates of e^c * a, so entry (r, c) is
sigma^c(a_{r-c}) on and below the diagonal and u * sigma^c(a_{n-c+r}) above
it.  The map is additive and injective and reverses products,
matrix_rep(a*b) = matrix_rep(b) * matrix_rep(a), because column c tracks
right multiplication acting on e^c.

The centre of the algebra is Q, so det M(a) = nrd(a), the reduced norm, is
a rational integer and norm_det is nrd ** n.  SpaceTimeMatrix.det is Bareiss
elimination over O_K: O(n^3) products, and no bound on them.

min_det_sample probes the space-time design criterion: over a division
algebra det M(a - a') = det(M(a) - M(a')) never vanishes for a != a'.  The
reduced norm, a form in the order's flat coordinates (_flat_form), does not
depend on p: it is expanded once per algebra (min_poly, sigma_image, u) and
kept as monomial terms for the 32 most recently used algebras, in an
lru_cache.  A query sweeps when the differences of its doubled box fit the
enumeration bound (exhaustive_sweep) and samples otherwise.  The sweep is
exact for its box: boxsweep, imported on the first sweep, compiles nested
loops over the half box that substitute one lattice coordinate per level,
O(1) amortised work per difference.  The sampled mode compiles one loop per
(basis, form) that evaluates the form's Horner source on differences of box
points, fed at C level by getrandbits bytes that are randint's draws; it
gives an upper bound, never a certificate.  Both kinds of loop are kept in
bounded caches; skewlat.emit writes their Horner forms, sums and tuples and
compiles them.  Both end at the first value <= stop, an argument of the
compiled loop: 0, or, once invariants (imported by the first query) proves
a division algebra, p^(n-k).  There a nonzero point a of the lattice L, a
left ideal of the order Lambda, has |norm_det(a)| = [Lambda : Lambda a] >=
[Lambda : L] = p^(n(n-k)), as a code of dimension k has |R|^k = p^(nk)
words, so the first value that meets p^(n-k) is the first minimiser, and
the answer is the one a sweep to the end gives.
The reduced norm form G is a cofactor expansion (_cofactor_det) of the
linear forms of M(x), which the shared core of the field,
number_ring.integral_arithmetic, gives as its sigma^c(theta^j) with no order
built; it raises TooLarge past ENUMERATION_BOUND products.  Matrix entries
add through lattice.vector_sum.

Coset encoding splits a lattice point into an information codeword plus a
random offset in p times the order, the wiretap coset code of
Kositwattanarerk, Ong and Oggier.  coset_encode runs code.encode, then the
lift kernel of lattice.coset_kernels, which writes the offset rows p*o and
the point rows lift(c) + p*o in one pass; coset_decode_label runs its split
kernel through lattice.split_element, then code.is_codeword.  Encoded points
share lattice.natural_order(spec).
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache
from itertools import chain, repeat
from math import inf

from .codes import ConstacyclicCode
from .emit import compile_function, horner, linear_source, tuple_source
from .errors import InvalidSpec, LengthMismatch, NotInLattice, TooLarge
from .lattice import (
    NaturalOrder,
    OrderElement,
    construction_a_basis,
    coset_kernels,
    det_int,
    natural_order,
    split_element,
    vector_sum,
)
from .number_ring import ENUMERATION_BOUND, Record, integral_arithmetic

_DRAW_BATCH = 1024  # 32-bit words per getrandbits batch in _sampled_pairs
_coeffs = operator.attrgetter("coeffs")


class SpaceTimeMatrix:
    """n x n matrix of O_K entries of n integer coordinates; LengthMismatch otherwise."""

    __slots__ = ("order", "entries")

    def __init__(self, order: NaturalOrder, entries):
        self.order = order
        self.entries = tuple(tuple(tuple(map(operator.index, e)) for e in row) for row in entries)
        n = order.n
        if {len(self.entries), *map(len, self.entries), *map(len, chain(*self.entries))} != {n}:
            raise LengthMismatch(f"expected {n} x {n} entries of {n} coordinates")

    def __add__(self, other):
        return self._entrywise(other, 1)

    def __sub__(self, other):
        return self._entrywise(other, -1)

    def _entrywise(self, other, sign):
        self._check(other)
        return SpaceTimeMatrix(
            self.order,
            [
                [vector_sum((a, [sign * v for v in b]), self.order.n) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __mul__(self, other):
        self._check(other)
        order, n = self.order, self.order.n
        a, b = self.entries, other.entries

        def entry(r, s):
            return vector_sum([order.ok_mul(a[r][t], b[t][s]) for t in range(n)], n)

        return SpaceTimeMatrix(order, [[entry(r, s) for s in range(n)] for r in range(n)])

    def _check(self, other):
        if not isinstance(other, SpaceTimeMatrix) or other.order != self.order:
            raise ValueError("matrices belong to different orders")

    def __eq__(self, other):
        return (
            isinstance(other, SpaceTimeMatrix)
            and self.order == other.order
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def det(self):
        """Determinant in O_K by fraction-free (Bareiss) elimination: O(n^3)
        ok_mul products, none with a zero factor.  Step k sets each entry
        (i, j) past the pivot d_k to (a_ij d_k - a_ik a_kj) / d_(k-1), a minor,
        so the division is exact: v c / N, (N, c) = norm_cofactor(d_(k-1)).
        A zero pivot swaps in the first lower row nonzero in its column, or
        the determinant is 0."""
        order = self.order
        n, mul, zero = order.n, order.ok_mul, (0,) * order.n
        a = [list(row) for row in self.entries]
        sign = 1
        for k in range(n - 1):
            if not any(a[k][k]):
                swap = next((i for i in range(k + 1, n) if any(a[i][k])), None)
                if swap is None:
                    return zero
                a[k], a[swap], sign = a[swap], a[k], -sign
            if k:
                norm, cofactor = order._core.norm_cofactor(a[k - 1][k - 1])
                if not norm:
                    raise InvalidSpec("a pivot has norm 0: min_poly is reducible")
            top = a[k]
            for row in a[k + 1 :]:
                left = row[k] if any(row[k]) else None
                for j in range(k + 1, n):
                    v = mul(row[j], top[k]) if any(row[j]) else zero
                    if left and any(top[j]):
                        v = tuple(map(operator.sub, v, mul(left, top[j])))
                    if k and any(v):
                        v = tuple(x // norm for x in mul(v, cofactor))
                    row[j] = v
        return tuple(sign * v for v in a[n - 1][n - 1])

    def norm_det(self) -> int:
        """The rational norm of the determinant, nrd ** n.

        The centre of the algebra is Q, so det M(a) = nrd(a) is an integer
        and its field norm is its n-th power.  Raises InvalidSpec if the
        determinant has a nonzero non-constant coordinate.
        """
        nrd, *rest = self.det()
        if any(rest):
            raise InvalidSpec("the determinant has a nonzero non-constant coordinate")
        return nrd**self.order.n

    def to_lists(self):
        return [[list(e) for e in row] for row in self.entries]

    def __repr__(self):
        return f"SpaceTimeMatrix({self.to_lists()})"


def _cofactor_det(rows, mul):
    """Determinant of a square matrix of forms by expansion along the first
    row: the reduced norm form G of _flat_form, from linear forms.

    A form is {sorted flat-variable indices: nonzero O_K vector}, {} when
    zero; a monomial whose coefficients cancel is dropped.  Coefficients
    multiply through mul(a, b), the core's O_K product, which is bilinear, so
    a negated cofactor negates its entry's coefficients.  The product of
    forms f and g counts len(f) * len(g) products; TooLarge past
    ENUMERATION_BOUND.
    """
    made = 0

    def expand(rows):
        nonlocal made
        if len(rows) == 1:
            return rows[0][0]
        out = {}
        for j, top in enumerate(rows[0]):
            if top:
                minor = expand([r[:j] + r[j + 1 :] for r in rows[1:]])
                made += len(top) * len(minor)
                if made > ENUMERATION_BOUND:
                    raise TooLarge(f"cofactor expansion exceeds {ENUMERATION_BOUND} products")
                for mf, a in top.items():
                    a = [-v for v in a] if j % 2 else a
                    for mg, b in minor.items():
                        mono, vec = tuple(sorted(mf + mg)), mul(a, b)
                        acc = out.get(mono)
                        out[mono] = vec if acc is None else [*map(operator.add, acc, vec)]
        return {mono: vec for mono, vec in out.items() if any(vec)}

    return expand(rows)


def matrix_rep(a: OrderElement) -> SpaceTimeMatrix:
    """The codeword matrix M(a); requires the integer constant u of the order."""
    order, n = a.order, a.order.n

    def entry(r, c):  # sigma^c(a_{(r - c) mod n}), times u above the diagonal
        vec = order.ok_sigma(a.rows[(r - c) % n], c)
        return vec if r >= c else tuple(order.u * v for v in vec)

    m = object.__new__(SpaceTimeMatrix)  # tuples of ints built here: not checked again
    m.order, m.entries = order, tuple(tuple(entry(r, c) for c in range(n)) for r in range(n))
    return m


def right_multiplication_det(a: OrderElement) -> int:
    """Determinant of right multiplication by a on the full order, over Z, as
    det_int of the images of the basis taken as rows (det A^T = det A);
    independent of matrix_rep, it cross-checks norm_det values."""
    order = a.order
    N = order.n * order.n
    return det_int([(order.basis_element(i) * a).flatten() for i in range(N)])


def exhaustive_sweep(
    code: ConstacyclicCode, coeff_bound: int, enumeration_bound: int = ENUMERATION_BOUND
) -> bool:
    """Whether min_det_sample sweeps exhaustively: true when the
    ((4 * coeff_bound + 1)^(n^2) - 1) / 2 differences the sweep evaluates,
    each nonzero point of the doubled box once up to sign, fit in
    enumeration_bound."""
    n = code.ring.n
    return ((4 * coeff_bound + 1) ** (n * n) - 1) // 2 <= enumeration_bound


def _sampled_pairs(rng, coeff_bound, N):
    """Endless pairs (z1, z2) of box points shifted into [0, 2b], z1 drawn first.

    randint(-b, b) is -b + randrange(w), w = 2b + 1, and the shift cancels.
    randrange(w) draws getrandbits(k), k = w.bit_length(), until a value below
    w comes up: for k <= 32, the top k bits of the next 32-bit word.  So for
    k <= 8, one bytes.translate of the top bytes of getrandbits(32 *
    _DRAW_BATCH)'s words, first word lowest, shifts them to k bits and drops
    values >= w; wider boxes draw word by word.  A pair is the next 2N values.
    """
    width = 2 * coeff_bound + 1
    bits = width.bit_length()

    def batches():
        if bits > 8:
            while True:
                yield [v for v in map(rng.getrandbits, repeat(bits, _DRAW_BATCH)) if v < width]
        table = bytes(b >> (8 - bits) for b in range(256))
        rejected = bytes(b for b in range(256) if table[b] >= width)
        while True:
            words = rng.getrandbits(32 * _DRAW_BATCH).to_bytes(4 * _DRAW_BATCH, "little")
            yield words[3::4].translate(table, rejected)

    points = zip(*[chain.from_iterable(batches())] * N)
    return zip(points, points)


@lru_cache(maxsize=32)
def _flat_form(min_poly, sigma_image, u):
    """The terms of the integer form G(x) = nrd(x) in the order's flat
    coordinates x0, x1, ...: its (sorted variable indices, coefficient)
    pairs, which the exhaustive sweep composes with the basis B and the
    sampled sweep compiles as Horner source read at x = B d (_basis_map).

    M(x) is matrix_rep of a general x, x_(k n + j) the coefficient of
    theta^j e^k: entry (r, c) is the linear form sum_j x_((r - c) mod n * n
    + j) sigma^c(theta^j), times u when r < c, whose coefficients the
    field's shared core (number_ring.integral_arithmetic) holds, and
    _cofactor_det expands it with the core's product.  So G has degree n in
    the n^2 coordinates and is sparse: 4 monomials on Z[i] and 57 on the
    cubic.  G does not depend on p, so it is kept per algebra,
    AlgebraSpec.algebra, the key of invariants.division_proven too, for the
    32 most recently used algebras.  It is checked rational, InvalidSpec
    otherwise (G o B is rational exactly when G is, B being invertible over
    Q); TooLarge while its expansion passes ENUMERATION_BOUND products, so
    only a form that fitted the bound is cached.
    """
    core = integral_arithmetic(min_poly, sigma_image)
    n, tables = core.n, core._sigma_tables

    def entry(r, c):  # sigma^c(theta^j) are never 0, so every term is kept
        start, scale = (r - c) % n * n, 1 if r >= c else u
        return {(start + j,): tuple(scale * v for v in vec) for j, vec in enumerate(tables[c])}

    form = _cofactor_det([[entry(r, c) for c in range(n)] for r in range(n)], core.mul)
    if any(any(rest) for _, *rest in form.values()):
        raise InvalidSpec("the reduced norm form has a nonzero non-constant coordinate")
    return tuple((mono, vec[0]) for mono, vec in form.items())


def _basis_map(columns, indent):
    """Source lines x_i = sum_j columns[j][i] * d_j, over the nonzero entries."""
    d = [f"d{j}" for j in range(len(columns))]
    rows = enumerate(zip(*columns))
    return "".join(f"{indent}x{i} = {linear_source(zip(row, d))}\n" for i, row in rows)


@lru_cache(maxsize=32)
def _sweep(columns, terms):
    """The compiled sweep(pairs, best, left, stop) -> (least |F(d)| below best,
    first such d), each d read as z1 - z2 of sampled pairs (z1, z2), skipping
    equal pairs and stopping after `left` others, or at the first value <=
    stop.  Compiled sweeps are kept in a bounded cache keyed by both
    arguments, columns as tuples and terms as _flat_form's."""
    a, b, d = ([f"{v}{j}" for j in range(len(columns))] for v in "abd")
    x = [f"x{i}" for i in range(len(columns[0]))]
    body = f"    for {tuple_source(a)}, {tuple_source(b)} in pairs:\n"
    body += "".join(f"        {dj} = {aj} - {bj}\n" for aj, bj, dj in zip(a, b, d))
    body += f"        if not ({' or '.join(d)}):\n            continue\n"
    body += f"{_basis_map(columns, ' ' * 8)}        v = abs({horner(dict(terms), x)})\n"
    body += f"        if v < best:\n            best, best_d = v, {tuple_source(d)}\n"
    body += "            if v <= stop:\n                break\n"
    body += "        left -= 1\n        if not left:\n            break\n    return best, best_d\n"
    return compile_function(f"def sweep(pairs, best, left, stop):\n{body}", "sweep")


def _certified_stop(code):
    """p^(n-k) when invariants.division_proven says the code's algebra is a
    division algebra, else 0.  There every nonzero lattice point has
    |nrd|^n = |norm_det| >= p^(n(n-k)), the lattice's index in the order,
    so no value |G(B d)| of a sweep is below p^(n-k), and the first one
    <= it is the first minimiser."""
    from . import invariants  # only min_det_sample reads it; every CLI run imports spacetime

    spec = code.ring.spec
    return spec.p ** (spec.n - code.k) if invariants.division_proven(*spec.algebra) else 0


def min_det_sample(
    code: ConstacyclicCode,
    coeff_bound: int,
    *,
    seed: int = 0,
    samples: int = 2000,
    enumeration_bound: int = ENUMERATION_BOUND,
    exhaustive: bool | None = None,
) -> int:
    """Minimum |norm(det(M(a) - M(a')))| over distinct pairs of lattice points.

    Points have coordinates in [-coeff_bound, coeff_bound] in the code's
    lattice basis; a difference d gives |G(B d)|^n, G from _flat_form.
    The mode is `exhaustive`, or exhaustive_sweep(...) when that is None.
    An exhaustive query visits every nonzero difference of the doubled box
    once up to sign, in lexicographic order (boxsweep.half_box_sweep), so its
    value is exact for the box; TooLarge when they do not fit
    enumeration_bound.  A sampled query draws `samples` differences of random
    distinct box points with `seed`, so its value is an upper bound.  The
    first minimizing difference, read into the order from the basis rows, is
    re-checked through norm_det (RuntimeError if they disagree); zero exhibits
    a rank-deficient difference.  Either sweep ends early at the first value
    that meets _certified_stop, p^(n-k) in a proven division algebra, with
    the value and difference a full sweep returns.  Raises ValueError when
    coeff_bound < 1, and in sampled mode ValueError when samples < 1 and
    TooLarge when samples > ENUMERATION_BOUND.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")
    if exhaustive is None:
        exhaustive = exhaustive_sweep(code, coeff_bound, enumeration_bound)
    elif exhaustive and not exhaustive_sweep(code, coeff_bound, enumeration_bound):
        raise TooLarge(f"coefficient box {coeff_bound} exceeds bound {enumeration_bound}")
    if not exhaustive and samples < 1:
        raise ValueError("samples must be at least 1 when sampling")
    if not exhaustive and samples > ENUMERATION_BOUND:
        raise TooLarge(f"{samples} samples exceed bound {ENUMERATION_BOUND}")
    spec = code.ring.spec
    basis = construction_a_basis(code).basis
    cols = tuple(zip(*basis))
    order = NaturalOrder(spec)  # per call: the mindet-sweep trace requires a build
    terms = _flat_form(*spec.algebra)
    stop = _certified_stop(code)
    if exhaustive:
        from . import boxsweep  # only exhaustive sweeps need it

        best, best_d = boxsweep.half_box_sweep(cols, terms, coeff_bound)(stop)
    else:
        pairs = _sampled_pairs(random.Random(seed), coeff_bound, len(cols))
        best, best_d = _sweep(cols, terms)(pairs, inf, samples, stop)
    best **= order.n
    flat = [sum(map(operator.mul, row, best_d)) for row in basis]
    witness = OrderElement(order, tuple(zip(*[iter(flat)] * order.n)))
    if abs(matrix_rep(witness).norm_det()) != best:
        raise RuntimeError(f"reduced norm form disagrees with norm_det at difference {best_d}")
    return best


class CosetEncoding(Record):
    """A lattice point split as information codeword plus offset in p*order."""

    __slots__ = _fields = ("codeword", "offset", "point")

    def __init__(self, codeword, offset, point):
        self.codeword, self.offset, self.point = codeword, offset, point

    def to_dict(self):
        return {
            "codeword": [c.to_list() for c in self.codeword],
            "offset": self.offset.to_lists(),
            "point": self.point.to_lists(),
        }


def coset_encode(code: ConstacyclicCode, msg, offset_coords) -> CosetEncoding:
    """Map (information, randomness) to the lattice point lift(encode(msg)) +
    p * offset, with offset given by integer coordinates in the order basis."""
    order, n, p = natural_order(code.ring.spec), code.ring.n, code.ring.p
    if len(offset_coords) != n * n:
        raise LengthMismatch(f"expected {n * n} offset coordinates")
    codeword = code.encode(msg)
    rows, point = coset_kernels(n)[0](p, map(_coeffs, codeword), offset_coords)
    return CosetEncoding(codeword, OrderElement(order, rows), OrderElement(order, point))


def coset_decode_label(code: ConstacyclicCode, point: OrderElement):
    """Split a lattice point into (point mod p, point - point mod p) by
    lattice.split_element.  Raises ValueError for a point of another spec's
    order, LengthMismatch for rows that are not n x n, NotInLattice when
    point mod p is not a codeword."""
    codeword, offset = split_element(point, code.ring)
    if not code.is_codeword(codeword):
        raise NotInLattice("point does not reduce to a codeword")
    return codeword, OrderElement(point.order, offset)


def sample_offsets(seed: int, count: int, box: int, dims: int):
    """Deterministic uniform integer vectors in [-box, box]^dims."""
    rng = random.Random(seed)
    return [[rng.randint(-box, box) for _ in range(dims)] for _ in range(count)]
