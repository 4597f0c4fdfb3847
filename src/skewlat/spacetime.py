"""Matrix representations of order elements and coset encoding.

matrix_rep(a) is the classical n x n codeword matrix of a = sum a_i e^i over
O_K: column c holds the coordinates of e^c * a, so entry (r, c) is
sigma^c(a_{r-c}) on and below the diagonal and u * sigma^c(a_{n-c+r}) above
it.  The map is additive and injective and reverses products,
matrix_rep(a*b) = matrix_rep(b) * matrix_rep(a), because column c tracks
right multiplication acting on e^c.

The centre of the algebra is Q, so det M(a) = nrd(a), the reduced norm, is
a rational integer and norm_det is nrd ** n.

min_det_sample probes the space-time design criterion: over a division
algebra the determinant of M(a) - M(a') never vanishes for a != a'.  Since
M is additive, M(a) - M(a') = M(a - a') is linear in the coordinates of
the difference, so nrd is an integer form of degree n.  The probe expands
that form once per call in the order's flat coordinates, where it is sparse
(reduced_norm_form), checks it rational once, and compiles it once into a
nested integer function that first maps the difference's lattice
coordinates to flat ones through the lattice basis.  It evaluates that
function at each nonzero difference once up to sign, or at differences of
box points sampled from a batched getrandbits stream equal to randrange's,
and re-checks the minimizing difference with matrix_rep and norm_det.  The
probe is a sample, never a certificate.  Both cofactor expansions, of det M
and of the form, raise TooLarge past ENUMERATION_BOUND products.
Matrix entries, cofactor terms and lattice points all add through
lattice.vector_sum.

Coset encoding splits a lattice point into an information codeword plus a
random offset in p times the order, the wiretap-coding primitive.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import islice, product, repeat
from math import factorial

from .codes import ConstacyclicCode
from .errors import InvalidSpec, LengthMismatch, NotInLattice, TooLarge
from .lattice import (
    NaturalOrder,
    OrderElement,
    construction_a_basis,
    det_int,
    lift_codeword,
    reduce_element,
    vector_sum,
)
from .number_ring import ENUMERATION_BOUND, compile_function, integral_arithmetic, linear_source

_DRAW_BATCH = 1024  # getrandbits draws per batch in _sampled_differences


class SpaceTimeMatrix:
    """n x n matrix with O_K entries, each an integer coordinate vector."""

    __slots__ = ("order", "entries")

    def __init__(self, order: NaturalOrder, entries):
        self.order = order
        self.entries = tuple(tuple(tuple(map(operator.index, e)) for e in row) for row in entries)

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
        order = self.order
        n = order.n
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
        """Determinant in O_K by cofactor expansion (exact), bounded in products."""
        order = self.order

        def signed_sum(terms):
            return vector_sum([[-v for v in t] if odd else t for odd, t in terms], order.n)

        return _cofactor_det(self.entries, any, order.ok_mul, signed_sum, lambda a, b: 1)

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


def _cofactor_det(rows, nonzero, mul, signed_sum, cost):
    """Determinant of a square matrix by expansion along the first row.

    Entries for which nonzero() is false are skipped, products go through
    mul(entry, minor) and each row's terms combine through
    signed_sum([(odd, term), ...]), where odd marks a negated term.
    Each mul counts cost(entry, minor) products; TooLarge past ENUMERATION_BOUND.
    """
    made = 0

    def expand(rows):
        nonlocal made
        if len(rows) == 1:
            return rows[0][0]
        terms = []
        for j, top in enumerate(rows[0]):
            if nonzero(top):
                minor = expand([r[:j] + r[j + 1 :] for r in rows[1:]])
                made += cost(top, minor)
                if made > ENUMERATION_BOUND:
                    raise TooLarge(f"cofactor expansion exceeds {ENUMERATION_BOUND} products")
                terms.append((j % 2, mul(top, minor)))
        return signed_sum(terms)

    return expand(rows)


def matrix_rep(a: OrderElement) -> SpaceTimeMatrix:
    """The codeword matrix M(a); requires the integer constant u of the order."""
    order = a.order
    n = order.n
    u = order.u
    entries = []
    for r in range(n):
        row = []
        for c in range(n):
            if r >= c:
                vec = order.ok_sigma(a.rows[r - c], c)
            else:
                vec = tuple(u * v for v in order.ok_sigma(a.rows[n - c + r], c))
            row.append(vec)
        entries.append(row)
    return SpaceTimeMatrix(order, entries)


def right_multiplication_det(a: OrderElement) -> int:
    """Determinant of right multiplication by a on the full order, over Z.

    Independent of matrix_rep; used to cross-check norm_det values.
    """
    order = a.order
    N = order.n * order.n
    cols = [(order.basis_element(i) * a).flatten() for i in range(N)]
    return det_int([[cols[j][i] for j in range(N)] for i in range(N)])


def exhaustive_sweep(
    code: ConstacyclicCode, coeff_bound: int, enumeration_bound: int = ENUMERATION_BOUND
) -> bool:
    """Whether min_det_sample sweeps exhaustively: true when the
    ((4 * coeff_bound + 1)^(n^2) - 1) / 2 differences the sweep evaluates,
    each nonzero point of the doubled box once up to sign, fit in
    enumeration_bound.  Each difference weighs n!/2, the cofactor terms of
    an n x n determinant relative to n = 2, so every quadratic decision
    counts differences and a cubic difference counts three times.  The
    weight is kept as the decision rule so that modes stay stable; it no
    longer measures the cost of a difference, which is one evaluation of
    the reduced norm form."""
    n = code.ring.n
    differences = ((4 * coeff_bound + 1) ** (n * n) - 1) // 2
    return differences * factorial(n) // 2 <= enumeration_bound


def _sampled_differences(rng, coeff_bound, N):
    """Endless z1 - z2 for random distinct box points z1, z2, z1 drawn first.

    rng.randint(-b, b) is -b + rng.randrange(2b + 1), the same call on the
    same stream, and the common shift -b cancels in z1 - z2 and in z1 != z2,
    so the points are drawn shifted into [0, 2b] and the differences are
    those of randint-drawn pairs.  randrange(w) is CPython's
    _randbelow_with_getrandbits(w): getrandbits(w.bit_length()) until a value
    below w comes up.  So the points are read off one stream of such draws,
    made _DRAW_BATCH at a time through getrandbits, with the values >= w
    dropped: each pair is the next 2N accepted values, z1 then z2, exactly
    as randrange would give them.
    """
    width = 2 * coeff_bound + 1
    draw = rng.getrandbits
    bits = width.bit_length()
    carry = []
    while True:
        accepted = carry + [v for v in map(draw, repeat(bits, _DRAW_BATCH)) if v < width]
        used = len(accepted) - len(accepted) % (2 * N)
        carry = accepted[used:]
        points = zip(*[iter(accepted[:used])] * N)
        for z1, z2 in zip(points, points):
            if z1 != z2:
                yield tuple(map(operator.sub, z1, z2))


def _horner_source(form):
    """Python source of a form, given as {sorted variable indices: int}.

    Monomials are grouped by their leading variable, recursively, so the
    source reads sum_i x_i * (sum_{j >= i} x_j * (...)): nesting is as deep
    as the degree and each + chain has at most one term per variable; a
    factor of 1 is left out.
    """
    if () in form:
        return repr(form[()])
    groups = {}
    for mono, coeff in form.items():
        groups.setdefault(mono[0], {})[mono[1:]] = coeff
    return "+".join(
        f"x{i}" if groups[i] == {(): 1} else f"x{i}*({_horner_source(groups[i])})"
        for i in sorted(groups)
    )


def reduced_norm_form(order: NaturalOrder, columns):
    """The integer form F with F(d) = nrd(sum_j d_j columns[j]), as a function of d.

    columns are the flat coordinate vectors of a basis of a full-rank
    sublattice of the order, and B is the basis map x = B d, x_i =
    sum_j columns[j][i] d_j.  M is additive, so M(x) = sum_i x_i M(e_i) over
    the order's basis elements e_i: its entries are linear forms in the n^2
    flat coordinates x with O_K coefficient vectors, and nrd is a form G of
    degree n in x.  Entry (r, c) of M(x) reads only the n coordinates of the
    e^((r - c) mod n) coefficient of x, so G is sparse: 4 monomials on Z[i]
    and 57 on the cubic, where F = G o B, dense in d, has up to 10 for n = 2
    and 165 for n = 3.  G is expanded once, by the cofactor recursion of
    SpaceTimeMatrix.det over IntegralArithmetic.mul, and checked rational
    once: InvalidSpec if any coefficient has a nonzero non-constant
    coordinate.  B is invertible over Q, so F is rational exactly when G is.
    The compiled function of d first computes x = B d, each x_i over the
    nonzero entries of its row of B, then G grouped Horner-style by
    leading variable, G(x) = sum_i x_i * (sum_{j >= i} x_j * (...)), over
    integer literals, which shares each partial product among the monomials
    that extend it.
    """
    core = integral_arithmetic(order.min_poly, order.spec.sigma_image)
    n = order.n
    mats = [matrix_rep(order.basis_element(i)).entries for i in range(n * n)]
    rows = [
        [{(i,): m[r][c] for i, m in enumerate(mats) if any(m[r][c])} for c in range(n)]
        for r in range(n)
    ]

    def add_to(form, mono, vec):
        acc = form.get(mono)
        form[mono] = vec if acc is None else [a + b for a, b in zip(acc, vec)]

    def mul(f, g):
        out = {}
        for mf, a in f.items():
            for mg, b in g.items():
                add_to(out, tuple(sorted(mf + mg)), core.mul(a, b))
        return out

    def signed_sum(terms):
        out = {}
        for odd, term in terms:
            for mono, vec in term.items():
                add_to(out, mono, [-v for v in vec] if odd else vec)
        return out

    form = _cofactor_det(rows, bool, mul, signed_sum, lambda f, g: len(f) * len(g))
    if any(any(rest) for _, *rest in form.values()):
        raise InvalidSpec("the reduced norm form has a nonzero non-constant coordinate")
    terms = {mono: vec[0] for mono, vec in form.items() if vec[0]}
    names = "".join(f"d{j}, " for j in range(len(columns)))
    prologue = "".join(
        f"    x{i} = {linear_source((col[i], f'd{j}') for j, col in enumerate(columns))}\n"
        for i in range(n * n)
    )
    source = f"def form(d):\n    {names}= d\n{prologue}    return {_horner_source(terms) or 0}\n"
    return compile_function(source, "form")


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
    lattice basis.  M(a) - M(a') = M(a - a') and |norm det| = |nrd|^n, so
    each difference d of basis coordinates costs one evaluation of the
    integer form reduced_norm_form, built, checked rational and compiled once
    per call.  When those differences, each weighted by n!/2, fit in
    enumeration_bound (exhaustive_sweep) every nonzero difference in the
    doubled box is visited once up to sign, otherwise `samples` differences
    of random distinct box points are drawn from a generator seeded with
    `seed`.  The minimizing difference is re-checked with matrix_rep and
    norm_det; a disagreement raises RuntimeError.  Strictly positive output
    is expected for division configurations; zero exhibits a concrete
    rank-deficient difference.
    Raises ValueError when coeff_bound < 1, or when samples < 1 in sampled mode.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")
    fits = exhaustive_sweep(code, coeff_bound, enumeration_bound)
    if exhaustive is None:
        exhaustive = fits
    elif exhaustive and not fits:
        raise TooLarge(f"coefficient box {coeff_bound} exceeds bound {enumeration_bound}")
    if not exhaustive and samples < 1:
        raise ValueError("samples must be at least 1 when sampling")
    basis = construction_a_basis(code).basis
    cols = list(zip(*basis))
    N = len(cols)
    order = NaturalOrder(code.ring.spec)
    nrd = reduced_norm_form(order, cols)

    if exhaustive:
        span = range(-2 * coeff_bound, 2 * coeff_bound + 1)
        zero = (0,) * N
        diffs = (d for d in product(span, repeat=N) if d > zero)
    else:
        diffs = islice(_sampled_differences(random.Random(seed), coeff_bound, N), samples)
    best = best_d = None
    for d in diffs:
        value = abs(nrd(d))
        if best is None or value < best:
            best, best_d = value, d
            if best == 0:
                break
    best **= order.n
    witness = order.from_flat(vector_sum([[z * v for v in col] for z, col in zip(best_d, cols)], N))
    if abs(matrix_rep(witness).norm_det()) != best:
        raise RuntimeError(f"reduced norm form disagrees with norm_det at difference {best_d}")
    return best


@dataclass
class CosetEncoding:
    """A lattice point split as information codeword plus offset in p*order."""

    codeword: tuple
    offset: OrderElement
    point: OrderElement

    def to_dict(self):
        return {
            "codeword": [c.to_list() for c in self.codeword],
            "offset": self.offset.to_lists(),
            "point": self.point.to_lists(),
        }


def coset_encode(code: ConstacyclicCode, msg, offset_coords) -> CosetEncoding:
    """Map (information, randomness) to the lattice point lift(encode(msg)) +
    p * offset, with offset given by integer coordinates in the order basis."""
    order = NaturalOrder(code.ring.spec)
    N = order.n * order.n
    if len(offset_coords) != N:
        raise LengthMismatch(f"expected {N} offset coordinates")
    codeword = code.encode(msg)
    offset = order.from_flat([code.ring.p * c for c in offset_coords])
    point = lift_codeword(order, codeword) + offset
    return CosetEncoding(codeword=codeword, offset=offset, point=point)


def coset_decode_label(code: ConstacyclicCode, point: OrderElement):
    """Recover (point mod p, p*floor(point/p)) from a lattice point's coordinates.
    Raises NotInLattice when the reduction is not a codeword."""
    codeword = reduce_element(point, code.ring)
    if not code.is_codeword(codeword):
        raise NotInLattice("point does not reduce to a codeword")
    p = code.ring.p
    offset = OrderElement(point.order, tuple(tuple(v - v % p for v in row) for row in point.rows))
    return codeword, offset


def sample_offsets(seed: int, count: int, box: int, dims: int):
    """Deterministic uniform integer vectors in [-box, box]^dims."""
    rng = random.Random(seed)
    return [[rng.randint(-box, box) for _ in range(dims)] for _ in range(count)]
