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
algebra det M(a - a') = det(M(a) - M(a')) never vanishes for a != a'.  The
reduced norm, a form in the order's flat coordinates (_flat_form), is
expanded once per algebra, and one sweep that evaluates it inline over
differences of box points is compiled per (basis, form, mode) and kept in a
bounded cache; it is fed at C level by itertools or by getrandbits bytes that
are randint's draws.  It is a sample, never a certificate.  Both cofactor
expansions, of det M and of the form, raise TooLarge past ENUMERATION_BOUND
products.  Matrix entries, cofactor terms and lattice points all add through
lattice.vector_sum.

Coset encoding splits a lattice point into an information codeword plus a
random offset in p times the order (the wiretap-coding primitive), adding or
reducing integer rows directly; encoded points share one cached order per spec.
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache
from itertools import chain, islice, product, repeat
from math import factorial, inf

from .codes import ConstacyclicCode
from .errors import InvalidSpec, LengthMismatch, NotInLattice, TooLarge
from .lattice import (
    NaturalOrder,
    OrderElement,
    construction_a_basis,
    det_int,
    reduce_element,
    vector_sum,
)
from .number_ring import (
    ENUMERATION_BOUND,
    Record,
    compile_function,
    integral_arithmetic,
    linear_source,
)

_DRAW_BATCH = 1024  # 32-bit words per getrandbits batch in _sampled_pairs
_FLAT_FORMS = {}  # (min_poly, sigma_image, u) -> (source of G, products made)


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
        """Determinant in O_K by cofactor expansion (exact), bounded in products."""
        order = self.order

        def signed_sum(terms):
            return vector_sum([[-v for v in t] if odd else t for odd, t in terms], order.n)

        return _cofactor_det(self.entries, any, order.ok_mul, signed_sum, lambda a, b: 1)[0]

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
    Returns (determinant, products made).
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

    return expand(rows), made


def matrix_rep(a: OrderElement) -> SpaceTimeMatrix:
    """The codeword matrix M(a); requires the integer constant u of the order."""
    order, n = a.order, a.order.n

    def entry(r, c):  # sigma^c(a_{(r - c) mod n}), times u above the diagonal
        vec = order.ok_sigma(a.rows[(r - c) % n], c)
        return vec if r >= c else tuple(order.u * v for v in vec)

    return SpaceTimeMatrix(order, [[entry(r, c) for c in range(n)] for r in range(n)])


def right_multiplication_det(a: OrderElement) -> int:
    """Determinant of right multiplication by a on the full order, over Z;
    independent of matrix_rep, it cross-checks norm_det values."""
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


def _flat_form(order):
    """Source of the integer form G(x) = nrd(x) in the order's flat coordinates
    x0, x1, ..., grouped Horner-style; the sweep reads it at x = B d (_basis_map).

    M is additive, so G has degree n in the n^2 coordinates, and it is sparse
    since entry (r, c) of M(x) reads only the e^((r - c) mod n) coefficient of
    x: 4 monomials on Z[i] and 57 on the cubic.  G depends only on (min_poly,
    sigma_image, u); it is expanded once per algebra by the cofactor recursion
    of SpaceTimeMatrix.det and checked rational, InvalidSpec otherwise (G o B
    is rational exactly when G is, B being invertible over Q); TooLarge
    whenever its expansion made more than ENUMERATION_BOUND products.
    """
    key = (order.min_poly, order.spec.sigma_image, order.u)
    if key not in _FLAT_FORMS:
        core, n = integral_arithmetic(order.min_poly, order.spec.sigma_image), order.n
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

        form, made = _cofactor_det(rows, bool, mul, signed_sum, lambda f, g: len(f) * len(g))
        if any(any(rest) for _, *rest in form.values()):
            raise InvalidSpec("the reduced norm form has a nonzero non-constant coordinate")
        terms = {mono: vec[0] for mono, vec in form.items() if vec[0]}
        _FLAT_FORMS[key] = (_horner_source(terms) or "0", made)
    source, made = _FLAT_FORMS[key]
    if made > ENUMERATION_BOUND:
        raise TooLarge(f"cofactor expansion exceeds {ENUMERATION_BOUND} products")
    return source


def _basis_map(columns, indent):
    """Source lines x_i = sum_j columns[j][i] * d_j, over the nonzero entries."""
    d = [f"d{j}" for j in range(len(columns))]
    rows = enumerate(zip(*columns))
    return "".join(f"{indent}x{i} = {linear_source(zip(row, d))}\n" for i, row in rows)


@lru_cache(maxsize=32)
def _sweep(columns, flat_form, sampled):
    """The compiled sweep(pairs, best, left) -> (least |F(d)| below best, first such d),
    each d read from the loop header, or as z1 - z2 of sampled pairs (z1, z2),
    skipping equal pairs and stopping after `left` others.  Compiled sweeps are
    kept in a bounded cache keyed by all three arguments, columns as tuples."""
    d = [f"d{j}" for j in range(len(columns))]
    ds = ", ".join(d) + ","
    head, diffs, tail = ds, "", ""
    if sampled:
        head = f"({ds.replace('d', 'a')}), ({ds.replace('d', 'b')})"
        diffs = "".join(f"        {x} = a{j} - b{j}\n" for j, x in enumerate(d))
        diffs += f"        if not ({' or '.join(d)}):\n            continue\n"
        tail = "        left -= 1\n        if not left:\n            break\n"
    body = f"{diffs}{_basis_map(columns, ' ' * 8)}        v = abs({flat_form})\n"
    body += f"        if v < best:\n            best, best_d = v, ({ds})\n"
    body += f"            if not v:\n                break\n{tail}    return best, best_d\n"
    source = f"def sweep(pairs, best, left):\n    for {head} in pairs:\n{body}"
    return compile_function(source, "sweep")


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
    When the differences fit in enumeration_bound (exhaustive_sweep) every
    nonzero one in the doubled box is visited once up to sign, otherwise
    `samples` differences of random distinct box points are drawn with `seed`.
    The minimizing difference is re-checked through norm_det (RuntimeError if
    they disagree); zero exhibits a rank-deficient difference.  Raises
    ValueError when coeff_bound < 1, and in sampled mode ValueError when
    samples < 1 and TooLarge when samples > ENUMERATION_BOUND.
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
    if not exhaustive and samples > ENUMERATION_BOUND:
        raise TooLarge(f"{samples} samples exceed bound {ENUMERATION_BOUND}")
    cols = tuple(zip(*construction_a_basis(code).basis))
    N = len(cols)
    order = NaturalOrder(code.ring.spec)
    sweep = _sweep(cols, _flat_form(order), not exhaustive)
    if exhaustive:
        span = range(-2 * coeff_bound, 2 * coeff_bound + 1)
        # product's order is lexicographic, so the d > 0 follow the middle, 0.
        pairs = islice(product(span, repeat=N), (len(span) ** N + 1) // 2, None)
    else:
        pairs = _sampled_pairs(random.Random(seed), coeff_bound, N)
    best, best_d = sweep(pairs, inf, samples)
    best **= order.n
    witness = order.from_flat(vector_sum([[z * v for v in col] for z, col in zip(best_d, cols)], N))
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


_order = lru_cache(maxsize=32)(NaturalOrder)  # coset_encode's one NaturalOrder per spec


def coset_encode(code: ConstacyclicCode, msg, offset_coords) -> CosetEncoding:
    """Map (information, randomness) to the lattice point lift(encode(msg)) +
    p * offset, with offset given by integer coordinates in the order basis."""
    order, n, p = _order(code.ring.spec), code.ring.n, code.ring.p
    if len(offset_coords) != n * n:
        raise LengthMismatch(f"expected {n * n} offset coordinates")
    codeword = code.encode(msg)
    flat = [operator.index(p * c) for c in offset_coords]
    rows = tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n))
    point = tuple(tuple(map(operator.add, c.coeffs, row)) for c, row in zip(codeword, rows))
    return CosetEncoding(codeword, OrderElement(order, rows), OrderElement(order, point))


def coset_decode_label(code: ConstacyclicCode, point: OrderElement):
    """Split a lattice point into (point mod p, point - point mod p).  Raises ValueError
    for a point of another spec's order, NotInLattice when point mod p is not a codeword."""
    codeword = reduce_element(point, code.ring)
    if not code.is_codeword(codeword):
        raise NotInLattice("point does not reduce to a codeword")
    offset = (tuple(map(operator.sub, row, c.coeffs)) for row, c in zip(point.rows, codeword))
    return codeword, OrderElement(point.order, tuple(offset))


def sample_offsets(seed: int, count: int, box: int, dims: int):
    """Deterministic uniform integer vectors in [-box, box]^dims."""
    rng = random.Random(seed)
    return [[rng.randint(-box, box) for _ in range(dims)] for _ in range(count)]
