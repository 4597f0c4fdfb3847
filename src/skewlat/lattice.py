"""Integer lattices from codes: the Construction A lift and its geometry.

The natural order is O_K + O_K e + ... + O_K e^(n-1) with e^n = u and
e*t = sigma(t)*e.  An OrderElement stores an n x n integer matrix whose row i
holds the coordinates of the O_K component of e^i in powers of the field
generator.  Flattened row-major, that gives coordinates in the Z-basis
{theta^j e^i} of the order, N = n^2 of them, ordered 1, theta, ...,
theta^(n-1), e, theta e, ...  Arithmetic in O_K goes through the shared
number_ring.IntegralArithmetic of the spec, the same instance QuotientRing
reduces modulo p, so building a NaturalOrder is a cache lookup.  Coordinate
vectors of equal length, O_K rows or flat points, add through vector_sum.

Lifting a codeword takes its canonical representatives in [0, p) as integer
coordinates; reducing an order element mods every coordinate by p.  The
lattice attached to a code, lift(C) + pZ^N, contains pZ^N, so it depends only
on the F_p row space of the code's cached generator matrix: the reduced row
echelon rows of that space (number_ring.echelon_mod_p), with p times the
unit vectors of the free coordinates, are already its Hermite Normal Form.

HNF convention: column style, lower triangular, positive diagonal, entries to
the left of each pivot reduced into [0, pivot).  That canonical form makes
lattice equality a plain matrix comparison.  All arithmetic is arbitrary
precision; Gram determinants overflow machine words even at small sizes.

The trace form used for Gram matrices is
    B(sum a_i e^i, sum b_i e^i) = sum_i w^i * Tr(a_i * conj(b_i))
with conj = sigma for imaginary quadratic fields ("complex" mode), identity
for totally real ones, and w an optional positive e-block weight (default 1).
Its matrix T on the flat basis is built once per (spec, w) and cached, and
every Gram matrix is read off it as B^T T B.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import prod

from . import intpoly
from .codes import ConstacyclicCode, brute_force_dual
from .errors import IndefiniteForm, InvalidSpec, LengthMismatch
from .number_ring import AlgebraSpec, QuotientRing, Record, echelon_mod_p, integral_arithmetic


class NaturalOrder:
    """Exact arithmetic in the order, over Z (no reduction modulo p)."""

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.n = spec.n
        self.p = spec.p
        self.u = spec.u
        self.min_poly = spec.min_poly
        self._core = integral_arithmetic(spec.min_poly, spec.sigma_image)
        self.trace_sums = self._core.trace_sums

    # -- O_K coefficient vectors (length n integer tuples) ---------------

    def ok_mul(self, a, b):
        return tuple(self._core.mul(a, b))

    def ok_sigma(self, vec, power=1):
        return tuple(self._core.sigma(vec, power))

    def ok_trace(self, vec) -> int:
        return sum(c * t for c, t in zip(vec, self.trace_sums))

    def ok_conj(self, vec):
        if self.spec.conjugation_mode == "complex":
            return self.ok_sigma(vec, 1)
        return tuple(vec)

    def ok_norm(self, vec) -> int:
        """Field norm N(vec) = vec*sigma(vec)...sigma^(n-1)(vec), an integer."""
        return self._core.norm_cofactor(vec)[0]

    # -- order elements ---------------------------------------------------

    def element(self, rows) -> "OrderElement":
        if len(rows) != self.n:
            raise LengthMismatch(f"expected {self.n} rows")
        return OrderElement(self, tuple(tuple(self._core.reduce(row)) for row in rows))

    @property
    def zero(self):
        return self.element([()] * self.n)

    @property
    def one(self):
        return self.basis_element(0)

    def basis_element(self, flat_index) -> "OrderElement":
        vec = [0] * (self.n * self.n)
        vec[flat_index] = 1
        return self.from_flat(vec)

    def from_flat(self, vec) -> "OrderElement":
        n = self.n
        if len(vec) != n * n:
            raise LengthMismatch(f"expected {n * n} coordinates")
        return self.element([vec[i * n : (i + 1) * n] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, NaturalOrder) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"NaturalOrder(m={list(self.min_poly)}, u={self.u})"


class OrderElement:
    """An element sum_i a_i e^i of the order, rows holding the a_i coordinates."""

    __slots__ = ("order", "rows")

    def __init__(self, order: NaturalOrder, rows):
        self.order = order
        self.rows = rows

    def _coerce(self, other):
        if isinstance(other, OrderElement):
            if other.order is self.order or other.order == self.order:
                return other
            raise ValueError("elements belong to different orders")
        if isinstance(other, int):
            return self.order.one * other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        pairs = zip(self.rows, other.rows)
        return OrderElement(self.order, tuple(vector_sum(pair, self.order.n) for pair in pairs))

    __radd__ = __add__

    def __neg__(self):
        return OrderElement(self.order, tuple(tuple(-a for a in row) for row in self.rows))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, int):
            return OrderElement(
                self.order, tuple(tuple(other * a for a in row) for row in self.rows)
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        order = self.order
        n = order.n
        products = [[] for _ in range(n)]  # products[t] lands on e^t
        for i, a_i in enumerate(self.rows):
            if not any(a_i):
                continue
            for j, b_j in enumerate(other.rows):
                if not any(b_j):
                    continue
                c = order.ok_mul(a_i, order.ok_sigma(b_j, i))
                t = i + j
                if t >= n:
                    t -= n
                    c = tuple(order.u * v for v in c)
                products[t].append(c)
        return order.element([vector_sum(terms, n) for terms in products])

    # Reflected only for a left operand that is not an OrderElement: an int, which is central.
    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, OrderElement):
            return False
        return (other.order is self.order or other.order == self.order) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def flatten(self):
        return tuple(v for row in self.rows for v in row)

    def to_lists(self):
        return [list(row) for row in self.rows]

    def __str__(self):
        blocks = []
        for i, row in enumerate(self.rows):
            if not any(row):
                continue
            body = intpoly.to_str(row, "y")
            if i == 0:
                blocks.append(body)
            else:
                e = "e" if i == 1 else f"e^{i}"
                blocks.append(e if body == "1" else f"({body})*{e}")
        return " + ".join(blocks) if blocks else "0"

    def __repr__(self):
        return f"OrderElement({self})"


# -- lifting and reduction ---------------------------------------------


def lift_codeword(order: NaturalOrder, codeword) -> OrderElement:
    """Canonical integer representative of a codeword, coordinates in [0, p)."""
    if len(codeword) != order.n:
        raise LengthMismatch(f"expected length {order.n}")
    return order.element([c.to_list() for c in codeword])


def reduce_element(a: OrderElement, ring: QuotientRing):
    """Coordinatewise reduction modulo p; inverse of lift_codeword on
    canonical representatives.  Raises ValueError for an element of an order
    of another spec than the ring's."""
    spec = a.order.spec
    if spec is not ring.spec and spec != ring.spec:
        raise ValueError("elements belong to different orders")
    p = ring.p
    return tuple(ring._make(tuple(v % p for v in row)) for row in a.rows)


# -- exact integer linear algebra ----------------------------------------


def _xgcd(a, b):
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def hnf(mat):
    """Column Hermite Normal Form of the integer column span of mat.

    Input and output are row-major; columns are the generators.  Zero columns
    are dropped, so the result has exactly rank(mat) columns, each with a
    positive pivot strictly below the previous column's pivot and with the
    entries to the left of every pivot reduced into [0, pivot).
    """
    nrows = len(mat)
    pool = [list(col) for col in zip(*mat)]
    placed = []  # (pivot_row, column)
    for r in range(nrows):
        cand = [c for c in pool if c[r] != 0]
        pool = [c for c in pool if c[r] == 0]
        if not cand:
            continue
        piv = cand[0]
        for c in cand[1:]:
            x, y, g = _xgcd(piv[r], c[r])
            pr, cr = piv[r], c[r]
            new_piv = [x * a + y * b for a, b in zip(piv, c)]
            new_c = [-(cr // g) * a + (pr // g) * b for a, b in zip(piv, c)]
            piv = new_piv
            pool.append(new_c)
        if piv[r] < 0:
            piv = [-v for v in piv]
        for _, earlier in placed:
            q = earlier[r] // piv[r]
            if q:
                for i in range(nrows):
                    earlier[i] -= q * piv[i]
        placed.append((r, piv))
    if not placed:
        return [[] for _ in range(nrows)]
    return [[col[i] for _, col in placed] for i in range(nrows)]


def vector_sum(vectors, length):
    """Coordinatewise sum of integer vectors of one length, `length` zeros if none."""
    return tuple(map(sum, zip(*vectors))) or (0,) * length


def det_int(mat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(map(operator.index, row)) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def lattice_contains(basis_rows, vec) -> bool:
    """Whether vec lies in the lattice spanned by the HNF basis columns."""
    cols = list(zip(*basis_rows)) if basis_rows and basis_rows[0] else []
    v = list(vec)
    for col in cols:
        r = next(i for i, e in enumerate(col) if e != 0)
        if v[r] % col[r]:
            return False
        t = v[r] // col[r]
        if t:
            v = [a - t * b for a, b in zip(v, col)]
    return not any(v)


# -- Construction A -------------------------------------------------------


class LatticeBasis(Record):
    """Canonical basis of a full-rank sublattice of the order.

    basis: N x N column-HNF matrix, columns are generators in the flat basis.
    gram: Gram matrix of those columns under the trace form.
    det: determinant of the Gram matrix.
    index: index of the lattice in the full order (product of HNF pivots).
    """

    __slots__ = _fields = ("basis", "gram", "det", "index")

    def __init__(self, basis, gram, det, index):
        self.basis, self.gram, self.det, self.index = basis, gram, det, index

    def to_dict(self):
        """The fields, with fresh copies of the basis and Gram rows."""
        return {
            "basis": [list(row) for row in self.basis],
            "gram": [list(row) for row in self.gram],
            "det": self.det,
            "index": self.index,
        }


@lru_cache(maxsize=32)
def _trace_form(spec: AlgebraSpec, e_weight: int):
    """The N x N matrix T of the trace form on the flat basis {theta^j e^i}.

    B(x, y) = x^T T y.  T is block-diagonal: block i is w^i times the n x n
    matrix [Tr(theta^a conj(theta^b))], built once per (spec, e_weight)
    through ok_mul, ok_conj and ok_trace; the cache is bounded.
    """
    order = NaturalOrder(spec)
    n = order.n
    powers = [tuple(int(a == j) for j in range(n)) for a in range(n)]
    block = [[order.ok_trace(order.ok_mul(x, order.ok_conj(y))) for y in powers] for x in powers]
    return tuple(
        tuple(e_weight**i * block[a][b] if i == j else 0 for j in range(n) for b in range(n))
        for i in range(n)
        for a in range(n)
    )


def gram_matrix(basis, spec: AlgebraSpec, e_weight: int = 1):
    """Gram matrix B^T T B of the basis columns, T from _trace_form.

    basis is row-major with the generators as columns, in the flat basis of
    the order; the zero entries of each column are skipped.  Raises
    LengthMismatch for a column that is not N long, and IndefiniteForm, row
    by row, at the first nonpositive diagonal entry, which signals a
    conjugation_mode inconsistent with the field.
    """
    if not isinstance(e_weight, int) or e_weight < 1:
        raise InvalidSpec("e_weight must be a positive integer")
    form = _trace_form(spec, e_weight)
    N = len(form)
    cols = []
    for col in zip(*basis):
        if len(col) != N:
            raise LengthMismatch(f"expected {N} coordinates")
        cols.append([(i, v) for i, v in enumerate(map(operator.index, col)) if v])
    images = [vector_sum([[v * t for t in form[i]] for i, v in col], N) for col in cols]
    size = len(cols)
    gram = [[0] * size for _ in range(size)]
    for r, col in enumerate(cols):
        for s in range(r, size):
            image = images[s]
            gram[r][s] = gram[s][r] = sum(v * image[i] for i, v in col)
        if gram[r][r] <= 0:
            raise IndefiniteForm(
                f"diagonal entry {gram[r][r]} <= 0; check conjugation_mode"
            )
    return gram


def _lift_basis(vectors, spec: AlgebraSpec, e_weight: int) -> LatticeBasis:
    """The lattice spanned by the integer vectors, each of N flat
    coordinates, together with p times the standard basis.

    It contains pZ^N, so it depends only on the F_p row space of the
    vectors: their reduced row echelon form over F_p (echelon_mod_p) spans
    it with pZ^N.  Each echelon row, read as a column, has its 1 at its
    pivot, 0 above and at the other pivots, entries in [0, p) below; with
    p e_j for each free coordinate j that is N columns already in HNF, so
    hnf makes one pass over them instead of eliminating every vector, and
    the index is p^(N - rank).
    """
    p, N = spec.p, spec.n * spec.n
    rows, pivots = echelon_mod_p(vectors, p)
    free = [j for j in range(N) if j not in pivots]
    basis = hnf(list(zip(*rows, *([p if i == j else 0 for i in range(N)] for j in free))))
    gram = gram_matrix(basis, spec, e_weight)
    index = prod(basis[i][i] for i in range(N))
    return LatticeBasis(basis=basis, gram=gram, det=det_int(gram), index=index)


def construction_a_basis(code: ConstacyclicCode, e_weight: int = 1) -> LatticeBasis:
    """Basis of the preimage lattice of the code under reduction modulo p.

    Generated by p times the standard order basis together with the rows
    of the code's F_p generator matrix G, the flat lifts of theta^j x^i g,
    which _lift_basis echelons before its HNF.  The index in the full order
    is p^(n(n-k)) when the code is a free module of rank k.
    """
    return _lift_basis(zip(*code._generator_columns), code.ring.spec, e_weight)


def dual_lattice_basis(code: ConstacyclicCode) -> LatticeBasis:
    """Basis of the preimage lattice of the Euclidean dual code.

    Built from the flat coefficients of the words of brute_force_dual, the
    F_p-nullspace of the code's products, so it is exact for every u,
    including u*u != 1 where no dual generator formula applies.  Only the
    enumeration of the p^dim words and their echelon over F_p grow with
    the size of the dual; the HNF and the Gram matrix see N columns.
    """
    words = ([v for c in word for v in c.coeffs] for word in brute_force_dual(code))
    return _lift_basis(words, code.ring.spec, 1)


def dual_lattice_inclusion_check(code_a: ConstacyclicCode, code_b: ConstacyclicCode) -> bool:
    """Whether the lattice of code_a is contained in the lattice of code_b's dual.

    Both lattices contain p times the order, and reduction modulo p maps the
    lattices that do one to one onto the codes, preserving inclusion; so the
    answer is whether code_a lies in the dual of code_b, which
    is_orthogonal_to decides exactly, for every u, without building either
    lattice.
    """
    if code_a.ring != code_b.ring:
        raise InvalidSpec("codes must share the same ring")
    return code_a.is_orthogonal_to(code_b)
