"""Integer lattices from codes: the Construction A lift and its geometry.

The natural order is O_K + O_K e + ... + O_K e^(n-1) with e^n = u and
e*t = sigma(t)*e.  An OrderElement stores an n x n integer matrix whose row i
holds the coordinates of the O_K component of e^i in powers of the field
generator.  Flattened row-major, that gives coordinates in the Z-basis
{theta^j e^i} of the order, N = n^2 of them, ordered 1, theta, ...,
theta^(n-1), e, theta e, ...  Arithmetic in O_K goes through the shared
number_ring.IntegralArithmetic of the spec, the same instance QuotientRing
reduces modulo p, and natural_order(spec) keeps one NaturalOrder per spec.
Products are skew.skew_product folded by skew.fold_central, kept over Z.
Coordinate vectors of equal length, O_K rows or flat points, add through vector_sum.

Lifting a codeword takes its canonical representatives in [0, p) as integer
coordinates; reducing an order element mods every coordinate by p.  Coset
points go through coset_kernels, a straight-line lift and split compiled
together once per degree, their tuples written and compiled by
skewlat.emit; reduce_element is the residue half of split_element, so there
is one reduction rule.

The lattice attached to a code, lift(C) + pZ^N, contains pZ^N, so it depends
only on the F_p row space of the code's cached generator matrix: the reduced
row echelon rows of that space (number_ring.echelon_mod_p), with p times the
unit vectors of the free coordinates, are already its Hermite Normal Form,
in order of their leading rows.  A code keeps that echelon form, eliminated
once per code, so every Construction A basis of the code starts from it;
the dual lattice echelons the dual's m(n-k) basis words.

HNF convention: column style, lower triangular, positive diagonal, entries to
the left of each pivot reduced into [0, pivot).  That canonical form makes
lattice equality a plain matrix comparison.  All arithmetic is arbitrary
precision; Gram determinants overflow machine words even at small sizes.

The trace form used for Gram matrices is
    B(sum a_i e^i, sum b_i e^i) = sum_i Tr(a_i * conj(b_i))
with conj the complex conjugation of K, a fact of the field, so the form is
positive definite.  Its matrix T on the flat basis is n copies of one n x n
block, NaturalOrder.trace_block, kept on the one order per spec with the
compiled map x -> T x (trace_image); every Gram matrix B^T T B takes its
entries as dot products of the columns with their images, and its
determinant as det(block)^n * det(B)^2.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache

from . import intpoly
from .codes import ConstacyclicCode, brute_force_dual
from .emit import compile_function, linear_source, tuple_source
from .errors import IndefiniteForm, InvalidSpec, LengthMismatch
from .number_ring import AlgebraSpec, QuotientRing, Record, echelon_mod_p, integral_arithmetic
from .skew import fold_central, skew_product


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
        try:
            return self._core.mul(a, b)
        except ValueError:  # the compiled product unpacks exactly n coordinates
            raise LengthMismatch(f"expected O_K vectors of {self.n} coordinates") from None

    def ok_sigma(self, vec, power=1):
        try:
            return self._core.sigma(vec, power)
        except ValueError:  # as in ok_mul
            raise LengthMismatch(f"expected O_K vectors of {self.n} coordinates") from None

    def ok_trace(self, vec) -> int:
        return sum(c * t for c, t in zip(vec, self.trace_sums))

    def ok_conj(self, vec):
        return self.ok_sigma(vec, self.conj_power)

    @property
    def conj_power(self) -> int:
        """The c for which sigma^c is complex conjugation of K (trace_block)."""
        return self.trace_block[0]

    @cached_property
    def trace_block(self):
        """(c, [Tr(theta^a sigma^c(theta^b))]), the trace form on each O_K e^i,
        once per order: c = 0 when K is totally real (every odd n), that is
        when the block of c = 0 passes Sylvester's test; else n/2, the one
        involution of a totally complex cyclic K.  IndefiniteForm if neither
        block is definite."""
        n, tr, mul, sigma = self.n, self.ok_trace, self.ok_mul, self.ok_sigma
        powers = [tuple(int(a == j) for j in range(n)) for a in range(n)]
        for c in (0, n // 2) if n % 2 == 0 else (0,):
            block = tuple(tuple(tr(mul(x, sigma(y, c))) for y in powers) for x in powers)
            if all(det_int([row[:k] for row in block[:k]]) > 0 for k in range(1, n + 1)):
                return c, block
        raise IndefiniteForm("neither Tr(x x) nor Tr(x sigma^(n/2)(x)) is positive definite")

    @cached_property
    def trace_image(self):
        """The compiled x -> T x of N = n^2 index-checked coordinates, T being
        n copies of trace_block's block: N sums of n terms, once per order."""
        n, block = self.n, self.trace_block[1]
        x = [f"x{i}" for i in range(n * n)]
        forms = [
            linear_source((row[b], x[e + a]) for a, row in enumerate(block))
            for e in range(0, n * n, n)
            for b in range(n)
        ]
        source = f"def kernel(index):\n    def image(x):\n        {tuple_source(x)} = map(index, x)\n"
        source += f"        return {tuple_source(forms)}\n    return image\n"
        return compile_function(source, "kernel")(operator.index)

    def ok_norm(self, vec) -> int:
        """Field norm N(vec) = vec*sigma(vec)...sigma^(n-1)(vec), an integer."""
        return self._core.norm_cofactor(vec)[0]

    # -- order elements ---------------------------------------------------

    def element(self, rows) -> "OrderElement":
        if len(rows) != self.n:
            raise LengthMismatch(f"expected {self.n} rows")
        return OrderElement(self, tuple(map(self._core.reduce, rows)))

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


natural_order = lru_cache(maxsize=32)(NaturalOrder)  # the one NaturalOrder per spec, bounded


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
        core, n = order._core, order.n
        try:
            rows = skew_product(core, 1, self.rows, other.rows)
            return OrderElement(order, tuple(fold_central(core, rows, n, (order.u,) + (0,) * (n - 1))))
        except ValueError:  # the compiled product unpacks exactly n coordinates
            raise LengthMismatch(f"expected O_K vectors of {n} coordinates") from None

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
    """Coordinatewise reduction modulo p, the codeword of split_element;
    inverse of lift_codeword on canonical representatives."""
    return split_element(a, ring)[0]


def split_element(a: OrderElement, ring: QuotientRing):
    """(a mod p, the rows of a - a mod p): the ring's kept elements of the
    rows reduced modulo p, and integer rows divisible by p, from the split
    kernel of coset_kernels.  Raises ValueError for an element of an order
    of another spec than the ring's, and LengthMismatch for rows that are
    not n x n, before any element is built."""
    spec = a.order.spec
    if spec is not ring.spec and spec != ring.spec:
        raise ValueError("elements belong to different orders")
    try:
        return coset_kernels(ring.n)[1](ring.p, ring._make, a.rows)
    except ValueError:  # the kernel unpacks exactly n rows of n coordinates
        raise LengthMismatch(f"expected {ring.n} rows of {ring.n} coordinates") from None


@lru_cache(maxsize=32)
def coset_kernels(n):
    """(lift, split) of degree n, straight-line code compiled in one call on
    first use; p is an argument, so one pair serves every spec of degree n.

    lift(p, c, o): c yields a codeword's n coefficient tuples and o its n*n
    offset coordinates, each taken through operator.index; returns the rows
    of p*o and of c + p*o.  split(p, make, rows): returns make of each of the
    n rows reduced modulo p, and the rows minus those residues.  Both unpack
    exactly n rows of n entries, so other shapes raise ValueError first.
    """
    c, o, x, r = ([f"{v}{t}" for t in range(n * n)] for v in "coxr")
    residues = tuple_source([f"make({tuple_source(r[i:i + n])})" for i in range(0, n * n, n)])
    source = "\n".join([
        "def kernels(index):",
        "    def lift(p, c, o):",
        f"        {tuple_source(c, n)} = c",
        f"        {tuple_source(o)} = map(index, o)",
        *(f"        {v} = p*{v}" for v in o),
        f"        return {tuple_source(o, n)}, {tuple_source(map('{}+{}'.format, c, o), n)}",
        "    def split(p, make, rows):",
        f"        {tuple_source(x, n)} = rows",
        *(f"        {w} = {v} % p" for v, w in zip(x, r)),
        f"        return {residues}, {tuple_source(map('{}-{}'.format, x, r), n)}",
        "    return lift, split\n",
    ])
    return compile_function(source, "kernels")(operator.index)


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
    entries to the left of every pivot reduced into [0, pivot).  Columns are
    sorted once into buckets by leading row; row r combines its bucket by
    extended gcds, sending each remainder to the bucket of its new leading
    row.  So an input already in HNF costs O(N^2), one pass.
    """
    nrows = len(mat)
    buckets = [[] for _ in range(nrows)]
    for col in zip(*mat):
        for r, v in enumerate(col):
            if v:
                buckets[r].append(list(col))
                break
    placed = []
    for r, cand in enumerate(buckets):
        if not cand:
            continue
        piv = cand[0]
        for c in cand[1:]:
            x, y, g = _xgcd(piv[r], c[r])
            pr, cr, pairs = piv[r] // g, c[r] // g, list(zip(piv, c))
            piv, c = [x * a + y * b for a, b in pairs], [pr * b - cr * a for a, b in pairs]
            lead = next((i for i in range(r + 1, nrows) if c[i]), None)
            if lead is not None:
                buckets[lead].append(c)
        if piv[r] < 0:
            piv = [-v for v in piv]
        for earlier in placed:
            if q := earlier[r] // piv[r]:
                for i in range(r, nrows):
                    earlier[i] -= q * piv[i]
        placed.append(piv)
    return [list(row) for row in zip(*placed)] if placed else [[] for _ in range(nrows)]


def vector_sum(vectors, length):
    """Coordinatewise sum of integer vectors of one length, `length` zeros if none."""
    return tuple(map(sum, zip(*vectors))) or (0,) * length


def det_int(mat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination; square matrices only."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(map(operator.index, row)) for row in mat]
    if any(len(row) != n for row in a):
        raise LengthMismatch(f"expected {n} entries in each row")
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
    """Whether vec, one coordinate per row, lies in the span of the HNF basis columns."""
    cols = list(zip(*basis_rows)) if basis_rows and basis_rows[0] else []
    v = list(vec)
    if len(v) != len(basis_rows):
        raise LengthMismatch(f"expected {len(basis_rows)} coordinates")
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


def gram_matrix(basis, spec: AlgebraSpec):
    """Gram matrix B^T T B of the basis columns, T being n copies of
    natural_order(spec)'s trace_block.

    basis is row-major with the generators as columns, in the flat basis of
    the order; each column's image T col comes from the order's compiled
    trace_image, and entry (r, s) is the dot product of column r with image
    s.  Raises LengthMismatch for a column that is not N long, and
    IndefiniteForm, row by row, at the first nonpositive diagonal entry; T
    is positive definite, so only a zero column has one.
    """
    order = natural_order(spec)
    cols = list(zip(*basis))
    try:
        images = list(map(order.trace_image, cols))
    except ValueError:  # the compiled image unpacks exactly N coordinates
        raise LengthMismatch(f"expected {order.n * order.n} coordinates") from None
    size = len(cols)
    gram = [[0] * size for _ in range(size)]
    for r, col in enumerate(cols):
        for s in range(r, size):
            gram[r][s] = gram[s][r] = sum(map(operator.mul, col, images[s]))
        if gram[r][r] <= 0:
            raise IndefiniteForm(f"diagonal entry {gram[r][r]} <= 0")
    return gram


def _lift_basis(rows, pivots, spec: AlgebraSpec) -> LatticeBasis:
    """The lattice spanned by pZ^N and integer vectors of N flat
    coordinates, given by their reduced row echelon form over F_p
    (echelon_mod_p): its rows and their pivots.

    The lattice contains pZ^N, so it depends only on the F_p row space of
    the vectors, which the echelon rows span.  Each echelon row, read as a
    column, has its 1 at its pivot, 0 above and at the other pivots,
    entries in [0, p) below; with p e_j for each free coordinate j, put in
    order of their leading rows, that is N columns already in HNF, so hnf
    makes one pass over them, and the index is p^(N - rank), which is
    det(B); T is n copies of the order's trace_block, so det(B^T T B)
    needs only that block eliminated.
    """
    n, p, N = spec.n, spec.p, spec.n * spec.n
    lead = dict(zip(pivots, rows))
    cols = [lead.get(j) or [p if i == j else 0 for i in range(N)] for j in range(N)]
    basis = hnf(list(zip(*cols)))
    index = p ** (N - len(rows))
    block = natural_order(spec).trace_block[1]
    gram = gram_matrix(basis, spec)
    return LatticeBasis(basis=basis, gram=gram, det=det_int(block) ** n * index**2, index=index)


def construction_a_basis(code: ConstacyclicCode) -> LatticeBasis:
    """Basis of the preimage lattice of the code under reduction modulo p.

    Generated by p times the standard order basis together with the rows
    of the code's F_p generator matrix G, the flat lifts of theta^j x^i g,
    through the echelon form of G that the code keeps, computed once per
    code.  The index in the full order is p^(n(n-k)), the code being a
    free R-module of rank k.
    """
    return _lift_basis(*code._echelon, code.ring.spec)


def dual_lattice_basis(code: ConstacyclicCode) -> LatticeBasis:
    """Basis of the preimage lattice of the Euclidean dual code: the
    Construction A lattice of that code, not the dual L^# of the code's
    lattice L under the trace form.

    Built from the words of brute_force_dual, the F_p-nullspace of the
    code's products, so it is exact for every u, including u*u != 1 where
    no dual generator formula applies.  The dual has dimension
    dim = m(n-k) over F_p, and its word at index p^j is a basis vector, so
    only the dim words at indices p^j are flattened and echeloned.  Any dim
    independent words of the dual span it, and the rank is checked with a
    RuntimeError, not an assert, so that a wrong list of words cannot give a
    wrong lattice under python -O either.

    The listing stays: brute_force_dual raises TooLarge for a dual above
    ENUMERATION_BOUND before any elimination, which is this function's
    bound too, and the benchmark's traced run requires its calls.  Only
    that listing grows with the size of the dual; the echelon sees dim
    rows, and the HNF and the Gram matrix N columns.
    """
    p = code.ring.p
    dim = code.ring.n * (code.n - code.k)
    words = brute_force_dual(code)
    basis_words = ([v for c in words[p**j] for v in c.coeffs] for j in range(dim))
    rows, pivots = echelon_mod_p(basis_words, p)
    if len(rows) != dim:
        raise RuntimeError(f"{dim} dual basis words have rank {len(rows)}")
    return _lift_basis(rows, pivots, code.ring.spec)


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
