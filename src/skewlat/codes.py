"""Constacyclic codes: left ideals (g(x))/(x^n - u) of the skew quotient.

A code's length n and constant u are those of its ring's AlgebraSpec, so a
code and its Construction A lattice share one x^n - u.  A code is built from
a monic right divisor g of x^n - u.  The parity check h is the quotient of
x^n - u by g; it satisfies h*g = g*h = x^n - u, because x^n - u is central
so (g*h - h*g)*g = 0, and a monic g cancels on the right.  A vector is a
codeword exactly when its polynomial kills h on the right.  Codewords are
plain tuples of RingElement of length n.

Everything here is exact.  A code of dimension k is a free R-module with
basis the k codewords x^i g (i < k), R-independent since b*g = 0 with g
monic forces b = 0; so |C| = |R|^k, and as an additive group it is spanned
by the k*m codewords theta^j x^i g (m = [K:Q], theta the ring generator).

After its construction a code is the F_p row space of its generator matrix
G, and every reader takes G's k*m rows: the flat coefficients of
theta^j x^i g (i outer, j inner: the order of the message coordinates),
built once per code on first use, never in the constructor, from the k words
x^i g, one skew product each, scaled by theta^j on coefficient tuples.  Their
reduced echelon form over F_p, eliminated once, feeds
lattice.construction_a_basis, H = ker G and equality: a row space has only
one reduced echelon form, so two codes over one ring are equal exactly when
theirs are, and == compiles nothing.  encode combines the rows with b's
coordinates, which is b*g because deg(b*g) < n; v is a codeword exactly
when H*v = 0, because over F_p the row space of G is (ker G)^perp.
brute_force_dual reads its equations off the rows, and codewords() lists
their span through _span, which lists the dual's words too.

encode and is_codeword run as straight-line kernels, compiled once per code
on first use, with the entries of G and H as literals: the first encode
compiles the encoder, the first is_codeword the parity check, which reads H
off the echelon form then.  skewlat.emit writes their sums and tuples and
compiles them.  A sum has at most n*m <= 961 terms (AlgebraSpec keeps
n^4 <= ENUMERATION_BOUND), and emit.linear_source writes it as parenthesized
sums of at most 64, so compiling it needs little recursion whatever the
caller's depth.

The Euclidean scalar product is R-bilinear, so products of the words x^i g
decide duality for every u: is_orthogonal_to tests C inside D^perp by g
alone, as D^perp is sigma-u^-1-constacyclic, and is_self_dual adds 2k = n,
as R is a Frobenius ring and |C^perp| = |R|^(n-k).
brute_force_dual finds the dual itself as the F_p-nullspace of the products
with the x^i g; it never uses dual_generator(), which makes it the check of
the algebraic dual, and its work grows with the size of the dual, p^(m(n-k)),
not with |R|^n.  Its basis is in reduced echelon form, so
it builds the words already in the order of their coefficient vectors, with
no sort, and the word at index p^j is a basis vector, which is all that
lattice.dual_lattice_basis reads.  Only dual_generator and dual_code need
u*u = 1.

_span builds a span's words at C level, a flat coordinate at a time, each
component the one element the ring keeps for its residue (see number_ring),
so a word costs n table lookups, not n new elements.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

from .emit import compile_function, linear_source, tuple_source
from .errors import LengthMismatch, NonUnitLeading, NotADivisor, NotInvertible, TooLarge, UnsupportedU
from .number_ring import ENUMERATION_BOUND, QuotientRing, echelon_mod_p, nullspace_mod_p
from .skew import SkewPoly, central_poly


class ConstacyclicCode:
    """The code generated by the monic right divisor g of x^n - u, n and u the ring's."""

    def __init__(self, ring: QuotientRing, g: SkewPoly, h: SkewPoly):
        self.ring = ring
        self.n = ring.n
        self.u = ring.u
        self.g = g
        self.h = h
        self.k = self.n - int(g.degree)

    @classmethod
    def from_generator(cls, g: SkewPoly) -> "ConstacyclicCode":
        """Build the code, computing the parity check by right division.

        A non-monic g with unit leading coefficient is normalized to the monic
        generator of the same ideal.  Raises NotADivisor when g does not right
        divide x^n - u, the zero polynomial included.
        """
        ring = g.ring
        n = ring.n
        if g.is_zero:
            raise NotADivisor("the zero polynomial does not divide x^n - u")
        if not g.is_monic:
            try:
                g = g.lead.inverse() * g
            except NotInvertible:
                raise NonUnitLeading(
                    "generator leading coefficient is not a unit"
                ) from None
        if g.degree > n:
            raise NotADivisor(f"degree {g.degree} exceeds length {n}")
        central = central_poly(ring, n, ring.u)
        h, r = central.right_divmod(g)
        if not r.is_zero:
            raise NotADivisor(f"{g} does not right divide {central}")
        return cls(ring, g, h)

    # -- vector / polynomial conversions --------------------------------

    def to_poly(self, v) -> SkewPoly:
        if len(v) != self.n:
            raise LengthMismatch(f"expected length {self.n}, got {len(v)}")
        return SkewPoly(self.ring, v)

    def to_codeword(self, f: SkewPoly):
        return f.mod_central(self.n, self.u).padded_coeffs(self.n)

    # -- core operations -------------------------------------------------

    @cached_property
    def _basis(self):
        """The k codewords x^i g, one skew product each, built on first use:
        the code's basis as a free R-module."""
        ring, g = self.ring, self.g
        return tuple(self.to_codeword(SkewPoly.monomial(ring, i) * g) for i in range(self.k))

    @cached_property
    def _rows(self):
        """The k*m rows of G, built on first use, not in the constructor: the
        flat coefficients of theta^j x^i g, i outer and j inner, each word
        x^i g of _basis scaled by theta^j on coefficient tuples.  They depend
        only on g, so they are the same whichever thread builds them, and no
        field of the code is reassigned."""
        ring = self.ring
        powers = [ring._reduce((0,) * j + (1,)) for j in range(ring.n)]
        return tuple(
            tuple(v for c in word for v in ring._mul(c.coeffs, power)) for word in self._basis for power in powers
        )

    @cached_property
    def _echelon(self):
        """The reduced row echelon form (rows, pivots) of G over F_p, as
        tuples, eliminated once per code on first use: Construction A lifts
        its rows, H is read off it, and two codes are equal when theirs are."""
        rows, pivots = echelon_mod_p(self._rows, self.ring.p)
        return tuple(map(tuple, rows)), tuple(pivots)

    @cached_property
    def _parity_rows(self):
        """The rows of H = ker G, read off the echelon form of G on the first
        is_codeword, when the parity kernel is compiled from them, so
        encoding and Construction A never pay for it."""
        return nullspace_mod_p(self._echelon, self.n * self.ring.n, self.ring.p)

    @cached_property
    def _encoder(self):
        """The encode kernel, compiled from the columns of G on the first
        encode: the coefficient tuples of the k message symbols to the n
        kept RingElements of the codeword."""
        columns = [[row[t] for row in self._rows] for t in range(self.n * self.ring.n)]
        source = _encoder_source(columns, self.k, self.ring.n, self.ring.p)
        return compile_function(source, "encoder")(self.ring._make)

    @cached_property
    def _parity(self):
        """The parity kernel, compiled from the rows of H on the first
        is_codeword: true when every (H*v) % p is 0, stopping at the first
        row that is not, on the coefficient tuples of the n components."""
        source = _parity_source(self._parity_rows, self.n, self.ring.n, self.ring.p)
        return compile_function(source, "parity")

    def encode(self, msg):
        """Codeword of the message polynomial b(x): the coefficients of b*g.

        Computed as sum_{i,j} b_i[j] G[i*m + j] mod p, which is exact:
        b_i x^i g = sum_j b_i[j] theta^j x^i g, and deg(b*g) < n, so b*g
        needs no reduction modulo x^n - u.  The sums run in _encoder, a
        kernel compiled once per code, on the first encode.
        """
        if len(msg) != self.k:
            raise LengthMismatch(f"expected {self.k} message symbols, got {len(msg)}")
        return self._encoder(map(_coeffs, map(self.ring.coerce, msg)))

    def is_codeword(self, v) -> bool:
        """Parity test a(x)*h(x) = 0 modulo x^n - u, decided as H*v = 0 mod p
        on the flat coefficients of v.  Exact because the code is the row
        space of G, and over F_p that row space is (ker G)^perp = H^perp.
        The rows run in _parity, a kernel compiled once per code, on the
        first is_codeword."""
        if len(v) != self.n:
            raise LengthMismatch(f"expected length {self.n}, got {len(v)}")
        return self._parity(map(_coeffs, map(self.ring.coerce, v)))

    def shift(self, v):
        """The twisted shift x*v(x) mod x^n - u, that is
        (u*sigma(a_{n-1}), sigma(a_0), ..., sigma(a_{n-2}))."""
        return self.to_codeword(SkewPoly.monomial(self.ring, 1) * self.to_poly(v))

    def codewords(self, bound=ENUMERATION_BOUND):
        """All |R|^k codewords, in lexicographic message order: the span of
        the rows of G with the first row varying slowest, each word a tuple
        of the ring's kept elements.  A generator, so TooLarge comes on the
        first next."""
        if self.ring.size**self.k > bound:
            raise TooLarge(f"{self.ring.size}^{self.k} codewords exceeds bound {bound}")
        yield from _span(self._rows, self.ring, self.n)

    # -- duality -----------------------------------------------------------

    def dual_generator(self) -> SkewPoly:
        """Generator of the Euclidean dual, 1 + sum sigma^i(h_{k-i}) x^i.

        Only valid when u*u = 1.  The returned polynomial has constant term 1;
        it is not monic in general, but its leading coefficient is a unit and
        from_generator normalizes it.
        """
        if self.u * self.u != self.ring.one:
            raise UnsupportedU("dual generator formula requires u*u = 1")
        ring = self.ring
        coeffs = [ring.one]
        for i in range(1, self.k + 1):
            coeffs.append(ring.sigma(self.h.coeff(self.k - i), i))
        return SkewPoly(ring, coeffs)

    def dual_code(self) -> "ConstacyclicCode":
        return ConstacyclicCode.from_generator(self.dual_generator())

    def is_orthogonal_to(self, other: "ConstacyclicCode") -> bool:
        """Whether every codeword of self is orthogonal to every codeword of
        other, from the k' products of g with other's words x^i g'.

        The product is R-bilinear, so g lies in D^perp (D = other) exactly
        when it is orthogonal to the words x^i g' that span D over R.  D^perp
        is sigma-u^-1-constacyclic: with T_u(a) = (u sigma(a_(n-1)),
        sigma(a_0), ..., sigma(a_(n-2))), the shift by x modulo x^n - u,
        <T_u(a), T_(u^-1)(b)> = sigma(<a, b>), and T_u permutes D, so
        T_(u^-1) maps D^perp into itself.  For i < k the word x^i g has
        degree below n, so it is T_(u^-1)^i(g) too, and C, spanned over R by
        these words, lies in D^perp once g does.  The zero code (k = 0) has
        no words and is orthogonal to every code.
        """
        return all(not inner_product(g, d) for g in self._basis[:1] for d in other._basis)

    def is_self_dual(self) -> bool:
        """C = C^perp, for every u: |C| |C^perp| = |R|^n over the Frobenius
        ring R and |C| = |R|^k, so C is self-dual exactly when 2k = n and C is
        orthogonal to itself."""
        return 2 * self.k == self.n and self.is_orthogonal_to(self)

    def __eq__(self, other):
        """Codeword-set equality: the same ring and the same reduced echelon
        form of G, which a row space over F_p has only one of."""
        if not isinstance(other, ConstacyclicCode):
            return NotImplemented
        return self.ring == other.ring and self._echelon == other._echelon

    __hash__ = None

    def to_dict(self):
        return {
            "n": self.n,
            "u": self.u.to_list(),
            "g": self.g.to_lists(),
            "h": self.h.to_lists(),
            "k": self.k,
        }

    def __repr__(self):
        return f"ConstacyclicCode(n={self.n}, k={self.k}, g={self.g})"


_coeffs = attrgetter("coeffs")


def _residue(terms, p):
    """Source of sum c*t mod p over the (c, t) pairs; a lone t with c = 1,
    or no term, needs no reduction, as every t is in [0, p)."""
    source = linear_source(terms)
    return source if source.isidentifier() or source == "0" else f"({source}) % {p}"


def _encoder_source(columns, k, m, p):
    """Source of encoder(make), which returns encode(s): s yields the k
    message symbols' coefficient tuples, and each of the n*m columns of G is
    one unrolled sum over their k*m flat coefficients, reduced mod p; the
    codeword's n components are make of m consecutive sums."""
    names = [f"c{t}" for t in range(k * m)]
    sums = [_residue(zip(col, names), p) for col in columns]
    words = tuple_source([f"make({tuple_source(sums[i:i + m])})" for i in range(0, len(sums), m)])
    body = f"        {tuple_source(names, m)} = s\n" if names else ""
    body += f"        return {words}\n"
    return f"def encoder(make):\n    def encode(s):\n{body}    return encode\n"


def _parity_source(rows, n, m, p):
    """Source of parity(s): s yields the n components' coefficient tuples, and
    the result is true when every row of H has a zero dot product mod p with
    their n*m flat coefficients, the rows tried in order and the first
    nonzero one ending the test."""
    names = [f"c{t}" for t in range(n * m)]
    tests = " or ".join(_residue(zip(row, names), p) for row in rows)
    return f"def parity(s):\n    {tuple_source(names, m)} = s\n    return not ({tests or 0})\n"


def inner_product(v, w):
    """Euclidean scalar product sum v_i * w_i in R."""
    if len(v) != len(w):
        raise LengthMismatch("vectors have different lengths")
    acc = None
    for a, b in zip(v, w):
        term = a * b
        acc = term if acc is None else acc + term
    return acc


def brute_force_dual(code: ConstacyclicCode, bound=ENUMERATION_BOUND):
    """The exact Euclidean dual, every vector v with <c, v> = 0 for all codewords c.

    The product is R-bilinear, so v is in the dual exactly when it is
    orthogonal to each of the k words c = x^i g of the code's basis.  Each c
    gives m linear equations over F_p in the m*n coordinates of v: equation
    t holds at column (i, j) coordinate t of c_i * theta^j, which, as R is
    commutative, is G's entry at row (c, j), column (i, t).  The code is free
    of rank k over the Frobenius ring R, so the dual has |R|^(n-k) =
    p^(m(n-k)) = p^dim words: bound is checked, and TooLarge raised, before
    any elimination.  The dual is the nullspace of those equations, and the
    p^dim combinations of its basis are returned as tuples of RingElement in
    the order of their coefficient vectors (component 0 first), the order of
    a scan of R^n.  The basis is echelon_mod_p's reduced echelon form, pivots
    increasing, so the combination with coefficients (a_1, ..., a_dim) is 0
    before the first pivot and reads a_i at the i-th pivot, with entries
    between pivots fixed by the earlier a's: the words come in order when
    a_1 varies slowest, and no sort is needed.  The word at index p^j is then
    the basis vector of a_(dim-j).

    The words are listed by _span, as codewords() lists the code's, so no
    Python frame runs per word and each entry is the element the ring keeps
    for its residue.

    Independent of dual_generator(), so it checks the algebraic dual and
    serves any u.  The name is older than the nullspace: the benchmark's
    traced run requires calls to brute_force_dual, so it stays until that run
    pins the public entry points instead.
    """
    ring = code.ring
    p, m, n = ring.p, ring.n, code.n
    dim = m * (n - code.k)
    if p**dim > bound:
        raise TooLarge(f"{p}^{dim} dual vectors exceeds bound {bound}")
    rows = code._rows
    equations = [
        [rows[w + j][i + t] for i in range(0, m * n, m) for j in range(m)]
        for w in range(0, len(rows), m)
        for t in range(m)
    ]
    kernel, _ = echelon_mod_p(nullspace_mod_p(echelon_mod_p(equations, p), m * n, p), p)
    return _span(kernel, ring, n)


def _span(rows, ring, n):
    """Every F_p-combination of the flat rows, as words of n kept ring
    elements, the first row's coefficient varying slowest: one list per flat
    coordinate over every word (_span_column), each component's elements
    ring._make mapped over the zip of its m coordinate lists, and the words
    the zip of the n components.  No rows give the one zero word."""
    m = ring.n
    columns = [_span_column([row[t] for row in rows], ring.p) for t in range(m * n)]
    return list(zip(*[map(ring._make, zip(*columns[i:i + m])) for i in range(0, m * n, m)]))


def _span_column(coeffs, p):
    """One flat coordinate of every word of a span over F_p: the entry for
    the coefficients (a_1, ..., a_dim) is sum a_i * coeffs[i] mod p, and the
    p^dim entries come with a_1 varying slowest."""
    column = [0]
    for c in reversed(coeffs):
        steps = [a * c % p for a in range(p)]
        column = [(v + s) % p for s in steps for v in column]
    return column
