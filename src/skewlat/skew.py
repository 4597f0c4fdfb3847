"""Skew polynomials over a QuotientRing.

SkewPoly is the ring R[x; sigma] with multiplication twisted by
x*s = sigma(s)*x, so (a x^i)(b x^j) = a sigma^i(b) x^(i+j).  OppositePoly is
the same construction in a variable w with the inverse twist
w*s = sigma^(-1)(s)*w; opposite() maps each ring onto the other reversing
products.

Left and right division require a divisor whose leading coefficient is a
unit; the quotient/remainder pair is then unique, which makes polynomials of
degree below n canonical representatives modulo the central x^n - u.  There
is one division loop, right_divmod; left division is right division in the
opposite ring, mapped back.

Arithmetic runs on raw coefficient tuples over Z, each result coefficient
reduced mod p once: skew_product is the one product, fold_central the one
fold by x^n = u, and lattice.OrderElement keeps both over Z.  right_divmod
keeps its remainder as tuples.  _coerce holds the one ring check.

Monic right divisors of x^n - u come from roots and cofactors: degree 1 by
the norm equation N_n(-c) = u (Lam-Leroy evaluation), degree n - 1 as the
closed-form Lam-Leroy quotients of the same roots, and any other degree
d > n - d as the quotients of x^n - u by the divisors of degree n - d.  At
every p the roots are read off the (p^m - 1)/(p - 1) classes of
(R - 0)/F_p* (m = deg m(y)), one norm each: sigma fixes F_p, so a norm
scales by lam^m under c -> lam*c.  Degrees 1 and n - 1 are one call each of
the core's root scan, one straight-line kernel per degree compiled on first
use, which iterates the classes, computes each norm inline and yields the
divisors' coefficient tuples.  Only the middle degrees 2 <= d <= n/2
(n >= 4) scan the p^(n*d) monic candidates, and the enumeration bound
counts the classes the roots visit, or candidates on that scan.

What a divisor query would otherwise re-derive from the ring alone is kept
in two tables on the QuotientRing, for as long as the ring lives:
central_poly's x^n - u by (n, u), and _root_scales's tables over F_p by
(n, t, degree).  Each entry is built on the first call for its key, and a
call that raises stores nothing.  Entries are pure functions of the ring
and the key, so two threads that build one at once get equal values, and
both get the first one stored.

The zero polynomial has an empty coefficient tuple and degree -inf (a float
sentinel, so degree comparisons need no special casing).
"""

from __future__ import annotations

from itertools import chain, product, repeat, zip_longest
from operator import add, index, mod, neg, sub

from .errors import DivisionByZero, NonUnitLeading, NotADivisor, NotInvertible, TooLarge
from .number_ring import ENUMERATION_BOUND, QuotientRing, RingElement

NEG_INF = float("-inf")


class SkewPoly:
    TWIST = 1
    VAR = "x"

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: QuotientRing, coeffs=()):
        self.ring = ring
        cs = [ring.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, ring, coeffs):
        """The polynomial of canonical coefficients, a tuple of elements of
        ring with a nonzero last entry, taken without coercion."""
        poly = object.__new__(cls)
        poly.ring = ring
        poly.coeffs = coeffs
        return poly

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    @classmethod
    def one(cls, ring):
        return cls(ring, (1,))

    @classmethod
    def monomial(cls, ring, degree, coeff=1):
        return cls(ring, (0,) * degree + (coeff,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lead(self) -> RingElement:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one

    def coeff(self, i) -> RingElement:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    def _coerce(self, other):
        if isinstance(other, SkewPoly):
            if type(other) is not type(self):
                raise ValueError("cannot mix polynomials with different twists")
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("polynomial belongs to a different ring")
            return other
        if isinstance(other, (RingElement, int)):
            return type(self)(self.ring, (other,))
        return None

    def _from_rows(self, rows):
        """The polynomial of integer coefficient rows, reduced mod p once."""
        ring = self.ring
        cs = [tuple(map(mod, c, ring._ps)) for c in rows]
        while cs and not any(cs[-1]):
            cs.pop()
        return type(self)._make(ring, tuple(map(ring._make, cs)))

    def _rows(self):
        return [c.coeffs for c in self.coeffs]

    def _combine(self, other, op):
        """self op other coefficientwise on the raw tuples, op add or sub."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        pairs = zip_longest(self._rows(), other._rows(), fillvalue=(0,) * self.ring.n)
        return self._from_rows([tuple(map(op, a, b)) for a, b in pairs])

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return self._from_rows([tuple(map(neg, c)) for c in self._rows()])

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._from_rows(skew_product(self.ring._core, self.TWIST, self._rows(), other._rows()))

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def right_divmod(self, g: "SkewPoly"):
        """Unique (q, r) with self = q*g + r and deg r < deg g."""
        g = self._coerce(g)
        if g.is_zero:
            raise DivisionByZero("division by the zero polynomial")
        try:
            lead_inv = g.lead.inverse()
        except NotInvertible:
            raise NonUnitLeading(
                f"leading coefficient {g.lead!r} is not a unit"
            ) from None
        ring = self.ring
        make, ps, zero = ring._make, ring._ps, ring.zero
        l = len(g.coeffs) - 1
        r = self._rows()
        q = [zero] * max(len(r) - l, 0)
        while len(r) > l:
            shift = len(r) - 1 - l
            c = q[shift] = make(r[-1]) * ring.sigma(lead_inv, self.TWIST * shift)
            term = type(self)._make(ring, (zero,) * shift + (c,)) * g
            for i, t in enumerate(term.coeffs[shift:], shift):
                r[i] = tuple(map(mod, map(sub, r[i], t.coeffs), ps))
            while r and not any(r[-1]):
                r.pop()
        return type(self)._make(ring, tuple(q)), type(self)._make(ring, tuple(map(make, r)))

    def left_divmod(self, g: "SkewPoly"):
        """Unique (q, r) with self = g*q + r and deg r < deg g.

        Right division in the opposite ring: opposite(self) =
        opposite(q)*opposite(g) + opposite(r), and opposite is its own inverse.
        """
        q, r = opposite(self).right_divmod(opposite(self._coerce(g)))
        return opposite(q), opposite(r)

    def mod_central(self, n: int, u) -> "SkewPoly":
        """Canonical representative of degree < n modulo x^n - u: the
        coefficients folded by fold_central over Z and reduced mod p once,
        which is the remainder of right division by x^n - u."""
        if self.degree < n:
            return self
        u = _central_constant(self.ring, self.ring.coerce(u))
        return self._from_rows(fold_central(self.ring._core, self._rows(), n, u.coeffs))

    def padded_coeffs(self, length):
        if self.degree >= length:
            raise ValueError("polynomial degree too large for requested length")
        return self.coeffs + (self.ring.zero,) * (length - len(self.coeffs))

    def to_lists(self):
        return [c.to_list() for c in self.coeffs]

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = str(c)
            if i == 0:
                terms.append(cs if ("+" not in cs) else f"({cs})")
                continue
            var = self.VAR if i == 1 else f"{self.VAR}^{i}"
            if cs == "1":
                terms.append(var)
            elif "+" in cs or "*" in cs:
                terms.append(f"({cs})*{var}")
            else:
                terms.append(f"{cs}*{var}")
        return " + ".join(terms)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class OppositePoly(SkewPoly):
    """Polynomials in w with the inverse twist w*s = sigma^(-1)(s)*w."""

    TWIST = -1
    VAR = "w"


def opposite(f: SkewPoly) -> SkewPoly:
    """Product-reversing isomorphism between R[x; sigma] and R[w; sigma^(-1)].

    sum a_i x^i maps to sum sigma^(-i)(a_i) w^i, and an OppositePoly maps back
    by sigma^(i), so opposite(opposite(f)) == f.  Additive, and reverses
    multiplication: opposite(f*g) = opposite(g)*opposite(f).
    """
    ring = f.ring
    image = SkewPoly if isinstance(f, OppositePoly) else OppositePoly
    return image._make(ring, tuple(ring.sigma(c, -f.TWIST * i) for i, c in enumerate(f.coeffs)))


def skew_product(core, twist, a, b):
    """The integer coefficient rows of (sum a_i x^i)(sum b_j x^j) with
    x*s = sigma^twist(s)*x, a and b lists of rows: row k sums the core's
    compiled mul(a_i, sigma^(twist*i)(b_j)) over i + j = k."""
    n, zero = core.n, (0,) * core.n
    sums = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        k = twist * i % n
        if any(x):
            for j, y in enumerate(b, i):
                if any(y):
                    c = core.mul(x, core.sigma(y, k) if k else y)
                    sums[j] = c if (s := sums[j]) is zero else tuple(map(add, s, c))
    return sums


def fold_central(core, rows, n, u):
    """The list of integer rows folded in place by x^n = u, from the top down
    to at most n rows: c*x^i = (u*c)*x^(i-n) for i >= n, as sigma fixes u."""
    for i in range(len(rows) - 1, n - 1, -1):
        top = rows.pop()
        if any(top):
            rows[i - n] = tuple(map(add, rows[i - n], core.mul(u, top)))
    return rows


def _central_constant(ring: QuotientRing, u: RingElement) -> RingElement:
    """u, an element of ring, raising ValueError unless sigma fixes it, which
    is what makes x^n - u central."""
    if ring.sigma(u) != u:
        raise ValueError("u must be fixed by sigma for x^n - u to be central")
    return u


def central_poly(ring: QuotientRing, n: int, u) -> SkewPoly:
    """The polynomial x^n - u; requires sigma(u) = u so it is central.

    u is coerced on every call, so one of another ring raises ValueError.
    The polynomial is kept in the ring's table by (n, u.coeffs), built and
    checked on the first call for that key; a u that sigma does not fix
    raises ValueError on every call, as nothing is stored for it.  Two
    threads that build one key at once get the first polynomial stored.
    """
    el, n = ring.coerce(u), index(n)
    key = (n, el.coeffs)
    central = ring._central_polys.get(key)
    if central is None:
        central = SkewPoly(ring, (-_central_constant(ring, el),) + (0,) * (n - 1) + (1,))
        central = ring._central_polys.setdefault(key, central)
    return central


def monic_right_divisors(ring: QuotientRing, n: int, u, degree: int, bound=ENUMERATION_BOUND):
    """All monic right divisors of x^n - u of the given degree.

    The result is lexicographic by coefficient vector, constant term first.
    n must be a positive multiple of ring.n, the order of sigma, so that
    sigma^n = id.  How the divisors are found depends on d = degree:

    - d = 1, by roots: x + c right-divides x^n - u exactly when N_n(-c) = u,
      where N_n(a) = sigma^(n-1)(a)...sigma(a)*a is the remainder of x^n on
      right division by x - a (Lam-Leroy evaluation).  As sigma^(ring.n) = id,
      N_n(c) = N(c)^(n / ring.n) with N the field norm.  Every nonzero c
      is lam*b for one lam in F_p* and one class representative b of
      (R - 0)/F_p* (first nonzero coordinate 1), and N(lam*b) =
      lam^m N(b) (m = ring.n) at every p, ramified included.  So the roots
      are the lam*b whose lam solves the norm equation for N(b), and one
      call of the core's compiled root_scan computes every class's norm,
      checks that it is rational, looks its lam up in a table over F_p and
      yields the roots as raw coefficient tuples.  Ring elements and
      polynomials are built only for the roots, in lexicographic order.
    - d = n - 1 >= 2, by the same roots: for each root a,
      q_a = sum_{j<n} sigma^(n-1)(a)...sigma^(j+1)(a) x^j satisfies
      q_a*(x - a) = x^n - N_n(a) = x^n - u, and as x^n - u is central also
      (x - a)*q_a = x^n - u.  So a -> q_a is the cofactor bijection below,
      computed without any division; its coefficients are scalar multiples
      of the class's suffix products, which the root scan of degree n - 1
      computes with the norm and scales by a table of scalars per lam.
    - any other d > n - d, by cofactors: x^n - u is central and a monic
      polynomial is not a zero divisor, so h*g = x^n - u exactly when
      g*h = x^n - u.  The divisors of degree d are the quotients
      (x^n - u)/g over the divisors g of degree n - d, one right division
      each, and the map is a bijection.  Degree n is the cofactor of 1;
      degree above n has no divisor.
    - 2 <= d <= n/2, which needs n >= 4: a scan of the p^(n*d) monic
      candidates, one right division each.

    bound limits the (p^m - 1)/(p - 1) classes the roots visit, for d = 1 and
    d = n - 1, and, on the middle degrees only, the candidates; beyond it
    TooLarge is raised before any norm or candidate is taken.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if n < 1 or n % ring.n:
        raise ValueError(f"n = {n} is not a positive multiple of the order {ring.n} of sigma")
    central = central_poly(ring, n, u)
    if degree > n:
        return []
    if degree in (1, n - 1):
        return _root_divisors(central, degree, bound)
    if degree > n - degree:
        cofactors = []
        for g in _low_degree_divisors(central, n - degree, bound):
            q, r = central.right_divmod(g)
            if not r.is_zero:
                raise NotADivisor(f"{g} does not right divide {central}")
            cofactors.append(q)
        return sorted(cofactors, key=lambda f: tuple(c.coeffs for c in f.coeffs))
    return _low_degree_divisors(central, degree, bound)


def _root_divisors(central: SkewPoly, degree, bound):
    """The monic right divisors of degree 1 or n - 1 of the central x^n - u,
    sorted, from the roots c of x + c | x^n - u by one call of the core's
    compiled root_scan.

    N_n(-c) = (-1)^n N_n(c), so x + c divides when N_n(c) = t with
    t = (-1)^n u; sigma^m = id (m = ring.n) makes N_n(c) = N(c)^(n / m).
    N(c) mod p is an integer residue, so a target with a nonzero higher
    coordinate has no root.  Every nonzero c is lam*b for exactly one lam in
    F_p* and one class representative b of (R - 0)/F_p* (first nonzero
    coordinate 1), and sigma fixes lam, so N(c) = lam^m N(b): for a unit t
    the roots are the lam*b with lam^n N(b)^(n/m) = t, and for p | t they
    are 0 (lam = 0) and every lam*b with N(b) = 0.  This holds at every p,
    ramified included.  The scan reads its per-norm scales from
    _root_scales, a table the ring keeps by (n, t, degree) for as long as it
    lives, which two racing threads build to equal values; the scan raises
    InvalidSpec on a norm that is not rational.

    bound caps the (p^m - 1)/(p - 1) classes and is checked before any norm
    or table; so is a target with no root.
    """
    ring = central.ring
    n = int(central.degree)
    p, m = ring.p, ring.n
    u = -central.coeffs[0]
    t, *higher = (u if n % 2 == 0 else -u).coeffs
    classes = (p**m - 1) // (p - 1)
    if classes > bound:
        raise TooLarge(f"{classes} classes of (R - 0)/F_{p}* exceeds bound {bound}")
    if any(higher):
        return []
    scales = _root_scales(ring, n, t, degree)
    reps = chain.from_iterable(
        product(*[(0,)] * k, (1,), *[range(p)] * (m - 1 - k)) for k in range(m)
    )
    found = sorted(ring._core.root_scan(degree)(reps, scales, p))
    if not t:  # the root 0 (lam = 0), the least tuple: x, or x^(n-1)
        found.insert(0, ((0,) * m,) * degree)
    # Each coefficient column through the ring's element table, at C level.
    columns = [map(ring._make, column) for column in zip(*found)]
    poly = SkewPoly._make
    return [poly(ring, coeffs) for coeffs in zip(*columns, repeat(ring.one, len(found)))]


def _root_scales(ring: QuotientRing, n, t, degree):
    """The scales of the root scan for x^n - u with t = (-1)^n u mod p, a
    tuple over v in F_p, from the ring's table by (n, t, degree).

    scales[v] lists the lam in F_p* with lam^n v^(n/m) = t (m = ring.n), so
    the roots of a class b with N(b) = v are the lam*b; for t = 0 it lists
    every lam at v = 0 only.  At degree n - 1 it lists instead, per lam, the
    scalars (-lam)^L v^(L // m) of the coefficients
    q_j = (-lam)^L N(b)^(L // m) S_(L % m), L = n - 1 - j, of the Lam-Leroy
    quotient of the root a = -lam*b, as sigma fixes lam and sigma^m = id.

    A table is built on the first query for its key, p - 1 inverses and p
    powers, and lives as long as the ring; it has p entries, so callers check
    the class bound first.  Two threads that build one key at once get the
    first table stored.
    """
    key = (n, t, degree)
    scales = ring._root_scales.get(key)
    if scales is not None:
        return scales
    p, m = ring.p, ring.n
    # lams[w] lists the lam in F_p* with lam^n * w = t, w = N(b)^(n/m).
    if t:
        lams = {}
        for lam in range(1, p):
            lams.setdefault(t * pow(lam, -n, p) % p, []).append(lam)
    else:
        lams = {0: range(1, p)}
    scales = [lams.get(pow(v, n // m, p), ()) for v in range(p)]
    if degree > 1:
        scales = [
            [tuple(pow(-lam, L, p) * pow(v, L // m, p) % p for L in range(degree, 0, -1)) for lam in row]
            for v, row in enumerate(scales)
        ]
    return ring._root_scales.setdefault(key, tuple(map(tuple, scales)))


def _low_degree_divisors(central: SkewPoly, degree: int, bound):
    """Monic right divisors of the central x^n - u of degree 0, or of degree
    2 <= d <= n/2 by a scan of the monic candidates, one right division each."""
    ring = central.ring
    if degree == 0:
        return [SkewPoly.one(ring)]
    if ring.size**degree > bound:
        raise TooLarge(f"{ring.size}^{degree} candidates exceeds bound {bound}")
    out, one = [], (ring.one,)
    for tail in product(list(ring.elements(bound)), repeat=degree):
        g = SkewPoly._make(ring, tail + one)
        if central.right_divmod(g)[1].is_zero:
            out.append(g)
    return out
