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
scales by lam^m under c -> lam*c.  Only the middle degrees 2 <= d <= n/2
(n >= 4) scan the p^(n*d) monic candidates, and the enumeration bound
counts the classes the roots visit, or candidates on that scan.

The zero polynomial has an empty coefficient tuple and degree -inf (a float
sentinel, so degree comparisons need no special casing).
"""

from __future__ import annotations

from itertools import product, repeat, zip_longest
from operator import add, mod, mul, neg, sub

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
        u = _central_constant(self.ring, u)
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


def _central_constant(ring: QuotientRing, u) -> RingElement:
    """u as a ring element, raising ValueError unless sigma fixes it, which
    is what makes x^n - u central."""
    u = ring.coerce(u)
    if ring.sigma(u) != u:
        raise ValueError("u must be fixed by sigma for x^n - u to be central")
    return u


def central_poly(ring: QuotientRing, n: int, u) -> SkewPoly:
    """The polynomial x^n - u; requires sigma(u) = u so it is central."""
    return SkewPoly(ring, (-_central_constant(ring, u),) + (0,) * (n - 1) + (1,))


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
      lam^m N(b) (m = ring.n) at every p, ramified included.  So each
      class is one call of the core's compiled norm_suffixes on a raw
      coefficient tuple, and its roots are the lam*b whose lam solves the
      norm equation.  Ring elements and polynomials are built only for the
      roots, in lexicographic order.
    - d = n - 1 >= 2, by the same roots: for each root a,
      q_a = sum_{j<n} sigma^(n-1)(a)...sigma^(j+1)(a) x^j satisfies
      q_a*(x - a) = x^n - N_n(a) = x^n - u, and as x^n - u is central also
      (x - a)*q_a = x^n - u.  So a -> q_a is the cofactor bijection below,
      computed without any division; its coefficients are scalar multiples
      of the class's suffix products.
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
    if degree == n - 1 >= 2:
        return _root_quotients(central, bound)
    if degree > n - degree:
        cofactors = []
        for g in _low_degree_divisors(central, n - degree, bound):
            q, r = central.right_divmod(g)
            if not r.is_zero:
                raise NotADivisor(f"{g} does not right divide {central}")
            cofactors.append(q)
        return sorted(cofactors, key=lambda f: tuple(c.coeffs for c in f.coeffs))
    return _low_degree_divisors(central, degree, bound)


def _root_quotients(central: SkewPoly, bound):
    """The monic right divisors of degree n - 1 of the central x^n - u, sorted:
    one Lam-Leroy quotient q_a per root a, the bijection a -> q_a of
    monic_right_divisors.  For the root c = lam*b of _root_classes, a = -c
    and q_j = sigma^(n-1)(a)...sigma^(j+1)(a), L = n - 1 - j factors; sigma
    fixes lam and sigma^m = id, so q_j = (-lam)^L * N(b)^(L // m) * S_(L % m)
    with S_0 = 1 and the suffix products S_r of norm_suffixes.  The
    coefficients are scalar multiples of raw tuples, with no sigma or
    product per root."""
    ring = central.ring
    n = int(central.degree)
    p, m, ps = ring.p, ring.n, ring._ps
    one = ring.one
    quotients = []
    for lam, b, norm, suffixes in _root_classes(central, bound):
        products = (one.coeffs,) + suffixes
        scale, coeffs = 1, []
        for length in range(1, n):
            scale = scale * -lam % p
            if length % m == 0:
                scale = scale * norm % p
            coeffs.append(tuple(map(mod, map(mul, products[length % m], repeat(scale)), ps)))
        quotients.append(coeffs[::-1])
    quotients.sort()
    return [SkewPoly._make(ring, (*map(ring._make, coeffs), one)) for coeffs in quotients]


def _roots(central: SkewPoly, bound):
    """The constant terms c of the monic right divisors x + c of the central
    x^n - u, as raw coefficient tuples in lexicographic order."""
    ps = central.ring._ps
    classes = _root_classes(central, bound)
    return sorted([tuple(map(mod, map(mul, b, repeat(lam)), ps)) for lam, b, _, _ in classes])


def _root_classes(central: SkewPoly, bound):
    """The roots c of x + c | x^n - u as (lam, b, N(b), suffixes), c = lam*b.

    N_n(-c) = (-1)^n N_n(c), so x + c divides when N_n(c) = t with
    t = (-1)^n u; sigma^m = id (m = ring.n) makes N_n(c) = N(c)^(n / m).
    N(c) mod p is an integer residue, so a target with a nonzero higher
    coordinate has no root.  Every nonzero c is lam*b for exactly one lam in
    F_p* and one class representative b of (R - 0)/F_p* (first nonzero
    coordinate 1), and sigma fixes lam, so N(c) = lam^m N(b): for a unit t
    the roots are the lam*b with lam^n N(b)^(n/m) = t, and for p | t they
    are 0 (lam = 0) and every lam*b with N(b) = 0.  This holds at every p,
    ramified included.  Each class is one call of the core's norm_suffixes,
    which raises InvalidSpec on a norm that is not rational.

    bound caps the (p^m - 1)/(p - 1) classes and is checked before any norm.
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
    # scales[v] lists the lam in F_p* with lam^n * v = t, v = N(b)^(n/m).
    if t:
        scales, out = {}, []
        for lam in range(1, p):
            scales.setdefault(t * pow(lam, -n, p) % p, []).append(lam)
    else:  # 0 is a root too, as lam = 0 on the zero vector
        zero = (0,) * m
        scales, out = {0: range(1, p)}, [(0, zero, 0, (zero,) * (m - 1))]
    norm, power = ring._core.norm_suffixes, n // m
    for k in range(m):
        for tail in product(range(p), repeat=m - 1 - k):
            b = (0,) * k + (1,) + tail
            s, suffixes = norm(b)
            for lam in scales.get(pow(s, power, p), ()):
                out.append((lam, b, s, suffixes))
    return out


def _low_degree_divisors(central: SkewPoly, degree: int, bound):
    """Monic right divisors of the central x^n - u of degree d <= n/2."""
    ring = central.ring
    if degree == 0:
        return [SkewPoly.one(ring)]
    if degree == 1:
        one = ring.one
        return [SkewPoly._make(ring, (ring._make(c), one)) for c in _roots(central, bound)]
    if ring.size**degree > bound:
        raise TooLarge(f"{ring.size}^{degree} candidates exceeds bound {bound}")
    out, one = [], (ring.one,)
    for tail in product(list(ring.elements(bound)), repeat=degree):
        g = SkewPoly._make(ring, tail + one)
        if central.right_divmod(g)[1].is_zero:
            out.append(g)
    return out
