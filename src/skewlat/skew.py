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

Monic right divisors of x^n - u come from roots and cofactors: degree 1 by
the norm test N_n(-c) = u over the p^n ring elements (Lam-Leroy evaluation),
degree n - 1 as the closed-form Lam-Leroy quotients of the same roots, and
any other degree d > n - d as the quotients of x^n - u by the divisors of
degree n - d.  Only the middle degrees 2 <= d <= n/2 (n >= 4) scan the
p^(n*d) monic candidates, and the enumeration bound counts ring elements, or
candidates on that scan.

The zero polynomial has an empty coefficient tuple and degree -inf (a float
sentinel, so degree comparisons in division loops need no special casing).
"""

from __future__ import annotations

from itertools import product

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
            return other
        if isinstance(other, (RingElement, int)):
            return type(self)(self.ring, (other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return type(self)(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.ring, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return type(self).zero(self.ring)
        ring = self.ring
        out = [ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * ring.sigma(b, self.TWIST * i)
        return type(self)(ring, out)

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

    def _check_divisor(self, g):
        if g.is_zero:
            raise DivisionByZero("division by the zero polynomial")
        try:
            return g.lead.inverse()
        except NotInvertible:
            raise NonUnitLeading(
                f"leading coefficient {g.lead!r} is not a unit"
            ) from None

    def right_divmod(self, g: "SkewPoly"):
        """Unique (q, r) with self = q*g + r and deg r < deg g."""
        g = self._coerce(g)
        lead_inv = self._check_divisor(g)
        ring = self.ring
        q = type(self).zero(ring)
        r = self
        l = g.degree
        while not r.is_zero and r.degree >= l:
            shift = r.degree - l
            c = r.lead * ring.sigma(lead_inv, self.TWIST * shift)
            term = type(self).monomial(ring, shift, c)
            q = q + term
            r = r - term * g
        return q, r

    def left_divmod(self, g: "SkewPoly"):
        """Unique (q, r) with self = g*q + r and deg r < deg g.

        Right division in the opposite ring: opposite(self) =
        opposite(q)*opposite(g) + opposite(r), and opposite is its own inverse.
        """
        q, r = opposite(self).right_divmod(opposite(self._coerce(g)))
        return opposite(q), opposite(r)

    def mod_central(self, n: int, u) -> "SkewPoly":
        """Canonical representative of degree < n modulo x^n - u.

        u is fixed by sigma, so c*x^i = c*x^(i-n)*x^n is congruent to
        (u*c)*x^(i-n) for i >= n; folding from the top down leaves the
        remainder of right division by x^n - u without dividing.
        """
        if self.degree < n:
            return self
        u = _central_constant(self.ring, u)
        cs = list(self.coeffs)
        for i in range(len(cs) - 1, n - 1, -1):
            top = cs.pop()
            if top:
                cs[i - n] = cs[i - n] + u * top
        return type(self)(self.ring, cs)

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
    return image(ring, tuple(ring.sigma(c, -f.TWIST * i) for i, c in enumerate(f.coeffs)))


def _central_constant(ring: QuotientRing, u) -> RingElement:
    """u as a ring element, raising ValueError unless sigma fixes it, which
    is what makes x^n - u central."""
    u = ring.coerce(u)
    if ring.sigma(u) != u:
        raise ValueError("u must be fixed by sigma for x^n - u to be central")
    return u


def central_poly(ring: QuotientRing, n: int, u, cls=SkewPoly) -> SkewPoly:
    """The polynomial x^n - u; requires sigma(u) = u so it is central."""
    return cls(ring, (-_central_constant(ring, u),) + (0,) * (n - 1) + (1,))


def monic_right_divisors(ring: QuotientRing, n: int, u, degree: int, bound=ENUMERATION_BOUND):
    """All monic right divisors of x^n - u of the given degree.

    The result is lexicographic by coefficient vector, constant term first.
    n must be a positive multiple of ring.n, the order of sigma, so that
    sigma^n = id.  How the divisors are found depends on d = degree:

    - d = 1, by roots: x + c right-divides x^n - u exactly when N_n(-c) = u,
      where N_n(a) = sigma^(n-1)(a)...sigma(a)*a is the remainder of x^n on
      right division by x - a (Lam-Leroy evaluation).  As sigma^(ring.n) = id,
      N_n(c) = N(c)^(n / ring.n) with N the field norm, so each of the p^n
      elements c, scanned as a raw coefficient tuple, costs one call of the
      core's compiled norm_cofactor; ring elements and polynomials are built
      only for the roots.
    - d = n - 1 >= 2, by the same roots: for each root a,
      q_a = sum_{j<n} sigma^(n-1)(a)...sigma^(j+1)(a) x^j satisfies
      q_a*(x - a) = x^n - N_n(a) = x^n - u, and as x^n - u is central also
      (x - a)*q_a = x^n - u.  So a -> q_a is the cofactor bijection below,
      computed without any division.
    - any other d > n - d, by cofactors: x^n - u is central and a monic
      polynomial is not a zero divisor, so h*g = x^n - u exactly when
      g*h = x^n - u.  The divisors of degree d are the quotients
      (x^n - u)/g over the divisors g of degree n - d, one right division
      each, and the map is a bijection.  Degree n is the cofactor of 1;
      degree above n has no divisor.
    - 2 <= d <= n/2, which needs n >= 4: a scan of the p^(n*d) monic
      candidates, one right division each.

    bound limits the p^n elements the root scan visits and, on the middle
    degrees only, the candidates; beyond it TooLarge is raised.
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
    monic_right_divisors.  The coefficients q_(n-1) = 1 and
    q_(j-1) = q_j * sigma^j(a) make q_a*(x - a) = x^n - q_0*a = x^n - N_n(a);
    they are built on raw tuples, n - 1 sigma applications and n - 2
    products per root, and polynomials only for the output."""
    ring = central.ring
    n = int(central.degree)
    p, sigma, mul = ring.p, ring._core.sigma, ring._mul
    one = ring.one.coeffs
    quotients = []
    for c in _roots(central, bound):
        a = tuple(-v % p for v in c)
        q = tuple(v % p for v in sigma(a, n - 1))
        coeffs = [one, q]
        for j in range(n - 2, 0, -1):
            q = mul(q, sigma(a, j))
            coeffs.append(q)
        quotients.append(coeffs[::-1])
    quotients.sort()
    return [SkewPoly(ring, [ring._make(q) for q in coeffs]) for coeffs in quotients]


def _roots(central: SkewPoly, bound):
    """The constant terms c of the monic right divisors x + c of the central
    x^n - u, as raw coefficient tuples in lexicographic order.

    N_n(-c) = (-1)^n N_n(c), so x + c divides when N_n(c) = (-1)^n u;
    sigma^(ring.n) = id makes N_n(c) = N(c)^(n / ring.n).  N(c) mod p is an
    integer residue, so a target with a nonzero higher coordinate has no
    root.
    """
    ring = central.ring
    n = int(central.degree)
    if ring.size > bound:
        raise TooLarge(f"{ring.size} elements exceeds bound {bound}")
    u = -central.coeffs[0]
    target, *higher = (u if n % 2 == 0 else -u).coeffs
    if any(higher):
        return []
    power, p = n // ring.n, ring.p
    norm = ring._core.norm_cofactor
    return [c for c in product(range(p), repeat=ring.n) if pow(norm(c)[0], power, p) == target]


def _low_degree_divisors(central: SkewPoly, degree: int, bound):
    """Monic right divisors of the central x^n - u of degree d <= n/2."""
    ring = central.ring
    if degree == 0:
        return [SkewPoly.one(ring)]
    if degree == 1:
        return [SkewPoly(ring, (ring._make(c), ring.one)) for c in _roots(central, bound)]
    if ring.size**degree > bound:
        raise TooLarge(f"{ring.size}^{degree} candidates exceeds bound {bound}")
    out = []
    for tail in product(list(ring.elements(bound)), repeat=degree):
        g = SkewPoly(ring, tail + (ring.one,))
        if central.right_divmod(g)[1].is_zero:
            out.append(g)
    return out
