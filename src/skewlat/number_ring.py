"""Exact arithmetic in the finite quotient R = Z[y]/(p, m(y)).

The ring is configured by an AlgebraSpec: a monic integer polynomial m of
degree n (the minimal polynomial of the generator, written `a` when printed),
an automorphism given by its image s(y) of the generator, a unit constant u
and a rational prime p.  Elements are coefficient vectors of length n with
entries reduced into [0, p), constant term first.  That canonical form makes
equality, hashing and enumeration order deterministic.

The arithmetic itself lives in one place, IntegralArithmetic: multiplication,
sigma and the field norm N(a) = a*sigma(a)...sigma^(n-1)(a) in O_K = Z[y]/(m)
over the integers, built once per (min_poly, sigma_image).  QuotientRing
reduces its results modulo p, so inverses are norm cofactors divided by the
norm; lattice.NaturalOrder uses the same instance and keeps them over Z.
AlgebraSpec is the one check of a spec's fields, and IntegralArithmetic of
m and sigma, so no consumer of a spec validates it again.

echelon_mod_p is the one elimination over F_p, and nullspace_mod_p reads
solution bases off it; codes.brute_force_dual solves its orthogonality
equations with them.

Depending on how p factors, R is a finite field (p inert), a product of
fields (p split) or a local ring with nilpotents (p ramified); decompose()
exposes that structure together with the projections onto the local factors.
The factor search divides by monic candidates over Z and then reduces modulo
p; that is exact because reduction commutes with division by a monic divisor.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, isqrt

from . import intpoly
from .errors import (
    InvalidSigma,
    InvalidSpec,
    NonUnitU,
    NotInvertible,
    NotIrreducible,
    NotPrime,
    TooLarge,
)

ENUMERATION_BOUND = 10**6


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _as_int_tuple(values, field_name):
    try:
        out = None if isinstance(values, str) else tuple(values)
    except TypeError:
        out = None
    if out is None or not all(map(_is_int, out)):
        raise InvalidSpec(f"{field_name} must be a sequence of integers")
    return out


@dataclass(frozen=True)
class AlgebraSpec:
    """Configuration of the cyclic algebra and of its coefficient ring.

    Construction is the one check of the fields, so every ring, order and
    norm built on a spec accepts the same ones.  It raises, in this order:
    InvalidSpec for a value that is not an int (floats, strings and bools
    included), an m not monic of degree at least 2, an unknown
    conjugation_mode, or "complex" on a field that is not quadratic;
    NotPrime for a composite p; NonUnitU for a u that is not a unit mod p;
    and TooLarge when n^4 > ENUMERATION_BOUND.  IntegralArithmetic, which
    applies m and sigma, checks them next.

    min_poly: monic integer coefficients of m(y), constant first, degree n.
    sigma_image: integer coefficients of s(y), the image of the generator
        under the automorphism.
    u: integer constant with e^n = u in the ambient algebra.
    p: rational prime defining the quotient.
    conjugation_mode: "complex" (conjugate = sigma, imaginary quadratic) or
        "identity" (totally real); used only by the trace form.
    """

    min_poly: tuple
    sigma_image: tuple
    u: int
    p: int
    conjugation_mode: str = "complex"

    def __post_init__(self):
        object.__setattr__(self, "min_poly", _as_int_tuple(self.min_poly, "min_poly"))
        object.__setattr__(self, "sigma_image", _as_int_tuple(self.sigma_image, "sigma_image"))
        for name in ("u", "p"):
            if not _is_int(getattr(self, name)):
                raise InvalidSpec(f"{name} must be an integer")
        n = self.n
        if n < 2:
            raise InvalidSpec("min_poly must have degree at least 2")
        if self.min_poly[-1] != 1:
            raise InvalidSpec("min_poly must be monic")
        if self.conjugation_mode not in ("complex", "identity"):
            raise InvalidSpec("conjugation_mode must be 'complex' or 'identity'")
        if self.conjugation_mode == "complex" and n != 2:
            raise InvalidSpec("complex conjugation mode requires a quadratic field")
        if not _is_prime(self.p):
            raise NotPrime(f"p = {self.p} is not prime")
        if gcd(self.u, self.p) != 1:
            raise NonUnitU(f"u = {self.u} is not a unit modulo p = {self.p}")
        # IntegralArithmetic tabulates sigma^k(y^j) for all k, j < n, about n^4 steps.
        if n**4 > ENUMERATION_BOUND:
            raise TooLarge(f"degree {n}: n^4 = {n**4} exceeds bound {ENUMERATION_BOUND}")

    @property
    def n(self):
        return len(self.min_poly) - 1


# Miller-Rabin over the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p):
    """Deterministic Miller-Rabin; raises TooLarge where it is not proven."""
    if p < 2:
        return False
    if p >= _MILLER_RABIN_LIMIT:
        raise TooLarge(f"primality of p = {p} is only decided below {_MILLER_RABIN_LIMIT}")
    for a in _MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x != 1 and p - 1 not in (pow(x, 2**r, p) for r in range(s)):
            return False
    return True


def _integer_root(m):
    """An integer root of the monic integer polynomial m of degree 2 or 3, or None.

    Every real root lies inside the Cauchy bound 1 + max|m_i|, and m is monotone
    between the integers next to its critical points, so bisection on each
    monotone piece decides exactly, with O(log bound) evaluations.
    """

    def at(x):
        v = 0
        for c in reversed(m):
            v = v * x + c
        return v

    bound = 1 + max(abs(c) for c in m[:-1])
    if len(m) == 3:
        near = [-m[1] // 2]  # m' = 2y + m1
    else:
        # m' = 3y^2 + 2 m2 y + m1 vanishes at (-m2 +- sqrt(disc)) / 3.
        disc = m[2] * m[2] - 3 * m[1]
        near = [(-m[2] + r) // 3 for r in (isqrt(disc), -isqrt(disc))] if disc >= 0 else []
    # Each critical point lies within 1 of its `near` integer, so it falls in
    # a unit gap between cuts and m is monotone on every longer piece.
    cuts = sorted({-bound, bound}.union(*(range(f - 1, f + 3) for f in near)))
    points = [(x, at(x)) for x in cuts if -bound <= x <= bound]
    for x, v in points:
        if v == 0:
            return x
    for (lo, vlo), (hi, vhi) in zip(points, points[1:]):
        negative = vlo < 0
        if negative == (vhi < 0):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            v = at(mid)
            if v == 0:
                return mid
            if (v < 0) == negative:
                lo = mid
            else:
                hi = mid
    return None


class IntegralArithmetic:
    """Arithmetic of O_K = Z[y]/(m) on integer coefficient vectors of length n.

    Built once per (min_poly, sigma_image) pair by integral_arithmetic().
    Owns the folding row y^n mod m, the tables of sigma^k on the powers y^j
    and the power sums Tr(y^j).  Results are integer lists reduced modulo
    m only: QuotientRing reduces them modulo p, NaturalOrder keeps them over Z.
    norm_cofactor is the one norm rule of the library.  After AlgebraSpec's
    field checks it raises NotIrreducible for a reducible m of degree at most
    3 (above that irreducibility is trusted, and QuotientRing warns), then
    InvalidSigma unless s(y) induces a ring map of O_K of order exactly n.
    """

    def __init__(self, min_poly, sigma_image):
        n = len(min_poly) - 1
        self.n = n

        # A monic quadratic or cubic is reducible over Q exactly when it has a
        # rational, hence integer, root.
        root = _integer_root(min_poly) if n <= 3 else None
        if root is not None:
            raise NotIrreducible(f"min_poly has the integer root {root}")

        # y^n mod m: folds every coefficient above degree n-1 back down.
        self._yn = tuple(-c for c in min_poly[:n])

        # sigma^k applied to the basis powers y^j, for k = 1 .. n-1, once s is
        # known to give a ring map (m(s) = sum m_j s^j vanishes in O_K) whose
        # iterates sigma^k(y) first return to y at k = n.
        self.sigma_image = tuple(self.reduce(sigma_image))
        powers = [self.reduce((1,))]
        for _ in range(n):
            powers.append(self.mul(powers[-1], self.sigma_image))
        if any(sum(c * power[i] for c, power in zip(min_poly, powers)) for i in range(n)):
            raise InvalidSigma("m(s(y)) is not divisible by m(y)")
        tables = [tuple(tuple(power) for power in powers[:n])]
        y = self.reduce((0, 1))
        image, order = y, None
        for k in range(1, n + 1):
            image = self._apply(image, tables[0])
            if image == y:
                order = k
                break
        if order != n:
            raise InvalidSigma(f"automorphism order is {order}, expected {n}")
        for _ in range(n - 2):
            tables.append(tuple(tuple(self._apply(vec, tables[0])) for vec in tables[-1]))
        self._sigma_tables = tuple(tables)

        # Tr(y^j) for j < n via Newton's identities.
        sums = [n]
        for k in range(1, n):
            acc = k * min_poly[n - k]
            for i in range(1, k):
                acc += min_poly[n - i] * sums[k - i]
            sums.append(-acc)
        self.trace_sums = tuple(sums)

    def _fold(self, c):
        """Reduce the integer list c modulo m in place, down to length n."""
        n = self.n
        while len(c) > n:
            top = c.pop()
            if top:
                for j, y in enumerate(self._yn, len(c) - n):
                    c[j] += top * y
        return c

    def reduce(self, coeffs):
        """Integer coefficients of any length, reduced modulo m to length n."""
        c = list(map(operator.index, coeffs))
        return self._fold(c + [0] * (self.n - len(c)))

    def mul(self, a, b):
        conv = [0] * (2 * self.n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        return self._fold(conv)

    def _apply(self, vec, table):
        out = [0] * self.n
        for j, c in enumerate(vec):
            if c:
                img = table[j]
                for i in range(self.n):
                    out[i] += c * img[i]
        return out

    def sigma(self, vec, power=1):
        k = power % self.n
        return self._apply(vec, self._sigma_tables[k - 1]) if k else list(vec)

    def norm_cofactor(self, vec):
        """(N, c) with c = sigma(vec)...sigma^(n-1)(vec) and vec*c = N.

        sigma has order n on O_K, so when m is irreducible it generates the
        Galois group of K = Q[y]/(m) and N is the field norm, an integer.  A
        product with a nonzero non-constant coordinate, which only a
        reducible m allows, raises InvalidSpec.
        """
        cofactor = self.sigma(vec)
        for k in range(2, self.n):
            cofactor = self.mul(cofactor, self.sigma(vec, k))
        norm, *rest = self.mul(vec, cofactor)
        if any(rest):
            raise InvalidSpec("a*sigma(a)...sigma^(n-1)(a) is not rational: min_poly is reducible")
        return norm, cofactor


@lru_cache(maxsize=None)
def integral_arithmetic(min_poly, sigma_image) -> IntegralArithmetic:
    """The shared IntegralArithmetic of O_K for this (min_poly, sigma_image)."""
    return IntegralArithmetic(min_poly, sigma_image)


class RingElement:
    """Element of a QuotientRing, reduced coefficient vector of length n."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = ring._reduce(coeffs)

    def __add__(self, other):
        if not isinstance(other, (RingElement, int)):
            return NotImplemented
        other = self.ring.coerce(other)
        p = self.ring.p
        return self.ring._make(tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (RingElement, int)):
            return NotImplemented
        other = self.ring.coerce(other)
        p = self.ring.p
        return self.ring._make(tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        if not isinstance(other, (RingElement, int)):
            return NotImplemented
        other = self.ring.coerce(other)
        return other - self

    def __neg__(self):
        p = self.ring.p
        return self.ring._make(tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, (RingElement, int)):
            return NotImplemented
        other = self.ring.coerce(other)
        return self.ring._make(self.ring._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = self.ring.one
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.from_int(other)
        return (
            isinstance(other, RingElement)
            and self.coeffs == other.coeffs
            and self.ring == other.ring
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def sigma(self, power=1):
        return self.ring.sigma(self, power)

    def inverse(self):
        return self.ring.inverse(self)

    def is_unit(self):
        return self.ring.norm(self) != 0

    def to_list(self):
        return list(self.coeffs)

    def __str__(self):
        return intpoly.to_str(self.coeffs, "a")

    def __repr__(self):
        return f"RingElement({self} mod {self.ring.p})"


class QuotientRing:
    """The ring R = Z[y]/(p, m(y)) with its automorphism sigma.

    Validates nothing (see AlgebraSpec); it only warns that irreducibility
    is trusted above degree 3.
    """

    def __init__(self, spec: AlgebraSpec):
        n = spec.n
        if n > 3:
            warnings.warn(
                "irreducibility over Q is only verified up to degree 3; "
                f"degree {n} is trusted",
                stacklevel=2,
            )
        self._core = integral_arithmetic(spec.min_poly, spec.sigma_image)

        self.spec = spec
        self.p = spec.p
        self.n = n
        self.modulus = tuple(c % spec.p for c in spec.min_poly)
        self.sigma_poly = tuple(c % spec.p for c in self._core.sigma_image)
        self._decomposition = None

    # -- raw coefficient arithmetic ------------------------------------

    def _reduce(self, coeffs):
        p = self.p
        return tuple(v % p for v in self._core.reduce(coeffs))

    def _make(self, reduced):
        el = object.__new__(RingElement)
        el.ring = self
        el.coeffs = reduced
        return el

    def _mul(self, a, b):
        p = self.p
        return tuple(v % p for v in self._core.mul(a, b))

    # -- public API ----------------------------------------------------

    @property
    def size(self):
        return self.p**self.n

    def element(self, coeffs) -> RingElement:
        if isinstance(coeffs, RingElement):
            return self.coerce(coeffs)
        return RingElement(self, coeffs)

    def from_int(self, value) -> RingElement:
        return self._make(((value % self.p),) + (0,) * (self.n - 1))

    @property
    def zero(self):
        return self._make((0,) * self.n)

    @property
    def one(self):
        return self.from_int(1)

    @property
    def gen(self):
        """The image of y, the generator of the ring over F_p."""
        return self._make(self._reduce((0, 1)))

    @property
    def u(self):
        return self.from_int(self.spec.u)

    def coerce(self, value) -> RingElement:
        """value as an element of this ring: the one place that checks an
        element's ring, raising ValueError for an element of another ring."""
        if isinstance(value, RingElement):
            if value.ring is self or value.ring == self:
                return value
            raise ValueError("element belongs to a different ring")
        if isinstance(value, int):
            return self.from_int(value)
        return self.element(value)

    def sigma(self, a: RingElement, power=1) -> RingElement:
        k = power % self.n
        if k == 0:
            return self.coerce(a)
        a = self.coerce(a)
        p = self.p
        return self._make(tuple(v % p for v in self._core.sigma(a.coeffs, k)))

    def norm(self, a: RingElement) -> int:
        """The field norm N(a) = a*sigma(a)...sigma^(n-1)(a), in [0, p)."""
        return self._core.norm_cofactor(self.coerce(a).coeffs)[0] % self.p

    def inverse(self, a: RingElement) -> RingElement:
        """sigma(a)...sigma^(n-1)(a) / N(a); a is a unit exactly when p does not divide N(a)."""
        a = self.coerce(a)
        p = self.p
        norm, cofactor = self._core.norm_cofactor(a.coeffs)
        if norm % p == 0:
            raise NotInvertible(f"{a!r} is not a unit")
        scale = pow(norm, -1, p)
        return self._make(tuple(v * scale % p for v in cofactor))

    def elements(self, bound=ENUMERATION_BOUND):
        """All p^n elements, lexicographic by coefficient vector."""
        if self.size > bound:
            raise TooLarge(f"{self.size} elements exceeds bound {bound}")
        for coeffs in product(range(self.p), repeat=self.n):
            yield self._make(coeffs)

    def decompose(self) -> "RingDecomposition":
        if self._decomposition is None:
            self._decomposition = RingDecomposition(self)
        return self._decomposition

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and self.p == other.p
            and self.modulus == other.modulus
            and self.sigma_poly == other.sigma_poly
        )

    def __hash__(self):
        return hash((self.p, self.modulus, self.sigma_poly))

    def __repr__(self):
        return f"QuotientRing(p={self.p}, m={list(self.modulus)})"


# -- linear algebra over F_p ----------------------------------------------


def echelon_mod_p(rows, p):
    """Reduced row echelon form of an integer matrix over F_p.

    Returns (basis, pivots): the nonzero rows of the form, entries in [0, p),
    each with a 1 in its pivot column and 0 in the other rows' pivot columns,
    and the strictly increasing pivot columns.  The one elimination over F_p
    of the library.
    """
    basis, pivots = [], []
    pending = [[v % p for v in row] for row in rows]
    ncols = len(pending[0]) if pending else 0
    for col in range(ncols):
        at = next((i for i, row in enumerate(pending) if row[col]), None)
        if at is None:
            continue
        row = pending.pop(at)
        scale = pow(row[col], -1, p)
        row = [v * scale % p for v in row]
        for other in pending + basis:
            factor = other[col]
            if factor:
                for j in range(col, ncols):
                    other[j] = (other[j] - factor * row[j]) % p
        basis.append(row)
        pivots.append(col)
    return basis, pivots


def nullspace_mod_p(rows, ncols, p):
    """Basis of {v in F_p^ncols : row . v = 0 mod p for every row}.

    One vector per free column f of the echelon form: 1 at f, 0 at the other
    free columns, and minus the column f entry of each echelon row at that
    row's pivot.  The vectors come in increasing order of f.
    """
    basis, pivots = echelon_mod_p(rows, p)
    out = []
    for free in sorted(set(range(ncols)).difference(pivots)):
        vec = [0] * ncols
        vec[free] = 1
        for row, pivot in zip(basis, pivots):
            vec[pivot] = -row[free] % p
        out.append(vec)
    return out


# -- factorization of m mod p and the local projections ----------------


def _trim_mod(c, p):
    return intpoly.trim(v % p for v in c)


def _factor_mod_p(m, p):
    """Monic irreducible factors of m over F_p, with multiplicities.

    Exhaustive root search first (roots in ascending order), then monic
    divisors of growing degree; adequate at the small sizes this library
    targets.  Factors come out in discovery order, which is deterministic.
    Raises TooLarge when p, or p^d for a degree-d search, exceeds ENUMERATION_BOUND.
    """
    rem = _trim_mod(m, p)
    factors = []

    def record(f):
        if factors and factors[-1][0] == f:
            factors[-1][1] += 1
        else:
            factors.append([f, 1])

    def divide_out(cand):
        nonlocal rem
        while len(rem) - 1 >= len(cand) - 1:
            q, s = intpoly.divmod_monic(rem, cand)
            if any(v % p for v in s):
                break
            record(cand)
            rem = _trim_mod(q, p)

    if p > ENUMERATION_BOUND:
        raise TooLarge(f"root search over {p} residues exceeds bound")
    for r in range(p):
        divide_out(((-r) % p, 1))

    # No linear factors remain, so the lexicographically first monic divisor
    # of each degree d (scanned in ascending d) is irreducible.
    d = 2
    while 2 * d <= len(rem) - 1:
        if p**d > ENUMERATION_BOUND:
            raise TooLarge(f"factor search over {p}^{d} candidates exceeds bound")
        for tail in product(range(p), repeat=d):
            divide_out(tail + (1,))
        d += 1
    if len(rem) > 1:
        record(rem)
    return [(tuple(f), e) for f, e in factors]


class RingDecomposition:
    """How p factors in the ring: irreducible factors of m mod p with their
    multiplicities, and the projections of R onto the local quotients
    F_p[y]/(f_i^{e_i})."""

    def __init__(self, ring: QuotientRing):
        self.ring = ring
        self.factors = _factor_mod_p(ring.modulus, ring.p)
        self.moduli = []
        for f, e in self.factors:
            q = (1,)
            for _ in range(e):
                q = _trim_mod(intpoly.mul(q, f), ring.p)
            self.moduli.append(q)

    def ramification(self) -> str:
        if any(e > 1 for _, e in self.factors):
            return "ramified"
        if len(self.factors) == 1:
            return "inert"
        return "split"

    def project(self, a: RingElement):
        """Image of a in each local factor, as coefficient tuples."""
        a = self.ring.coerce(a)
        out = []
        for q in self.moduli:
            r = _trim_mod(intpoly.mod_monic(a.coeffs, q), self.ring.p)
            out.append(tuple(r) + (0,) * (len(q) - 1 - len(r)))
        return tuple(out)

    def __repr__(self):
        parts = ", ".join(f"{list(f)}^{e}" for f, e in self.factors)
        return f"RingDecomposition({self.ramification()}: {parts})"


def norm_witnesses(spec: AlgebraSpec, bound: int):
    """Search the vectors a in [-bound, bound]^n for field norms N(a) equal to u^i.

    Returns all witnesses (*a, i) with i in 1..n-1, lexicographic in a; for a
    quadratic field they read (a0, a1, i).  An empty list is consistent with,
    but does not prove, the division property.
    """
    core = integral_arithmetic(spec.min_poly, spec.sigma_image)
    targets = [(spec.u**i, i) for i in range(1, spec.n)]
    out = []
    for vec in product(range(-bound, bound + 1), repeat=spec.n):
        norm = core.norm_cofactor(vec)[0]
        out.extend((*vec, i) for value, i in targets if norm == value)
    return out
