"""Exact arithmetic in the finite quotient R = Z[y]/(p, m(y)).

The ring is configured by an AlgebraSpec: a monic integer polynomial m of
degree n (the minimal polynomial of the generator, written `a` when printed),
an automorphism given by its image s(y) of the generator, a unit constant u
and a rational prime p.  Elements are coefficient vectors of length n with
entries reduced into [0, p), constant term first.  That canonical form makes
equality, hashing and enumeration order deterministic.

The arithmetic itself lives in one place, IntegralArithmetic: multiplication,
sigma and the field norm N(a) = a*sigma(a)...sigma^(n-1)(a) in O_K = Z[y]/(m)
over the integers, built once per (min_poly, sigma_image), each straight-line
integer code from one emitter: the product and sigma compiled with the core,
and the norm on its first call, with O(n^3) terms, cached on the core.  The
same emitted norm, with its suffix products, is the body of the root scans
that skew's divisor search compiles per degree on first use: a loop over
the classes of (R - 0)/F_p* that checks each norm and yields the divisors'
coefficients.  Every other power of sigma applies the one compiled sigma
again, and the tables of sigma^k(y^j) that the core's checks build give the
traces Tr(y^j).  The emitter writes its sums and tuples with skewlat.emit,
which compiles them.  Vectors of any other length are reduced modulo m by
intpoly.mod_monic, like every other polynomial remainder.
QuotientRing reduces its results modulo p, so inverses are norm cofactors
divided by the norm; lattice.NaturalOrder uses the same instance and keeps
them over Z.
AlgebraSpec is the one check of a spec's fields, and IntegralArithmetic of
m (by its discriminant for n = 2, by the order of sigma for odd prime n) and
sigma, so no consumer of a spec validates it again.

echelon_mod_p is the one elimination over F_p, and nullspace_mod_p reads
solution bases off it; codes.brute_force_dual solves its orthogonality
equations with them.

Depending on how p factors, R is a finite field (p inert), a product of
fields (p split) or a local ring with nilpotents (p ramified); decompose()
exposes that structure together with the projections onto the local factors.
The factor search divides by monic candidates over Z and then reduces modulo
p; that is exact because reduction commutes with division by a monic divisor.

A QuotientRing keeps one RingElement per reduced coefficient tuple in a
table, a dict whose __missing__ builds an element on its first use, and
every element the ring returns comes from there: a repeated residue costs
one C-level lookup instead of a new object.  The table holds at most
|R| = p^n elements, and only those built; every path that builds many
(elements(), codewords(), brute_force_dual, the middle-degree divisor scan)
is capped by ENUMERATION_BOUND.  Reduced tuples are built by map pipelines
over the coefficients, at C level.

All values are immutable after construction and safe to share across threads;
the norm and root scans a core compiles on first use are pure functions of
the core, so a second thread that compiles one too gets an equal one, and
two threads that build one residue at once may briefly hold equal copies of
its element.  The same holds for the two tables a ring keeps for skew's
divisor search, x^n - u and the root scans' scales: each entry is a pure
function of the ring and its key, stored with setdefault, so two racing
builds give equal values and both callers get the first one stored.
"""

from __future__ import annotations

import operator
import warnings
from functools import cached_property, lru_cache
from itertools import accumulate, product, repeat
from math import gcd, isqrt
from operator import add, mod, mul, neg, sub

from . import intpoly
from .emit import compile_function, linear_source, tuple_source
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
_NOT_RATIONAL = "a*sigma(a)...sigma^(n-1)(a) is not rational: min_poly is reducible"


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


class Record:
    """Value equality, and a repr Name(field=value, ...), over the fields named in _fields."""

    __slots__ = ()

    def _values(self):
        return operator.attrgetter(*self._fields)(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._values() == other._values()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class AlgebraSpec(Record):
    """Configuration of the cyclic algebra and of its coefficient ring.

    Construction is the one check of the fields, so every ring, order and
    norm built on a spec accepts the same ones.  It raises, in this order:
    InvalidSpec for a value that is not an int (floats, strings and bools
    included), an m not monic of degree at least 2, or an unknown
    conjugation_mode; NotPrime for a composite p; NonUnitU for a u that is
    not a unit mod p; and TooLarge when n^4 > ENUMERATION_BOUND.
    IntegralArithmetic, which applies m and sigma, checks them next.  A spec
    is immutable; its field tuple and its hash, which every per-spec cache
    uses, are kept from here.

    min_poly: monic integer coefficients of m(y), constant first, degree n.
    sigma_image: integer coefficients of s(y), the image of the generator
        under the automorphism.
    u: integer constant with e^n = u in the ambient algebra.
    p: rational prime defining the quotient.
    conjugation_mode: "complex" or "identity", checked and not kept: the
        trace form's conjugation is a fact of the field, not of the spec.
    """

    _fields = ("min_poly", "sigma_image", "u", "p")
    __slots__ = _fields + ("_key", "_hash")

    def __init__(self, min_poly, sigma_image, u, p, conjugation_mode="complex"):
        min_poly = _as_int_tuple(min_poly, "min_poly")
        sigma_image = _as_int_tuple(sigma_image, "sigma_image")
        for name, value in (("u", u), ("p", p)):
            if not _is_int(value):
                raise InvalidSpec(f"{name} must be an integer")
        n = len(min_poly) - 1
        if n < 2:
            raise InvalidSpec("min_poly must have degree at least 2")
        if min_poly[-1] != 1:
            raise InvalidSpec("min_poly must be monic")
        AlgebraSpec.check_conjugation_mode(conjugation_mode)
        if not _is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if gcd(u, p) != 1:
            raise NonUnitU(f"u = {u} is not a unit modulo p = {p}")
        # IntegralArithmetic tabulates sigma^k(y^j) for all k, j < n, about n^4 steps.
        if n**4 > ENUMERATION_BOUND:
            raise TooLarge(f"degree {n}: n^4 = {n**4} exceeds bound {ENUMERATION_BOUND}")
        key = (min_poly, sigma_image, u, p)
        for name, value in zip(self._fields, key):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not AlgebraSpec:
            return NotImplemented
        return other is self or self._key == other._key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return AlgebraSpec, self._key

    @property
    def n(self):
        return len(self.min_poly) - 1

    @property
    def algebra(self):
        """(min_poly, sigma_image, u): the cyclic algebra without p, the key of
        every per-algebra cache (spacetime._flat_form, invariants.division_proven)."""
        return self._key[:3]

    @staticmethod
    def check_conjugation_mode(mode):
        """The one spelling check of the inert conjugation_mode key and kwarg."""
        if mode not in ("complex", "identity"):
            raise InvalidSpec("conjugation_mode must be 'complex' or 'identity'")


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


class IntegralArithmetic:
    """Arithmetic of O_K = Z[y]/(m) on integer coefficient vectors of length n.

    Built once per (min_poly, sigma_image) pair by integral_arithmetic().
    Owns m, its folding row y^n mod m, the tables of sigma^k on the powers
    y^j and the power sums Tr(y^j), read off those tables.  mul and sigma
    take vectors of exactly n integers and return tuples reduced modulo m
    only: QuotientRing reduces them modulo p, NaturalOrder keeps them over Z.
    reduce takes vectors of any length through intpoly.mod_monic, the one
    rule for reduction modulo m; only the compiled product inlines the
    folding row.  _Emitter writes straight-line code: mul and sigma^1,
    compiled with the core, which its checks need, and _Emitter.norm, the
    one norm rule of the library, with O(n^3) terms, compiled on first use
    into norm_cofactor and into each degree's root_scan; sigma^k applies
    sigma^1 k mod n times.  After AlgebraSpec's field checks it raises
    NotIrreducible for a quadratic m whose discriminant is a square, then
    InvalidSigma unless s(y) induces a ring map of O_K of order exactly n.
    For composite n >= 4, m is trusted; QuotientRing warns.

    For odd prime n the order check proves m irreducible.  sigma permutes
    the local factors of Q[y]/(m) in cycles of length 1 or n.  An n-cycle
    needs n distinct integer roots that s permutes cyclically; each
    difference of consecutive roots then divides the next, so all have one
    absolute value, and an odd number of them cannot sum to 0.  A fixed
    factor has dimension below n, too small for a map that fixes 1 and has
    the n - 1 primitive n-th roots of unity as eigenvalues, or is
    Q[e]/(e^n), where an automorphism of odd order is unipotent.
    """

    def __init__(self, min_poly, sigma_image):
        n = len(min_poly) - 1
        self.n = n
        self.min_poly = min_poly

        if n == 2:  # a square d gives the integer roots (-m1 +- sqrt d) / 2
            d = min_poly[1] ** 2 - 4 * min_poly[0]
            if d >= 0 and isqrt(d) ** 2 == d:
                root = (-min_poly[1] - isqrt(d)) // 2
                raise NotIrreducible(f"min_poly has the integer root {root}")

        # y^n mod m: folds every coefficient above degree n-1 back down.
        self._yn = tuple(-c for c in min_poly[:n])
        emit = _Emitter(self, "a", "b")
        self.mul = emit.compile("mul", emit.mul(*emit.args, "c"))

        # sigma^k applied to the basis powers y^j, for k = 0 .. n-1, once s is
        # known to give a ring map (m(s) = sum m_j s^j vanishes in O_K) whose
        # iterates sigma^k(y) first return to y at k = n.
        self.sigma_image = self.reduce(sigma_image)
        identity = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
        powers = list(accumulate(repeat(self.sigma_image, n), self.mul, initial=identity[0]))
        if any(sum(c * power[i] for c, power in zip(min_poly, powers)) for i in range(n)):
            raise InvalidSigma("m(s(y)) is not divisible by m(y)")
        tables = [identity, tuple(powers[:n])]
        emit = _Emitter(self, "a")
        self._sigma = emit.compile("sigma", emit.sigma(*emit.args, tables[1], "s"))
        for _ in range(n - 1):
            tables.append(tuple(map(self._sigma, tables[-1])))
        order = next((k for k in range(1, n + 1) if tables[k][1] == identity[1]), None)
        if order != n:  # the discriminant has ruled out a reducible quadratic m
            raise InvalidSigma(
                (f"automorphism order is {order}, expected {n}" if order else
                 f"no sigma^k with k <= {n} returns y to y, so s(y) is no automorphism of order {n}")
                + (", or min_poly is reducible" if n > 2 else "")
            )
        self._sigma_tables = tuple(tables[:n])

        # Tr(y^j) = sum_k sigma^k(y^j), rational since sigma generates the
        # Galois group: its constant coordinate.
        self.trace_sums = tuple(sum(table[j][0] for table in self._sigma_tables) for j in range(n))
        self._root_scans = {}

    def reduce(self, coeffs):
        """Integer coefficients of any length, reduced modulo m to a tuple of
        length n; m is monic with 1 last, as AlgebraSpec checks once."""
        return intpoly.mod_monic(map(operator.index, coeffs), self.min_poly)

    def sigma(self, vec, power=1):
        """sigma^power(vec) as a tuple: the compiled sigma applied power mod n
        times.  A vector of other than n coordinates raises ValueError, as in
        the compiled functions, whatever the power."""
        k = power % self.n
        if k == 1:
            return self._sigma(vec)
        vec = tuple(vec)
        if len(vec) != self.n:
            raise ValueError(f"expected a vector of {self.n} coordinates")
        for _ in range(k):
            vec = self._sigma(vec)
        return vec

    def norm_cofactor(self, vec):
        """(N, c) with c = sigma(vec)...sigma^(n-1)(vec) and vec*c = N.

        sigma has order n on O_K, so when m is irreducible it generates the
        Galois group of K = Q[y]/(m) and N is the field norm, an integer.  A
        product vec*c with a nonzero non-constant coordinate, which only a
        reducible m allows, raises InvalidSpec.  vec has length n; the
        arithmetic runs in _norm_program, compiled on the first call.
        """
        prod, cofactor = self._norm_program(vec)
        if any(prod[1:]):
            raise InvalidSpec(_NOT_RATIONAL)
        return prod[0], cofactor

    @cached_property
    def _norm_program(self):
        """a -> (a*c, c) as tuples, c the norm cofactor: _Emitter.norm, with
        O(n^3) terms."""
        emit = _Emitter(self, "a")
        prod, suffixes = emit.norm(*emit.args)
        return emit.compile("norm", (prod, suffixes[-1]))

    def root_scan(self, degree):
        """The compiled scan for the monic right divisors of x^n' - u of
        degree 1 or, for degree >= 2, of degree n' - 1 = degree, compiled on
        the first call for each degree and cached.

        scan(classes, scales, p) iterates classes, vectors b of n
        coordinates: for each it computes N(b) and the suffix products S_r
        of _Emitter.norm inline, raises InvalidSpec when N(b) is not
        rational, and then yields one tuple of coefficient vectors for each
        entry of scales[N(b) mod p], a list over F_p.  At degree 1 an entry
        is lam and the tuple (lam*b mod p,).  At degree d an entry is d
        scalars (q_0, ..., q_(d-1)), and coefficient j of the tuple is
        q_j * S_((d - j) mod n) mod p, S_0 = 1: the coefficients below x^d
        of a Lam-Leroy quotient (see skew.monic_right_divisors).
        """
        if degree in self._root_scans:
            return self._root_scans[degree]
        n = self.n
        emit = _Emitter(self, "b")
        (b,) = emit.args
        (norm, *higher), suffixes = emit.norm(b)
        if degree == 1:
            target, rows = "lam", [[f"lam*{x} % p" for x in b]]
        else:
            target, rows = tuple_source([f"q{j}" for j in range(degree)]), []
            for j in range(degree):
                r = (degree - j) % n
                row = [f"q{j}*{x} % p" for x in suffixes[r - 1]] if r else [f"q{j}"] + ["0"] * (n - 1)
                rows.append(row)
        loop = _block(f"for {tuple_source(b)} in classes:", [
            *emit.lines,
            *_block(f"if {' or '.join(higher)}:", [f"raise InvalidSpec({_NOT_RATIONAL!r})"]),
            *_block(f"for {target} in scales[{norm} % p]:", [f"yield {tuple_source(rows)}"]),
        ])
        inner = _block("def scan(classes, scales, p):", loop)
        source = "\n".join(_block("def root_scan(InvalidSpec):", [*inner, "return scan"]))
        scan = self._root_scans[degree] = compile_function(source + "\n", "root_scan")(InvalidSpec)
        return scan


def _block(header, body):
    """The source lines of a compound statement: header, then body indented."""
    return [header, *(f"    {line}" for line in body)]


class _Emitter:
    """Straight-line integer source over one IntegralArithmetic.

    Each parameter is a vector of length n, unpacked into the locals
    <param>0 ... <param>(n-1); every value is a list of n local names.  A
    linear map is n linear forms whose table entries are integer literals, a
    product is an unrolled convolution whose coordinates above n - 1 are
    folded from the top down by y^n = -m_0 - ... - m_(n-1) y^(n-1),
    inlined.  Zero table entries and fold coefficients are dropped.  The
    assignments are kept in lines, unindented, for compile or a caller's
    loop body.
    """

    def __init__(self, core, *params):
        self.core = core
        self.params = params
        self.args = [[f"{param}{j}" for j in range(core.n)] for param in params]
        self.lines = []

    def assign(self, name, terms):
        self.lines.append(f"{name} = {linear_source(terms)}")
        return name

    def sigma(self, x, table, out):
        """The vector sum_j x_j table[j]: sigma^k(x) for the table of sigma^k(y^j)."""
        return [
            self.assign(f"{out}_{i}", [(table[j][i], a) for j, a in enumerate(x)])
            for i in range(self.core.n)
        ]

    def mul(self, x, y, out):
        n, yn = self.core.n, self.core._yn
        conv = [[] for _ in range(2 * n - 1)]
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                conv[i + j].append((1, f"{xi}*{yj}"))
        for t in range(2 * n - 2, -1, -1):
            # y^n = sum_j yn[j] y^j sends coordinate h >= n to h - n + j.
            highs = range(max(t + 1, n), min(t + n + 1, 2 * n - 1))
            self.assign(f"{out}_{t}", conv[t] + [(yn[t - h + n], f"{out}_{h}") for h in highs])
        return [f"{out}_{t}" for t in range(n)]

    def norm(self, x):
        """(x*S_(n-1), [S_1, ..., S_(n-1)]) with S_1 = sigma^(n-1)(x) and
        S_r = S_(r-1)*sigma^(n-r)(x): the n - 1 images sigma^k(x) and n - 1
        unrolled products.  x*S_(n-1) is the norm, rational when m is
        irreducible, and S_(n-1) its cofactor; the one norm rule of the
        library."""
        n, tables = self.core.n, self.core._sigma_tables
        suffixes = [self.sigma(x, tables[n - 1], f"s{n - 1}")]
        for k in range(n - 2, 0, -1):
            suffixes.append(self.mul(suffixes[-1], self.sigma(x, tables[k], f"s{k}"), f"c{k}"))
        return self.mul(x, suffixes[-1], "r"), suffixes

    def compile(self, name, value):
        """name(*params) returning value, a vector or a list of values, as nested tuples."""
        unpack = [f"{tuple_source(arg)} = {param}" for param, arg in zip(self.params, self.args)]
        body = [*unpack, *self.lines, f"return {tuple_source(value)}"]
        source = "\n".join(_block(f"def {name}({', '.join(self.params)}):", body))
        return compile_function(source + "\n", name)


@lru_cache(maxsize=32)
def integral_arithmetic(min_poly, sigma_image) -> IntegralArithmetic:
    """The shared IntegralArithmetic of O_K for this (min_poly, sigma_image), bounded."""
    return IntegralArithmetic(min_poly, sigma_image)


class RingElement:
    """Element of a QuotientRing, reduced coefficient vector of length n.

    The ring's own results are the one element it keeps per residue;
    RingElement(ring, coeffs) builds a new one, equal to it.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = ring._reduce(coeffs)

    def __add__(self, other):
        if not isinstance(other, (RingElement, int)):
            return NotImplemented
        ring = self.ring
        other = ring.coerce(other)
        return ring._make(tuple(map(mod, map(add, self.coeffs, other.coeffs), ring._ps)))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (RingElement, int)):
            return NotImplemented
        ring = self.ring
        other = ring.coerce(other)
        return ring._make(tuple(map(mod, map(sub, self.coeffs, other.coeffs), ring._ps)))

    def __rsub__(self, other):
        if not isinstance(other, (RingElement, int)):
            return NotImplemented
        other = self.ring.coerce(other)
        return other - self

    def __neg__(self):
        ring = self.ring
        return ring._make(tuple(map(mod, map(neg, self.coeffs), ring._ps)))

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


class _ElementTable(dict):
    """A ring's elements by reduced coefficient tuple, each built on its first lookup.

    The ring's _make is the table's __getitem__, so looking up an element
    that is already built runs no Python frame.  setdefault keeps the first
    of two copies that threads build at once, and both get that one.
    """

    __slots__ = ("ring",)

    def __init__(self, ring):
        self.ring = ring

    def __missing__(self, reduced):
        el = object.__new__(RingElement)
        el.ring = self.ring
        el.coeffs = reduced
        return self.setdefault(reduced, el)


class QuotientRing:
    """The ring R = Z[y]/(p, m(y)) with its automorphism sigma.

    Validates nothing (see AlgebraSpec); it only warns that irreducibility
    is trusted for a composite degree.  The ring keeps one RingElement per
    residue it has built, so it holds at most |R| = p^n of them; element,
    from_int, the constants, the arithmetic, sigma and inverse all return
    those.
    """

    def __init__(self, spec: AlgebraSpec):
        n = spec.n
        if not _is_prime(n):
            warnings.warn(
                "irreducibility over Q is only verified for prime degrees; "
                f"degree {n} is trusted",
                stacklevel=2,
            )
        self._core = integral_arithmetic(spec.min_poly, spec.sigma_image)

        self.spec = spec
        self.p = spec.p
        self.n = n
        self.modulus = tuple(c % spec.p for c in spec.min_poly)
        self.sigma_poly = tuple(c % spec.p for c in self._core.sigma_image)
        # An endless repeat has no state, so one serves every map(mod, values, self._ps).
        self._ps = repeat(spec.p)
        # The element of a reduced coefficient tuple: a C-level lookup in the
        # ring's table, which builds each element on its first use.
        self._make = _ElementTable(self).__getitem__
        # skew's divisor set-up, kept for the ring's lifetime: x^n - u by
        # (n, u.coeffs) in central_poly, the root scans' scales by
        # (n, t, degree) in _root_scales.
        self._central_polys = {}
        self._root_scales = {}

    # -- raw coefficient arithmetic ------------------------------------

    def _reduce(self, coeffs):
        return tuple(map(mod, self._core.reduce(coeffs), self._ps))

    def _mul(self, a, b):
        return tuple(map(mod, self._core.mul(a, b), self._ps))

    # -- public API ----------------------------------------------------

    @property
    def size(self):
        return self.p**self.n

    def element(self, coeffs) -> RingElement:
        if isinstance(coeffs, RingElement):
            return self.coerce(coeffs)
        return self._make(self._reduce(coeffs))

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
        return self._make(tuple(map(mod, self._core.sigma(a.coeffs, k), self._ps)))

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
        scale = repeat(pow(norm, -1, p), self.n)
        return self._make(tuple(map(mod, map(mul, cofactor, scale), self._ps)))

    def elements(self, bound=ENUMERATION_BOUND):
        """All p^n elements, lexicographic by coefficient vector."""
        if self.size > bound:
            raise TooLarge(f"{self.size} elements exceeds bound {bound}")
        yield from map(self._make, product(range(self.p), repeat=self.n))

    @cached_property
    def _decomposition(self):
        return RingDecomposition(self)

    def decompose(self) -> "RingDecomposition":
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


def nullspace_mod_p(echelon, ncols, p):
    """Basis of {v in F_p^ncols : row . v = 0 mod p for every row} of the
    rows whose echelon_mod_p form is echelon = (basis, pivots).

    One vector per free column f of the echelon form: 1 at f, 0 at the other
    free columns, and minus the column f entry of each echelon row at that
    row's pivot.  The vectors come in increasing order of f.
    """
    basis, pivots = echelon
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

