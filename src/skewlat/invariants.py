"""Local invariants that prove a cyclic algebra is a division algebra.

The cyclic algebra (K/Q, sigma, u) of degree n, K = Q[y]/(m), has an
invariant inv_v in (1/n)Z/Z at each place v of Q, and its index, n exactly
for a division algebra, is the least common multiple of their orders
(Albert-Brauer-Hasse-Noether; Reiner, Maximal Orders, sections 30-32).  So
one invariant of order n proves a division algebra.  division_proven looks
for one at two kinds of place; False means "not proven", never "split".

- The real place, n = 2: disc(m) < 0 (K imaginary) and u < 0 give
  inv = 1/2, a definite quaternion algebra.
- An inert prime: a prime l | u with l not dividing disc(m) is unramified in
  K and prime to the index of Z[y], so its Frobenius is the power sigma^r
  with sigma^r(y) = y^l modulo (l, m), and inv_l = r v_l(u) / n up to a
  unit of Z/n (Sethuraman, Rajan and Shashidhar, IEEE Trans. IT 49, 2003).
  It has order n when gcd(r v_l(u), n) = 1.  Then Frobenius and sigma
  generate one group of maps of F_l[y]/(m), a product of fields, one per
  irreducible factor of m modulo l, as l does not divide disc(m); so its
  Frobenius-fixed part, whose dimension counts those factors (Berlekamp),
  is its sigma-fixed part, and that part is required to be F_l: m is
  irreducible modulo l, hence over Q, and the case never fires on a
  reducible m of the composite degrees that QuotientRing trusts.

disc(m) = (-1)^(n(n-1)/2) N(m'(y)), N the core's norm_cofactor (a norm that
is not rational, which only a reducible m gives, proves nothing), and y^l
comes by repeated squaring with the core's mul, reduced modulo l; the
images sigma(y^j) and sigma^k(y) are read off the core's sigma tables, and
the sigma-fixed part is the kernel of sigma - 1, from echelon_mod_p.  The
primes of u are found by trial division below _TRIAL, so a cofactor above
_TRIAL^2 with no prime below _TRIAL proves nothing.

spacetime.min_det_sample reads the answer: in a division algebra every
nonzero point a of the Construction A lattice L of a code of dimension k, a
left ideal of the order Lambda, has |norm_det(a)| = [Lambda : Lambda a] >=
[Lambda : L] = p^(n(n-k)), so a sweep may end at the first |nrd(a)| that
meets p^(n-k).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import sub

from .errors import InvalidSpec
from .number_ring import echelon_mod_p, integral_arithmetic

_TRIAL = 1 << 16  # trial divisors of u tried below this


def _prime_powers(u):
    """(l, v_l(u)) for the primes l of u, by trial division below _TRIAL.  A
    cofactor left with no prime below _TRIAL is a prime when it is below
    _TRIAL^2 and comes last; above that it is skipped."""
    rest, ell = abs(u), 2
    while ell < _TRIAL and ell * ell <= rest:
        v = 0
        while rest % ell == 0:
            rest //= ell
            v += 1
        if v:
            yield ell, v
        ell += 1
    if rest > 1 and ell * ell > rest:
        yield rest, 1


def _frobenius_power(core, ell):
    """The r in [0, n) with sigma^r(y) = y^ell modulo (ell, m), or None when
    no power of sigma matches or sigma fixes more than F_ell in F_ell[y]/(m)."""
    tables = core._sigma_tables  # tables[k][j] = sigma^k(y^j)
    units = tables[0]
    rows = [map(sub, image, e) for image, e in zip(tables[1], units)]  # sigma - 1
    if len(echelon_mod_p(rows, ell)[0]) != core.n - 1:
        return None
    images = [tuple(c % ell for c in table[1]) for table in tables]
    power, acc, e = units[1], units[0], ell
    while e:
        if e & 1:
            acc = tuple(c % ell for c in core.mul(acc, power))
        power = tuple(c % ell for c in core.mul(power, power))
        e >>= 1
    return images.index(acc) if acc in images else None


@lru_cache(maxsize=32)
def division_proven(min_poly, sigma_image, u) -> bool:
    """Whether one local invariant of (K/Q, sigma, u) has order n, which proves
    a division algebra; kept per algebra (AlgebraSpec.algebra), not per p."""
    core = integral_arithmetic(min_poly, sigma_image)
    n = core.n
    derivative = tuple(j * c for j, c in enumerate(min_poly))[1:]
    try:
        disc = (-1) ** (n * (n - 1) // 2) * core.norm_cofactor(derivative)[0]
    except InvalidSpec:
        return False
    if n == 2 and disc < 0 and u < 0:
        return True
    for ell, v in _prime_powers(u):
        if disc % ell:
            r = _frobenius_power(core, ell)
            if r is not None and gcd(r * v, n) == 1:
                return True
    return False
