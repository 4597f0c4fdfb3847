"""Shared specs, random generators and brute-force oracles for the test suite."""

import warnings
from fractions import Fraction
from itertools import islice, product
from math import inf, isqrt
from operator import mul

from hypothesis import strategies as st

from skewlat import (
    ENUMERATION_BOUND,
    AlgebraSpec,
    ConstacyclicCode,
    NaturalOrder,
    OrderElement,
    QuotientRing,
    RingElement,
    SkewPoly,
    brute_force_dual,
    central_poly,
    construction_a_basis,
    intpoly,
    invariants,
    dual_lattice_basis,
    hnf,
    inner_product,
    lattice_contains,
    lift_codeword,
    matrix_rep,
    monic_right_divisors,
    opposite,
    reduce_element,
    spacetime,
)
from skewlat.errors import IndefiniteForm, InvalidSpec, LengthMismatch, TooLarge
from skewlat.lattice import _lift_basis, _xgcd, vector_sum
from skewlat.emit import compile_function
from skewlat.number_ring import echelon_mod_p, integral_arithmetic, nullspace_mod_p

# The cyclic cubic field of 2*cos(2*pi/7): minimal polynomial y^3 + y^2 - 2y - 1,
# Galois group generated by y -> y^2 - 2, with e^3 = 2 over p = 5.
CUBIC = AlgebraSpec(
    min_poly=(-1, -2, 1, 1),
    sigma_image=(-2, 0, 1),
    u=2,
    p=5,
)

# The totally real cyclic quartic field Q(zeta_16)^+ of 2*cos(pi/8): minimal
# polynomial y^4 - 4y^2 + 2, Galois group generated by y -> y^3 - 3y, with
# e^4 = 3 over p = 5.  Its rings warn that degree-4 irreducibility is trusted.
QUARTIC = AlgebraSpec(
    min_poly=(2, 0, -4, 0, 1),
    sigma_image=(0, -3, 0, 1),
    u=3,
    p=5,
)

# The totally real cyclic quintic field Q(zeta_11)^+ of 2*cos(2*pi/11),
# sigma: y -> y^2 - 2, with e^5 = 2 over p = 13; 2 and 13 are inert.
QUINTIC = AlgebraSpec(
    min_poly=(1, 3, -3, -4, 1, 1),
    sigma_image=(-2, 0, 1, 0, 0),
    u=2,
    p=13,
)

# The sextic field Q(zeta_13)^+ of 2*cos(2*pi/13), sigma: y -> y^2 - 2.
SEXTIC = AlgebraSpec(
    min_poly=(-1, 3, 6, -4, -5, 1, 1),
    sigma_image=(-2, 0, 1),
    u=2,
    p=5,
)

# Cyclic cubic fields whose Galois group is generated by y -> y^2 - 2: the
# fields of 2*cos(2*pi/7) and of 2*cos(2*pi/9).
CYCLIC_CUBICS = ((-1, -2, 1, 1), (1, -3, 0, 1))


def replace_spec(spec, **changes):
    """A new AlgebraSpec with some fields changed, built through AlgebraSpec(...)
    so that every field check runs on it."""
    return AlgebraSpec(**{**dict(zip(spec._fields, spec._values())), **changes})


# AlgebraSpec called on one full dict of its arguments, its fields and the
# conjugation_mode it checks but does not keep, by keyword, positionally and
# mixed, so that a test sees each argument check from every call form.
SPEC_CALLS = (
    lambda f: AlgebraSpec(**f),
    lambda f: AlgebraSpec(*(f[name] for name in AlgebraSpec._fields), f["conjugation_mode"]),
    lambda f: AlgebraSpec(
        f["min_poly"], f["sigma_image"], u=f["u"], p=f["p"], conjugation_mode=f["conjugation_mode"]
    ),
)


def quiet_ring(spec):
    """QuotientRing(spec) without the warning that a composite degree's irreducibility is trusted."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return QuotientRing(spec)


@st.composite
def valid_specs(draw, primes=(2, 3, 5, 7)):
    """Random valid specs: a quadratic field y^2 + b*y + c with a non-square
    discriminant and sigma: y -> -b - y, or a cyclic cubic with sigma:
    y -> y^2 - 2; p drawn from primes and an integer u prime to p.  The
    inert conjugation_mode is drawn too, either spelling, so every test
    that draws a spec sees that it does not matter."""
    p = draw(st.sampled_from(primes))
    mode = draw(st.sampled_from(("complex", "identity")))
    if draw(st.booleans()):
        b, c = draw(
            st.tuples(st.integers(-3, 3), st.integers(-5, 5)).filter(
                lambda bc: not _is_square(bc[0] * bc[0] - 4 * bc[1])
            )
        )
        min_poly, sigma_image = (c, b, 1), (-b, -1)
    else:
        min_poly, sigma_image = draw(st.sampled_from(CYCLIC_CUBICS)), (-2, 0, 1)
    u = draw(st.integers(-6, 6).filter(lambda v: v % p))
    return AlgebraSpec(min_poly, sigma_image, u=u, p=p, conjugation_mode=mode)


def _is_square(d):
    return d >= 0 and isqrt(d) ** 2 == d


def hilbert_symbol(a, b, place):
    """Oracle: the Hilbert symbol (a, b)_v of nonzero integers, 1 or -1, at a
    prime place or at the real place, place = -1 (Serre, A Course in
    Arithmetic, III.1.2)."""
    if place == -1:
        return -1 if a < 0 and b < 0 else 1

    def split(x):  # (v_p(x), x / p^v_p(x))
        v = 0
        while x % place == 0:
            x //= place
            v += 1
        return v, x

    (alpha, a), (beta, b) = split(a), split(b)
    if place == 2:
        eps, omega = (lambda x: (x - 1) // 2 % 2), (lambda x: (x * x - 1) // 8 % 2)
        return (-1) ** (eps(a) * eps(b) + alpha * omega(b) + beta * omega(a))
    legendre = lambda x: 1 if pow(x, (place - 1) // 2, place) == 1 else -1  # noqa: E731
    sign = (-1) ** (alpha * beta * ((place - 1) // 2))
    return sign * legendre(a) ** beta * legendre(b) ** alpha


def quaternion_division(d, u):
    """Oracle: whether the quaternion algebra (d, u) over Q, the cyclic algebra
    of Q(sqrt d) with e^2 = u, is a division algebra: some Hilbert symbol is
    -1, at the real place or at a prime of 2du."""
    places, rest, q = [-1], abs(2 * d * u), 2
    while rest > 1:
        if rest % q == 0:
            places.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    return any(hilbert_symbol(d, u, v) == -1 for v in places)


def brute_force_right_divisors(ring, n, u, degree, bound=ENUMERATION_BOUND):
    """Oracle: every monic candidate of the given degree, one right division
    each, in lexicographic order of coefficient vectors (constant term first)."""
    if ring.size**degree > bound:
        raise TooLarge(f"{ring.size}^{degree} candidates exceeds bound {bound}")
    central = central_poly(ring, n, u)
    out = []
    for tail in product(list(ring.elements(bound)), repeat=degree):
        g = SkewPoly(ring, tail + (ring.one,))
        if central.right_divmod(g)[1].is_zero:
            out.append(g)
    return out


def root_classes(ring):
    """Oracle: the number of classes of (R - 0)/F_p* that the roots of
    x^n - u visit, counted as the nonzero elements whose first nonzero
    coordinate is 1."""
    return sum(1 for c in ring.elements() if c and next(v for v in c.coeffs if v) == 1)


def scan_roots(ring, power, target, bound):
    """Oracle: the roots by one norm per element, the c among all p^m elements
    of R (m = ring.n) with N(c)^power equal to the coefficient tuple target,
    as raw coefficient tuples in lexicographic order."""
    if ring.size > bound:
        raise TooLarge(f"{ring.size} elements exceeds bound {bound}")
    target, *higher = target
    if any(higher):
        return []
    p = ring.p
    norm = ring._core.norm_cofactor
    return [c for c in product(range(p), repeat=ring.n) if pow(norm(c)[0], power, p) == target]


def division_cofactors(ring, n, u, degree, bound=ENUMERATION_BOUND):
    """Oracle: the monic right divisors of degree d > n - d as the quotients
    of x^n - u by the divisors of degree n - d, one right division each, in
    lexicographic order of coefficient vectors (constant term first)."""
    central = central_poly(ring, n, u)
    cofactors = []
    for g in monic_right_divisors(ring, n, u, n - degree, bound):
        q, r = central.right_divmod(g)
        assert r.is_zero, g
        cofactors.append(q)
    return sorted(cofactors, key=lambda f: tuple(c.coeffs for c in f.coeffs))


def oracle_skew_mul(f, g):
    """Oracle: f*g by the object loop, each a_i*sigma^(t*i)(b_j) (t the
    twist of f's class) a RingElement product added into coefficient i + j."""
    ring = f.ring
    if f.is_zero or g.is_zero:
        return type(f).zero(ring)
    out = [ring.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if not a:
            continue
        for j, b in enumerate(g.coeffs):
            if b:
                out[i + j] = out[i + j] + a * ring.sigma(b, f.TWIST * i)
    return type(f)(ring, out)


def oracle_add(f, g):
    """Oracle: f + g by the object loop, one RingElement sum per coefficient."""
    a, b = f.coeffs, g.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return type(f)(f.ring, out)


def oracle_neg(f):
    """Oracle: -f by the object loop, one RingElement negation per coefficient."""
    return type(f)(f.ring, [-c for c in f.coeffs])


def oracle_sub(f, g):
    """Oracle: f - g as oracle_add(f, oracle_neg(g))."""
    return oracle_add(f, oracle_neg(g))


def oracle_mod_central(f, n, u):
    """Oracle: f modulo x^n - u by the object loop, from the top down, each
    c*x^i with i >= n adding the RingElement product u*c to coefficient i - n."""
    ring = f.ring
    u = ring.coerce(u)
    cs = list(f.coeffs)
    for i in range(len(cs) - 1, n - 1, -1):
        top = cs.pop()
        cs[i - n] = cs[i - n] + u * top
    return type(f)(ring, cs)


def oracle_right_divmod(f, g):
    """Oracle: (q, r) with f = q*g + r by the object loop, one monomial
    polynomial per quotient term, multiplied into g by oracle_skew_mul and
    added and subtracted by oracle_add and oracle_sub."""
    ring, cls = f.ring, type(f)
    lead_inv = g.lead.inverse()
    q, r = cls.zero(ring), f
    while not r.is_zero and r.degree >= g.degree:
        shift = r.degree - g.degree
        term = cls.monomial(ring, shift, r.lead * ring.sigma(lead_inv, f.TWIST * shift))
        q, r = oracle_add(q, term), oracle_sub(r, oracle_skew_mul(term, g))
    return q, r


def oracle_order_mul(a, b):
    """Oracle: the product of two order elements by the object loop over
    O_K rows, each a_i*sigma^i(b_j) one order.ok_mul landing on e^((i+j) mod n),
    times the integer u when i + j >= n."""
    order = a.order
    n = order.n
    products = [[] for _ in range(n)]  # products[t] lands on e^t
    for i, a_i in enumerate(a.rows):
        if not any(a_i):
            continue
        for j, b_j in enumerate(b.rows):
            if not any(b_j):
                continue
            c = order.ok_mul(a_i, order.ok_sigma(b_j, i))
            if i + j >= n:
                c = tuple(order.u * v for v in c)
            products[(i + j) % n].append(c)
    return OrderElement(order, tuple(vector_sum(terms, n) for terms in products))


def oracle_left_divmod(f, g):
    """Oracle: (q, r) with f = g*q + r, oracle_right_divmod in the opposite ring."""
    q, r = oracle_right_divmod(opposite(f), opposite(g))
    return opposite(q), opposite(r)


def _padded(coeffs, m):
    return tuple(coeffs) + (0,) * (len(m) - 1 - len(coeffs))


def oracle_mul(a, b, m):
    """Oracle: the product a*b in Z[y]/(m) by intpoly, as n coefficients."""
    return _padded(intpoly.mod_monic(intpoly.mul(a, b), m), m)


def oracle_sigma(a, s, m, k):
    """Oracle: sigma^k(a) as a(s(y)) modulo m, composed k >= 0 times by
    Horner's rule, as n coefficients."""
    out = tuple(a)
    for _ in range(k):
        acc = ()
        for c in reversed(out):
            acc = list(intpoly.mul(acc, s)) or [0]
            acc[0] += c
            acc = intpoly.mod_monic(acc, m)
        out = acc
    return _padded(out, m)


def oracle_norm_suffixes(m, s, vec):
    """Oracle: the norm and suffix products of the core's _Emitter.norm, which
    norm_cofactor and the root scans compute, by oracle_sigma and
    oracle_mul alone, so it shares no code with the core: (N, (S_1, ...,
    S_(n-1))) with S_1 = sigma^(n-1)(vec), S_r = S_(r-1)*sigma^(n-r)(vec)
    and N = vec*S_(n-1), the norm cofactor."""
    n = len(m) - 1
    images = [tuple(vec)]
    for _ in range(n - 1):
        images.append(oracle_sigma(images[-1], s, m, 1))
    suffixes = [images[n - 1]]
    for k in range(n - 2, 0, -1):
        suffixes.append(oracle_mul(suffixes[-1], images[k], m))
    norm, *rest = oracle_mul(vec, suffixes[-1], m)
    if any(rest):
        raise InvalidSpec("a*sigma(a)...sigma^(n-1)(a) is not rational: min_poly is reducible")
    return norm, tuple(suffixes)


def newton_trace_sums(min_poly):
    """Oracle: the power sums Tr(y^j), j < n, of the roots of min_poly by
    Newton's identities, from its coefficients alone."""
    n = len(min_poly) - 1
    sums = [n]
    for k in range(1, n):
        acc = k * min_poly[n - k]
        for i in range(1, k):
            acc += min_poly[n - i] * sums[k - i]
        sums.append(-acc)
    return tuple(sums)


def enumerated_dual(code, bound=ENUMERATION_BOUND):
    """Oracle: every vector of R^n tested against every codeword, in
    lexicographic order of coefficient vectors (component 0 first)."""
    ring = code.ring
    if ring.size**code.n > bound:
        raise TooLarge(f"{ring.size}^{code.n} vectors exceeds bound {bound}")
    words = list(code.codewords(bound))
    zero = ring.zero
    return [
        v
        for v in product(list(ring.elements(bound)), repeat=code.n)
        if all(inner_product(c, v) == zero for c in words)
    ]


def sorted_span_dual(code, bound=ENUMERATION_BOUND):
    """Oracle: the dual as every combination of the nullspace basis of the
    orthogonality equations (nullspace_mod_p, not echelon form), sorted by
    flat coefficient vector (component 0 first); each word a tuple of fresh
    RingElements."""
    ring = code.ring
    p, m, n = ring.p, ring.n, code.n
    powers = [ring.gen**j for j in range(m)]
    equations = []
    for c in composed_additive_generators(code):
        products = [(c_i * power).coeffs for c_i in c for power in powers]
        equations.extend(zip(*products))
    kernel = nullspace_mod_p(echelon_mod_p(equations, p), m * n, p)
    if p ** len(kernel) > bound:
        raise TooLarge(f"{p}^{len(kernel)} dual vectors exceeds bound {bound}")
    span = [(0,) * (m * n)]
    for vec in kernel:
        span = [
            tuple((s + a * v) % p for s, v in zip(point, vec))
            for point in span
            for a in range(p)
        ]
    return [
        tuple(RingElement(ring, flat[i * m : (i + 1) * m]) for i in range(n)) for flat in sorted(span)
    ]


def column_sum_encode(code, msg):
    """Oracle: the codeword of msg as the column sums sum_t b[t] G[t][col] mod p
    over the flat message coefficients b, one sum per column of G read off
    G's rows (n*m sums even when G has no row), checked and coerced as
    encode does."""
    if len(msg) != code.k:
        raise LengthMismatch(f"expected {code.k} message symbols, got {len(msg)}")
    coerce, p, m = code.ring.coerce, code.ring.p, code.ring.n
    flat = [v for symbol in msg for v in coerce(symbol).coeffs]
    sums = [sum(b * row[col] for b, row in zip(flat, code._rows)) % p for col in range(code.n * m)]
    return tuple(code.ring.element(sums[i : i + m]) for i in range(0, len(sums), m))


def row_dot_is_codeword(code, v):
    """Oracle: whether every row of H has a zero dot product mod p with the
    flat coefficients of v, checked and coerced as is_codeword does."""
    if len(v) != code.n:
        raise LengthMismatch(f"expected length {code.n}, got {len(v)}")
    coerce, p = code.ring.coerce, code.ring.p
    flat = [x for c in v for x in coerce(c).coeffs]
    return all(sum(map(mul, row, flat)) % p == 0 for row in code._parity_rows)


def skew_encode(code, msg):
    """Oracle: the codeword of the message polynomial b, the coefficients of
    the skew product b*g padded to length n (deg(b*g) < n needs no folding)."""
    return (SkewPoly(code.ring, msg) * code.g).padded_coeffs(code.n)


def skew_is_codeword(code, v):
    """Oracle: whether a(x)*h(x) = 0 modulo x^n - u, a the polynomial of v."""
    return (SkewPoly(code.ring, v) * code.h).mod_central(code.n, code.u).is_zero


def composed_additive_generators(code):
    """Oracle: the k*m codewords theta^j x^i g, i < k outer and j < m inner,
    each composed afresh from its skew product and folded modulo x^n - u."""
    ring = code.ring
    powers = [ring.gen**j for j in range(ring.n)]
    return [
        code.to_codeword(SkewPoly.monomial(ring, i, power) * code.g)
        for i in range(code.k)
        for power in powers
    ]


def generator_pairs_orthogonal(code, other):
    """Oracle: whether every pair of the k*m additive generators of code and
    other, each composed afresh, has a zero inner product (F_p-bilinearity
    only, not R-bilinearity)."""
    words = composed_additive_generators(other)
    return all(not inner_product(c, d) for c in composed_additive_generators(code) for d in words)


def least_root_stop(spec, index):
    """Oracle: the sweep stop for any lattice index, the least s >= 1 with
    s^n >= index when invariants.division_proven holds for spec's algebra,
    else 0, by Newton's iteration from above to the floor of the n-th root."""
    if not invariants.division_proven(*spec.algebra):
        return 0
    n = spec.n
    s = 1 << -(-index.bit_length() // n)
    while (t := ((n - 1) * s + index // s ** (n - 1)) // n) < s:
        s = t
    return s if s**n >= index else s + 1


def composed_coset_encode(code, msg, offset):
    """Oracle: (codeword, offset, point) of the coset encoding composed from
    order operations, lift(encode(msg)) + from_flat(p * offset), in a fresh order."""
    order = NaturalOrder(code.ring.spec)
    codeword = code.encode(msg)
    offset = order.from_flat([code.ring.p * c for c in offset])
    return codeword, offset, lift_codeword(order, codeword) + offset


def composed_coset_decode(code, point):
    """Oracle: the point reduced modulo p, and the point minus the lift of that reduction."""
    codeword = reduce_element(point, code.ring)
    return codeword, point - lift_codeword(point.order, codeword)


def vector_cofactor_det(order, entries):
    """Oracle: the determinant of n x n O_K entries as SpaceTimeMatrix.det
    expanded it before its entries became constant forms, along the first
    row over O_K vectors: zero entries are skipped, and each other entry
    makes one order.ok_mul with its minor, zero or not.  Returns the
    determinant, the number of products and whether some minor it
    expanded is zero."""
    made, zero_minor = 0, False

    def expand(rows):
        nonlocal made, zero_minor
        if len(rows) == 1:
            return rows[0][0]
        terms = []
        for j, top in enumerate(rows[0]):
            if any(top):
                minor = expand([r[:j] + r[j + 1 :] for r in rows[1:]])
                zero_minor |= not any(minor)
                made += 1
                terms.append((j % 2, order.ok_mul(top, minor)))
        return vector_sum([[-v for v in t] if odd else t for odd, t in terms], order.n)

    return expand(entries), made, zero_minor


def basis_matrix_flat_form(order):
    """Oracle: the terms of spacetime._flat_form for the algebra of any order
    of it, by evaluation.  The linear forms of M(x) are read off matrix_rep
    of the n^2 basis elements, variable i carrying entry (r, c) of the i-th,
    and spacetime._cofactor_det expands them with order.ok_mul.  InvalidSpec
    when the form is not rational."""
    n = order.n
    mats = [matrix_rep(order.basis_element(i)).entries for i in range(n * n)]
    rows = [
        [{(i,): m[r][c] for i, m in enumerate(mats) if any(m[r][c])} for c in range(n)]
        for r in range(n)
    ]
    form = spacetime._cofactor_det(rows, order.ok_mul)
    if any(any(rest) for _, *rest in form.values()):
        raise InvalidSpec("the reduced norm form has a nonzero non-constant coordinate")
    return tuple((mono, vec[0]) for mono, vec in form.items())


def norm_witnesses(spec, bound):
    """Oracle: the vectors a in [-bound, bound]^n whose field norm N(a) is u^i.

    Returns all witnesses (*a, i) with i in 1..n-1, lexicographic in a; for a
    quadratic field they read (a0, a1, i).  A witness for u^i makes the
    algebra's index divide i, so in a division algebra there is none; an
    empty list is consistent with, but does not prove, the division property.
    """
    core = integral_arithmetic(spec.min_poly, spec.sigma_image)
    targets = [(spec.u**i, i) for i in range(1, spec.n)]
    out = []
    for vec in product(range(-bound, bound + 1), repeat=spec.n):
        norm = core.norm_cofactor(vec)[0]
        out.extend((*vec, i) for value, i in targets if norm == value)
    return out


def divisor_codes(ring, per_degree=None):
    """Codes of the monic right divisors of every degree 0..n, the first
    per_degree of each (all by default): from g = 1 (dual {0}) to g = x^n - u
    (dual R^n)."""
    for degree in range(ring.n + 1):
        for g in monic_right_divisors(ring, ring.n, ring.spec.u, degree)[:per_degree]:
            yield ConstacyclicCode.from_generator(g)


def enumerated_self_duality(code):
    """Oracle: whether the codeword set equals the brute-force dual.  A dual
    larger than the code raises TooLarge before any vector is built."""
    size = code.ring.size**code.k
    try:
        dual = brute_force_dual(code, bound=size)
    except TooLarge:
        return False
    return len(dual) == size and set(code.codewords()) == set(dual)


def lattice_inclusion(code_a, code_b):
    """Oracle: every Construction A basis column of code_a lies in the lattice
    of code_b's dual, both lattices built in full."""
    target = dual_lattice_basis(code_b).basis
    source = construction_a_basis(code_a).basis
    return all(lattice_contains(target, col) for col in zip(*source))


def all_words_dual_lattice_basis(code):
    """Oracle: the lattice of the dual code from the echelon form over F_p of
    the flat coefficients of every one of its p^dim words."""
    words = ([v for c in word for v in c.coeffs] for word in brute_force_dual(code))
    return _lift_basis(*echelon_mod_p(words, code.ring.p), code.ring.spec)


def lifted_lattice_basis(spec, words):
    """Oracle: the HNF basis of the lifts of words, each lifted to an order
    element and flattened, together with p times the standard basis."""
    order = NaturalOrder(spec)
    N = order.n * order.n
    cols = [list(lift_codeword(order, w).flatten()) for w in words]
    cols += [[spec.p if i == r else 0 for i in range(N)] for r in range(N)]
    return hnf([[col[i] for col in cols] for i in range(N)])


def pool_hnf(mat):
    """Oracle: the column HNF of mat as hnf computed it before it kept
    buckets.  For each row r it rescans the whole pool of columns not yet
    placed, combines those nonzero at r by extended gcds into one pivot,
    returns the remainders to the end of the pool, then reduces the placed
    columns at r."""
    nrows = len(mat)
    pool = [list(col) for col in zip(*mat)]
    placed = []
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
            pool.append([-(cr // g) * a + (pr // g) * b for a, b in zip(piv, c)])
            piv = new_piv
        if piv[r] < 0:
            piv = [-v for v in piv]
        for earlier in placed:
            q = earlier[r] // piv[r]
            for i in range(nrows):
                earlier[i] -= q * piv[i]
        placed.append(piv)
    return [[col[i] for col in placed] for i in range(nrows)]


def oracle_conj_power(order):
    """The power c of sigma that is complex conjugation of the field, by a
    rule of its own: for n = 2 sigma exactly when y^2 + m1 y + m0 has no real
    root (m1^2 < 4 m0); for odd n the identity; for even n >= 4 the identity
    exactly when an LDL^T elimination over Fractions of the identity trace
    form [Tr(y^a y^b)] keeps every pivot positive, else sigma^(n/2)."""
    n, m = order.n, order.min_poly
    if n == 2:
        return int(m[1] * m[1] < 4 * m[0])
    if n % 2:
        return 0
    powers = [tuple(int(a == j) for j in range(n)) for a in range(n)]
    form = [[Fraction(order.ok_trace(order.ok_mul(x, y))) for y in powers] for x in powers]
    for k in range(n):
        if form[k][k] <= 0:
            return n // 2
        for i in range(k + 1, n):
            ratio = form[i][k] / form[k][k]
            for j in range(k, n):
                form[i][j] -= ratio * form[k][j]
    return 0


def pairwise_gram_matrix(basis, spec):
    """Oracle: the Gram matrix of the basis columns, one trace-form value
    sum_i Tr(x_i sigma^c(y_i)) per pair of columns with c from
    oracle_conj_power, each column built as an order element, with
    gram_matrix's LengthMismatch and IndefiniteForm."""
    order = NaturalOrder(spec)
    elems = [order.from_flat(col) for col in zip(*basis)]
    c = oracle_conj_power(order)

    def form(x, y):
        total = 0
        for i in range(order.n):
            total += order.ok_trace(order.ok_mul(x.rows[i], order.ok_sigma(y.rows[i], c)))
        return total

    size = len(elems)
    gram = [[0] * size for _ in range(size)]
    for r in range(size):
        for s in range(r, size):
            gram[r][s] = gram[s][r] = form(elems[r], elems[s])
        if gram[r][r] <= 0:
            raise IndefiniteForm(f"diagonal entry {gram[r][r]} <= 0")
    return gram


def reduced_norm_form(order, columns):
    """The integer form F with F(d) = nrd(sum_j d_j columns[j]), as a function of d.

    columns are the flat coordinates of a basis of a full-rank sublattice of
    the order.  The function computes x = B d, then the order's flat form G
    from the terms spacetime._flat_form keeps, both written out as flat sums
    (_flat_sum_source), so it raises what G's expansion raises: InvalidSpec
    when G is not rational, TooLarge past ENUMERATION_BOUND products.  On
    Z[i] and the cubic, F has up to 10 and 165 monomials, against 4 and 57
    in G.
    """
    names = "".join(f"d{j}, " for j in range(len(columns)))
    body, value = _flat_sum_source(columns, spacetime._flat_form(*order.spec.algebra), "    ")
    return compile_function(f"def form(d):\n    {names}= d\n{body}    return {value}\n", "form")


def _flat_sum_source(columns, terms, indent):
    """Oracle source, independent of the library's emitter: the lines
    x_i = sum_j columns[j][i]*d_j over the nonzero entries, and the
    expression sum c*x_i*x_j*... over the (sorted variable indices, c) terms,
    each sum one plain "+".join of its monomials."""
    d = [f"d{j}" for j in range(len(columns))]
    body = "".join(
        f"{indent}x{i} = {'+'.join(f'{c}*{dj}' for c, dj in zip(row, d) if c) or 0}\n"
        for i, row in enumerate(zip(*columns))
    )
    value = "+".join("*".join([str(c), *(f"x{i}" for i in mono)]) for mono, c in terms)
    return body, value or "0"


def random_element(ring, rng):
    return ring.element([rng.randrange(ring.p) for _ in range(ring.n)])


def random_poly(ring, rng, max_degree=4):
    degree = rng.randrange(max_degree + 1)
    return SkewPoly(ring, [random_element(ring, rng) for _ in range(degree + 1)])


def random_unit_lead_poly(ring, rng, max_degree=3):
    degree = rng.randrange(max_degree + 1)
    while True:
        lead = random_element(ring, rng)
        if lead.is_unit():
            break
    return SkewPoly(ring, [random_element(ring, rng) for _ in range(degree)] + [lead])


def random_message(code, rng):
    return [random_element(code.ring, rng) for _ in range(code.k)]


def random_order_element(order, rng, span=5):
    return order.element(
        [[rng.randrange(-span, span + 1) for _ in range(order.n)] for _ in range(order.n)]
    )


def product_order_sweep(columns, terms, box):
    """Oracle: the exhaustive sweep as min_det_sample ran it before nested
    sweeps, (least |F(d)|, first such d) over the d after the middle of
    product(range(-2 box, 2 box + 1), repeat=N), F(d) = G(sum_j d_j
    columns[j]) and G the form of terms, homogeneous or not, evaluated afresh
    for each d in one compiled loop that stops at the first zero."""
    N = len(columns)
    ds = "".join(f"d{j}, " for j in range(N))
    body, value = _flat_sum_source(columns, terms, " " * 8)
    body += f"        v = abs({value})\n"
    body += f"        if v < best:\n            best, best_d = v, ({ds})\n"
    body += "            if not v:\n                break\n    return best, best_d\n"
    sweep = compile_function(f"def sweep(pairs, best):\n    for {ds} in pairs:\n{body}", "sweep")
    span = range(-2 * box, 2 * box + 1)
    return sweep(islice(product(span, repeat=N), (len(span) ** N + 1) // 2, None), inf)
