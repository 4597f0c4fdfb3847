"""Dense integer polynomials as coefficient tuples, constant term first.

Arbitrary precision throughout; reduction is only supported modulo monic
polynomials so every operation stays in Z.
"""


def trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def mul(a, b):
    a, b = trim(a), trim(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim(out)


def divmod_monic(a, m):
    """Quotient and remainder of a by the monic polynomial m, computed over Z."""
    m = trim(m)
    if not m or m[-1] != 1:
        raise ValueError("modulus must be monic")
    n = len(m) - 1
    out = list(a)
    quot = [0] * max(len(out) - n, 0)
    for d in range(len(out) - 1, n - 1, -1):
        c = out[d]
        if c:
            quot[d - n] = c
            for j in range(n):
                out[d - n + j] -= c * m[j]
            out[d] = 0
    return trim(quot), trim(out[:n])


def mod_monic(a, m):
    """The deg(m) coefficients of a mod m over Z, zeros included, with no
    quotient built.  m is monic and trimmed: divmod_monic checks it, not this."""
    n = len(m) - 1
    out = list(a)
    for d in range(len(out) - 1, n - 1, -1):
        if c := out[d]:
            for j in range(n):
                out[d - n + j] -= c * m[j]
    return tuple(out[:n]) + (0,) * (n - len(out))


def to_str(coeffs, var):
    """Readable ascending form, e.g. "2 + a + 3*a^2" for (2, 1, 3) in var "a"."""
    terms = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        if j == 0:
            terms.append(str(c))
        else:
            power = var if j == 1 else f"{var}^{j}"
            terms.append(power if c == 1 else f"{c}*{power}")
    return " + ".join(terms) if terms else "0"
