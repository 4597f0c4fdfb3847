"""Python source for every generated kernel, and the one module that compiles it.

The O_K product, sigma and norm (number_ring), a code's encoder and parity
check (codes), the coset kernels and the trace-form image (lattice) and the
min-det sweeps (boxsweep, spacetime) write their sums, Horner forms and
tuple displays with the rules here and compile through compile_function; no
other module calls exec or compile.  The module imports nothing from the
package.
"""

_CHUNK = 64  # terms per parenthesized partial sum in linear_source


def linear_source(terms):
    """Source of sum c*t over the (c, t) pairs with c != 0, 1 and -1 as signs; "0" if none.

    CPython's compiler recurses once per term of a + chain, so a sum of more
    than _CHUNK terms is written as parenthesized sums of _CHUNK: compiling it
    needs little recursion whatever its length and the caller's depth.
    """
    parts = [t if c == 1 else f"-{t}" if c == -1 else f"{c}*{t}" for c, t in terms if c]
    sums = ["+".join(parts[i:i + _CHUNK]).replace("+-", "-") for i in range(0, len(parts), _CHUNK)]
    return "+".join(f"({s})" if len(sums) > 1 else s for s in sums) or "0"


def horner(form, names):
    """Source of a polynomial form, {sorted variable indices: coefficient}, in names.

    Monomials are grouped by their leading variable, recursively, so the
    source reads c + sum_i names[i] * (sum over the monomials led by i):
    each + chain has at most one term per variable after the constant.  A
    coefficient is an int or a source string; a factor of 1 is left out, and
    a lone coefficient that is a name is not parenthesized.  A univariate
    {e: src} in t is the form {(0,) * e: src} in [t].
    """
    terms = [str(form[()])] if () in form else []
    groups = {}
    for mono, coeff in form.items():
        if mono:
            groups.setdefault(mono[0], {})[mono[1:]] = coeff
    for i in sorted(groups):
        inner = horner(groups[i], names)
        if groups[i] == {(): 1}:
            terms.append(names[i])
        elif inner.isidentifier() and () in groups[i]:
            terms.append(f"{names[i]}*{inner}")
        else:
            terms.append(f"{names[i]}*({inner})")
    return "+".join(terms) or "0"


def tuple_source(value, width=None):
    """Source of value as nested tuple displays: a str, a name or an expression,
    as it is, and a nonempty sequence of values as the tuple of theirs.  With
    a width, the flat sequence value is displayed as tuples of width values."""
    if width:
        value = zip(*[iter(value)] * width)
    return value if isinstance(value, str) else f"({', '.join(map(tuple_source, value))},)"


def compile_function(source, name):
    """The function `name` that the generated Python source defines."""
    namespace = {}
    exec(compile(source, f"<generated {name}>", "exec"), namespace)
    return namespace[name]
