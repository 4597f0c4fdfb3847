"""Command line front end.

Configs are flat ``key = value`` text files; values are integers, bracketed
integer lists (possibly nested), or one of a few keywords.  Blank lines and
``#`` comments are allowed.  Required keys: p, min_poly, sigma_image, u.
Optional: generator, bound, seed; conjugation_mode, complex or identity,
is accepted and has no effect.

Commands: divisors, code, dual, lattice, stmatrix, mindet, coset-encode,
coset-decode, verify-examples, each listed once in _COMMANDS.  Each cmd_<name>
returns (payload, render): payload is the object --json prints, and render()
returns the human output lines, so only a run without --json builds them.
Results go to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 domain error (with a stable error code) or a closed stdout
(without a traceback), 2 usage error.  Library warnings print to stderr as one
``warning: <message>`` line each, without a source location.

main() without an argv owns the process: it reads sys.argv and freezes the
start-up heap (gc.freeze) before the command runs, so the command's own
collections and interpreter shutdown skip the objects the imports made.
Both process entries, ``python -m skewlat`` and the ``skewlat`` script, call
it that way; a caller that passes an argv keeps its heap as it is.
"""

from __future__ import annotations

import argparse
import ast
import gc
import json
import os
import re
import sys
import warnings

from .codes import ConstacyclicCode
from .errors import MissingKey, ParseError, SkewLatError, UnknownKey
from .lattice import construction_a_basis, lift_codeword, natural_order
from .number_ring import ENUMERATION_BOUND, AlgebraSpec, QuotientRing, Record
from .skew import SkewPoly, monic_right_divisors
from .spacetime import (
    coset_decode_label,
    coset_encode,
    exhaustive_sweep,
    matrix_rep,
    min_det_sample,
)

_INT_KEYS = ("p", "u", "bound", "seed")
_LIST_KEYS = ("min_poly", "sigma_image")
_NESTED_KEYS = ("generator",)
REQUIRED_KEYS = ("p", "min_poly", "sigma_image", "u")
KNOWN_KEYS = _INT_KEYS + _LIST_KEYS + _NESTED_KEYS + ("conjugation_mode",)


class Config(Record):
    __slots__ = _fields = ("p", "min_poly", "sigma_image", "u", "generator", "bound", "seed")

    def __init__(
        self, p, min_poly, sigma_image, u, generator=None, bound=ENUMERATION_BOUND, seed=0
    ):
        self.p, self.min_poly, self.sigma_image, self.u = p, min_poly, sigma_image, u
        self.generator, self.bound, self.seed = generator, bound, seed

    def spec(self) -> AlgebraSpec:
        return AlgebraSpec(min_poly=self.min_poly, sigma_image=self.sigma_image, u=self.u, p=self.p)


def _parse_int_list(raw, lineno, nested=False):
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        raise ParseError(f"line {lineno}: cannot parse list value {raw!r}") from None

    def check(v, depth):
        if isinstance(v, list):
            if depth == 0:
                raise ParseError(f"line {lineno}: list nesting too deep in {raw!r}")
            for item in v:
                check(item, depth - 1)
        elif not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"line {lineno}: expected integers in {raw!r}")

    if not isinstance(value, list):
        raise ParseError(f"line {lineno}: expected a bracketed list, got {raw!r}")
    if nested and not all(isinstance(item, list) for item in value):
        raise ParseError(f"line {lineno}: expected a list of lists, got {raw!r}")
    check(value, 2 if nested else 1)
    return value


def parse_config(text: str) -> Config:
    """Parse config text; the first problem is reported with its line number."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        if key in _INT_KEYS:
            try:
                values[key] = int(raw)
            except ValueError:
                raise ParseError(f"line {lineno}: {key} must be an integer") from None
            if key == "bound" and values[key] < 0:
                raise ParseError(f"line {lineno}: bound must be at least 0, got {values[key]}")
        elif key in _LIST_KEYS:
            values[key] = _parse_int_list(raw, lineno)
        elif key in _NESTED_KEYS:
            values[key] = _parse_int_list(raw, lineno, nested=True)
        else:  # conjugation_mode: its spelling is checked below, then it is dropped
            values[key] = raw
    for key in REQUIRED_KEYS:
        if key not in values:
            raise MissingKey(f"missing required key {key!r}")
    AlgebraSpec.check_conjugation_mode(values.pop("conjugation_mode", "complex"))
    return Config(**values)


def load_config(path: str) -> Config:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"line {lineno}: the config is not UTF-8 text (byte {data[exc.start]:#04x})"
        ) from None
    return parse_config(text)


def error_code(exc: SkewLatError) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).upper()


# -- command implementations ----------------------------------------------


def _ring(cfg: Config) -> QuotientRing:
    return QuotientRing(cfg.spec())


def _code(cfg: Config) -> ConstacyclicCode:
    ring = _ring(cfg)  # the spec is checked before the generator
    if cfg.generator is None:
        raise MissingKey("missing required key 'generator' for this command")
    g = SkewPoly(ring, [ring.element(c) for c in cfg.generator])
    return ConstacyclicCode.from_generator(g)


def _parse_cli_list(raw: str, what: str, nested=False):
    try:
        return _parse_int_list(raw, 0, nested=nested)
    except ParseError:
        raise ParseError(f"cannot parse {what}: {raw!r}") from None


def _aligned(**values):
    """``key = value`` lines with the ``=`` of every line in one column."""
    width = max(map(len, values))
    return [f"{key:<{width}} = {value}" for key, value in values.items()]


def _matrix_lines(rows):
    return ["  " + " ".join(f"{v:>6}" for v in row) for row in rows]


def cmd_divisors(cfg: Config, args):
    ring = _ring(cfg)
    divisors = monic_right_divisors(ring, ring.n, cfg.u, args.degree, bound=cfg.bound)
    payload = {
        "degree": args.degree,
        "count": len(divisors),
        "divisors": [d.to_lists() for d in divisors],
    }
    return payload, lambda: [
        f"monic right divisors of degree {args.degree}: {len(divisors)}",
        *(f"  {d!s:<24} {coeffs}" for d, coeffs in zip(divisors, payload["divisors"])),
    ]


def cmd_code(cfg: Config, args):
    code = _code(cfg)
    payload = code.to_dict()
    return payload, lambda: [
        f"n = {code.n}  k = {code.k}  u = {payload['u']}", f"g = {code.g}", f"h = {code.h}",
    ]


def cmd_dual(cfg: Config, args):
    code = _code(cfg)
    gp = code.dual_generator()
    dual = ConstacyclicCode.from_generator(gp)
    self_dual = code.is_self_dual()
    payload = {"g_perp": gp.to_lists(), "g_perp_monic": dual.g.to_lists(), "self_dual": self_dual}
    return payload, lambda: _aligned(
        g_perp=gp, g_perp_monic=dual.g, self_dual=str(self_dual).lower()
    )


def cmd_lattice(cfg: Config, args):
    code = _code(cfg)
    payload = construction_a_basis(code).to_dict()
    return payload, lambda: [
        f"index = {payload['index']}  gram_det = {payload['det']}",
        "basis (columns generate):", *_matrix_lines(payload["basis"]),
        "gram:", *_matrix_lines(payload["gram"]),
    ]


def cmd_stmatrix(cfg: Config, args):
    if args.element:
        order = natural_order(_ring(cfg).spec)
        element = order.element(_parse_cli_list(args.element, "--element", nested=True))
    else:
        code = _code(cfg)
        element = lift_codeword(natural_order(code.ring.spec), code.to_codeword(code.g))
    matrix = matrix_rep(element)
    payload = {
        "element": element.to_lists(),
        "matrix": matrix.to_lists(),
        "norm_det": matrix.norm_det(),
    }
    return payload, lambda: [
        f"element = {element}",
        "matrix (entries are coordinate vectors):",
        *("  " + "  ".join(map(str, row)) for row in payload["matrix"]),
        f"norm_det = {payload['norm_det']}",
    ]


def cmd_mindet(cfg: Config, args):
    code = _code(cfg)
    coeff_bound = args.coeff_bound
    value = min_det_sample(
        code,
        coeff_bound,
        seed=cfg.seed,
        samples=args.samples,
        enumeration_bound=cfg.bound,
    )
    # min_det_sample picks the mode; the same rule only names it here.
    mode = "exhaustive" if exhaustive_sweep(code, coeff_bound, cfg.bound) else "sampled"
    payload = {
        "coeff_bound": coeff_bound,
        "mode": mode,
        "min_norm_det": value,
        "division_attested": bool(value > 0),
    }
    return payload, lambda: [f"min |norm det| = {value} ({mode}, coeff_bound {coeff_bound})"]


def cmd_coset_encode(cfg: Config, args):
    code = _code(cfg)
    msg_lists = _parse_cli_list(args.msg, "--msg", nested=True)
    msg = [code.ring.element(c) for c in msg_lists]
    if args.offset:
        offset = _parse_cli_list(args.offset, "--offset", nested=False)
    else:
        offset = [0] * (code.n * code.n)
    payload = coset_encode(code, msg, offset).to_dict()
    return payload, lambda: _aligned(**payload)


def cmd_coset_decode(cfg: Config, args):
    code = _code(cfg)
    rows = _parse_cli_list(args.point, "--point", nested=True)
    point = natural_order(code.ring.spec).element(rows)
    codeword, offset = coset_decode_label(code, point)
    payload = {"codeword": [c.to_list() for c in codeword], "offset": offset.to_lists()}
    return payload, lambda: _aligned(**payload)


def cmd_verify_examples(cfg, args):
    from . import fixtures  # only this command needs them; every query imports cli

    results = fixtures.worked_example_checks()
    payload = {
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    return payload, lambda: [
        *(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results),
        "all checks passed" if payload["passed"] else "SOME CHECKS FAILED",
    ]


def _warning_line(message, category, filename, lineno, line=None):
    return f"warning: {message}\n"


def _int_in_range(low, high=None):
    def integer(raw):
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return integer


_BOUND = ("--bound", {"type": _int_in_range(0), "help": "enumeration bound override"})

# The one registry of commands: name -> (help, whether it reads a config, its
# own arguments), in help order.  Each runs the module's cmd_<name>.
_COMMANDS = {
    "divisors": ("list monic right divisors of x^n - u", True,
                 (("--degree", {"type": _int_in_range(0), "required": True}), _BOUND)),
    "code": ("build the code of the configured generator", True, ()),
    "dual": ("dual generator and self-duality of the configured code", True, ()),
    "lattice": ("Construction A basis, Gram matrix, determinant, index", True, ()),
    "stmatrix": ("matrix representation of an order element", True,
                 (("--element", {"help": "row-major coordinate matrix, e.g. [[1,1],[1,0]]"}),)),
    "mindet": ("minimum |norm det| over nonzero lattice differences in the doubled box, "
               "exhaustive or sampled", True,
               (("--coeff-bound", {"type": _int_in_range(1), "default": 1}),
                ("--samples", {"type": _int_in_range(1, ENUMERATION_BOUND), "default": 2000}),
                _BOUND,
                ("--seed", {"type": int, "help": "random seed override"}))),
    "coset-encode": ("encode (message, offset) to a lattice point", True,
                     (("--msg", {"required": True, "help": "message symbols, e.g. [[1,0]]"}),
                      ("--offset", {"help": "integer offset coordinates, e.g. [1,0,0,0]"}))),
    "coset-decode": ("split a lattice point into codeword and offset", True,
                     (("--point", {"required": True, "help": "row-major coordinate matrix"}),)),
    "verify-examples": ("replay the bundled worked examples", False, ()),
}


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of the one named command alone.

    A run parses one command, so main builds only its subparser.  The
    command list in the usage line is then written out in full, so usage
    errors and help read the same as from the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="skewlat",
        description="Constacyclic codes over skew polynomial quotients and their lattices.",
    )
    choices = "{" + ",".join(_COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
    for name, (help_text, needs_config, arguments) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _stdout_closed() -> int:
    """The exit code 1 after a BrokenPipeError on stdout.  The reader is gone:
    what is still buffered goes to devnull, so the flush at exit cannot raise
    again, and the process fails without a traceback.  The scripts under
    scripts/ call it too."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    return 1


def main(argv=None) -> int:
    """Run one command and return its exit code.  Without an argv, main
    reads sys.argv and owns the process: every import is done, so it calls
    gc.freeze() once, and the collections still to come skip the start-up
    objects.  GC stays enabled.  With an argv the caller's heap is untouched."""
    if argv is None:
        argv = sys.argv[1:]
        gc.freeze()
    else:
        argv = list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    saved_format, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        cfg = None
        if _COMMANDS[args.command][1]:
            cfg = load_config(args.config)
            for key in ("bound", "seed"):  # registered only where a command reads them
                if getattr(args, key, None) is not None:
                    setattr(cfg, key, getattr(args, key))
        # Looked up at call time, so a wrapper set on the module attribute runs.
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        payload, render = handler(cfg, args)
    except SkewLatError as exc:
        print(f"error[{error_code(exc)}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = saved_format
    try:
        print(json.dumps(payload) if args.json else "\n".join(render()))
        sys.stdout.flush()
    except BrokenPipeError:
        return _stdout_closed()
    if args.command == "verify-examples" and not payload["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
