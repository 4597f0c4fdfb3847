"""Command line front end.

Configs are flat ``key = value`` text files; values are integers, bracketed
integer lists (possibly nested), or one of a few keywords.  Blank lines and
``#`` comments are allowed.  Required keys: p, min_poly, sigma_image, u.
Optional: conjugation_mode, generator, bound, seed, e_weight.

Commands: divisors, code, dual, lattice, stmatrix, mindet, coset-encode,
coset-decode, verify-examples.  Results go to stdout (plain tables by
default, machine-readable with --json), diagnostics to stderr.  Exit codes:
0 success, 1 domain error (with a stable error code) or a closed stdout
(without a traceback), 2 usage error.  Library warnings print to stderr as one
``warning: <message>`` line each, without a source location.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
import warnings
from dataclasses import dataclass

from .codes import ConstacyclicCode
from .errors import MissingKey, ParseError, SkewLatError, UnknownKey
from .fixtures import worked_example_checks
from .lattice import NaturalOrder, construction_a_basis, lift_codeword
from .number_ring import ENUMERATION_BOUND, AlgebraSpec, QuotientRing
from .skew import SkewPoly, monic_right_divisors
from .spacetime import (
    coset_decode_label,
    coset_encode,
    exhaustive_sweep,
    matrix_rep,
    min_det_sample,
)

_INT_KEYS = ("p", "u", "bound", "seed", "e_weight")
_LIST_KEYS = ("min_poly", "sigma_image")
_NESTED_KEYS = ("generator",)
_WORD_KEYS = ("conjugation_mode",)
REQUIRED_KEYS = ("p", "min_poly", "sigma_image", "u")
KNOWN_KEYS = _INT_KEYS + _LIST_KEYS + _NESTED_KEYS + _WORD_KEYS


@dataclass
class Config:
    p: int
    min_poly: list
    sigma_image: list
    u: int
    conjugation_mode: str = "complex"
    generator: list | None = None
    bound: int = ENUMERATION_BOUND
    seed: int = 0
    e_weight: int = 1

    def spec(self) -> AlgebraSpec:
        return AlgebraSpec(
            min_poly=self.min_poly,
            sigma_image=self.sigma_image,
            u=self.u,
            p=self.p,
            conjugation_mode=self.conjugation_mode,
        )


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
        else:
            values[key] = raw
    for key in REQUIRED_KEYS:
        if key not in values:
            raise MissingKey(f"missing required key {key!r}")
    return Config(**values)


def load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


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


def cmd_divisors(cfg: Config, args) -> dict:
    ring = _ring(cfg)
    divisors = monic_right_divisors(ring, ring.n, cfg.u, args.degree, bound=cfg.bound)
    return {
        "degree": args.degree,
        "count": len(divisors),
        "divisors": [d.to_lists() for d in divisors],
        "pretty": [str(d) for d in divisors],
    }


def cmd_code(cfg: Config, args) -> dict:
    code = _code(cfg)
    out = code.to_dict()
    out["pretty"] = {"g": str(code.g), "h": str(code.h)}
    return out


def cmd_dual(cfg: Config, args) -> dict:
    code = _code(cfg)
    gp = code.dual_generator()
    dual = ConstacyclicCode.from_generator(gp)
    return {
        "g_perp": gp.to_lists(),
        "g_perp_monic": dual.g.to_lists(),
        "self_dual": code.is_self_dual(),
        "pretty": {"g_perp": str(gp), "g_perp_monic": str(dual.g)},
    }


def cmd_lattice(cfg: Config, args) -> dict:
    code = _code(cfg)
    basis = construction_a_basis(code, e_weight=cfg.e_weight)
    return basis.to_dict()


def cmd_stmatrix(cfg: Config, args) -> dict:
    if args.element:
        order = NaturalOrder(_ring(cfg).spec)
        element = order.element(_parse_cli_list(args.element, "--element", nested=True))
    else:
        code = _code(cfg)
        element = lift_codeword(NaturalOrder(code.ring.spec), code.to_codeword(code.g))
    matrix = matrix_rep(element)
    return {
        "element": element.to_lists(),
        "matrix": matrix.to_lists(),
        "norm_det": matrix.norm_det(),
        "pretty": str(element),
    }


def cmd_mindet(cfg: Config, args) -> dict:
    code = _code(cfg)
    coeff_bound = args.coeff_bound
    exhaustive = exhaustive_sweep(code, coeff_bound, cfg.bound)
    value = min_det_sample(
        code,
        coeff_bound,
        seed=cfg.seed,
        samples=args.samples,
        enumeration_bound=cfg.bound,
    )
    return {
        "coeff_bound": coeff_bound,
        "mode": "exhaustive" if exhaustive else "sampled",
        "min_norm_det": value,
        "division_attested": bool(value > 0),
    }


def cmd_coset_encode(cfg: Config, args) -> dict:
    code = _code(cfg)
    msg_lists = _parse_cli_list(args.msg, "--msg", nested=True)
    msg = [code.ring.element(c) for c in msg_lists]
    if args.offset:
        offset = _parse_cli_list(args.offset, "--offset", nested=False)
    else:
        offset = [0] * (code.n * code.n)
    enc = coset_encode(code, msg, offset)
    return enc.to_dict()


def cmd_coset_decode(cfg: Config, args) -> dict:
    code = _code(cfg)
    order = NaturalOrder(code.ring.spec)
    rows = _parse_cli_list(args.point, "--point", nested=True)
    point = order.element(rows)
    codeword, offset = coset_decode_label(code, point)
    return {
        "codeword": [c.to_list() for c in codeword],
        "offset": offset.to_lists(),
    }


def cmd_verify_examples(cfg, args) -> dict:
    results = worked_example_checks()
    return {
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": all(r.passed for r in results),
    }


# -- output formatting ------------------------------------------------------


def _print_matrix(rows, indent="  "):
    for row in rows:
        print(indent + " ".join(f"{v:>6}" for v in row))


def _print_human(command: str, payload: dict):
    if command == "divisors":
        print(f"monic right divisors of degree {payload['degree']}: {payload['count']}")
        for pretty, coeffs in zip(payload["pretty"], payload["divisors"]):
            print(f"  {pretty:<24} {coeffs}")
    elif command == "code":
        print(f"n = {payload['n']}  k = {payload['k']}  u = {payload['u']}")
        print(f"g = {payload['pretty']['g']}")
        print(f"h = {payload['pretty']['h']}")
    elif command == "dual":
        print(f"g_perp       = {payload['pretty']['g_perp']}")
        print(f"g_perp_monic = {payload['pretty']['g_perp_monic']}")
        print(f"self_dual    = {str(payload['self_dual']).lower()}")
    elif command == "lattice":
        print(f"index = {payload['index']}  gram_det = {payload['det']}")
        print("basis (columns generate):")
        _print_matrix(payload["basis"])
        print("gram:")
        _print_matrix(payload["gram"])
    elif command == "stmatrix":
        print(f"element = {payload['pretty']}")
        print("matrix (entries are coordinate vectors):")
        for row in payload["matrix"]:
            print("  " + "  ".join(str(e) for e in row))
        print(f"norm_det = {payload['norm_det']}")
    elif command == "mindet":
        print(
            f"min |norm det| = {payload['min_norm_det']} "
            f"({payload['mode']}, coeff_bound {payload['coeff_bound']})"
        )
    elif command == "coset-encode":
        print(f"codeword = {payload['codeword']}")
        print(f"offset   = {payload['offset']}")
        print(f"point    = {payload['point']}")
    elif command == "coset-decode":
        print(f"codeword = {payload['codeword']}")
        print(f"offset   = {payload['offset']}")
    elif command == "verify-examples":
        for check in payload["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"{status} {check['name']}: {check['detail']}")
        print("all checks passed" if payload["passed"] else "SOME CHECKS FAILED")


_HANDLERS = {
    "divisors": cmd_divisors,
    "code": cmd_code,
    "dual": cmd_dual,
    "lattice": cmd_lattice,
    "stmatrix": cmd_stmatrix,
    "mindet": cmd_mindet,
    "coset-encode": cmd_coset_encode,
    "coset-decode": cmd_coset_decode,
    "verify-examples": cmd_verify_examples,
}


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewlat",
        description="Constacyclic codes over skew polynomial quotients and their lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("divisors", "list monic right divisors of x^n - u")
    p.add_argument("--degree", type=_int_in_range(0), required=True)
    p.add_argument("--bound", type=_int_in_range(0), help="enumeration bound override")
    add("code", "build the code of the configured generator")
    add("dual", "dual generator and self-duality of the configured code")
    p = add("lattice", "Construction A basis, Gram matrix, determinant, index")
    p = add("stmatrix", "matrix representation of an order element")
    p.add_argument("--element", help="row-major coordinate matrix, e.g. [[1,1],[1,0]]")
    p = add(
        "mindet",
        "minimum |norm det| over nonzero lattice differences in the doubled box, "
        "exhaustive or sampled",
    )
    p.add_argument("--coeff-bound", type=_int_in_range(1), default=1)
    p.add_argument("--samples", type=_int_in_range(1, ENUMERATION_BOUND), default=2000)
    p.add_argument("--bound", type=_int_in_range(0), help="enumeration bound override")
    p.add_argument("--seed", type=int, help="random seed override")
    p = add("coset-encode", "encode (message, offset) to a lattice point")
    p.add_argument("--msg", required=True, help="message symbols, e.g. [[1,0]]")
    p.add_argument("--offset", help="integer offset coordinates, e.g. [1,0,0,0]")
    p = add("coset-decode", "split a lattice point into codeword and offset")
    p.add_argument("--point", required=True, help="row-major coordinate matrix")
    add("verify-examples", "replay the bundled worked examples", needs_config=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    saved_format, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        if args.command == "verify-examples":
            cfg = None
        else:
            cfg = load_config(args.config)
            for key in ("bound", "seed"):  # registered only where a command reads them
                if getattr(args, key, None) is not None:
                    setattr(cfg, key, getattr(args, key))
        payload = _HANDLERS[args.command](cfg, args)
    except SkewLatError as exc:
        print(f"error[{error_code(exc)}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = saved_format
    try:
        if args.json:
            payload = dict(payload)
            payload.pop("pretty", None)
            print(json.dumps(payload))
        else:
            _print_human(args.command, payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: send what is still buffered to devnull, so the
        # flush at exit cannot raise again, and fail without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    if args.command == "verify-examples" and not payload["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
