"""Workloads of the skewlat benchmark: query sets, references and checks.

Every workload is a fixed set of queries against the library's public API
(or, for cli-configs, its command line).  The queries of one pass are made
from the benchmark seed and the pass index: the seed picks the query order,
the sampling seeds and the random inputs (messages, offsets, elements).
Every answer is checked, either against a reference recorded at the seed
commit (golden.json, written by make_golden.py) or against an independent
computation.

Query callables look library functions up on the module at call time, so
the tracer's wrappers are hit when they are installed after the queries
were made.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import skewlat as sk
from skewlat import fixtures

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"


def gaussian(p):
    """Z[i] with complex conjugation as sigma and e^2 = -1."""
    return sk.AlgebraSpec(min_poly=(1, 0, 1), sigma_image=(0, -1), u=-1, p=p)


# Cyclic cubic field of 2*cos(2*pi/7), sigma: y -> y^2 - 2, e^3 = 2.
CUBIC = sk.AlgebraSpec(
    min_poly=(-1, -2, 1, 1), sigma_image=(-2, 0, 1), u=2, p=5, conjugation_mode="identity"
)

SPECS = {f"gaussian-p{p}": gaussian(p) for p in (2, 3, 5, 7, 11, 13, 31)}
SPECS.update(
    {"sqrt2-p3": fixtures.SQRT2_P3, "gaussian-p3-u1": fixtures.GAUSSIAN_P3_U1, "cubic-p5": CUBIC}
)

# Code generators, constant term first.  p = 7, 11, 13 use the first monic
# linear right divisor of x^2 + 1 in lexicographic order.
GENERATORS = {
    "gaussian-p2": fixtures.FIXTURE_GENERATORS["gaussian-p2-ramified"],
    "gaussian-p3": fixtures.FIXTURE_GENERATORS["gaussian-p3-inert"],
    "gaussian-p5": fixtures.FIXTURE_GENERATORS["gaussian-p5-split"],
    "gaussian-p7": ((2, 3), (1, 0)),
    "gaussian-p11": ((1, 3), (1, 0)),
    "gaussian-p13": ((0, 5), (1, 0)),
    "sqrt2-p3": fixtures.FIXTURE_GENERATORS["sqrt2-p3-selfdual"],
    "gaussian-p3-u1": ((1, 0),),
    "cubic-p5": ((0, 0, 2), (1, 0, 0)),
}

# Command-line configs: the five bundled ones plus the benchmark's cubic.
CONFIGS = {
    "gaussian-p2": "configs/gaussian_p2.cfg",
    "gaussian-p3": "configs/gaussian_p3.cfg",
    "gaussian-p3-u1": "configs/gaussian_p3_u1.cfg",
    "gaussian-p5": "configs/gaussian_p5.cfg",
    "sqrt2-p3": "configs/sqrt2_p3.cfg",
    "cubic-p5": "bench/configs/cubic_p5.cfg",
}

OFFSET_BOX = 3  # coset offsets are drawn from [-3, 3]^N


def build_code(name):
    ring = sk.QuotientRing(SPECS[name])
    return sk.ConstacyclicCode.from_generator(sk.SkewPoly(ring, GENERATORS[name]))


def load_golden(path=GOLDEN_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Query:
    """One request: `call` asks the program, `check` judges the answer."""

    label: str
    inputs: Any  # the generated inputs, JSON-able
    call: Callable[[], Any] = field(compare=False, repr=False)
    check: Callable[[Any], bool] = field(compare=False, repr=False)


def pass_rng(workload, seed, pass_index):
    return random.Random(f"{workload}/{seed}/{pass_index}")


def coset_reference(p, n, codeword, offset):
    """Offset and point rows of lift(codeword) + p * offset, offset flat."""
    offset_rows = [[p * offset[i * n + j] for j in range(n)] for i in range(n)]
    point = [[c + o for c, o in zip(cw, off)] for cw, off in zip(codeword, offset_rows)]
    return offset_rows, point


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class Workload:
    """A named query set.

    setup() builds the rings, orders and codes the queries need; it is what
    setup_s times in a fresh interpreter, after importing `probe_import`.
    uses lists tracer counters that a traced pass must see nonzero.
    """

    name = ""
    probe_import = "skewlat"
    in_children = False  # queries run in child processes
    # Seconds of --seconds that one pass stands for: about one pass on the
    # reference machine, adjusted so the tail's rank falls inside a query class.
    nominal_pass_s = 1.0
    uses: tuple = ()

    def __init__(self, golden):
        self.golden = golden

    def setup(self):
        return {}

    def queries(self, state, seed, pass_index, tracer=None):
        raise NotImplementedError


class DivisorSearch(Workload):
    """Skew division and ring arithmetic only; never touches lattice or spacetime."""

    name = "divisor-search"
    nominal_pass_s = 3.3
    QUERIES = (
        [(f"gaussian-p{p}", 1) for p in (2, 3, 5, 7, 11, 13, 31)]
        + [(f"gaussian-p{p}", 2) for p in (5, 7, 11)]
        + [("cubic-p5", 1), ("cubic-p5", 2)]
    )
    uses = (
        "number_ring.build", "number_ring.mul", "number_ring.sigma", "number_ring.inverse",
        "number_ring.coerce", "skew.mul", "skew.right_divmod", "skew.monic_right_divisors",
        "divisor_candidates",
    )

    def setup(self):
        return {name: sk.QuotientRing(SPECS[name]) for name, _ in self.QUERIES}

    def queries(self, rings, seed, pass_index, tracer=None):
        out = []
        for name, degree in self.QUERIES:
            ring = rings[name]
            expected = self.golden["divisors"][f"{name}/{degree}"]
            out.append(
                Query(
                    f"divisors {name} degree {degree}",
                    [name, degree],
                    lambda r=ring, d=degree: sk.monic_right_divisors(r, r.n, r.spec.u, d),
                    lambda res, e=expected: [g.to_lists() for g in res] == e,
                )
            )
        pass_rng(self.name, seed, pass_index).shuffle(out)
        return out


class MindetSweep(Workload):
    """Spacetime determinants and order arithmetic, with no divisor search."""

    name = "mindet-sweep"
    nominal_pass_s = 1.25
    EXHAUSTIVE = ("gaussian-p3", "gaussian-p5", "gaussian-p2", "sqrt2-p3", "gaussian-p3-u1")
    SAMPLED = (("gaussian-p3", 2), ("cubic-p5", 1))
    SAMPLES = 2000
    uses = (
        "number_ring.build", "lattice.order_build", "lattice.ok_mul", "lattice.hnf",
        "lattice.det_int", "lattice.gram_matrix", "spacetime.matrix_rep", "spacetime.det",
        "spacetime.min_det_sample", "pairs_evaluated",
    )

    def setup(self):
        names = dict.fromkeys(self.EXHAUSTIVE + tuple(n for n, _ in self.SAMPLED))
        return {name: build_code(name) for name in names}

    def queries(self, codes, seed, pass_index, tracer=None):
        rng = pass_rng(self.name, seed, pass_index)
        out = []
        for name in self.EXHAUSTIVE:
            out.append(
                Query(
                    f"mindet {name} box 1 exhaustive",
                    [name, 1],
                    lambda c=codes[name]: sk.min_det_sample(c, 1),
                    lambda res, e=self.golden["mindet"][name]: res == e,
                )
            )
        for name, box in self.SAMPLED:
            sample_seed = rng.randrange(2**31)
            out.append(
                Query(
                    f"mindet {name} box {box} sampled",
                    [name, box, sample_seed],
                    lambda c=codes[name], b=box, s=sample_seed: sk.min_det_sample(
                        c, b, seed=s, samples=self.SAMPLES, exhaustive=False
                    ),
                    _is_count,
                )
            )
        rng.shuffle(out)
        return out


class CodeLattice(Workload):
    """Code enumeration, Construction A and duals, plus many small coset round
    trips that use the rings as element writes and reads, not a division loop."""

    name = "code-lattice"
    nominal_pass_s = 1.3
    NAMES = (
        "gaussian-p3", "gaussian-p5", "gaussian-p7", "gaussian-p11", "gaussian-p13",
        "sqrt2-p3", "cubic-p5",
    )
    NO_DUAL = ("cubic-p5",)  # u^2 != 1 and 125^3 dual candidates: both raise today
    ROUND_TRIPS = 60  # per code and pass
    uses = (
        "number_ring.build", "number_ring.mul", "skew.mul", "codes.from_generator",
        "codes.encode", "codes.is_codeword", "codes.inner_product", "codes.brute_force_dual",
        "lattice.hnf", "lattice.det_int", "lattice.gram_matrix", "spacetime.coset_encode",
        "spacetime.coset_decode_label",
    )

    def setup(self):
        return {name: build_code(name) for name in self.NAMES}

    def queries(self, codes, seed, pass_index, tracer=None):
        rng = pass_rng(self.name, seed, pass_index)
        out = []
        for name in self.NAMES:
            code, ref = codes[name], self.golden["codes"][name]
            ring = code.ring
            gen = [ring.element(c) for c in GENERATORS[name]]
            out.append(
                Query(
                    f"from_generator {name}",
                    [name],
                    lambda r=ring, g=gen: sk.ConstacyclicCode.from_generator(sk.SkewPoly(r, g)),
                    lambda res, e=ref["code"]: res.to_dict() == e,
                )
            )
            out.append(
                Query(
                    f"construction_a_basis {name}",
                    [name],
                    lambda c=code: sk.construction_a_basis(c),
                    lambda res, e=ref["lattice"]: res.to_dict() == e,
                )
            )
            if name in self.NO_DUAL:
                continue
            out.append(
                Query(
                    f"is_self_dual {name}",
                    [name],
                    lambda c=code: c.is_self_dual(),
                    lambda res, e=ref["self_dual"]: res is e,
                )
            )
            # Cross-check: the brute-force dual behind dual_lattice_basis
            # against the algebraic dual_code (valid as u^2 = 1 here).
            algebraic = sk.construction_a_basis(code.dual_code()).basis
            out.append(
                Query(
                    f"dual_lattice_basis {name}",
                    [name],
                    lambda c=code: sk.dual_lattice_basis(c),
                    lambda res, e=ref["dual_lattice"], x=algebraic: res.to_dict() == e
                    and res.basis == x,
                )
            )
        for name in self.NAMES:
            code = codes[name]
            ring, n = code.ring, code.n
            pool = self.golden["messages"][name]
            for _ in range(self.ROUND_TRIPS):
                msg, codeword = pool[rng.randrange(len(pool))]
                offset = [rng.randint(-OFFSET_BOX, OFFSET_BOX) for _ in range(n * n)]
                symbols = [ring.element(c) for c in msg]
                offset_rows, point = coset_reference(ring.p, n, codeword, offset)
                out.append(
                    Query(
                        f"coset round trip {name}",
                        [name, msg, offset],
                        lambda c=code, m=symbols, o=offset: _round_trip(c, m, o),
                        lambda res, cw=codeword, orow=offset_rows, pt=point: _round_trip_ok(
                            res, cw, orow, pt
                        ),
                    )
                )
        rng.shuffle(out)
        return out


def _round_trip(code, msg, offset):
    enc = sk.coset_encode(code, msg, offset)
    return enc, sk.coset_decode_label(code, enc.point)


def _round_trip_ok(result, codeword, offset_rows, point):
    enc, (decoded, offset) = result
    return (
        enc.to_dict() == {"codeword": codeword, "offset": offset_rows, "point": point}
        and [c.to_list() for c in decoded] == codeword
        and offset.to_lists() == offset_rows
    )


def cli_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, tracer=None):
    """One fresh `python -m skewlat` process; traced, it runs under child.py."""
    if tracer is None:
        cmd = [sys.executable, "-m", "skewlat", *argv]
        return subprocess.run(
            cmd, cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=170
        )
    dump = tracer.child_dump_path()
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "cli", str(dump), *argv]
    try:
        result = subprocess.run(
            cmd, cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=170
        )
        tracer.merge_child(dump)
    finally:
        dump.unlink(missing_ok=True)
    return result


def _cli_json(expected):
    def check(res):
        return res.returncode == 0 and json.loads(res.stdout) == expected

    return check


def _cli_error(code):
    def check(res):
        lines = res.stderr.strip().splitlines()
        return (
            res.returncode == 1
            and not res.stdout
            and bool(lines)
            and lines[-1].startswith(f"error[{code}]")
        )

    return check


def _cli_golden(entry):
    if entry["exit"] == 0:
        return _cli_json(entry["json"])
    return _cli_error(entry["error"])


def _stmatrix_ok(rows, norm_det):
    def check(res):
        if res.returncode != 0:
            return False
        out = json.loads(res.stdout)
        return out["element"] == rows and out["norm_det"] == norm_det

    return check


def _sampled_mindet_ok(res):
    if res.returncode != 0:
        return False
    out = json.loads(res.stdout)
    value = out["min_norm_det"]
    return (
        out["mode"] == "sampled"
        and out["coeff_bound"] == 1
        and _is_count(value)
        and out["division_attested"] is (value > 0)
    )


class CliConfigs(Workload):
    """Every command in a fresh interpreter: start-up, config parsing and
    order rebuilds, where the cli layer matters and deep layers mostly don't."""

    name = "cli-configs"
    probe_import = "skewlat.cli"
    in_children = True
    nominal_pass_s = 6.0
    # Commands whose answer does not depend on the seed, checked against golden.json.
    FIXED = ("divisors", "code", "dual", "lattice")
    # Configs on which `mindet --coeff-bound 1` samples, so only its form is checked.
    SAMPLED_MINDET = ("cubic-p5",)
    uses = (
        "cli.load_config", "cli.handler", "number_ring.build", "skew.right_divmod",
        "codes.from_generator", "lattice.order_build", "lattice.hnf",
        "spacetime.matrix_rep", "spacetime.min_det_sample", "spacetime.coset_encode",
        "spacetime.coset_decode_label",
    )

    @staticmethod
    def fixed_argv(command, config):
        extra = ["--degree", "1"] if command == "divisors" else []
        return [command, "--config", config, "--json", *extra]

    def queries(self, state, seed, pass_index, tracer=None):
        rng = pass_rng(self.name, seed, pass_index)
        gold = self.golden["cli"]
        out = []

        def add(label, argv, check):
            out.append(Query(label, argv, lambda a=argv: run_cli(a, tracer), check))

        for name, config in CONFIGS.items():
            order = sk.NaturalOrder(SPECS[name])
            n, p = order.n, order.p
            for command in self.FIXED:
                add(f"{command} {name}", self.fixed_argv(command, config),
                    _cli_golden(gold[f"{name}/{command}"]))

            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            norm_det = sk.right_multiplication_det(order.element(rows))
            add(f"stmatrix {name}",
                ["stmatrix", "--config", config, "--json", "--element", json.dumps(rows)],
                _stmatrix_ok(rows, norm_det))

            mindet_seed = rng.randrange(2**31)
            argv = ["mindet", "--config", config, "--json", "--coeff-bound", "1",
                    "--seed", str(mindet_seed)]
            check = (_sampled_mindet_ok if name in self.SAMPLED_MINDET
                     else _cli_golden(gold[f"{name}/mindet"]))
            add(f"mindet {name}", argv, check)

            pool = self.golden["messages"][name]
            msg, codeword = pool[rng.randrange(len(pool))]
            offset = [rng.randint(-OFFSET_BOX, OFFSET_BOX) for _ in range(n * n)]
            offset_rows, point = coset_reference(p, n, codeword, offset)
            add(f"coset-encode {name}",
                ["coset-encode", "--config", config, "--json", "--msg", json.dumps(msg),
                 "--offset", json.dumps(offset)],
                _cli_json({"codeword": codeword, "offset": offset_rows, "point": point}))
            add(f"coset-decode {name}",
                ["coset-decode", "--config", config, "--json", "--point", json.dumps(point)],
                _cli_json({"codeword": codeword, "offset": offset_rows}))
        add("verify-examples", ["verify-examples", "--json"], _cli_golden(gold["verify-examples"]))
        rng.shuffle(out)
        return out


WORKLOADS = (CliConfigs, DivisorSearch, MindetSweep, CodeLattice)
NAMES = tuple(cls.name for cls in WORKLOADS)


def make(name, golden):
    return {cls.name: cls for cls in WORKLOADS}[name](golden)
