"""Record the benchmark's reference answers in golden.json.

    python3 bench/make_golden.py

Run from the root of the source tree.  The references were recorded at the
seed commit of the benchmark; later commits must reproduce them, so rerun
this only when an answer is meant to change, and say why in CHANGES.md.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import skewlat as sk  # noqa: E402
import workloads as wl  # noqa: E402

POOL_SIZE = 64  # messages recorded per code, with their codewords


def message_pool(code):
    ring = code.ring
    space = itertools.product(itertools.product(range(ring.p), repeat=ring.n), repeat=code.k)
    if ring.size**code.k <= POOL_SIZE:
        msgs = [list(map(list, m)) for m in space]
    else:
        rng = random.Random(0)
        msgs = [[[rng.randrange(ring.p) for _ in range(ring.n)] for _ in range(code.k)]
                for _ in range(POOL_SIZE)]
    return [[m, [c.to_list() for c in code.encode([ring.element(s) for s in m])]] for m in msgs]


def cli_answer(argv):
    done = subprocess.run([sys.executable, "-m", "skewlat", *argv], cwd=ROOT,
                          env=wl.cli_env(), capture_output=True, text=True, check=False)
    if done.returncode == 0:
        return {"exit": 0, "json": json.loads(done.stdout)}
    last = done.stderr.strip().splitlines()[-1]
    return {"exit": done.returncode, "error": last[last.index("[") + 1 : last.index("]")]}


def main():
    warnings.simplefilter("ignore", UserWarning)
    golden = {"divisors": {}, "mindet": {}, "codes": {}, "messages": {}, "cli": {}}

    rings = {}
    for name, degree in wl.DivisorSearch.QUERIES:
        ring = rings.setdefault(name, sk.QuotientRing(wl.SPECS[name]))
        found = sk.monic_right_divisors(ring, ring.n, ring.spec.u, degree)
        golden["divisors"][f"{name}/{degree}"] = [g.to_lists() for g in found]

    for name in wl.MindetSweep.EXHAUSTIVE:
        golden["mindet"][name] = sk.min_det_sample(wl.build_code(name), 1)

    for name in wl.CodeLattice.NAMES:
        code = wl.build_code(name)
        entry = {"code": code.to_dict(), "lattice": sk.construction_a_basis(code).to_dict()}
        if name not in wl.CodeLattice.NO_DUAL:
            entry["self_dual"] = code.is_self_dual()
            entry["dual_lattice"] = sk.dual_lattice_basis(code).to_dict()
        golden["codes"][name] = entry

    for name in wl.GENERATORS:
        golden["messages"][name] = message_pool(wl.build_code(name))

    cli = wl.CliConfigs
    for name, config in wl.CONFIGS.items():
        for command in cli.FIXED:
            golden["cli"][f"{name}/{command}"] = cli_answer(cli.fixed_argv(command, config))
        if name not in cli.SAMPLED_MINDET:
            answer = cli_answer(["mindet", "--config", config, "--json", "--coeff-bound", "1"])
            if answer["json"]["mode"] != "exhaustive":
                raise SystemExit(f"mindet on {config} samples; list it in SAMPLED_MINDET")
            golden["cli"][f"{name}/mindet"] = answer
    golden["cli"]["verify-examples"] = cli_answer(["verify-examples", "--json"])

    path = wl.GOLDEN_PATH
    path.write_text(json.dumps(golden, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
