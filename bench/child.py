"""Fresh-interpreter helper of the skewlat benchmark.

    python bench/child.py setup WORKLOAD MODULE
        Import MODULE, build WORKLOAD's rings, orders and codes, and print the
        seconds both took (importing the benchmark's own code is excluded),
        then the speed probe's reading taken just before.
    python bench/child.py cli DUMP ARGS...
        Run `skewlat ARGS...` like `python -m skewlat` does, under the tracer,
        and write the trace to DUMP.

src/ must be on PYTHONPATH.
"""

import importlib
import sys
import time


def setup(workload, module):
    import speed

    probe = speed.probe()
    start = time.perf_counter()
    importlib.import_module(module)
    imported = time.perf_counter()
    import warnings

    import workloads

    warnings.simplefilter("ignore", UserWarning)
    build_start = time.perf_counter()
    workloads.make(workload, golden=None).setup()
    end = time.perf_counter()
    print(repr((imported - start) + (end - build_start)), repr(probe))
    return 0


def traced_cli(dump, argv):
    start = time.perf_counter()
    from skewlat import cli

    import_s = time.perf_counter() - start
    from pathlib import Path

    from tracing import Tracer

    dump = Path(dump)
    tracer = Tracer(dump.parent)
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(dump, import_s)
    return code


def main(argv):
    if len(argv) >= 3 and argv[0] == "setup":
        return setup(argv[1], argv[2])
    if len(argv) >= 2 and argv[0] == "cli":
        return traced_cli(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
