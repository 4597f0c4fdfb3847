"""Tests of the benchmark's own logic: query generation, checking, tail
percentile and tracer patching.  Run with `python -m pytest bench/tests`."""

import copy
import warnings

import pytest

import run
import skewlat
import tracing
import workloads as wl


@pytest.fixture(scope="module")
def golden():
    return wl.load_golden()


@pytest.fixture(autouse=True)
def quiet():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="irreducibility", category=UserWarning)
        yield


@pytest.mark.parametrize("name", wl.NAMES)
def test_query_generator_is_deterministic_per_seed(name, golden):
    workload = wl.make(name, golden)
    state = workload.setup()

    def generated(seed, pass_index=0):
        return [(q.label, q.inputs) for q in workload.queries(state, seed, pass_index)]

    assert generated(7) == generated(7)
    assert generated(7) != generated(8)
    assert generated(7) != generated(7, pass_index=1)
    assert len(generated(7)) == len(generated(8))


def _run(workload, labels, seed=3):
    queries = [q for q in workload.queries(workload.setup(), seed, 0) if q.label in labels]
    outcomes = run.Outcomes()
    outcomes.judge(queries, outcomes.run_pass(queries))
    return outcomes, len(queries)


def test_corrupted_reference_is_counted_as_failed(golden, capsys):
    labels = {"is_self_dual gaussian-p3", "from_generator gaussian-p3",
              "construction_a_basis sqrt2-p3"}
    outcomes, attempted = _run(wl.make("code-lattice", golden), labels)
    assert (attempted, outcomes.failed) == (3, 0)

    bad = copy.deepcopy(golden)
    bad["codes"]["gaussian-p3"]["self_dual"] = not bad["codes"]["gaussian-p3"]["self_dual"]
    bad["codes"]["sqrt2-p3"]["lattice"]["det"] += 1
    outcomes, attempted = _run(wl.make("code-lattice", bad), labels)
    assert (attempted, outcomes.failed) == (3, 2)
    assert "FAILED is_self_dual gaussian-p3" in capsys.readouterr().err


def test_corrupted_cli_reference_is_counted_as_failed(golden):
    labels = {"code gaussian-p2", "dual cubic-p5"}
    bad = copy.deepcopy(golden)
    bad["cli"]["gaussian-p2/code"]["json"]["k"] += 1
    bad["cli"]["cubic-p5/dual"]["error"] = "TOO_LARGE"
    outcomes, attempted = _run(wl.make("cli-configs", bad), labels)
    assert (attempted, outcomes.failed) == (2, 2)


def test_exception_is_counted_as_failed():
    def boom():
        raise skewlat.SkewLatError("no")

    queries = [wl.Query("boom", [], boom, lambda res: True),
               wl.Query("fine", [], lambda: 1, lambda res: res == 1)]
    outcomes = run.Outcomes()
    outcomes.judge(queries, outcomes.run_pass(queries))
    assert outcomes.failed == 1 and len(outcomes.records) == 2


@pytest.mark.parametrize("n", [11, 49, 100, 727])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    latencies = [float(i) for i in range(n, 0, -1)]
    value, percentile = run.tail(latencies)
    assert sum(v > value for v in latencies) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)
    # the next rank up would leave only 9 samples beyond
    assert sum(v > value + 1 for v in latencies) == 9


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_tracer_patches_every_importing_module_and_restores(tmp_path):
    from skewlat import cli, lattice, spacetime

    original = lattice.construction_a_basis
    handler = cli._HANDLERS["lattice"]
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        wrapped = lattice.construction_a_basis
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert spacetime.construction_a_basis is wrapped
        assert cli.construction_a_basis is wrapped
        assert skewlat.construction_a_basis is wrapped
        assert cli._HANDLERS["lattice"].__wrapped__ is handler
        code = wl.build_code("gaussian-p3")
        skewlat.min_det_sample(code, 1)
    finally:
        tracer.uninstall()
    assert lattice.construction_a_basis is original and cli._HANDLERS["lattice"] is handler
    assert tracer.counts["lattice.construction_a_basis"] == 1
    assert tracer.counts["pairs_evaluated"] == 3240
    tracer.check_uses(["lattice.hnf", "spacetime.matrix_rep"])
    with pytest.raises(tracing.TraceError, match="codes.encode"):
        tracer.check_uses(["lattice.hnf", "codes.encode"])
