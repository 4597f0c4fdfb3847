import json

import pytest

from skewlat.cli import Config, error_code, load_config, main, parse_config
from skewlat.errors import (
    MissingKey,
    NotPrime,
    ParseError,
    UnknownKey,
    UnsupportedU,
)

GAUSSIAN_P3_TEXT = """\
# worked example
p = 3
min_poly = [1, 0, 1]
sigma_image = [0, -1]
u = -1
generator = [[1, 1], [1, 0]]
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "g3.cfg"
    path.write_text(GAUSSIAN_P3_TEXT)
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- config parsing ----------------------------------------------------------


def test_parse_config_basic():
    cfg = parse_config(GAUSSIAN_P3_TEXT)
    assert cfg.p == 3
    assert cfg.min_poly == [1, 0, 1]
    assert cfg.sigma_image == [0, -1]
    assert cfg.u == -1
    assert cfg.generator == [[1, 1], [1, 0]]
    assert cfg.conjugation_mode == "complex"
    spec = cfg.spec()
    assert spec.n == 2


def test_parse_config_minimal_four_keys():
    from skewlat.fixtures import GAUSSIAN_P3

    cfg = parse_config("p = 3\nmin_poly = [1, 0, 1]\nsigma_image = [0, -1]\nu = -1")
    assert cfg.spec() == GAUSSIAN_P3


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(MissingKey, match="p"):
        parse_config("")
    with pytest.raises(UnknownKey, match="line 2"):
        parse_config("p = 3\nmystery = 1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_config("p = banana\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_config("p = 3\nu = 1\nmin_poly = [1, oops]\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_config("p = 3\np = 5\n")
    with pytest.raises(ParseError, match="key = value"):
        parse_config("p 3\n")
    with pytest.raises(UnknownKey, match="'box'"):  # the unused coset offset box key is gone
        parse_config(GAUSSIAN_P3_TEXT + "box = 3\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("min_poly = [[1], 0, 1]", "list nesting too deep"),
        ("generator = [[[1], 0], [1, 0]]", "list nesting too deep"),
        ("min_poly = [1, 0.5, 1]", "expected integers"),
        ("min_poly = [1, True, 1]", "expected integers"),
        ("generator = [[1, 'a'], [1, 0]]", "expected integers"),
        ("min_poly = 5", "expected a bracketed list"),
        ("min_poly = (1, 0, 1)", "expected a bracketed list"),
    ],
)
def test_list_values_are_checked(line, message):
    key = line.split(" =")[0]
    text = "".join(
        row if not row.startswith(key) else line + "\n"
        for row in GAUSSIAN_P3_TEXT.splitlines(keepends=True)
    )
    with pytest.raises(ParseError, match=message):
        parse_config(text)


def test_negative_config_bound_is_parse_error():
    with pytest.raises(ParseError, match="line 7: bound must be at least 0, got -1"):
        parse_config(GAUSSIAN_P3_TEXT + "bound = -1\n")
    assert parse_config(GAUSSIAN_P3_TEXT + "bound = 0\n").bound == 0


def test_error_code_names():
    assert error_code(UnsupportedU("x")) == "UNSUPPORTED_U"
    assert error_code(NotPrime("x")) == "NOT_PRIME"
    assert error_code(MissingKey("x")) == "MISSING_KEY"


# -- commands ---------------------------------------------------------------


def test_divisors_command(capsys, cfg_path):
    rc, out, err = run(capsys, "divisors", "--config", cfg_path, "--degree", "1", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert [[1, 1], [1, 0]] in payload["divisors"]


def test_code_command(capsys, cfg_path):
    rc, out, err = run(capsys, "code", "--config", cfg_path, "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload == {
        "n": 2,
        "u": [2, 0],
        "g": [[1, 1], [1, 0]],
        "h": [[2, 1], [1, 0]],
        "k": 1,
    }


def test_dual_command(capsys, cfg_path):
    rc, out, err = run(capsys, "dual", "--config", cfg_path, "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["g_perp"] == [[1, 0], [2, 2]]
    assert payload["self_dual"] is False


def test_lattice_command(capsys, cfg_path):
    rc, out, err = run(capsys, "lattice", "--config", cfg_path, "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["index"] == 9
    assert payload["det"] == 1296
    assert len(payload["basis"]) == 4 and len(payload["gram"]) == 4


def test_stmatrix_command(capsys, cfg_path):
    rc, out, err = run(capsys, "stmatrix", "--config", cfg_path, "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["element"] == [[1, 1], [1, 0]]
    assert payload["matrix"] == [[[1, 1], [-1, 0]], [[1, 0], [1, -1]]]
    assert payload["norm_det"] == 9

    rc, out, _ = run(
        capsys, "stmatrix", "--config", cfg_path, "--element", "[[0, 1], [0, 0]]", "--json"
    )
    assert json.loads(out)["matrix"] == [[[0, 1], [0, 0]], [[0, 0], [0, -1]]]


def test_mindet_commands(capsys, cfg_path, tmp_path):
    rc, out, err = run(capsys, "mindet", "--config", cfg_path, "--coeff-bound", "1", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["min_norm_det"] == 9
    assert payload["mode"] == "exhaustive"
    assert payload["division_attested"] is True

    sabotage = tmp_path / "u1.cfg"
    sabotage.write_text(
        "p = 3\nmin_poly = [1, 0, 1]\nsigma_image = [0, -1]\nu = 1\ngenerator = [[1, 0]]\n"
    )
    rc, out, err = run(capsys, "mindet", "--config", str(sabotage), "--coeff-bound", "1", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["min_norm_det"] == 0
    assert payload["division_attested"] is False


def test_coset_round_trip_commands(capsys, cfg_path):
    rc, out, err = run(
        capsys,
        "coset-encode",
        "--config",
        cfg_path,
        "--msg",
        "[[1, 0]]",
        "--offset",
        "[1, 0, 0, 0]",
        "--json",
    )
    assert rc == 0
    enc = json.loads(out)
    assert enc["point"] == [[4, 1], [1, 0]]

    rc, out, err = run(
        capsys,
        "coset-decode",
        "--config",
        cfg_path,
        "--point",
        json.dumps(enc["point"]),
        "--json",
    )
    assert rc == 0
    dec = json.loads(out)
    assert dec["codeword"] == enc["codeword"] == [[1, 1], [1, 0]]
    assert dec["offset"] == enc["offset"] == [[3, 0], [0, 0]]


def test_coset_encode_without_offset_is_the_lifted_codeword(capsys, cfg_path):
    rc, out, err = run(capsys, "coset-encode", "--config", cfg_path, "--msg", "[[1, 0]]", "--json")
    assert rc == 0, err
    assert json.loads(out) == {
        "codeword": [[1, 1], [1, 0]],
        "offset": [[0, 0], [0, 0]],
        "point": [[1, 1], [1, 0]],
    }


SEXTIC_TEXT = """\
p = 5
min_poly = [-1, 3, 6, -4, -5, 1, 1]
sigma_image = [-2, 0, 1]
u = 2
conjugation_mode = identity
generator = [[1, 0, 0, 0, 0, 0]]
"""

PHI11_TEXT = """\
p = 23
min_poly = [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
sigma_image = [0, 0, 1]
u = 2
conjugation_mode = identity
"""


@pytest.mark.parametrize(
    "text, argv",
    [
        (SEXTIC_TEXT, ["mindet", "--coeff-bound", "1"]),
        (PHI11_TEXT, ["stmatrix", "--element", str([[1] * 10] * 10)]),
    ],
    ids=["sextic-mindet", "dense-phi11-stmatrix"],
)
def test_factorial_expansions_end_too_large(capsys, tmp_path, monkeypatch, text, argv):
    # At ENUMERATION_BOUND both run for seconds before they stop (the CI
    # checks that); a smaller bound shows the same ending at once.
    from skewlat import spacetime

    monkeypatch.setattr(spacetime, "ENUMERATION_BOUND", 10**4)
    path = tmp_path / "big.cfg"
    path.write_text(text)
    with pytest.warns(UserWarning, match="irreducibility"):
        rc, out, err = run(capsys, argv[0], "--config", str(path), *argv[1:])
    assert (rc, out) == (1, "")
    assert err == "error[TOO_LARGE]: cofactor expansion exceeds 10000 products\n"


def test_verify_examples_command(capsys):
    rc, out, err = run(capsys, "verify-examples")
    assert rc == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out

    rc, out, err = run(capsys, "verify-examples", "--json")
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 4


def test_verify_examples_failure_is_nonzero(capsys, monkeypatch):
    import skewlat.cli as cli_module
    from skewlat.fixtures import CheckResult

    def broken():
        return [CheckResult("synthetic", False, "forced failure")]

    monkeypatch.setattr(cli_module, "worked_example_checks", broken)
    rc, out, err = run(capsys, "verify-examples")
    assert rc == 1
    assert "FAIL synthetic" in out


# -- error and exit code mapping ---------------------------------------------


def test_domain_errors_exit_one(capsys, tmp_path):
    u2 = tmp_path / "u2.cfg"
    u2.write_text(
        "p = 5\nmin_poly = [1, 0, 1]\nsigma_image = [0, -1]\nu = 2\ngenerator = [[1, 0]]\n"
    )
    rc, out, err = run(capsys, "dual", "--config", str(u2))
    assert rc == 1
    assert "UNSUPPORTED_U" in err and out == ""

    p4 = tmp_path / "p4.cfg"
    p4.write_text("p = 4\nmin_poly = [1, 0, 1]\nsigma_image = [0, -1]\nu = -1\n")
    rc, out, err = run(capsys, "code", "--config", str(p4))
    assert rc == 1
    assert "NOT_PRIME" in err

    nogen = tmp_path / "nogen.cfg"
    nogen.write_text("p = 3\nmin_poly = [1, 0, 1]\nsigma_image = [0, -1]\nu = -1\n")
    rc, out, err = run(capsys, "code", "--config", str(nogen))
    assert rc == 1
    assert "MISSING_KEY" in err


def test_huge_degree_is_too_large_before_any_core_work(capsys, tmp_path):
    # The spec answers before the arithmetic core starts its n^4 sigma tables,
    # which take tens of seconds at degree 1200.
    path = tmp_path / "huge.cfg"
    min_poly = [1] + [0] * 1199 + [1]
    path.write_text(
        f"p = 3\nmin_poly = {min_poly}\nsigma_image = [1, 1]\nu = 1\nconjugation_mode = identity\n"
    )
    rc, out, err = run(capsys, "code", "--config", str(path), "--json")
    assert rc == 1 and out == ""
    assert err.startswith("error[TOO_LARGE]: degree 1200")


def test_usage_errors_exit_two(capsys, cfg_path):
    rc, _, _ = run(capsys, "no-such-command")
    assert rc == 2
    rc, _, _ = run(capsys, "divisors", "--config", cfg_path)  # missing --degree
    assert rc == 2
    rc, _, _ = run(capsys, "code")  # missing --config
    assert rc == 2
    rc, _, _ = run(capsys, "code", "--config", "/nonexistent/path.cfg")
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("mindet", "--coeff-bound", "0"),
        ("mindet", "--coeff-bound", "-1"),
        ("mindet", "--samples", "0"),
        ("mindet", "--samples", "1000001"),
        ("divisors", "--degree", "-1"),
        # Flags a command does not read: only divisors and mindet take
        # --bound, only mindet takes --seed, verify-examples takes no config.
        *[
            (command, flag, "3")
            for command in ("code", "dual", "lattice", "stmatrix")
            for flag in ("--bound", "--seed")
        ],
        ("coset-encode", "--bound", "3", "--msg", "[[1, 0]]"),
        ("coset-encode", "--seed", "3", "--msg", "[[1, 0]]"),
        ("coset-decode", "--bound", "3", "--point", "[[1, 1], [1, 0]]"),
        ("coset-decode", "--seed", "3", "--point", "[[1, 1], [1, 0]]"),
        ("divisors", "--seed", "3", "--degree", "1"),
        ("verify-examples", "--config", "nonexistent"),
        ("verify-examples", "--bound", "3"),
        ("verify-examples", "--seed", "3"),
        ("divisors", "--bound", "-5", "--degree", "1"),
        ("mindet", "--bound", "-1"),
    ],
)
def test_out_of_range_flags_are_usage_errors(capsys, cfg_path, argv):
    config = [] if argv[0] == "verify-examples" else ["--config", cfg_path]
    rc, out, err = run(capsys, argv[0], *config, *argv[1:])
    assert rc == 2
    assert out == ""
    assert "usage:" in err and argv[1] in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, cfg_text",
    [
        (["code"], GAUSSIAN_P3_TEXT.replace("[[1, 1], [1, 0]]", "[1, 1]")),
        (["stmatrix", "--element", "[1,2]"], GAUSSIAN_P3_TEXT),
        (["coset-decode", "--point", "[1,2]"], GAUSSIAN_P3_TEXT),
        (["coset-encode", "--msg", "[1,0]"], GAUSSIAN_P3_TEXT),
    ],
    ids=["generator", "element", "point", "msg"],
)
def test_flat_list_where_nested_belongs_is_parse_error(capsys, tmp_path, argv, cfg_text):
    path = tmp_path / "flat.cfg"
    path.write_text(cfg_text)
    rc, out, err = run(capsys, argv[0], "--config", str(path), *argv[1:])
    assert rc == 1
    assert out == ""
    assert err.strip().splitlines()[-1].startswith("error[PARSE_ERROR]")
    assert "Traceback" not in err


def test_zero_generator_is_not_a_divisor(capsys, tmp_path):
    path = tmp_path / "zero.cfg"
    path.write_text(GAUSSIAN_P3_TEXT.replace("[[1, 1], [1, 0]]", "[]"))
    rc, out, err = run(capsys, "code", "--config", str(path))
    assert rc == 1
    assert out == ""
    assert err.strip().splitlines()[-1].startswith("error[NOT_A_DIVISOR]")
    assert "Traceback" not in err


def test_stmatrix_element_needs_no_generator(capsys, cfg_path, tmp_path):
    nogen = tmp_path / "nogen.cfg"
    nogen.write_text(GAUSSIAN_P3_TEXT.replace("generator = [[1, 1], [1, 0]]\n", ""))
    element = ["--element", "[[1, 2], [0, 1]]", "--json"]
    rc, with_gen, _ = run(capsys, "stmatrix", "--config", cfg_path, *element)
    assert rc == 0
    rc, without_gen, err = run(capsys, "stmatrix", "--config", str(nogen), *element)
    assert rc == 0, err
    assert without_gen == with_gen
    rc, _, err = run(capsys, "stmatrix", "--config", str(nogen))
    assert rc == 1 and "MISSING_KEY" in err


@pytest.mark.parametrize("command", ["code", "lattice"])
def test_nineteen_digit_prime_config_runs(capsys, tmp_path, command):
    big = tmp_path / "big.cfg"
    big.write_text(
        "p = 1000000000000000003\nmin_poly = [1, 0, 1]\nsigma_image = [0, -1]\n"
        "u = -1\ngenerator = [[1, 0]]\n"
    )
    rc, out, err = run(capsys, command, "--config", str(big), "--json")
    assert rc == 0, err
    assert json.loads(out)


def test_verify_examples_fails_under_optimize():
    # python -O strips assert statements; the checks must not rely on them.
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import json, sys\n"
        "from skewlat import cli, fixtures\n"
        "fixtures.FIXTURE_GENERATORS['gaussian-p3-inert'] = ((2, 1), (1, 0))\n"
        "sys.exit(cli.main(['verify-examples', '--json']))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["passed"] is False
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["gaussian-p3-inert"]


def test_closed_stdout_exits_one_without_a_traceback(cfg_path):
    # The read end of the pipe is closed before the child starts, so its
    # first write to stdout fails with EPIPE on every run.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for json_flag in ([], ["--json"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "skewlat", "divisors", "--config", cfg_path,
                 "--degree", "1", *json_flag],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""


def test_library_warnings_print_as_one_stable_line(tmp_path):
    # The degree > 3 irreducibility warning names neither a file nor a line,
    # so editing the CLI cannot change the stderr of a quartic config.
    import os
    import subprocess
    import sys
    from pathlib import Path

    from helpers import QUARTIC

    path = tmp_path / "quartic.cfg"
    path.write_text(
        f"p = {QUARTIC.p}\nmin_poly = {list(QUARTIC.min_poly)}\n"
        f"sigma_image = {list(QUARTIC.sigma_image)}\nu = {QUARTIC.u}\n"
        f"conjugation_mode = {QUARTIC.conjugation_mode}\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "skewlat", "divisors", "--config", str(path), "--degree", "1",
         "--json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 156
    assert proc.stderr == (
        "warning: irreducibility over Q is only verified up to degree 3; degree 4 is trusted\n"
    )


def test_bound_flag_overrides_config(capsys, cfg_path):
    for bound in ("5", "0"):  # 0 is a bound, not a usage error
        rc, out, err = run(
            capsys, "divisors", "--config", cfg_path, "--degree", "1", "--bound", bound
        )
        assert rc == 1
        assert "TOO_LARGE" in err


def test_load_config_matches_parse(cfg_path):
    assert load_config(cfg_path) == parse_config(GAUSSIAN_P3_TEXT)


def test_bundled_configs_parse_and_run(capsys):
    from pathlib import Path

    config_dir = Path(__file__).resolve().parent.parent / "configs"
    for name in ("gaussian_p3", "gaussian_p5", "gaussian_p2", "sqrt2_p3", "gaussian_p3_u1"):
        path = str(config_dir / f"{name}.cfg")
        cfg = load_config(path)
        assert isinstance(cfg, Config)
        rc, out, err = run(capsys, "code", "--config", path, "--json")
        assert rc == 0, (name, err)


def _golden_cases():
    from pathlib import Path

    golden = Path(__file__).resolve().parent / "cli_human_golden.json"
    return json.loads(golden.read_text())


@pytest.mark.parametrize(
    "case",
    _golden_cases(),
    ids=lambda case: f"{case['config']}:{' '.join(case['argv'][:1] + case['argv'][2:3])}",
)
def test_human_output_is_pinned(capsys, case):
    # Every command in human mode on the bundled configs: the exit code,
    # stdout and stderr recorded in cli_human_golden.json.
    from pathlib import Path

    argv = list(case["argv"])
    if case["config"] is not None:
        config = Path(__file__).resolve().parent.parent / "configs" / f"{case['config']}.cfg"
        argv[1:1] = ["--config", str(config)]
    assert run(capsys, *argv) == (case["rc"], case["stdout"], case["stderr"])
