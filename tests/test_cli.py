import json
from pathlib import Path

import pytest

from skewlat import cli
from skewlat.cli import Config, error_code, load_config, main, parse_config
from skewlat.errors import (
    InvalidSpec,
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
    spec = cfg.spec()
    assert spec.n == 2


def test_conjugation_mode_is_checked_but_inert_and_e_weight_is_unknown():
    for mode in ("complex", "identity"):
        assert parse_config(GAUSSIAN_P3_TEXT + f"conjugation_mode = {mode}\n") == parse_config(
            GAUSSIAN_P3_TEXT
        )
    with pytest.raises(InvalidSpec, match="conjugation_mode must be 'complex' or 'identity'"):
        parse_config(GAUSSIAN_P3_TEXT + "conjugation_mode = Complex\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_config(GAUSSIAN_P3_TEXT + "conjugation_mode = complex\n" * 2)
    with pytest.raises(UnknownKey, match="line 7: unknown key 'e_weight'"):
        parse_config(GAUSSIAN_P3_TEXT + "e_weight = 1\n")


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


# -- the trace form takes its conjugation from the field ---------------------

REPO = Path(__file__).resolve().parent.parent

# The real quadratic Z[(1 + sqrt 5)/2] with the whole order as its lattice
# (generator 1): sigma is no conjugation of a real field, so the form must be
# the identity trace form whatever the config says.
SQRT5_TEXT = """\
p = 7
min_poly = [1, -3, 1]
sigma_image = [3, -1]
u = 3
conjugation_mode = complex
generator = [[1, 0]]
"""

# Q(zeta_5): totally complex of degree 4, where conjugation is sigma^2.
ZETA5_TEXT = """\
p = 11
min_poly = [1, 1, 1, 1, 1]
sigma_image = [0, 0, 1]
u = 2
generator = [[1, 0, 0, 0]]
"""


def test_real_quadratic_gram_is_the_identity_trace_form(capsys, tmp_path):
    path = tmp_path / "sqrt5.cfg"
    path.write_text(SQRT5_TEXT)
    rc, out, err = run(capsys, "lattice", "--config", str(path), "--json")
    assert rc == 0, err
    payload = json.loads(out)
    block = [[2, 3], [3, 7]]  # [Tr(y^a y^b)]: Tr(1) = 2, Tr(y) = 3, Tr(y^2) = 7
    assert payload["gram"] == [row + [0, 0] for row in block] + [[0, 0] + row for row in block]
    assert payload["det"] == 25 and payload["index"] == 1


@pytest.mark.parametrize(
    "config, argvs",
    [
        ("configs/gaussian_p3.cfg", (["lattice"], ["mindet", "--coeff-bound", "1"])),
        ("bench/configs/cubic_p5.cfg", (["code"], ["lattice"])),
    ],
)
def test_conjugation_mode_line_changes_no_output(capsys, tmp_path, config, argvs):
    # Adding or dropping the line, in either spelling, changes no output:
    # the conjugation is complex conjugation of the field.
    text = (REPO / config).read_text()
    lines = [line for line in text.splitlines() if not line.startswith("conjugation_mode")]
    variants = ["\n".join(lines) + "\n", "\n".join(lines) + "\nconjugation_mode = identity\n"]
    for argv in argvs:
        expected = run(capsys, argv[0], "--config", str(REPO / config), *argv[1:])
        assert expected[0] == 0
        for variant in variants:
            path = tmp_path / "variant.cfg"
            path.write_text(variant)
            assert run(capsys, argv[0], "--config", str(path), *argv[1:]) == expected, argv


@pytest.mark.filterwarnings("ignore:irreducibility over Q")
def test_totally_complex_quartic_gram_is_positive_definite(capsys, tmp_path):
    from skewlat import det_int

    path = tmp_path / "zeta5.cfg"
    path.write_text(ZETA5_TEXT)
    rc, out, err = run(capsys, "lattice", "--config", str(path), "--json")
    assert rc == 0, err
    gram = json.loads(out)["gram"]
    assert all(det_int([row[:k] for row in gram[:k]]) > 0 for k in range(1, len(gram) + 1))


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


@pytest.mark.parametrize(
    "config, bound, mode",
    [
        ("bench/configs/cubic_p5.cfg", 976_562, "exhaustive"),
        ("bench/configs/cubic_p5.cfg", 976_561, "sampled"),
        ("configs/gaussian_p3.cfg", 312, "exhaustive"),
        ("configs/gaussian_p3.cfg", 311, "sampled"),
    ],
)
def test_mindet_prints_the_mode_that_ran(capsys, monkeypatch, config, bound, mode):
    # The box-1 differences number (5^9 - 1) / 2 on the cubic and (5^4 - 1) / 2
    # on gaussian-p3; a bound one below either count makes the query sample.
    from pathlib import Path

    from skewlat import boxsweep, spacetime

    calls = {"exhaustive": 0, "sampled": 0}

    def count(module, name, called):
        build = getattr(module, name)

        def counting(*args):
            calls[called] += 1
            return build(*args)

        monkeypatch.setattr(module, name, counting)

    count(boxsweep, "half_box_sweep", "exhaustive")
    count(spacetime, "_sweep", "sampled")
    path = Path(__file__).resolve().parent.parent / config
    argv = ["mindet", "--config", str(path), "--coeff-bound", "1", "--bound", str(bound), "--json"]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert json.loads(out)["mode"] == mode
    assert calls == {"exhaustive": 0, "sampled": 0, mode: 1}


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
    "text, argv", [(SEXTIC_TEXT, ["mindet", "--coeff-bound", "1"])], ids=["sextic-mindet"]
)
def test_factorial_expansions_end_too_large(capsys, tmp_path, monkeypatch, text, argv):
    # The sweep needs the reduced norm form G, a cofactor expansion: at
    # ENUMERATION_BOUND it runs for seconds before it stops (the CI checks
    # that); a smaller bound shows the same ending at once.
    from skewlat import spacetime

    monkeypatch.setattr(spacetime, "ENUMERATION_BOUND", 10**4)
    path = tmp_path / "big.cfg"
    path.write_text(text)
    with pytest.warns(UserWarning, match="irreducibility"):
        rc, out, err = run(capsys, argv[0], "--config", str(path), *argv[1:])
    assert (rc, out) == (1, "")
    assert err == "error[TOO_LARGE]: cofactor expansion exceeds 10000 products\n"


def test_dense_phi11_stmatrix_answers(capsys, tmp_path, monkeypatch):
    # The 10 x 10 determinant is eliminated, with no product bound: the
    # all-ones element has nrd = -1, so norm_det is 1, the determinant of
    # right multiplication over Z, under a bound that a cofactor expansion
    # would pass at once.
    from skewlat import NaturalOrder, right_multiplication_det, spacetime

    monkeypatch.setattr(spacetime, "ENUMERATION_BOUND", 10**4)
    path = tmp_path / "phi11.cfg"
    path.write_text(PHI11_TEXT)
    with pytest.warns(UserWarning, match="irreducibility"):
        rc, out, err = run(capsys, "stmatrix", "--config", str(path), "--json",
                           "--element", str([[1] * 10] * 10))
    assert (rc, err) == (0, "")
    payload = json.loads(out)
    order = NaturalOrder(load_config(path).spec())
    assert payload["norm_det"] == 1 == right_multiplication_det(order.element(payload["element"]))


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
    import skewlat.fixtures as fixtures_module
    from skewlat.fixtures import CheckResult

    def broken():
        return [CheckResult("synthetic", False, "forced failure")]

    monkeypatch.setattr(fixtures_module, "worked_example_checks", broken)
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


# Command lines that end in help, a usage error or a parse, for every command.
PARSER_TAILS = [
    ["--help"],
    ["-h", "--config"],
    [],
    ["--config"],
    ["--config", "c.cfg"],
    ["--config", "c.cfg", "--json", "extra"],
    ["--config", "c.cfg", "--no-such-flag"],
    ["--json", "--config", "c.cfg", "--bound", "3", "--seed", "x"],
    ["--config", "c.cfg", "--degree", "-1", "--bound", "-5"],
    ["--config", "c.cfg", "--degree", "x"],
    ["--config", "c.cfg", "--coeff-bound", "0", "--samples", "1000001"],
    ["--config", "c.cfg", "--samples", "0"],
    ["--config", "c.cfg", "--msg", "[[1, 0]]", "--offset"],
    ["--config", "c.cfg", "--point"],
    ["--config", "c.cfg", "--element", "[[1, 1], [1, 0]]"],
]


def parse_outcome(parser, argv, capsys):
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    out, err = capsys.readouterr()
    return outcome, out, err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_command_parser_reads_like_the_full_parser(command, capsys):
    # main builds only the subparser of the command it runs; its help, its
    # usage errors (those of the top-level parser included, whose usage line
    # lists every command) and its parses must be byte for byte the same.
    one = cli._build_parser(command)
    assert list(one._subparsers._group_actions[0].choices) == [command]
    for tail in PARSER_TAILS:
        argv = [command, *tail]
        assert parse_outcome(one, argv, capsys) == parse_outcome(cli._build_parser(), argv, capsys)


# One valid run of each command on the bundled gaussian_p3 config.
DISPATCH_ARGV = {
    "divisors": ["--degree", "1"],
    "coset-encode": ["--msg", "[[1, 0]]"],
    "coset-decode": ["--point", "[[1, 1], [1, 0]]"],
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_main_calls_the_module_handler_and_loader_once(command, monkeypatch, capsys):
    # main looks cmd_<name> and load_config up in the module when it runs, so
    # a wrapper put there (as the benchmark's tracer does) sees every call;
    # a table that captured the functions at import would bypass it.
    from pathlib import Path

    calls = []

    def counting(name):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a: calls.append(name) or original(*a))

    handler = "cmd_" + command.replace("-", "_")
    counting(handler)
    counting("load_config")
    config = Path(__file__).resolve().parent.parent / "configs" / "gaussian_p3.cfg"
    needs_config = cli._COMMANDS[command][1]
    argv = [command, *(["--config", str(config)] if needs_config else [])]
    for json_flag in ([], ["--json"]):
        calls.clear()
        rc, out, err = run(capsys, *argv, *DISPATCH_ARGV.get(command, []), *json_flag)
        assert (rc, err) == (0, ""), err
        assert calls == ["load_config"] * needs_config + [handler]


def test_main_builds_every_parser_only_without_a_command(monkeypatch, capsys):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: built.append(command) or build(command))
    for argv in (["code", "--help"], ["mindet", "--config"], ["--help"], [], ["no-such"], ["-h", "code"]):
        assert main(argv) in (0, 2)
    assert built == ["code", "mindet", None, None, None, None]
    out, err = capsys.readouterr()
    assert "Traceback" not in err


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


def test_closed_stdout_exits_one_in_process(capsys, cfg_path):
    # The same path within this process: stdout is a pipe whose read end is
    # closed, so the flush after the answer fails with EPIPE, main sends the
    # buffered rest to devnull and returns 1 with nothing on stderr.
    import os
    import sys

    read_end, write_end = os.pipe()
    os.close(read_end)
    saved, sys.stdout = sys.stdout, open(write_end, "w")
    try:
        rc = main(["divisors", "--config", cfg_path, "--degree", "1"])
    finally:
        sys.stdout.close()  # its descriptor now refers to devnull
        sys.stdout = saved
    assert rc == 1
    assert capsys.readouterr().err == ""


def test_a_failing_worked_example_prints_fail_and_exits_one(monkeypatch, capsys):
    # x + (2 + a) is another divisor of x^2 + 1 over F_9, so the gaussian-p3
    # check fails on the code it makes, and the others still pass.
    from skewlat import fixtures

    monkeypatch.setitem(fixtures.FIXTURE_GENERATORS, "gaussian-p3-inert", ((2, 1), (1, 0)))
    rc, out, err = run(capsys, "verify-examples")
    lines = out.splitlines()
    assert rc == 1 and err == ""
    assert lines[0] == "FAIL gaussian-p3-inert: parity check"
    others = ("gaussian-p5-split", "gaussian-p2-ramified", "sqrt2-p3-selfdual")
    assert [line.split(":")[0] for line in lines[1:4]] == [f"PASS {name}" for name in others]
    assert lines[4:] == ["SOME CHECKS FAILED"]


def test_library_warnings_print_as_one_stable_line(tmp_path):
    # The composite-degree irreducibility warning names neither a file nor a line,
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
        "warning: irreducibility over Q is only verified for prime degrees; degree 4 is trusted\n"
    )


def test_start_up_imports_no_dataclasses():
    # Every CLI query is a fresh interpreter, which pays for each module the
    # package imports; dataclasses, through inspect, is a large share of that.
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    heavy = {"dataclasses", "inspect", "dis", "tokenize", "linecache", "copy"}
    for module in ("skewlat", "skewlat.cli"):
        script = f"import sys, {module}\nprint(sorted({heavy!r} & set(sys.modules)))\n"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", module
    proc = subprocess.run(
        [sys.executable, "-m", "skewlat", "code", "--config", str(root / "configs" / "gaussian_p3.cfg"),
         "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n"] == 2


def test_bound_flag_overrides_config(capsys, cfg_path):
    # The roots visit the 4 classes of (R - 0)/F_3*.
    for bound in ("3", "0"):  # 0 is a bound, not a usage error
        rc, out, err = run(
            capsys, "divisors", "--config", cfg_path, "--degree", "1", "--bound", bound
        )
        assert rc == 1
        assert err == f"error[TOO_LARGE]: 4 classes of (R - 0)/F_3* exceeds bound {bound}\n"
    rc, out, err = run(capsys, "divisors", "--config", cfg_path, "--degree", "1", "--bound", "4")
    assert rc == 0 and out.startswith("monic right divisors of degree 1: 4\n")


def test_load_config_matches_parse(cfg_path):
    assert load_config(cfg_path) == parse_config(GAUSSIAN_P3_TEXT)


def test_a_config_that_is_not_utf8_is_parse_error(capsys, tmp_path):
    # A valid config whose comment holds the byte 0xff: one stable error line.
    path = tmp_path / "latin1.cfg"
    path.write_bytes(GAUSSIAN_P3_TEXT.replace("worked", "worked \xff").encode("latin-1"))
    rc, out, err = run(capsys, "code", "--config", str(path))
    assert (rc, out) == (1, "")
    assert err == "error[PARSE_ERROR]: line 1: the config is not UTF-8 text (byte 0xff)\n"


def test_main_freezes_the_heap_only_when_it_reads_sys_argv(monkeypatch, capsys, cfg_path):
    import gc
    import sys

    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
    argv = ["code", "--config", cfg_path, "--json"]
    expected = run(capsys, *argv)
    assert expected[0] == 0 and freezes == []
    monkeypatch.setattr(sys, "argv", ["skewlat", *argv])
    rc = main()
    assert (rc, *capsys.readouterr()) == expected
    assert freezes == [1]


def test_python_m_skewlat_runs_the_command_on_a_frozen_heap(capsys):
    # python -m skewlat, with cli.cmd_code wrapped to report what the handler
    # sees: a frozen start-up heap and the collector still enabled.
    import os
    import subprocess
    import sys

    config = str(REPO / "configs" / "gaussian_p3.cfg")
    argv = ["code", "--config", config, "--json"]
    script = (
        "import gc, runpy, sys\n"
        "from skewlat import cli\n"
        "handler = cli.cmd_code\n"
        "def cmd_code(cfg, args):\n"
        "    print(gc.get_freeze_count() > 0, gc.isenabled(), file=sys.stderr)\n"
        "    return handler(cfg, args)\n"
        "cli.cmd_code = cmd_code\n"
        f"sys.argv = ['skewlat', *{argv!r}]\n"
        "runpy.run_module('skewlat', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "True True\n")
    assert proc.stdout == run(capsys, *argv)[1]


def test_one_natural_order_per_spec_across_readers(monkeypatch, capsys, cfg_path):
    # lattice.natural_order is the one cache of NaturalOrder: the trace form
    # (its trace_block), coset encoding and the stmatrix and coset-decode
    # commands all read it, so from a cleared cache they build one order
    # between them.
    from skewlat import ConstacyclicCode, NaturalOrder, QuotientRing, SkewPoly, coset_encode
    from skewlat import lattice

    builds = []
    init = NaturalOrder.__init__

    def counting_init(self, spec):
        builds.append(spec)
        init(self, spec)

    monkeypatch.setattr(NaturalOrder, "__init__", counting_init)
    lattice.natural_order.cache_clear()
    spec = load_config(cfg_path).spec()
    order = lattice.natural_order(spec)
    assert lattice.natural_order(load_config(cfg_path).spec()) is order
    assert lattice.natural_order(spec).trace_block is order.trace_block
    ring = QuotientRing(spec)
    code = ConstacyclicCode.from_generator(SkewPoly(ring, [ring.gen + 1, ring.one]))
    enc = coset_encode(code, [ring.one], [1, 0, -1, 2])
    assert enc.point.order is enc.offset.order is order
    for argv in (
        ["stmatrix", "--element", "[[1, 2], [0, 1]]"],
        ["stmatrix"],
        ["coset-decode", "--point", json.dumps(enc.point.to_lists())],
        ["lattice"],
    ):
        assert run(capsys, argv[0], "--config", cfg_path, *argv[1:])[0] == 0, argv
    assert builds == [spec]


@pytest.mark.parametrize(
    "config, ps", [("configs/gaussian_p3.cfg", [3, 3]), ("bench/configs/cubic_p5.cfg", [5, 5])]
)
def test_mindet_builds_orders_only_at_its_spec(monkeypatch, capsys, config, ps):
    # From cleared caches a mindet run builds the one order of its spec and
    # min_det_sample's own, and the reduced norm form, read off the field's
    # arithmetic core, builds none at any other prime.
    from skewlat import NaturalOrder, lattice, spacetime

    builds, init = [], NaturalOrder.__init__
    monkeypatch.setattr(NaturalOrder, "__init__", lambda self, s: builds.append(s) or init(self, s))
    lattice.natural_order.cache_clear()
    spacetime._flat_form.cache_clear()
    assert run(capsys, "mindet", "--config", str(REPO / config), "--coeff-bound", "1")[0] == 0
    assert [spec.p for spec in builds] == ps
    assert set(builds) == {load_config(str(REPO / config)).spec()}


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


def _golden_id(case):
    argv = case["argv"]
    json_flag = " --json" if "--json" in argv else ""
    return f"{case['config']}:{' '.join(argv[:1] + argv[2:3])}{json_flag}"


@pytest.mark.parametrize("case", _golden_cases(), ids=_golden_id)
def test_human_output_is_pinned(capsys, case):
    # Every command, in human mode and with --json, on the bundled configs and
    # the benchmark's cubic: the exit code, stdout and stderr recorded in
    # cli_human_golden.json.
    from pathlib import Path

    argv = list(case["argv"])
    if case["config"] is not None:
        config_dir = "bench/configs" if case["config"] == "cubic_p5" else "configs"
        config = Path(__file__).resolve().parent.parent / config_dir / f"{case['config']}.cfg"
        argv[1:1] = ["--config", str(config)]
    assert run(capsys, *argv) == (case["rc"], case["stdout"], case["stderr"])
