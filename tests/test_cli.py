import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from classprod.alt_group import delta_bound_report, enumerate_alt_classes, parse_class
from classprod.brute_force import ORACLE_MAX_N
from classprod.characters import parse_char
from classprod.cli import build_parser, main
from classprod.errors import UsageError
from classprod.sweeps import verify_four_class_theorem
from helpers import SWEEP_EPSILONS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_degree_command(capsys):
    code, out, _ = run_cli(capsys, "degree", "--n", "10", "--partition", "9,1")
    assert code == 0 and out.strip() == "9"


def test_partitions_command_json(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert payload["partitions"][0] == [4]


def test_classes_round_trip_json(capsys):
    code, out, _ = run_cli(capsys, "classes", "--n", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = [row["name"] for row in payload["classes"]]
    assert [parse_class(name) for name in names] == list(enumerate_alt_classes(7))


def test_char_value_command(capsys):
    code, out, _ = run_cli(
        capsys, "char-value", "--n", "4", "--char", "2,2+", "--class", "3,1+"
    )
    assert code == 0 and out.strip() == "-1/2 + 1/2*sqrt(-3)"
    code, out, _ = run_cli(
        capsys,
        "char-value", "--n", "4", "--char", "2,2+", "--class", "3,1-",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["value"] == {"rational": "-1/2", "coeff": "-1/2", "radicand": -3}
    # character names parse back
    assert parse_char(payload["char"]).name == "2,2+"


def test_delta_command(capsys):
    code, out, _ = run_cli(capsys, "delta", "--n", "8", "--class", "2,2,2,2")
    assert code == 0 and out.strip() == "4"


@pytest.mark.parametrize(
    "typed, name", [(" 5,3\u2212", "5,3-"), ("5, 3+ ", "5,3+"), (" 5 ,3", "5,3")]
)
def test_delta_prints_the_canonical_name(capsys, typed, name):
    # one split class prints its tagged name; a bare split type names both
    code, out, _ = run_cli(capsys, "delta", "--n", "8", "--class", typed, "--format", "json")
    assert code == 0 and json.loads(out) == {"n": 8, "class": name, "delta": 6}


@pytest.mark.parametrize(
    "argv, name",
    [
        (["delta", "--class", "5"], "5"),
        (["delta", "--class", " 5,1−"], "5,1-"),
        (["char-value", "--char", "7", "--class", "5,1-"], "5,1-"),
        (["covering", "--class", "5,1-"], "5,1-"),
    ],
)
def test_a_class_of_another_alt_n_is_refused_by_name(capsys, argv, name):
    code, out, err = run_cli(capsys, argv[0], "--n", "7", *argv[1:])
    assert code == 1 and out == ""
    assert err == f"error: class {name} is not a class of Alt(7)\n"


def test_contains_both_modes(capsys):
    code, out, _ = run_cli(
        capsys,
        "contains", "--n", "5", "--a", "3,1,1", "--b", "3,1,1", "--g", "5+",
        "--mode", "both",
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(
        capsys,
        "contains", "--n", "5", "--a", "1,1,1,1,1", "--b", "3,1,1", "--g", "5+",
    )
    assert code == 0 and out.strip() == "false"


def test_product_bare_exceptional_union(capsys):
    # the bare name "5" is the union of both split classes; squared it
    # covers Alt(5)
    code, out, _ = run_cli(
        capsys, "product", "--n", "5", "--a", "5", "--b", "5", "--mode", "both",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == len(enumerate_alt_classes(5))


def test_covering_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "covering", "--n", "8", "--class", "2,2,2,2", "--max-k", "5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["covering_number"] == 4
    assert payload["missing_at_k_minus_1"]


def test_dvir_command(capsys):
    code, out, _ = run_cli(capsys, "dvir", "--n", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_excon_command(capsys):
    code, out, _ = run_cli(capsys, "excon", "--n", "7", "--mode", "both", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [p["part"] for p in payload["parts"]] == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "n, sha256",
    [
        (3, "edb778b8f46324112b09e8703f09054ffeba65d481f865aa5b3f0a8b6b220c28"),
        (4, "ed2aa15f1ce31362e114b17b947118acd4da81d8100ef6f2484f90cb298f7f24"),
    ],
)
def test_excon_json_with_failing_cases_is_unchanged(capsys, n, sha256):
    # every part fails at n = 3 and 4, so each part's "passed" and each
    # case's "missing" are written; digests of the payload as it was when
    # to_dict named every key
    code, out, _ = run_cli(capsys, "excon", "--n", str(n), "--format", "json")
    assert code == 0
    assert not any(part["passed"] for part in json.loads(out)["parts"])
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_delta_report_command(capsys):
    code, out, _ = run_cli(
        capsys, "delta-report", "--n", "8", "--gamma", "1/2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    names = [row["class"] for row in payload["rows"]]
    assert "2,2,2,2" not in names
    assert "7,1+" in names


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ("--n", "8", "--gamma", "1/2", "--format", "json"),
            "eed5ec578f6e91888ade1ce6fb08c95ac108833aa7e7b6e5c12f4fe8b83e4128",
        ),
        (
            ("--n", "12", "--gamma", "3/4"),
            "d7cc0d32d75229c4d155f4b6fd5a9e01ce047a5ce5519545d24cba42952f13ff",
        ),
        (
            ("--n", "12", "--gamma", "3/4", "--format", "json"),
            "2b15dcde4a46fca0cb3f4c77756c03f7a47c1856cd1b07138e12f977e51aad35",
        ),
    ],
)
def test_delta_report_output_is_unchanged(capsys, argv, sha256):
    # digests of the output as it was when DeltaBoundRow.to_dict named
    # every key
    code, out, _ = run_cli(capsys, "delta-report", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_verify_theorem_deterministic(capsys):
    args = ["verify-theorem", "--n", "6", "--epsilon", "1/10", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["total"] == payload["covered"] + sum(
        1 for q in payload["quadruples"] if not q["covered"]
    )


def _assert_same_text(out: str, expected: str, what) -> None:
    """Equal texts; a mismatch names its first differing line (pytest's own
    diff of megabytes of text would run for minutes)."""
    if out != expected:
        got, want = out.splitlines(), expected.splitlines()
        i = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), len(want))
        pytest.fail(f"{what}: line {i + 1} is {got[i:i + 1]}, expected {want[i:i + 1]}")


@pytest.mark.parametrize(
    "n, mode, epsilons",
    [pytest.param(n, "engine", SWEEP_EPSILONS, id=f"{n}-engine") for n in range(2, 13)]
    + [pytest.param(8, mode, [Fraction(1, 10)], id=f"8-{mode}") for mode in ("oracle", "both")],
)
def test_four_class_json_matches_the_stdlib_encoder(capsys, n, mode, epsilons):
    # the CLI writes this payload row by row, without report.to_dict()
    for epsilon in epsilons:
        report = verify_four_class_theorem(n, epsilon, mode=mode)
        code, out, _ = run_cli(
            capsys, "verify-theorem", "--n", str(n), "--epsilon", str(epsilon),
            "--mode", mode, "--format", "json",
        )
        assert code == 0
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        _assert_same_text(out, expected, (n, mode, epsilon))


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ["--n", "11", "--epsilon", "1/10", "--show", "0"],
            "f7e8ac64fd38b3355de0576d72c4de518ef9a0a75ace1aad166a6fe32e328ce7",
        ),
        (
            ["--n", "11", "--epsilon", "1/10", "--show", "3"],
            "6c03dc7181e507fb608bde74a06f2c2ecfb7ea12197dba3969c0488d2c92769c",
        ),
        (
            ["--n", "8", "--epsilon", "1/20", "--mode", "both"],
            "2a3d2f61d8c1572fe0794ef41991c68ac28e48828d93494d12e72950fef9e6ad",
        ),
        (
            ["--n", "12", "--epsilon", "1/50", "--show", "100000"],
            "80c17dd30baaf08fbf77252c09d45ada526c4cbebf7cb8acbc16110ca9647f1e",
        ),
        (
            ["--n", "11", "--epsilon", "1/20", "--show", "1"],
            "1f3ad590de6b2f1c74cd8f0422e9c0b16adbf75129420842db8f1535a902f7da",
        ),
        (
            ["--n", "12", "--epsilon", "1/20", "--show", "7"],
            "d0b77e8cf71b82b4b0c3acd32646cd89088b73802e101f3831e671d9c75281d2",
        ),
        (
            ["--n", "13", "--epsilon", "1/100", "--show", "0"],
            "c532ae8f96844689cfe8144c5793deca6b66a202c3d8292075ea2e3a3619c03d",
        ),
    ],
)
def test_four_class_text_is_unchanged(capsys, argv, sha256):
    # digests of the text printed when the report was a tuple of verdicts
    code, out, _ = run_cli(capsys, "verify-theorem", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256, out


def _four_class_text_reference(report, rows, show: int) -> str:
    """Text mode printed from all of the report's rows: each uncovered
    row, and the first ``show`` covered ones, in row order."""
    names = [c.name for c in enumerate_alt_classes(report.n)]
    covered = sum(1 for _, _, mask in rows if not mask)
    lines = [
        f"n={report.n} epsilon={report.epsilon} mode={report.mode}: "
        f"{covered}/{len(rows)} qualifying quadruples cover Alt({report.n})"
    ]
    shown = 0
    for quad, least, mask in rows:
        quadruple = " * ".join(names[i] for i in quad)
        if mask:
            missing = ", ".join(names[j] for j in range(len(names)) if mask >> j & 1)
            lines.append(f"NOT COVERED: {quadruple} misses {missing}")
        elif shown < show:
            lines.append(f"covered: {quadruple} (min pair product {least})")
            shown += 1
    if covered > shown:
        lines.append(f"... {covered - shown} further covered quadruples omitted (use --format json)")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize(
    "n, mode, epsilons",
    [pytest.param(n, "engine", SWEEP_EPSILONS, id=f"{n}-engine") for n in range(2, 12)]
    + [pytest.param(8, "both", SWEEP_EPSILONS, id="8-both")],
)
def test_four_class_text_matches_a_printer_over_the_rows(capsys, n, mode, epsilons):
    # text mode prints from the rows of the pairs it selects; a printer
    # over every row must give the same bytes
    for epsilon in epsilons:
        report = verify_four_class_theorem(n, epsilon, mode=mode)
        rows = report.rows
        for show in (0, 1, 3, 100000):
            code, out, _ = run_cli(
                capsys, "verify-theorem", "--n", str(n), "--epsilon", str(epsilon),
                "--mode", mode, "--show", str(show),
            )
            assert code == 0
            _assert_same_text(out, _four_class_text_reference(report, rows, show), (n, epsilon, show))


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ["--n", "11", "--epsilon", "1/10"],  # one row does not cover
            "f9fdbbec8e171a7853c6eb5cca7489185f22f745923628cea89792a963bb4a72",
        ),
        (
            ["--n", "12", "--epsilon", "1/20"],
            "aa2da296e86f73c313d32e018270440f5e8fdd9dcbc387121a965ec4b24cb61a",
        ),
    ],
)
def test_four_class_json_verdicts_are_unchanged(capsys, argv, sha256):
    # the encoder test compares the CLI with the same rows, so it cannot
    # see a wrong verdict; these digests can
    code, out, _ = run_cli(capsys, "verify-theorem", *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-theorem", "--n", "10", "--epsilon", "1/10", "--format", "json"],
        ["partitions", "--n", "30"],
    ],
    ids=["verify-theorem", "partitions"],
)
def test_closed_stdout_ends_without_a_traceback(argv):
    # like piping into `head -1`: the reader takes one line and closes the
    # pipe while the command still has far more than a pipe buffer to write
    import subprocess
    import sys

    proc = subprocess.Popen(
        [sys.executable, "-m", "classprod.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == "error: stdout was closed before the output was written\n"


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "degree", "--n", "10", "--partition", "3,4")
    assert code == 1 and "weakly decreasing" in err
    code, _, err = run_cli(capsys, "degree", "--n", "10", "--partition", "5,3")
    assert code == 1 and "not a partition of" in err
    code, _, err = run_cli(capsys, "contains", "--n", "5", "--a", "3,1,1", "--b", "3,1,1", "--g", "5")
    assert code == 0  # bare exceptional g: both split classes must be present
    code, _, err = run_cli(capsys, "nonsense")
    assert code == 1
    code, _, err = run_cli(capsys, "verify-theorem", "--n", "6", "--epsilon", "zero")
    assert code == 1
    # library argument checks end in a one-line message, not a traceback
    for argv in (
        ["covering", "--n", "8", "--class", "1,1,1,1,1,1,1,1"],
        ["covering", "--n", "8", "--class", "1,1,1,1,1,1,1,1", "--mode", "oracle"],
        ["covering", "--n", "2", "--class", "1,1", "--mode", "oracle"],
        ["delta-report", "--n", "1", "--gamma", "1/2"],
        ["verify-theorem", "--n", "1", "--epsilon", "1/10"],
        ["dvir", "--n", "7", "--jobs", "0"],
        ["excon", "--n", "7", "--jobs", "-3"],
        # exponent parts above 100 would make the exact size tests hang
        ["verify-theorem", "--n", "6", "--epsilon", "1/1000000"],
        ["delta-report", "--n", "8", "--gamma", "1/1000000"],
        ["verify-theorem", "--n", "6", "--epsilon", "1e-10000000"],
        # 10**4300 as a denominator: str() of it raises, so the refusal
        # must not print it
        ["verify-theorem", "--n", "6", "--epsilon", "0." + "0" * 4299 + "1"],
        ["covering", "--n", "5", "--class", "5+", "--max-k", "0"],
        ["covering", "--n", "5", "--class", "5+", "--max-k", "-3"],
        ["verify-theorem", "--n", "6", "--epsilon", "1/10", "--show", "-1"],
        # the long-cycle sweeps need n >= 3
        ["dvir", "--n", "2"],
        ["excon", "--n", "2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and len(err.splitlines()) == 1, argv
        assert err.startswith("error: "), argv


def test_an_exponent_part_past_the_digit_limit_is_refused_in_one_short_line(capsys):
    code, out, err = run_cli(capsys, "verify-theorem", "--n", "6", "--epsilon", "1/" + "1" * 4400)
    assert (code, out) == (1, "") and len(err.encode()) < 200, err[:300]
    assert err == "error: epsilon: numerator and denominator must be at most 100\n"


@pytest.mark.parametrize(
    "argv, call",
    [
        (["verify-theorem", "--n", "6", "--epsilon"], lambda x: verify_four_class_theorem(6, x)),
        (["delta-report", "--n", "8", "--gamma"], lambda x: delta_bound_report(8, x)),
    ],
    ids=["epsilon", "gamma"],
)
def test_cli_and_library_read_an_exponent_by_one_rule(capsys, argv, call):
    # a bad text gets the same refusal from the command and from the library
    for text in ("zero", "1/0", "1e-3", "1/101", "0"):
        with pytest.raises(UsageError) as exc:
            call(text)
        code, out, err = run_cli(capsys, *argv, text)
        assert (code, out, err) == (1, "", f"error: {exc.value}\n"), text


def test_both_mode_disagreement_exits_2(capsys, monkeypatch, fresh_oracle):
    # an oracle that never reaches the class 7+ must make every
    # cross-checked command fail loudly
    import classprod.brute_force as brute_force

    dropped = parse_class("7+")
    real = brute_force.oracle_class_product
    monkeypatch.setattr(
        brute_force, "oracle_class_product", lambda *args: real(*args) - {dropped}
    )
    identity = "1,1,1,1,1,1,1"
    for argv in (
        ["product", "--a", identity, "--b", "7+"],
        ["contains", "--a", identity, "--b", "7+", "--g", "7+"],
        ["covering", "--class", "7+"],
        ["dvir"],
        ["excon"],
        ["verify-theorem", "--epsilon", "1/10"],
    ):
        code, out, err = run_cli(capsys, *argv, "--n", "7", "--mode", "both")
        assert code == 2 and out == "" and len(err.splitlines()) == 1, argv
        assert "engine and oracle" in err, argv


def test_both_mode_checks_each_pair_mask(capsys, monkeypatch, fresh_oracle):
    # (3,1,1,1,1)(7-) reaches 3,3,1 too, so the union of the two products
    # hides an oracle that drops it from (3,1,1,1,1)(7+) alone; the pair
    # mask that differs names its classes
    import classprod.brute_force as brute_force

    pair, dropped = {parse_class("3,1,1,1,1"), parse_class("7+")}, parse_class("3,3,1")
    real = brute_force.oracle_class_product

    def patched(a, b):
        hit = real(a, b)
        return hit - {dropped} if {a, b} == pair else hit

    monkeypatch.setattr(brute_force, "oracle_class_product", patched)
    argv = ["product", "--n", "7", "--a", "3,1,1,1,1", "--b", "7+", "--b", "7-", "--mode", "both"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and len(err.splitlines()) == 1, err
    assert "7+" in err and "3,1,1,1,1" in err, err


def test_covering_prints_the_same_witnesses_in_every_mode(capsys):
    argv = ["covering", "--n", "8", "--class", "2,2,2,2", "--max-k", "5", "--format", "json"]
    outs = set()
    for mode in ("engine", "oracle", "both"):
        code, out, _ = run_cli(capsys, *argv, "--mode", mode)
        assert code == 0, mode
        outs.add(out)
    assert len(outs) == 1
    assert json.loads(outs.pop())["missing_at_k_minus_1"]


def test_covering_both_computes_each_oracle_pair_once(capsys, monkeypatch, fresh_oracle):
    # covering_number and missing_classes share the cached oracle algebra
    import classprod.brute_force as brute_force

    asked = []
    real = brute_force.oracle_class_product

    def counted(a, b):
        asked.append((a, b))
        return real(a, b)

    monkeypatch.setattr(brute_force, "oracle_class_product", counted)
    argv = ["covering", "--n", "8", "--class", "2,2,2,2", "--max-k", "5", "--mode", "both"]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(asked) == len(set(asked)) == 9


def test_cli_import_leaves_the_pool_the_oracle_and_sympy_unloaded():
    # every command pays for what importing the CLI loads
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import classprod.cli\n"
        "unwanted = ('multiprocessing', 'classprod.brute_force', 'sympy')\n"
        "print([m for m in unwanted if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv", [["verify-theorem", "--n", "10", "--epsilon", "1/10"], ["dvir", "--n", "10"]]
)
def test_jobs_start_no_pool(argv):
    # a fresh interpreter, so that the sweep computes every mask it needs;
    # two cores reported, so that a pool would start on a one-core machine
    # too: --jobs 2 loads no multiprocessing and prints what --jobs 1 prints
    import subprocess
    import sys

    code = (
        "import io, os, sys\n"
        "os.cpu_count = lambda: 2\n"
        "from contextlib import redirect_stdout\n"
        "from classprod.cli import main\n"
        "def run(*argv):\n"
        "    with redirect_stdout(io.StringIO()) as out:\n"
        "        assert main(list(argv)) == 0\n"
        "    return out.getvalue()\n"
        f"two = run(*{argv!r}, '--jobs', '2')\n"
        "print('multiprocessing' in sys.modules)\n"
        f"print(two == run(*{argv!r}, '--jobs', '1'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_commands_run_without_importing_dataclasses():
    # the records are NamedTuples: no command pays for dataclasses (and the
    # inspect, ast and tokenize it imports), and the engine needs no oracle
    import subprocess
    import sys

    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from classprod.cli import main\n"
        "def loaded(*argv):\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        assert main(list(argv)) == 0\n"
        "    return [m for m in ('dataclasses', 'classprod.brute_force') if m in sys.modules]\n"
        "print(loaded('product', '--n', '9', '--a', '9+', '--b', '3,3,3', '--mode', 'engine'))\n"
        "print(loaded('covering', '--n', '6', '--class', '3,3', '--mode', 'both'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['classprod.brute_force']"]


def test_oracle_commands_do_not_enumerate_the_group():
    # the oracle multiplies the members of one class by one element of the
    # other, so no command walks all of Alt(8)
    import subprocess
    import sys

    code = (
        "import io\n"
        "from contextlib import redirect_stdout\n"
        "from classprod.cli import main\n"
        "from classprod.brute_force import alt_conjugacy_classes\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    assert main(['product', '--n', '8', '--a', '6,2', '--b', '5,3-', '--mode', 'both']) == 0\n"
        "    assert main(['contains', '--n', '8', '--a', '3,3,1,1', '--b', '7,1+',\n"
        "                 '--g', '3,2,2,1', '--mode', 'both']) == 0\n"
        "print(alt_conjugacy_classes.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_engine_commands_build_no_quadvalue_table(capsys, monkeypatch):
    # the engine reads the integer character table; the QuadValue table is
    # only a view of it for the library
    import classprod.product_engine as engine
    from classprod.characters import character_table, integer_table
    from classprod.pair_sums import _lifted

    for cache in (character_table, integer_table, _lifted):
        cache.cache_clear()
    monkeypatch.setattr(engine, "_ALGEBRAS", {})
    code, out, _ = run_cli(
        capsys, "contains", "--n", "12", "--a", "3,3,3,3", "--b", "5,5,1,1", "--g", "11,1+"
    )
    assert code == 0 and out.strip() == "true"
    assert character_table.cache_info().currsize == 0


# each capped command: its cap, the name its refusal gives it, and the
# rest of an argv, invalid where the command checks its arguments
CAPS = {
    "partitions": (50, "partition listing", []),
    "degree": (40, "degree computation", ["--partition", "3,4"]),
    "char-value": (40, "character evaluation", ["--char", "x", "--class", "y"]),
    "classes": (40, "class listing", []),
    "delta-report": (40, "delta report", ["--gamma", "zero"]),
    "product": (14, "the character-sum engine", ["--a", "x", "--b", "y"]),
    "contains": (14, "the character-sum engine", ["--a", "x", "--b", "y", "--g", "z"]),
    "covering": (14, "the character-sum engine", ["--class", "x", "--mode", "oracle"]),
    "dvir": (14, "the character-sum engine", ["--mode", "both"]),
    "verify-theorem": (14, "the character-sum engine", ["--epsilon", "zero"]),
    "excon": (14, "the character-sum engine", []),
}


def test_capability_errors_exit_3(capsys, monkeypatch):
    import classprod.cli as cli

    code, _, err = run_cli(capsys, "covering", "--n", "9", "--class", "9+", "--mode", "oracle")
    assert code == 3 and "n <= 8" in err
    code, _, err = run_cli(capsys, "product", "--n", "9", "--a", "9+", "--b", "9+", "--mode", "both")
    assert code == 3 and "n <= 8" in err
    code, _, err = run_cli(capsys, "product", "--n", "20", "--a", "20", "--b", "20")
    assert code == 3
    code, _, err = run_cli(capsys, "partitions", "--n", "80")
    assert code == 3
    # above its cap a command is refused before its handler runs, whatever
    # its other arguments; at its cap the handler runs
    assert set(CAPS) == set(COMMANDS) - {"delta"}
    reached = []
    for name, command in cli._COMMANDS.items():
        monkeypatch.setitem(
            cli._COMMANDS, name, command._replace(handler=lambda args: reached.append(args.n))
        )
    for name, (cap, what, rest) in CAPS.items():
        code, out, err = run_cli(capsys, name, "--n", str(cap + 1), *rest)
        assert (code, out, err) == (3, "", f"error: {what} supports n <= {cap}, got {cap + 1}\n")
        assert reached == [], name
        assert run_cli(capsys, name, "--n", str(cap), *rest)[0] == 0 and reached == [cap], name
        reached.clear()
    monkeypatch.undo()
    # delta has no cap
    assert run_cli(capsys, "delta", "--n", "60", "--class", "59,1") == (0, "58\n", "")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


COMMANDS = [
    "partitions", "degree", "char-value", "classes", "delta", "product", "contains",
    "covering", "dvir", "verify-theorem", "excon", "delta-report",
]


def test_the_full_parser_lists_the_twelve_commands_in_order():
    assert "{" + ",".join(COMMANDS) + "}" in build_parser().format_help()


MODE_COMMANDS = {"product", "contains", "covering", "dvir", "verify-theorem", "excon"}
JOBS_COMMANDS = {"dvir", "verify-theorem", "excon"}


@pytest.mark.parametrize("name", COMMANDS)
def test_mode_and_jobs_are_offered_by_the_engine_commands_and_the_sweeps(name):
    # read from the command's own subparser: --mode by the six engine
    # commands, --jobs by the three sweeps, both right after --format
    import argparse

    sub = next(a for a in build_parser([name])._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.option_strings[-1]: a for a in sub.choices[name]._actions}
    shared = ["--mode"] * (name in MODE_COMMANDS) + ["--jobs"] * (name in JOBS_COMMANDS)
    assert list(actions)[:3 + len(shared)] == ["--help", "--n", "--format", *shared]
    assert ("--mode" in actions, "--jobs" in actions) == (
        name in MODE_COMMANDS, name in JOBS_COMMANDS
    )
    if "--mode" in actions:
        assert actions["--mode"].choices == ("engine", "oracle", "both")
        assert actions["--mode"].default == "engine"
        assert f"n <= {ORACLE_MAX_N}" in actions["--mode"].help
    if "--jobs" in actions:
        assert actions["--jobs"].default == 1


def test_main_builds_only_the_invoked_commands_subparser():
    # a fresh interpreter, counting every subparser argparse is asked for:
    # an argv that starts with a command builds that command's alone, and
    # --help builds all twelve
    import subprocess
    import sys

    code = (
        "import argparse, io\n"
        "from contextlib import redirect_stdout\n"
        "from classprod.cli import main\n"
        "added = []\n"
        "add_parser = argparse._SubParsersAction.add_parser\n"
        "def counted(self, name, **kwargs):\n"
        "    added.append(name)\n"
        "    return add_parser(self, name, **kwargs)\n"
        "argparse._SubParsersAction.add_parser = counted\n"
        "def adds(*argv):\n"
        "    added.clear()\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            code = main(list(argv))\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    print(code, len(added))\n"
        "adds('contains', '--n', '6', '--a', '3,3', '--b', '3,3', '--g', '3,1,1,1')\n"
        "adds('covering', '--n', '6', '--class', '3,3')\n"
        "adds('verify-theorem', '--n', '6', '--epsilon', '1/10')\n"
        "adds('--help')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 1", "0 1", "0 1", "0 12"]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # --help, --version
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["-h"],
        ["--version"],
        ["-h", "contains"],
        ["contains", "--help"],
        ["bogus", "--n", "6"],
        ["-5"],
        ["contains", "--n", "6", "--a", "3,3", "--b", "3,3"],
        ["product", "--n", "6", "--a", "3,3", "--b", "3,3", "--mode", "fast"],
        ["covering", "--n", "6", "--class", "3,3", "--max-k", "0"],
        ["classes", "--n", "6", "extra"],
        ["contains", "--n", "6", "--a", "3,3", "--b", "3,3", "--g", "3,1,1,1", "--version"],
        ["verify-theorem", "--n", "6", "--epsilon", "1/10", "--show", "2"],
    ],
)
def test_the_one_command_parser_answers_as_the_full_parser(capsys, monkeypatch, argv):
    import classprod.cli as cli

    alone = _outcome(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda names=None: full())
    assert _outcome(capsys, argv) == alone


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "--n", "8", "--a", "6,2", "--b", "5,3-"],
        ["covering", "--n", "8", "--class", "7,1+", "--mode", "both"],
        ["dvir", "--n", "8"],
        ["verify-theorem", "--n", "8", "--epsilon", "1/20", "--format", "json"],
        ["verify-theorem", "--n", "8", "--epsilon", "1/20", "--format", "text"],
        ["excon", "--n", "8"],
        ["delta-report", "--n", "8", "--gamma", "1/2"],
    ],
)
def test_the_cli_run_as_main_is_not_imported_again(argv):
    # a fresh interpreter runs the CLI as ``python -m`` and the benchmark
    # do: as __main__, not as classprod.cli; a module that imported
    # classprod.cli would compile and run it a second time
    import subprocess
    import sys

    code = (
        "import io, runpy, sys\n"
        "from contextlib import redirect_stdout\n"
        f"sys.argv = ['classprod', *{argv!r}]\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('classprod.cli', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code, 'classprod.cli' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_a_capped_engine_argv_loads_no_engine():
    # a fresh interpreter: the cap is checked before the handler imports
    # the engine or the sweeps
    import subprocess
    import sys

    code = (
        "import sys\n"
        "from classprod.cli import main\n"
        "def loaded(*names):\n"
        "    print([m for m in names if m in sys.modules])\n"
        "print(main(['product', '--n', '15', '--a', '15+', '--b', '15+']))\n"
        "loaded('classprod.product_engine', 'classprod.characters')\n"
        "print(main(['verify-theorem', '--n', '15', '--epsilon', '1/10']))\n"
        "loaded('classprod.sweeps', 'classprod.product_engine')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.splitlines() == ["3", "[]", "3", "[]"], proc.stderr
    assert proc.stderr == "error: the character-sum engine supports n <= 14, got 15\n" * 2


def test_four_class_text_holds_no_row_list():
    # a fresh interpreter: after the fill, text mode keeps the pairs, the
    # masks, the verdicts and the shown rows, not one tuple per quadruple
    # (122,104 at n = 12, about 20 MB traced when they were all listed)
    import subprocess
    import sys

    code = (
        "import io, tracemalloc\n"
        "from contextlib import redirect_stdout\n"
        "from classprod.cli import main\n"
        "from itertools import combinations_with_replacement\n"
        "from classprod.product_engine import _algebra\n"
        "alg = _algebra(12, 'engine')\n"
        "for i, j in combinations_with_replacement(range(43), 2):  # Alt(12) has 43 classes\n"
        "    alg.pair(i, j)\n"
        "tracemalloc.start()\n"
        "with redirect_stdout(io.StringIO()) as out:\n"
        "    assert main(['verify-theorem', '--n', '12', '--epsilon', '1/10']) == 0\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
        "print(out.getvalue().splitlines()[0])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    peak, header = proc.stdout.splitlines()
    assert header.endswith("122104/122104 qualifying quadruples cover Alt(12)")
    assert int(peak) < 4_000_000


def test_four_class_json_holds_no_row_list():
    # the JSON twin of the text-mode test: after the fill, the sweep and the
    # JSON writer hold one group of rows at a time, not every row
    import subprocess
    import sys

    code = (
        "import os, sys, tracemalloc\n"
        "from fractions import Fraction\n"
        "from itertools import combinations_with_replacement\n"
        "from classprod.product_engine import _algebra\n"
        "from classprod.sweeps import verify_four_class_theorem\n"
        "alg = _algebra(12, 'engine')\n"
        "for i, j in combinations_with_replacement(range(43), 2):  # Alt(12) has 43 classes\n"
        "    alg.pair(i, j)\n"
        "stdout, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
        "tracemalloc.start()\n"
        "report = verify_four_class_theorem(12, Fraction(1, 10))\n"
        "report.write_json(sys.stdout)\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "sys.stdout.close()\n"
        "sys.stdout = stdout\n"
        "print(peak, report.total)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    peak, total = map(int, proc.stdout.split())
    assert total == 122104
    assert peak < 6_000_000


def test_the_oracle_holds_its_permutations_as_bytes():
    # after a cross-checked product, the one orbit the oracle built and
    # every permutation it filed are bytes, not tuples of ints; so are the
    # group table's members and keys, and every permutation the module's
    # functions build
    import subprocess
    import sys

    code = (
        "import io\n"
        "from contextlib import redirect_stdout\n"
        "import classprod.brute_force as bf\n"
        "from classprod.alt_group import AltClass\n"
        "from classprod.cli import main\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    code = main(['product', '--n', '8', '--a', '6,2', '--b', '5,3-', '--mode', 'both'])\n"
        "held = bf.class_members.cache_info()\n"
        "orbit = bf.class_members(AltClass((5, 3), '-'))\n"
        "assert bf.class_members.cache_info().misses == held.misses\n"
        "print(code, held.currsize, len(orbit), len(bf._class_of))\n"
        "print(sorted({type(p).__name__ for p in (*orbit, *bf._class_of)}))\n"
        "table = bf.alt_conjugacy_classes(8)\n"
        "p, q = orbit[:2]\n"
        "made = [*(m for ms in table.members.values() for m in ms), *table.class_of,\n"
        "        bf.compose(p, q), bf.inverse(p), bf.canonical_representative((5, 3)),\n"
        "        *bf._alt_generators(7), *bf._alt_generators(8)]\n"
        "print(len(made), sorted({type(p).__name__ for p in made}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    counts, types, made = proc.stdout.splitlines()
    code, orbits, members, filed = map(int, counts.split())
    assert (code, orbits, members) == (0, 1, 1344)
    assert filed > members
    assert types == "['bytes']"
    assert made == f"{2 * 20160 + 7} ['bytes']"


def test_commands_without_character_sums_load_no_engine():
    # start-up: the package level and the CLI import the engine only in
    # the commands that use it
    import subprocess
    import sys

    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from classprod.cli import main\n"
        "def loaded(*names):\n"
        "    print([m for m in names if m in sys.modules])\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    assert main(['classes', '--n', '9', '--format', 'json']) == 0\n"
        "    assert main(['partitions', '--n', '9']) == 0\n"
        "    assert main(['delta', '--n', '9', '--class', '3,3,3']) == 0\n"
        "loaded('fractions', 'classprod.characters', 'classprod.product_engine')\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    assert main(['degree', '--n', '9', '--partition', '5,4']) == 0\n"
        "    assert main(['char-value', '--n', '9', '--char', '5,4', '--class', '9+']) == 0\n"
        "    assert main(['delta-report', '--n', '9', '--gamma', '1/2']) == 0\n"
        "loaded('classprod.product_engine')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
    # the commands that ask for a few pairs compile no named sweep and load
    # no rationals; the four-class sweep loads its module
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from classprod.cli import main\n"
        "def loaded(*names):\n"
        "    print([m for m in names if m in sys.modules])\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    assert main(['product', '--n', '9', '--a', '9+', '--b', '3,3,3', '--mode', 'engine']) == 0\n"
        "    assert main(['contains', '--n', '9', '--a', '9+', '--b', '3,3,3',\n"
        "                 '--g', '5,3,1', '--mode', 'engine']) == 0\n"
        "    assert main(['covering', '--n', '9', '--class', '3,3,3', '--mode', 'engine']) == 0\n"
        "loaded('classprod.sweeps', 'classprod.quadvalue', 'fractions', 'decimal')\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify-theorem', '--n', '6', '--epsilon', '1/10']) == 0\n"
        "loaded('classprod.sweeps')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['classprod.sweeps']"]


def test_jobs_do_not_change_output():
    # fresh interpreters, so that each run computes its own masks
    import subprocess
    import sys

    args = ["-m", "classprod.cli", "dvir", "--n", "9", "--format", "json"]
    serial = subprocess.run(
        [sys.executable, *args, "--jobs", "1"], capture_output=True, text=True
    )
    parallel = subprocess.run(
        [sys.executable, *args, "--jobs", "3"], capture_output=True, text=True
    )
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout
    assert json.loads(serial.stdout)["passed"] is True


ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = ROOT / "perfbench" / "catalogue.json"
REPLAY = CATALOGUE.with_name("replay.py")


def test_every_name_the_benchmark_replay_imports_resolves(monkeypatch):
    # the replay itself runs on one Python version only; this reads its
    # ``from classprod.<module> import ...`` lines on every version the
    # suite runs on, the sweeps it still imports from product_engine too,
    # and those of the set-up child that ``run.py`` starts for each workload
    import ast
    from importlib import import_module

    monkeypatch.syspath_prepend(str(REPLAY.parent))
    import run

    sources = [REPLAY.read_text(), *map(run.setup_code, run.WORKLOADS.values())]
    imports = [
        node
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("classprod.")
    ]
    modules = {node.module for node in imports}
    assert {"classprod.product_engine", "classprod.characters", "classprod.brute_force"} <= modules
    for node in imports:
        module = import_module(node.module)
        missing = [alias.name for alias in node.names if not hasattr(module, alias.name)]
        assert not missing, (node.module, missing)


def test_every_public_src_name_is_reached_outside_the_tests():
    # a module-level def or class that only tests read belongs in
    # tests/helpers.py; methods are left out, as attribute names collide
    # (``.size``)
    import ast
    import re

    import classprod

    def reads(node) -> set[str]:
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                out.update(alias.name for alias in sub.names)
        return out

    # fenced blocks and inline code spans of the README
    spans = re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(), re.S)
    outside = set(classprod.__all__).union(*(re.findall(r"\w+", span) for span in spans))
    for folder in ("perfbench", "scripts"):
        for path in (ROOT / folder).rglob("*.py"):
            outside |= reads(ast.parse(path.read_text()))
    src = ROOT / "src" / "classprod"
    trees = {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}
    unreached = []
    for name, tree in sorted(trees.items()):
        elsewhere = outside.union(*(reads(t) for other, t in trees.items() if other != name))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = set().union(*(reads(stmt) for stmt in tree.body if stmt is not node))
            if node.name not in elsewhere | own:
                unreached.append(f"{name}: {node.name}")
    assert not unreached, unreached


# the names that only perfbench/replay.py calls; each takes a parameter
# that the replay passes and nothing reads, as does ``without_jobs``, the
# wrapper through which product_engine hands the replay the sweeps
REPLAY_ONLY = {"ensure_pair_masks", "oracle_product_set", "oracle_covering_number"}


def test_every_src_parameter_is_read():
    # past the replay's names, only Python's own calling conventions pass
    # what a body need not read: a method's ``self``, and the object and
    # value that ``__setattr__`` and ``__delattr__`` hand to
    # ``_refuse_assignment``
    import ast

    fixed = {"_refuse_assignment": {"value"}}
    unread = []
    for path in sorted((ROOT / "src" / "classprod").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", f"<lambda>:{node.lineno}")
            if name in REPLAY_ONLY | {"without_jobs"}:
                continue
            args = node.args
            params = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
            read = {
                sub.id for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            read |= {"self"} | fixed.get(name, set())
            unread += [f"{path.name}: {name}({p.arg})" for p in params if p and p.arg not in read]
    assert not unread, unread


def test_only_the_replay_calls_its_own_names():
    # the repo's own code asks the oracle through product_set and
    # covering_number, fills pairs through the algebra, and imports the
    # sweeps and the check count from where they live.  The code of a child
    # interpreter is read from its string too (a string of several lines).
    # The replay-resolution test reads replay.py's imports from its source,
    # so it names none of these
    import ast

    moved = {
        "check_dvir_rodgers", "dvir_rodgers_applies", "long_cycle_product_checks",
        "verify_four_class_theorem", "exactness_check_count",
    }

    def trees(source):
        yield (tree := ast.parse(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\n" in node.value:
                try:
                    yield ast.parse(node.value)
                except SyntaxError:
                    pass

    found = []
    for folder in ("src", "scripts", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for tree in trees(path.read_text()):
                for node in ast.walk(tree):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        names = {node.id} & REPLAY_ONLY
                    elif isinstance(node, ast.Attribute):
                        names = {node.attr} & REPLAY_ONLY
                    elif isinstance(node, ast.ImportFrom):
                        names = {alias.name for alias in node.names}
                        from_engine = (node.module or "").endswith("product_engine")
                        names &= REPLAY_ONLY | (moved if from_engine else set())
                    else:
                        continue
                    found += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}" for name in names]
    assert not found, found


def _catalogue_entry(group, kind, n, mode):
    commands = json.loads(CATALOGUE.read_text())["commands"]
    return next(
        e for e in commands
        if (e["group"], e["kind"], e["n"]) == (group, kind, n)
        and (mode is None or e["argv"][e["argv"].index("--mode") + 1] == mode)
    )


@pytest.mark.parametrize(
    "group, kind, n, mode",
    [
        ("four-class-n10", "verify-theorem", 10, None),
        ("queries", "classes", 14, None),
        ("queries", "char-value", 14, None),
        ("queries", "product", 14, "engine"),
        ("queries", "covering", 13, "engine"),
        ("queries", "contains", 14, "engine"),
        ("crosscheck-n8", "product", 8, "both"),
        ("crosscheck-n8", "contains", 8, "both"),
        ("crosscheck-n8", "excon", 8, "both"),
        ("crosscheck-n8", "verify-theorem", 8, "both"),
        ("crosscheck-n8", "dvir", 8, "both"),
        ("crosscheck-n8", "covering", 8, "both"),
    ],
)
def test_stdout_matches_the_recorded_benchmark_digest(capsys, group, kind, n, mode):
    # the benchmark checks every command's stdout against these digests;
    # a few of them here make output drift fail before the benchmark runs
    entry = _catalogue_entry(group, kind, n, mode)
    code, out, _ = run_cli(capsys, *entry["argv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"], entry["argv"]
