"""Generated argvs through the CLI: every one ends with exit code 0, 1, 2 or
3 (a nonzero code with one stderr line), JSON output parses, and the class
and character names it prints parse back to the same objects."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from classprod.alt_group import enumerate_alt_classes, parse_class_or_union
from classprod.characters import alt_irreducibles, parse_char
from classprod.cli import main
from classprod.partitions import enumerate_partitions, format_partition

MAX_N = 7
BAD_NAMES = ["", "x", "3,4", "0", "2,1", "1,1,1,1,1,1,1,1,1", "7++", "5,1,1−", " 7- "]


def class_names(n: int) -> list[str]:
    """Single classes and bare exceptional types (unions) of Alt(n)."""
    classes = enumerate_alt_classes(n)
    return sorted({c.name for c in classes} | {format_partition(c.cycle_type) for c in classes})


OTHER_NAMES = sorted({name for n in range(1, MAX_N + 1) for name in class_names(n)}) + BAD_NAMES
GOOD_FRACTIONS = ["1/10", "1/4", "1/2", "3/4", "99/100"]
# numerators and denominators up to 300 cross the bound of 100 on exponent parts
ANY_FRACTION = st.one_of(
    st.sampled_from(GOOD_FRACTIONS + ["1/1000000", "1e-10000000", "zero", "5"]),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-2, 300), st.integers(-1, 300)),
)


@st.composite
def argvs(draw):
    """Mostly well-formed argvs over one n, with a bad value now and then."""
    command = draw(
        st.sampled_from([
            "partitions", "degree", "char-value", "classes", "delta", "product",
            "contains", "covering", "dvir", "verify-theorem", "excon", "delta-report",
        ])
    )
    valid = draw(st.integers(0, 5)) > 0
    n = draw(st.integers(1 if valid else -1, MAX_N))

    def pick(good: list[str], other: list[str]) -> str:
        return draw(st.sampled_from(good if good and valid else other))

    def number(low: int, high: int) -> str:
        return str(draw(st.integers(1 if valid else low, high)))

    def fraction() -> str:  # half the time with large parts, whatever `valid` says
        return draw(st.one_of(st.sampled_from(GOOD_FRACTIONS), ANY_FRACTION))

    names = class_names(n) if n > 0 else []
    argv = [command, "--n", str(n), "--format", draw(st.sampled_from(["text", "json"]))]
    if command in ("product", "contains", "covering", "dvir", "verify-theorem", "excon"):
        argv += ["--mode", draw(st.sampled_from(["engine", "oracle", "both"]))]
    if command in ("dvir", "verify-theorem", "excon"):
        argv += ["--jobs", number(-1, 2)]
    if command == "degree":
        parts = [format_partition(p) for p in enumerate_partitions(max(n, 0))]
        argv += ["--partition", pick(parts, BAD_NAMES)]
    if command == "char-value":
        chars = [psi.name for psi in alt_irreducibles(n)] if n > 0 else []
        argv += ["--char", pick(chars, chars + ["4", "2,2", "3,2,1−"] + BAD_NAMES)]
    if command in ("char-value", "delta", "covering"):
        argv += ["--class", pick(names, OTHER_NAMES)]
    if command in ("product", "contains"):
        for flag in ("--a", "--b", "--g") if command == "contains" else ("--a", "--b"):
            for _ in range(draw(st.integers(1, 2))):
                argv += [flag, pick(names, OTHER_NAMES)]
    if command == "covering":
        argv += ["--max-k", str(draw(st.integers(-3, 6)))]
    if command == "verify-theorem":
        argv += ["--epsilon", fraction(), "--show", number(-1, 3)]
    if command == "delta-report":
        argv += ["--gamma", fraction()]
    extra = None if valid else draw(st.sampled_from([None, "--help", "--bogus"]))
    return argv + [extra] if extra else argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_class_name(name: str) -> None:
    classes = parse_class_or_union(name)
    if len(classes) == 1:
        assert classes[0].name == name
    else:  # a bare exceptional type: the union of its split pair
        assert [c.name for c in classes] == [name + "+", name + "-"]


def printed_class_names(command: str, payload: dict) -> list[str]:
    if command == "classes":
        return [row["name"] for row in payload["classes"]]
    if command == "char-value":
        return [payload["class"]]
    if command == "product":
        return payload["classes"]
    if command == "covering":
        return [payload["class"], *payload.get("missing_at_k_minus_1", [])]
    if command == "dvir":
        return [name for violation in payload["violations"] for name in violation]
    if command == "verify-theorem":
        return [name for q in payload["quadruples"] for name in q["classes"] + q["missing"]]
    if command == "excon":
        return [
            name
            for part in payload["parts"]
            for case in part["cases"]
            for name in case["classes"] + case["missing"]
        ]
    if command == "delta-report":
        return [row["class"] for row in payload["rows"]]
    return []


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(argvs())
def test_generated_argvs_end_cleanly(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), argv
    if code != 0:
        assert out == "" and len(err.splitlines()) == 1, (argv, err)
        return
    if "--help" in argv or argv[argv.index("--format") + 1] != "json":
        return
    payload = json.loads(out)
    command = argv[0]
    for name in printed_class_names(command, payload):
        check_class_name(name)
    if command == "char-value":
        assert parse_char(payload["char"]).name == payload["char"]
    if command == "delta":  # the class as given, which may be a union
        assert all(c.n == payload["n"] for c in parse_class_or_union(payload["class"]))

