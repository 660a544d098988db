"""Command-line surface: every engine capability, reproducible output.

This module parses, dispatches and prints; each sweep's report renders
its own output (``classprod.sweeps``).  One table, ``_COMMANDS``, holds
each command's handler, help text, options (``--mode`` and ``--jobs``
among them) and cap on n, which ``main`` checks before the handler runs.

Exit codes: 0 success, 1 usage error (or a stdout closed by its reader),
2 internal consistency failure (an exactness invariant broke, or engine
and oracle disagreed in ``--mode both``), 3 capability exceeded (n too
large for the mode).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Iterable, NamedTuple, Optional

from . import __version__
from .alt_group import (
    MODES,
    ORACLE_MAX_N,
    NormalSet,
    check_in_alt,
    check_n,
    class_size,
    delta,
    delta_bound_report,
    enumerate_alt_classes,
    is_exceptional,
    parse_class,
    parse_class_or_union,
)
from .errors import CapabilityError, ConsistencyError, UsageError
from .partitions import enumerate_partitions, format_partition, parse_partition

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSISTENCY = 2
EXIT_CAPABILITY = 3

PARTITION_MAX_N = 50
CHAR_MAX_N = 40
ENGINE_MAX_N = 14


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(k: int):
    """An argparse type: an integer no smaller than k."""

    def integer(text: str) -> int:
        value = int(text)
        if value < k:
            raise argparse.ArgumentTypeError(f"must be at least {k}, got {value}")
        return value

    return integer


def _table(rows, headers) -> list[str]:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers)]
    lines.extend(fmt.format(*(str(c) for c in row)) for row in rows)
    return lines


def _normal_set(names: list[str], n: int) -> NormalSet:
    # NormalSet rejects a class of another Alt(m)
    return NormalSet.of([cls for name in names for cls in parse_class_or_union(name)], n)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_partitions(args):
    parts = enumerate_partitions(args.n)
    return (
        {"n": args.n, "count": len(parts), "partitions": [list(p) for p in parts]},
        [format_partition(p) for p in parts],
    )


def _cmd_degree(args):
    from .characters import degree

    lam = parse_partition(args.partition)
    if sum(lam) != args.n:
        raise UsageError(f"{args.partition!r} is not a partition of {args.n}")
    d = degree(lam)
    return {"n": args.n, "partition": list(lam), "degree": d}, [str(d)]


def _cmd_char_value(args):
    from .characters import alt_value, parse_char

    psi = parse_char(args.char)
    if psi.n != args.n:
        raise UsageError(f"character {psi.name} does not live in Alt({args.n})")
    cls = check_in_alt(parse_class(args.cls), args.n)
    value = alt_value(psi, cls)
    return (
        {
            "n": args.n,
            "char": psi.name,
            "class": cls.name,
            "value": value.to_dict(),
            "value_text": str(value),
        },
        [str(value)],
    )


def _cmd_classes(args):
    rows = [
        {
            "name": c.name,
            "size": class_size(c),
            "delta": delta(c),
            "exceptional": is_exceptional(c.cycle_type),
        }
        for c in enumerate_alt_classes(args.n)
    ]
    table = [(r["name"], r["size"], r["delta"], "yes" if r["exceptional"] else "no") for r in rows]
    return (
        {"n": args.n, "count": len(rows), "classes": rows},
        _table(table, ("class", "size", "delta", "exceptional")),
    )


def _cmd_delta(args):
    classes = parse_class_or_union(args.cls)
    # both split classes: the bare type names their union
    name = classes[0].name if len(classes) == 1 else format_partition(classes[0].cycle_type)
    d = delta(check_in_alt(classes[0], args.n, name))
    return {"n": args.n, "class": name, "delta": d}, [str(d)]


def _cmd_product(args):
    from .product_engine import product_set

    s = _normal_set(args.a, args.n)
    t = _normal_set(args.b, args.n)
    names = [c.name for c in product_set(s, t, mode=args.mode)]
    return (
        {"n": args.n, "mode": args.mode, "classes": names, "count": len(names)},
        names,
    )


def _cmd_contains(args):
    from .product_engine import product_set

    s = _normal_set(args.a, args.n)
    t = _normal_set(args.b, args.n)
    targets = _normal_set(args.g, args.n)
    result = product_set(s, t, mode=args.mode)
    verdict = all(g in result for g in targets)
    return (
        {"n": args.n, "mode": args.mode, "contains": verdict},
        ["true" if verdict else "false"],
    )


def _cmd_covering(args):
    from .product_engine import covering_number, missing_classes

    cls = check_in_alt(parse_class(args.cls), args.n)
    result = covering_number(cls, args.max_k, mode=args.mode)
    payload = {
        "n": args.n,
        "class": cls.name,
        "max_k": args.max_k,
        "covering_number": result,
    }
    lines = [str(result) if result is not None else "none"]
    if result is not None and result > 1:
        witnesses = [c.name for c in missing_classes(cls, result - 1, mode=args.mode)]
        payload["missing_at_k_minus_1"] = witnesses
        lines.append(
            f"power {result - 1} still misses: {', '.join(witnesses)}"
        )
    return payload, lines


def _cmd_dvir(args):
    from .sweeps import check_dvir_rodgers

    report = check_dvir_rodgers(args.n, mode=args.mode)
    return report.to_dict(), report.text_lines()


def _cmd_verify_theorem(args):
    """Stream the report to stdout itself: too many rows to hand back."""
    from .sweeps import verify_four_class_theorem

    report = verify_four_class_theorem(args.n, args.epsilon, mode=args.mode)
    if args.format == "json":
        report.write_json(sys.stdout)
        return
    for line in report.text_lines(args.show):
        print(line)


def _cmd_excon(args):
    from .sweeps import long_cycle_product_checks

    report = long_cycle_product_checks(args.n, mode=args.mode)
    return report.to_dict(), report.text_lines()


def _cmd_delta_report(args):
    report = delta_bound_report(args.n, args.gamma)
    rows = [
        (r.cls.name, r.size, r.delta, str(r.ratio), "*" if r.minimal else "")
        for r in report.rows
    ]
    return (
        report.to_dict(),
        _table(rows, ("class", "size", "delta", "delta/n", "min")),
    )


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------


class _Command(NamedTuple):
    """A subcommand: its ``handler`` (it returns the JSON payload and the
    text lines, or None once it has written its own output), ``help``, the
    ``options`` beyond ``--n`` and ``--format`` (``add_argument`` keywords
    by flag) and the ``cap``: the largest n and the name a refusal gives
    it, or None for no cap, which ``main`` checks before the handler runs."""

    handler: Callable
    help: str
    options: dict = {}
    cap: Optional[tuple[int, str]] = None


# the options the engine commands and the sweeps share
_MODE = {"--mode": dict(
    choices=MODES,
    default="engine",
    help=f"character-sum engine, brute force (n <= {ORACLE_MAX_N}), or cross-check",
)}
_JOBS = {"--jobs": dict(type=_int_at_least(1), default=1, help="accepted; the sweep runs serially")}
_ENGINE_CAP = (ENGINE_MAX_N, "the character-sum engine")

_COMMANDS = {
    "partitions": _Command(
        _cmd_partitions, "list the partitions of n", cap=(PARTITION_MAX_N, "partition listing")
    ),
    "degree": _Command(_cmd_degree, "Sym(n) character degree of a partition", {
        "--partition": dict(required=True, help='e.g. "9,1"'),
    }, (CHAR_MAX_N, "degree computation")),
    "char-value": _Command(_cmd_char_value, "Alt(n) character value on a class", {
        "--char": dict(required=True, help='character name, e.g. "3,2,1+"'),
        "--class": dict(dest="cls", required=True, help='class name, e.g. "5,3,1-"'),
    }, (CHAR_MAX_N, "character evaluation")),
    "classes": _Command(
        _cmd_classes, "list the conjugacy classes of Alt(n)", cap=(CHAR_MAX_N, "class listing")
    ),
    "delta": _Command(_cmd_delta, "n minus the number of cycles of a class", {
        "--class": dict(dest="cls", required=True),
    }),
    "product": _Command(_cmd_product, "classes in the product of two normal sets", {
        **_MODE,
        "--a": dict(action="append", required=True, help="class in the left set (repeatable)"),
        "--b": dict(action="append", required=True, help="class in the right set (repeatable)"),
    }, _ENGINE_CAP),
    "contains": _Command(_cmd_contains, "is every --g class inside the product of --a and --b?", {
        **_MODE, **{flag: dict(action="append", required=True) for flag in ("--a", "--b", "--g")}
    }, _ENGINE_CAP),
    "covering": _Command(_cmd_covering, "covering number of a class", {
        **_MODE,
        "--class": dict(dest="cls", required=True),
        "--max-k": dict(type=_int_at_least(1), default=8, help="largest power to try"),
    }, _ENGINE_CAP),
    "dvir": _Command(
        _cmd_dvir, "exhaustive long-cycle inclusion sweep at one n", {**_MODE, **_JOBS}, _ENGINE_CAP
    ),
    "verify-theorem": _Command(
        _cmd_verify_theorem,
        "sweep all size-qualified class quadruples and report coverage",
        {
            **_MODE,
            **_JOBS,
            "--epsilon": dict(required=True, help='exact rational threshold exponent, e.g. "1/10"'),
            "--show": dict(
                type=_int_at_least(0), default=10, help="covered quadruples to print in text mode"
            ),
        },
        _ENGINE_CAP,
    ),
    "excon": _Command(
        _cmd_excon, "long-cycle product checks at one n", {**_MODE, **_JOBS}, _ENGINE_CAP
    ),
    "delta-report": _Command(
        _cmd_delta_report,
        "delta/n table for classes above a size threshold",
        {"--gamma": dict(required=True, help='exact rational exponent in (0,1), e.g. "1/2"')},
        (CHAR_MAX_N, "delta report"),
    ),
}


def build_parser(names: Optional[Iterable[str]] = None) -> argparse.ArgumentParser:
    """The parser of the commands ``names`` (None: all twelve)."""
    parser = _Parser(
        prog="classprod",
        description=(
            "Exact conjugacy-class product analysis in alternating groups. "
            "Classes are named by cycle type, e.g. '5,3,1'; split classes of "
            "an exceptional type (all cycle lengths odd, pairwise distinct) "
            "take a '+'/'-' suffix, and a bare exceptional name denotes the "
            "union of both split classes."
        ),
    )
    parser.add_argument("--version", action="version", version=f"classprod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if names is None else names:
        cmd = _COMMANDS[name]
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--n", type=int, required=True, help="number of letters")
        p.add_argument("--format", choices=("text", "json"), default="text", help="output format")
        for flag, options in cmd.options.items():
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # an argv that starts with a command parses alike with that command's
    # subparser alone; any other (--help, --version, a bad word) needs all
    parser = build_parser([argv[0]] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        cmd = _COMMANDS[args.command]
        if cmd.cap is not None:
            check_n(args.n, *cmd.cap)
        result = cmd.handler(args)
        if result is not None:
            payload, lines = result
            if args.format == "json":
                lines = [json.dumps(payload, indent=2, sort_keys=True)]
            for line in lines:
                print(line)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return EXIT_OK
    except BrokenPipeError:
        # the reader is gone: later writes, and the flush at exit, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
