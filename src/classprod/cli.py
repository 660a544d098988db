"""Command-line surface: every engine capability, reproducible output.

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
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from . import __version__
from .alt_group import (
    MODES,
    AltClass,
    NormalSet,
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

if TYPE_CHECKING:
    from fractions import Fraction

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


def _parse_fraction(text: str) -> Fraction:
    from fractions import Fraction

    # Fraction() expands exponent notation into a power of ten before any
    # bound can look at it: "1e-10000000" alone takes seconds
    if "e" in text.lower():
        raise UsageError(f"exponent notation is not accepted, write p/q: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {text!r}") from None


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


def _in_alt(cls: AltClass, n: int, name: Optional[str] = None) -> AltClass:
    """``cls``, refused unless it is a class of Alt(n); the error names it
    by ``name``, by default its own."""
    if cls.n != n:
        raise UsageError(f"class {name or cls.name} is not a class of Alt({n})")
    return cls


def _normal_set(names: list[str], n: int) -> NormalSet:
    # NormalSet rejects a class of another Alt(m)
    return NormalSet.of([cls for name in names for cls in parse_class_or_union(name)], n)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_partitions(args):
    check_n(args.n, PARTITION_MAX_N, "partition listing")
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
    check_n(args.n, CHAR_MAX_N, "degree computation")
    d = degree(lam)
    return {"n": args.n, "partition": list(lam), "degree": d}, [str(d)]


def _cmd_char_value(args):
    from .characters import alt_value, parse_char

    check_n(args.n, CHAR_MAX_N, "character evaluation")
    psi = parse_char(args.char)
    if psi.n != args.n:
        raise UsageError(f"character {psi.name} does not live in Alt({args.n})")
    cls = _in_alt(parse_class(args.cls), args.n)
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
    check_n(args.n, CHAR_MAX_N, "class listing")
    classes = enumerate_alt_classes(args.n)
    rows = [
        (c.name, class_size(c), delta(c), "yes" if is_exceptional(c.cycle_type) else "no")
        for c in classes
    ]
    return (
        {
            "n": args.n,
            "count": len(classes),
            "classes": [
                {
                    "name": name,
                    "size": size,
                    "delta": d,
                    "exceptional": exc == "yes",
                }
                for name, size, d, exc in rows
            ],
        },
        _table(rows, ("class", "size", "delta", "exceptional")),
    )


def _cmd_delta(args):
    classes = parse_class_or_union(args.cls)
    # both split classes: the bare type names their union
    name = classes[0].name if len(classes) == 1 else format_partition(classes[0].cycle_type)
    d = delta(_in_alt(classes[0], args.n, name))
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

    cls = _in_alt(parse_class(args.cls), args.n)
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
    lines = [
        f"n={report.n}: {report.pairs_checked} qualifying pairs, "
        f"{len(report.violations)} violations",
    ]
    lines += [f"VIOLATION: {a} * {b} misses {g}" for a, b, g in report.violations]
    return report.to_dict(), lines


def _write_four_class_json(report) -> None:
    """Write ``json.dumps(report.to_dict(), indent=2, sort_keys=True)``
    and a newline without building the dict.  The totals are counted
    first, and the rows go to stdout one group of equal least product at a
    time.  A row of "quadruples" is one template over the encoded names of
    its four classes and the text of the rest of the row, cached per (least
    pair product, missing-class mask), since few of those recur."""
    from .product_engine import names_in

    names = [encode_basestring_ascii(c.name) for c in enumerate_alt_classes(report.n)]
    tails: dict[tuple[int, int], str] = {}

    def tail(least: int, mask: int) -> str:
        if mask:
            missing = ",\n        ".join(names_in(names, mask))
            covered, missing = "false", "[\n        " + missing + "\n      ]"
        else:
            covered, missing = "true", "[]"
        return (
            f'      "covered": {covered},\n      "min_pair_product": {least},\n'
            f'      "missing": {missing}\n    }}'
        )

    write = sys.stdout.write
    total = report.total
    write(
        f'{{\n  "covered": {report.covered_count},\n'
        f'  "epsilon": {encode_basestring_ascii(str(report.epsilon))},\n'
        f'  "mode": {encode_basestring_ascii(report.mode)},\n'
        f'  "n": {report.n},\n  "quadruples": ' + ("[\n" if total else "[]")
    )
    separator = ""
    for group in report.groups():
        texts = []
        for (a, b, c, d), least, mask in group:
            key = (least, mask)
            end = tails.get(key)
            if end is None:
                end = tails[key] = tail(least, mask)
            texts.append(
                f'    {{\n      "classes": [\n        {names[a]},\n        {names[b]},\n'
                f"        {names[c]},\n        {names[d]}\n      ],\n{end}"
            )
        write(separator + ",\n".join(texts))
        separator = ",\n"
    write(("\n  ]" if total else "") + f',\n  "total": {total}\n}}\n')


def _cmd_verify_theorem(args):
    """Stream the report to stdout itself: too many rows to hand back."""
    from .product_engine import names_in
    from .sweeps import verify_four_class_theorem

    report = verify_four_class_theorem(args.n, _parse_fraction(args.epsilon), mode=args.mode)
    if args.format == "json":
        _write_four_class_json(report)
        return
    names = [c.name for c in enumerate_alt_classes(report.n)]
    covered, total, m = report.covered_count, report.total, len(report.order)
    # the rows of every pair with a miss, and of every pair down to the
    # least product at which the pairs' covered rows reach --show
    reached = accumulate(pair[3] for pair in report.pairs)
    cut = next((pair[2] for pair, count in zip(report.pairs, reached) if count >= args.show), 0)
    pairs = [
        (p, q, least, count)
        for p, q, least, count in report.pairs
        if least >= cut or count < (m - q) * (m - q + 1) // 2
    ]
    print(
        f"n={report.n} epsilon={report.epsilon} mode={report.mode}: "
        f"{covered}/{total} qualifying quadruples cover Alt({report.n})"
    )
    shown = 0
    for group in report.groups(pairs):
        for quad, least, mask in group:
            if mask:
                missing = ", ".join(names_in(names, mask))
                print(f"NOT COVERED: {' * '.join(names[i] for i in quad)} misses {missing}")
            elif shown < args.show:
                print(f"covered: {' * '.join(names[i] for i in quad)} (min pair product {least})")
                shown += 1
    if covered > shown:
        print(f"... {covered - shown} further covered quadruples omitted (use --format json)")


def _cmd_excon(args):
    from .sweeps import long_cycle_product_checks

    report = long_cycle_product_checks(args.n, mode=args.mode)
    lines = []
    for part in report.parts:
        status = "pass" if part.passed else "FAIL"
        lines.append(f"part {part.part} [{status}]: {part.statement}")
        for case in part.cases:
            if not case.passed:
                lines.append(
                    f"  counterexample {', '.join(case.classes)}: misses {', '.join(case.missing)}"
                )
    return report.to_dict(), lines


def _cmd_delta_report(args):
    check_n(args.n, CHAR_MAX_N, "delta report")
    report = delta_bound_report(args.n, _parse_fraction(args.gamma))
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
    """A subcommand: beyond ``--n`` and ``--format``, its ``options``; an
    engine command also takes ``--mode`` and is held to ENGINE_MAX_N
    before its handler runs, and a sweep takes ``--jobs``.  The handler
    returns the JSON payload and the text lines, or None once it has
    written its own output."""

    handler: Callable
    help: str
    options: dict = {}
    engine: bool = False
    sweep: bool = False


_COMMANDS = {
    "partitions": _Command(_cmd_partitions, "list the partitions of n"),
    "degree": _Command(_cmd_degree, "Sym(n) character degree of a partition", {
        "--partition": dict(required=True, help='e.g. "9,1"'),
    }),
    "char-value": _Command(_cmd_char_value, "Alt(n) character value on a class", {
        "--char": dict(required=True, help='character name, e.g. "3,2,1+"'),
        "--class": dict(dest="cls", required=True, help='class name, e.g. "5,3,1-"'),
    }),
    "classes": _Command(_cmd_classes, "list the conjugacy classes of Alt(n)"),
    "delta": _Command(_cmd_delta, "n minus the number of cycles of a class", {
        "--class": dict(dest="cls", required=True),
    }),
    "product": _Command(_cmd_product, "classes in the product of two normal sets", {
        "--a": dict(action="append", required=True, help="class in the left set (repeatable)"),
        "--b": dict(action="append", required=True, help="class in the right set (repeatable)"),
    }, engine=True),
    "contains": _Command(_cmd_contains, "is every --g class inside the product of --a and --b?", {
        flag: dict(action="append", required=True) for flag in ("--a", "--b", "--g")
    }, engine=True),
    "covering": _Command(_cmd_covering, "covering number of a class", {
        "--class": dict(dest="cls", required=True),
        "--max-k": dict(type=_int_at_least(1), default=8, help="largest power to try"),
    }, engine=True),
    "dvir": _Command(
        _cmd_dvir, "exhaustive long-cycle inclusion sweep at one n", engine=True, sweep=True
    ),
    "verify-theorem": _Command(
        _cmd_verify_theorem,
        "sweep all size-qualified class quadruples and report coverage",
        {
            "--epsilon": dict(required=True, help='exact rational threshold exponent, e.g. "1/10"'),
            "--show": dict(
                type=_int_at_least(0), default=10, help="covered quadruples to print in text mode"
            ),
        },
        engine=True,
        sweep=True,
    ),
    "excon": _Command(_cmd_excon, "long-cycle product checks at one n", engine=True, sweep=True),
    "delta-report": _Command(
        _cmd_delta_report,
        "delta/n table for classes above a size threshold",
        {"--gamma": dict(required=True, help='exact rational exponent in (0,1), e.g. "1/2"')},
    ),
}


def build_parser() -> argparse.ArgumentParser:
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
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--n", type=int, required=True, help="number of letters")
        p.add_argument("--format", choices=("text", "json"), default="text", help="output format")
        if cmd.engine:
            p.add_argument(
                "--mode",
                choices=MODES,
                default="engine",
                help="character-sum engine, brute force (n <= 8), or cross-check",
            )
        if cmd.sweep:
            p.add_argument(
                "--jobs", type=_int_at_least(1), default=1, help="accepted; the sweep runs serially"
            )
        for flag, options in cmd.options.items():
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cmd = _COMMANDS[args.command]
        if cmd.engine:
            check_n(args.n, ENGINE_MAX_N, "the character-sum engine")
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
