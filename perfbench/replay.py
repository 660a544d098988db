"""Replay one classprod CLI command in-process, with a span around each layer call.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/replay.py <classprod argv...>

The argv is parsed with the CLI's own parser, then the command's work is
done by calling the package's public functions directly, so that each call
into a layer can be timed from outside the package:

- ``characters.table``: a cold ``character_table(n)``;
- ``product_engine.fill``: ``ensure_pair_masks`` -- one call per pair when
  ``--jobs 1`` (each pair timed), one call when the pool is used;
- ``product_engine.sweep``: the named sweep, with its masks already warm
  (in ``--mode both`` it also runs the oracle side of the sweep);
- ``product_engine.lazy``: ``product_set`` / ``covering_number`` /
  ``missing_classes`` on a cold cache;
- ``brute_force.group`` and ``brute_force.oracle``: enumerating the group
  and the oracle products of the small commands;
- ``cli.emit``: ``to_dict()`` plus ``json.dumps``.

stdout receives exactly the bytes the CLI prints for the argv, so the
benchmark's correctness gate applies unchanged.  The last line of stderr
is one JSON object holding the spans, the counts and any failed check.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from fractions import Fraction  # noqa: E402
from itertools import combinations_with_replacement  # noqa: E402

from classprod.alt_group import (  # noqa: E402
    NormalSet,
    class_index,
    class_size,
    delta,
    enumerate_alt_classes,
    identity_class,
    inverse_class,
    is_exceptional,
    parse_class_or_union,
)
from classprod.brute_force import (  # noqa: E402
    alt_conjugacy_classes,
    oracle_covering_number,
    oracle_product_set,
)
from classprod.characters import alt_value, character_table, mn_value, parse_char  # noqa: E402
from classprod.cli import build_parser  # noqa: E402
from classprod.errors import ConsistencyError  # noqa: E402
from classprod.product_engine import (  # noqa: E402
    check_dvir_rodgers,
    covering_number,
    dvir_rodgers_applies,
    ensure_pair_masks,
    exactness_check_count,
    long_cycle_product_checks,
    missing_classes,
    product_set,
    verify_four_class_theorem,
)

T_IMPORTED = time.perf_counter()


class Tracer:
    """Spans and counts of one replayed command, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = [{"name": "cli.import", "start": T_START, "end": T_IMPORTED}]
        self.counts = {
            "masks_computed": 0, "masks_cached": 0, "quadruples": 0,
            "quadruples_covered": 0, "group_order": 0, "classes": 0,
        }
        self.pair_ms: list[float] = []
        self.problems: list[str] = []
        self._masks: set[tuple[int, int, int]] = set()

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append({"name": name, "start": start, "end": time.perf_counter()})

    def request(self, n: int, pairs) -> None:
        """Count pair-mask requests: the first request of a pair in this
        (cold) process computes its mask, later ones are served from cache."""
        for i, j in pairs:
            key = (n, min(i, j), max(i, j))
            if key in self._masks:
                self.counts["masks_cached"] += 1
            else:
                self._masks.add(key)
                self.counts["masks_computed"] += 1


def _normal_set(names: list[str], n: int) -> NormalSet:
    return NormalSet.of([c for name in names for c in parse_class_or_union(name)], n)


def _product_requests(s: NormalSet, t: NormalSet) -> list[tuple[int, int]]:
    idx = class_index(s.n)
    return [(idx[a], idx[b]) for a in s for b in t]


def _power_requests(cls, products: int) -> list[tuple[int, int]]:
    """The pair lookups of ``products`` iterated products by one class, the
    way ``covering_number`` and ``missing_classes`` make them (masks warm)."""
    base = NormalSet.of([cls])
    current, requests = base, []
    for _ in range(products):
        requests += _product_requests(current, base)
        current = product_set(current, base)
    return requests


def _oracle_table(tr: Tracer, n: int):
    with tr.span("brute_force.group"):
        table = alt_conjugacy_classes(n)
    tr.counts["group_order"] = table.order
    return table


def _small_command(args, tr: Tracer) -> dict:
    n, cmd = args.n, args.command
    if cmd == "classes":
        with tr.span("alt_group.classes"):
            classes = [
                {"name": c.name, "size": class_size(c), "delta": delta(c),
                 "exceptional": is_exceptional(c.cycle_type)}
                for c in enumerate_alt_classes(n)
            ]
        return {"n": n, "count": len(classes), "classes": classes}
    if cmd == "char-value":
        psi, (cls,) = parse_char(args.char), parse_class_or_union(args.cls)
        with tr.span("characters.value"):
            value = alt_value(psi, cls)
        return {"n": n, "char": psi.name, "class": cls.name,
                "value": value.to_dict(), "value_text": str(value)}

    engine, oracle = args.mode in ("engine", "both"), args.mode in ("oracle", "both")
    if engine:
        with tr.span("characters.table"):
            character_table(n)
    table = _oracle_table(tr, n) if oracle else None
    if cmd in ("product", "contains"):
        s, t = _normal_set(args.a, n), _normal_set(args.b, n)
        names = oracle_names = None
        if engine:
            with tr.span("product_engine.lazy"):
                names = [c.name for c in product_set(s, t)]
            tr.request(n, _product_requests(s, t))
        if oracle:
            with tr.span("brute_force.oracle"):
                oracle_names = [c.name for c in oracle_product_set(table, s, t)]
        if engine and oracle and names != oracle_names:
            raise ConsistencyError(f"engine product {names} disagrees with oracle {oracle_names}")
        names = names if engine else oracle_names
        if cmd == "product":
            return {"n": n, "mode": args.mode, "classes": names, "count": len(names)}
        targets = _normal_set(args.g, n)
        return {"n": n, "mode": args.mode,
                "contains": all(g.name in names for g in targets)}

    (cls,) = parse_class_or_union(args.cls)
    result = witnesses = oracle_result = None
    if engine:
        with tr.span("product_engine.lazy"):
            result = covering_number(cls, args.max_k)
            if result is not None and result > 1:
                witnesses = [c.name for c in missing_classes(cls, result - 1)]
        # covering_number makes result - 1 products (max_k - 1 when none
        # covers); missing_classes(cls, result - 1) makes one fewer.
        products = (result if result is not None else args.max_k) - 1
        tr.request(n, _power_requests(cls, products))
        if witnesses is not None:
            tr.request(n, _power_requests(cls, products - 1))
    if oracle:
        with tr.span("brute_force.oracle"):
            oracle_result = oracle_covering_number(table, cls, args.max_k)
        if engine and oracle_result != result:
            raise ConsistencyError(f"engine covering number {result} disagrees with oracle {oracle_result}")
        result = oracle_result
    payload = {"n": n, "class": cls.name, "max_k": args.max_k, "covering_number": result}
    if witnesses is not None:
        payload["missing_at_k_minus_1"] = witnesses
    return payload


def _identity_check(n: int) -> str | None:
    """The identity lies in AB exactly when B is the class of inverses of A."""
    ident = identity_class(n)
    for a in enumerate_alt_classes(n):
        for b in enumerate_alt_classes(n):
            hit = ident in product_set(NormalSet.of([a]), NormalSet.of([b]))
            if hit != (b == inverse_class(a)):
                return f"identity in {a.name}*{b.name} is {hit}, inverse class is {inverse_class(a).name}"
    return None


def _sweep(args, tr: Tracer):
    n, jobs, mode = args.n, args.jobs, args.mode
    k = len(enumerate_alt_classes(n))
    if args.command == "dvir":
        classes = enumerate_alt_classes(n)
        pairs = [(i, j) for i, j in combinations_with_replacement(range(k), 2)
                 if dvir_rodgers_applies(classes[i], classes[j])]
    else:
        pairs = list(combinations_with_replacement(range(k), 2))
    if mode in ("engine", "both"):
        with tr.span("characters.table"):
            character_table(n)
        if jobs <= 1:
            for pair in pairs:
                start = time.perf_counter()
                with tr.span("product_engine.fill"):
                    ensure_pair_masks(n, [pair])
                tr.pair_ms.append((time.perf_counter() - start) * 1000)
        else:
            with tr.span("product_engine.fill"):
                ensure_pair_masks(n, pairs, jobs)
        tr.request(n, pairs)
        tr.request(n, pairs)  # the sweep asks for the same pairs again
    if mode in ("oracle", "both"):
        _oracle_table(tr, n)
    with tr.span("product_engine.sweep"):
        if args.command == "verify-theorem":
            report = verify_four_class_theorem(n, Fraction(args.epsilon), jobs=jobs, mode=mode)
        elif args.command == "excon":
            report = long_cycle_product_checks(n, jobs=jobs, mode=mode)
        else:
            report = check_dvir_rodgers(n, jobs=jobs, mode=mode)
    if args.command == "verify-theorem":
        tr.counts["quadruples"] = len(report.quadruples)
        tr.counts["quadruples_covered"] = report.covered_count
    if args.command == "excon" and mode != "oracle":
        with tr.span("check.identity_inverse"):
            problem = _identity_check(n)
        if problem:
            tr.problems.append(problem)
    return report


def main(argv: list[str]) -> int:
    tr = Tracer()
    args = build_parser().parse_args(argv)
    tr.counts["classes"] = len(enumerate_alt_classes(args.n))
    if args.command in ("verify-theorem", "excon", "dvir"):
        report = _sweep(args, tr)
        with tr.span("cli.emit"):
            text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        payload = _small_command(args, tr)
        with tr.span("cli.emit"):
            text = json.dumps(payload, indent=2, sort_keys=True)
    out = (text + "\n").encode()
    sys.stdout.buffer.write(out)
    sys.stdout.flush()
    tr.counts.update(
        mn_misses=mn_value.cache_info().misses,
        exactness_checks=exactness_check_count(),
        stdout_bytes=len(out),
    )
    print(json.dumps({"spans": tr.spans, "counts": tr.counts, "pair_ms": tr.pair_ms,
                      "problems": tr.problems}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
