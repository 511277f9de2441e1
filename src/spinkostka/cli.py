"""Command-line front end.

Subcommands: ``compute`` (one spin Kostka polynomial), ``b`` (one
Stembridge coefficient), ``g2`` (square-shape g-coefficient), ``table``
(full table for a given weight) and ``verify`` (the self-check suites;
``--format json`` gives each suite's result and each relation's time).
Partitions are written as comma-separated parts, e.g. ``4,3,1``; ``-``
denotes the empty partition.

Each command imports what it runs: only ``compute --oracle`` and
``verify`` load the vertex-operator oracle, only the ``tables`` suite the
published tables (``goldens``), only the ``properties`` suite the
invariants, and ``json`` is loaded where JSON is written.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage
errors (argparse's convention), among them a ``compute`` or ``table`` cell
past the engine's slot.
"""

from __future__ import annotations

import argparse
import io
import sys

from .engine import spin_kostka
from .partitions import as_partition, partitions, strict_partitions
from .polynomial import LaurentPoly
from .schur import b_coeff, g_square


def partition_type(name, strict=False):
    """The argparse type of option ``name``: '4,3,1' -> (4, 3, 1) and '-' or
    '' -> (), checked by ``as_partition``."""

    def parse(text):
        text = text.strip()
        try:
            parts = () if text in ("-", "") else [int(p) for p in text.split(",")]
            return as_partition(parts, name, strict)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def format_partition(lam):
    return ",".join(map(str, lam)) if lam else "-"


# -- table generation ----------------------------------------------------


TABLE_MODES = ("spin", "b")


def _check_mode(mode):
    if mode not in TABLE_MODES:
        raise ValueError("unknown table mode %r" % (mode,))


def build_table(n, mode="spin", threads=1):
    """{mu: {xi: LaurentPoly}} for all row/column pairs of weight n: the K^-
    values of the shared engine, or in mode "b" the constants b_{xi,mu}."""
    # threads remains only because perfbench/worker.py passes threads=1
    if type(threads) is not int or threads != 1:
        raise ValueError("build_table runs serially; threads must be 1 (an int), got %r" % (threads,))
    _check_mode(mode)
    cell = spin_kostka if mode == "spin" else lambda xi, mu: LaurentPoly.const(b_coeff(xi, mu))
    table = {}
    for mu in partitions(n):
        if mu:
            table[mu] = {xi: cell(xi, mu) for xi in strict_partitions(n)}
    return table


def render_table(table, n, fmt, mode="spin"):
    _check_mode(mode)
    cols = strict_partitions(n)
    rows = [mu for mu in partitions(n) if mu]
    if fmt == "md":
        head = "| mu \\ xi | " + " | ".join(format_partition(c) for c in cols) + " |"
        sep = "|" + "---|" * (len(cols) + 1)
        lines = [head, sep]
        for mu in rows:
            cells = " | ".join(str(table[mu][xi]) for xi in cols)
            lines.append("| %s | %s |" % (format_partition(mu), cells))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        lines = ["mu/xi," + ",".join('"%s"' % format_partition(c) for c in cols)]
        for mu in rows:
            cells = ",".join('"%s"' % table[mu][xi] for xi in cols)
            lines.append('"%s",%s' % (format_partition(mu), cells))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        import json

        data = {
            "n": n,
            "mode": mode,
            "columns": [list(c) for c in cols],
            "rows": [
                {"mu": list(mu), "cells": [table[mu][xi].to_json() for xi in cols]}
                for mu in rows
            ],
        }
        return json.dumps(data, indent=2) + "\n"
    raise ValueError("unknown table format %r" % fmt)


# -- verification suites -------------------------------------------------

# Each suite writes its text lines to ``out`` and returns a record for the
# JSON output: ``{"ok": passed}``, plus the relations for that suite.


def _suite_relations(args, out):
    from .oracle import verify_relations

    report = verify_relations(max_degree=args.max_degree, seed=args.seed)
    out.write(report.summary() + "\n")
    return {"ok": report.ok, "relations": [r._asdict() for r in report.results]}


def _suite_tables(args, out):
    """Every published cell must be reproduced, except the documented
    misprints, which must take their verified value; the cells that differ
    from the print must be exactly the documented ones."""
    from .goldens import KNOWN_DISCREPANCIES, published_tables, verified_tables

    ok = True
    differing = set()
    verified = verified_tables()
    for n, rows in published_tables().items():
        for mu, cells in rows.items():
            for xi, published in cells.items():
                got = spin_kostka(xi, mu)
                want = verified[n][mu][xi]
                cell = "n=%d xi=%s mu=%s" % (
                    n, format_partition(xi), format_partition(mu)
                )
                if got != published:
                    differing.add((n, mu, xi))
                if got != want:
                    ok = False
                    out.write(
                        "FAIL cell %s: got %s, expected %s, published %s\n"
                        % (cell, got, want, published)
                    )
                elif got != published:
                    out.write(
                        "KNOWN-DISCREPANT cell %s: published %s, "
                        "independently verified value %s\n" % (cell, published, got)
                    )
    for n, mu, xi in sorted(set(KNOWN_DISCREPANCIES) - differing):
        ok = False
        out.write(
            "FAIL documented cell n=%d xi=%s mu=%s: matches the print or is "
            "not tabulated\n" % (n, format_partition(xi), format_partition(mu))
        )
    out.write("tables: %s\n" % ("PASS (modulo known misprint)" if ok else "FAIL"))
    return {"ok": ok}


def _suite_properties(args, out):
    """Structural corollaries of the spin Kostka recurrence, exhaustively."""
    from .invariants import failures

    weights, stable = range(1, args.max_n + 1), range(1, max(2, args.max_n - 2))
    found = failures(spin_kostka, weights, stable, grow=(1, 2))
    for f in found:
        out.write("FAIL %s\n" % f)
    out.write("properties: %s\n" % ("PASS" if not found else "FAIL"))
    return {"ok": not found}


def _suite_oracle(args, out):
    from .oracle import oracle_spin_kostka

    bad = 0
    for n in range(0, args.max_n + 1):
        for xi in strict_partitions(n):
            for mu in partitions(n):
                if spin_kostka(xi, mu) != oracle_spin_kostka(xi, mu):
                    bad += 1
                    out.write("FAIL oracle mismatch: %r %r\n" % (xi, mu))
    out.write("oracle: %s\n" % ("PASS" if not bad else "FAIL"))
    return {"ok": not bad}


SUITES = {
    "relations": _suite_relations,
    "tables": _suite_tables,
    "properties": _suite_properties,
    "oracle": _suite_oracle,
}


# -- argument parsing ----------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spin-kostka",
        description="Exact spin Kostka polynomials and Stembridge coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="one spin Kostka polynomial K^-_{xi,mu}(t)")
    p.add_argument("--xi", type=partition_type("xi", strict=True), required=True)
    p.add_argument("--mu", type=partition_type("mu"), required=True)
    p.add_argument("--oracle", action="store_true", help="use the vertex-operator oracle")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("b", help="one Stembridge coefficient b_{xi,lambda}")
    p.add_argument("--xi", type=partition_type("xi", strict=True), required=True)
    p.add_argument("--lambda", dest="lam", type=partition_type("lambda"), required=True)

    p = sub.add_parser("g2", help="square-shape coefficient g_{(r,r),lambda}")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=partition_type("lambda"), required=True)

    p = sub.add_parser("table", help="full table for weight n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=TABLE_MODES, default="spin")
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument(
        "--suite",
        choices=tuple(SUITES) + ("all",),
        default="all",
    )
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout

    if args.command == "compute":
        fn = spin_kostka
        if args.oracle:
            from .oracle import oracle_spin_kostka as fn
        if sum(args.xi) != sum(args.mu):
            parser.error("xi and mu must have equal weight")
        try:
            poly = fn(args.xi, args.mu)
        except ValueError as exc:  # the engine's slot guard
            parser.error(str(exc))
        if args.format == "json":
            import json

            record = {"xi": list(args.xi), "mu": list(args.mu), "poly": poly.to_json()}
            out.write(json.dumps(record) + "\n")
        else:
            out.write("%s\n" % poly)
        return 0

    if args.command == "b":
        if sum(args.xi) != sum(args.lam):
            parser.error("xi and lambda must have equal weight")
        out.write("%d\n" % b_coeff(args.xi, args.lam))
        return 0

    if args.command == "g2":
        if args.r < 1:
            parser.error("r must be >= 1")
        if sum(args.lam) != 2 * args.r:
            parser.error("lambda must have weight 2r")
        out.write("%d\n" % g_square(args.r, args.lam))
        return 0

    if args.command == "table":
        if args.n < 1:
            parser.error("n must be >= 1")
        try:
            table = build_table(args.n, args.mode)
        except ValueError as exc:  # the engine's slot guard
            parser.error(str(exc))
        text = render_table(table, args.n, args.format, args.mode)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                parser.error("cannot write --out %s: %s" % (args.out, exc.strerror))
        else:
            out.write(text)
        return 0

    if args.command == "verify":
        if args.max_n < 1 or args.max_degree < 0:
            parser.error("--max-n must be >= 1 and --max-degree >= 0")
        names = list(SUITES) if args.suite == "all" else [args.suite]
        records = []
        for name in names:
            if args.format == "text":
                out.write("== suite: %s ==\n" % name)
                records.append(SUITES[name](args, out))
            else:
                lines = io.StringIO()
                record = SUITES[name](args, lines)
                records.append({"suite": name, **record, "output": lines.getvalue().splitlines()})
        ok = all(record["ok"] for record in records)
        if args.format == "json":
            import json

            out.write(json.dumps({"ok": ok, "suites": records}, indent=2) + "\n")
        return 0 if ok else 1

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
