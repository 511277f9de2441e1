"""Regenerate reference.json.gz, the values the benchmark checks outputs against.

Run from the repository root:  python3 perfbench/make_reference.py

K- values of weights 0..10 and b values of weights 0..16 come from the
recurrence engine and are cross-checked before they are written: K- against
the published tables (weights 2..6, with the documented misprint corrected)
and against the vertex-operator oracle (weights <= 7), b against the oracle
(weights <= 7), and every value against the structural checks of checks.py.
"""

import gzip
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from spinkostka import b_coeff, spin_kostka  # noqa: E402
from spinkostka.goldens import verified_tables  # noqa: E402
from spinkostka.oracle import oracle_b, oracle_spin_kostka  # noqa: E402

import checks  # noqa: E402
from workloads import table_cells  # noqa: E402

SPIN_WEIGHTS = range(0, 11)
B_WEIGHTS = range(0, 17)
ORACLE_MAX = 7


def main():
    spin, b = {}, {}
    for n in SPIN_WEIGHTS:
        spin[n] = {cell: checks.poly_from_json(spin_kostka(*cell).to_json()) for cell in table_cells(n)}
    for n in B_WEIGHTS:
        b[n] = {cell: b_coeff(*cell) for cell in table_cells(n)}

    for n, rows in verified_tables().items():
        for mu, cols in rows.items():
            for xi, want in cols.items():
                if spin[n][(xi, mu)] != checks.poly_from_json(want.to_json()):
                    raise SystemExit("K- disagrees with the published table at %r %r" % (xi, mu))
    for n in range(ORACLE_MAX + 1):
        for cell in table_cells(n):
            if spin[n][cell] != checks.poly_from_json(oracle_spin_kostka(*cell).to_json()):
                raise SystemExit("K- disagrees with the oracle at %r" % (cell,))
            if b[n][cell] != oracle_b(*cell):
                raise SystemExit("b disagrees with the oracle at %r" % (cell,))

    data = {
        "spin": {
            str(n): [[list(xi), list(mu), sorted(v.items())] for (xi, mu), v in cells.items() if v]
            for n, cells in spin.items()
        },
        "b": {
            str(n): [[list(xi), list(lam), v] for (xi, lam), v in cells.items() if v]
            for n, cells in b.items()
        },
    }
    text = json.dumps(data, separators=(",", ":"), sort_keys=True)
    with open(checks.REFERENCE_PATH, "wb") as fh:
        fh.write(gzip.compress(text.encode(), mtime=0))
    ref = checks.load_reference()
    bad = [
        (cell, failed)
        for n in SPIN_WEIGHTS
        for cell in table_cells(n)
        for failed in [checks.check_spin(ref, *cell, spin[n][cell])]
        if failed
    ]
    bad += [
        (cell, failed)
        for n in B_WEIGHTS
        for cell in table_cells(n)
        for failed in [checks.check_b(ref, *cell, b[n][cell])]
        if failed
    ]
    if bad:
        os.remove(checks.REFERENCE_PATH)
        raise SystemExit("structural checks failed: %r" % bad[:10])
    print("wrote %s" % checks.REFERENCE_PATH)


if __name__ == "__main__":
    main()
