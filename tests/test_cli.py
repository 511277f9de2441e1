"""Command-line interface: parsing, formats, golden tables, exit codes."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import spinkostka
from spinkostka import cli, goldens, schur
from spinkostka.cli import (
    build_table,
    format_partition,
    main,
    partition_type,
    render_table,
)
from spinkostka.goldens import KNOWN_DISCREPANCIES, published_tables, verified_tables
from spinkostka.partitions import partitions
from spinkostka.polynomial import LaurentPoly


parse_partition = partition_type("lambda")


def test_parse_partition():
    assert parse_partition("4,3,1") == (4, 3, 1)
    assert parse_partition("-") == ()
    assert parse_partition("") == ()
    assert parse_partition(" 2,1 ") == (2, 1)
    with pytest.raises(argparse.ArgumentTypeError, match="^lambda must be a partition"):
        parse_partition("1,3")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_partition("a,b")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_partition("2.0,1")
    assert partition_type("xi", strict=True)("3,1") == (3, 1)
    with pytest.raises(argparse.ArgumentTypeError, match="^xi must be a strict partition"):
        partition_type("xi", strict=True)("2,2")


def test_format_partition_roundtrip():
    for n in range(0, 7):
        for lam in partitions(n):
            assert parse_partition(format_partition(lam)) == lam


def test_compute_text(capsys):
    assert main(["compute", "--xi", "3,1", "--mu", "2,2"]) == 0
    assert capsys.readouterr().out == "4*t + 4\n"


def test_compute_json(capsys):
    assert main(["compute", "--xi", "3,1", "--mu", "2,2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"xi": [3, 1], "mu": [2, 2], "poly": {"0": 4, "1": 4}}


def test_compute_oracle_agrees(capsys):
    main(["compute", "--xi", "4,2", "--mu", "2,2,1,1"])
    plain = capsys.readouterr().out
    main(["compute", "--xi", "4,2", "--mu", "2,2,1,1", "--oracle"])
    assert capsys.readouterr().out == plain


def test_compute_oracle_has_no_weight_cap(capsys):
    """compute --oracle runs at any weight: the oracle has no slot."""
    assert main(["compute", "--xi", "13", "--mu", "13", "--oracle"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_b_and_g2(capsys):
    assert main(["b", "--xi", "4,3", "--lambda", "2,2,2,1"]) == 0
    assert capsys.readouterr().out == "4\n"
    assert main(["g2", "--r", "2", "--lambda", "2,1,1"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_g2_prints_the_closed_form_only(capsys):
    """g2 prints g_square.  The alternating-sum cross-check, which criterion 7
    and the schur tests compare with it, lives in ``tests/crosscheck.py``, so
    the library cannot run it."""
    for module in (spinkostka, cli, schur):
        assert not hasattr(module, "g_square_alternating_sum"), module
    assert main(["g2", "--r", "2", "--lambda", "2,1,1"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["g2", "--r", "3", "--lambda", "2,1,1,1,1"]) == 0
    assert capsys.readouterr().out == "-1\n"


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--xi", "2,2", "--mu", "1,1,1,1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--xi", "3,1", "--mu", "2,1"])  # weight mismatch
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["g2", "--r", "2", "--lambda", "2,1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["b", "--xi", "3,1", "--lambda", "2,1"])  # weight mismatch
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["b", "--xi", "2,2", "--lambda", "2,1,1"])  # xi not strict
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--xi", "11,8,5,3,1", "--mu", "28"])  # past the slot
    assert exc.value.code == 2
    assert "past the 64-bit slot" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--xi", "20000", "--mu", "20000"])  # 2^n has over 4300 digits
    assert exc.value.code == 2
    assert "at least 20001 bits, past the 64-bit slot" in capsys.readouterr().err
    memo = tmp_path / "memo.json"
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "4", "--cache", str(memo)])  # no such option
    assert exc.value.code == 2
    assert "--cache" in capsys.readouterr().err
    assert not memo.exists()
    with pytest.raises(SystemExit) as exc:
        main(["g2", "--r", "0", "--lambda", "1"])
    assert exc.value.code == 2
    assert "error: r must be >= 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "0"])
    assert exc.value.code == 2
    assert "error: n must be >= 1" in capsys.readouterr().err


def test_table_past_the_slot_exits_2(tmp_path, capsys):
    """table refuses a weight with a cell past the engine's slot as compute
    does: exit 2 with the engine's message, which names xi, and no --out
    file."""
    path = tmp_path / "t28.md"
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "28", "--out", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "xi=(" in err and "past the 64-bit slot" in err, err
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "relations", "--max-degree", "-3"],
        ["--suite", "oracle", "--max-n", "-2"],
        ["--suite", "properties", "--max-n", "-2"],
        ["--suite", "oracle", "--max-n", "0"],
    ],
)
def test_verify_rejects_empty_ranges(argv, capsys):
    """A bound that leaves a suite nothing to check is a usage error, not
    a PASS."""
    with pytest.raises(SystemExit) as exc:
        main(["verify"] + argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "must be >=" in captured.err


def test_table_matches_goldens_modulo_known_misprint():
    """Generated tables reproduce every published cell (one cell is a
    documented misprint in the source; the generated value is the
    independently cross-validated one)."""
    for n in range(2, 7):
        table = build_table(n)
        for mu, cells in verified_tables()[n].items():
            for xi, want in cells.items():
                assert table[mu][xi] == want, (n, mu, xi)
    assert ((6, (2, 1, 1, 1, 1), (5, 1))) in KNOWN_DISCREPANCIES


def test_table_csv_cell():
    table = build_table(6)
    # ((3,2,1), mu=(2,2,1,1)) expands 8t(1+t)^2
    assert table[(2, 2, 1, 1)][(3, 2, 1)] == LaurentPoly({3: 8, 2: 16, 1: 8})
    text = render_table(table, 6, "csv")
    assert '"8*t^3 + 16*t^2 + 8*t"' in text


def test_table_md_layout(capsys):
    assert main(["table", "--n", "3", "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "| mu \\ xi | 3 | 2,1 |\n"
        "|---|---|---|\n"
        "| 3 | 2 | 0 |\n"
        "| 2,1 | 2*t + 2 | 4 |\n"
        "| 1,1,1 | 2*t^3 + 2*t^2 + 2*t + 2 | 4*t^2 + 4*t |\n"
    )


def test_table_json_structure(capsys):
    assert main(["table", "--n", "4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 4
    assert data["columns"] == [[4], [3, 1]]
    rows = {tuple(r["mu"]): r["cells"] for r in data["rows"]}
    assert rows[(2, 2)][1] == {"0": 4, "1": 4}


def test_table_serial_only(tmp_path):
    """Tables are built by one serial loop: there is no --threads option,
    and build_table accepts only threads=1."""
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "5", "--threads", "2"])
    assert exc.value.code == 2
    with pytest.raises(ValueError, match="threads must be 1"):
        build_table(5, threads=2)
    assert build_table(5, threads=1) == build_table(5)


def test_table_out_file(tmp_path, capsys):
    path = tmp_path / "t4.csv"
    main(["table", "--n", "4", "--format", "csv", "--out", str(path)])
    assert capsys.readouterr().out == ""
    main(["table", "--n", "4", "--format", "csv"])
    assert path.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_table_unwritable_out_is_a_usage_error(tmp_path, capsys, where):
    """An --out path that cannot be opened exits 2 naming the path, not 1
    (a failed verification) with a traceback."""
    path = tmp_path if where == "directory" else tmp_path / "missing" / "x.md"
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "3", "--out", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write --out %s: " % path in captured.err
    assert list(tmp_path.iterdir()) == []


def test_table_rejects_an_unknown_mode():
    """Only "spin" and "b" are table modes: another is a ValueError naming
    it, from build_table before any cell and from render_table."""
    with pytest.raises(ValueError, match="^unknown table mode 'bogus'$"):
        build_table(3, "bogus")
    table = build_table(3, "b")
    for fmt in ("md", "csv", "json"):
        with pytest.raises(ValueError, match="^unknown table mode 'bogus'$"):
            render_table(table, 3, fmt, "bogus")


def test_verify_tables_suite(capsys):
    assert main(["verify", "--suite", "tables"]) == 0
    out = capsys.readouterr().out
    assert "KNOWN-DISCREPANT" in out
    assert "FAIL cell" not in out


def test_verify_tables_rejects_the_misprinted_value(capsys, monkeypatch):
    """A documented cell must take its verified value: an engine that
    returned the printed misprint fails the suite."""
    misprints = {
        (mu, xi): published_tables()[n][mu][xi] for n, mu, xi in KNOWN_DISCREPANCIES
    }
    real = cli.spin_kostka
    monkeypatch.setattr(
        cli, "spin_kostka", lambda xi, mu: misprints.get((mu, xi)) or real(xi, mu)
    )
    assert main(["verify", "--suite", "tables"]) == 1
    out = capsys.readouterr().out
    assert "FAIL cell n=6 xi=5,1 mu=2,1,1,1,1" in out
    assert "tables: FAIL" in out


def test_verify_tables_rejects_stale_entries(capsys, monkeypatch):
    """A documented discrepancy on a cell that matches the print, or on a
    cell that is not tabulated, fails the suite."""
    four = LaurentPoly.const(4)
    entry = {"published": lambda: four, "verified": lambda: four}
    stale = dict(KNOWN_DISCREPANCIES)
    stale[(6, (5, 1), (5, 1))] = entry
    stale[(7, (7,), (7,))] = entry
    monkeypatch.setattr(goldens, "KNOWN_DISCREPANCIES", stale)
    assert main(["verify", "--suite", "tables"]) == 1
    out = capsys.readouterr().out
    assert "FAIL documented cell n=6 xi=5,1 mu=5,1" in out
    assert "FAIL documented cell n=7 xi=7 mu=7" in out


def test_verify_oracle_suite(capsys):
    assert main(["verify", "--suite", "oracle", "--max-n", "4"]) == 0
    assert "oracle: PASS" in capsys.readouterr().out


def test_verify_properties_suite(capsys):
    assert main(["verify", "--suite", "properties", "--max-n", "5"]) == 0
    assert "properties: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("max_n", [1, 2])
def test_verify_properties_checks_stability_at_small_max_n(monkeypatch, capsys, max_n):
    """Stability covers weight 1 at every --max-n: a value that breaks only
    stability, at the grown cell (3), (3), fails the suite."""
    real = cli.spin_kostka

    def broken(xi, mu):
        return LaurentPoly.const(4) if (xi, mu) == ((3,), (3,)) else real(xi, mu)

    monkeypatch.setattr(cli, "spin_kostka", broken)
    assert main(["verify", "--suite", "properties", "--max-n", str(max_n)]) == 1
    out = capsys.readouterr().out
    assert "FAIL stability r=2: xi=(1,) mu=(1,)" in out
    assert "properties: FAIL" in out


def test_verify_json_lists_each_relation_with_its_time(capsys):
    assert main(["verify", "--suite", "relations", "--max-degree", "1"]) == 0
    text = capsys.readouterr().out
    assert main(["verify", "--suite", "relations", "--max-degree", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    (suite,) = data["suites"]
    assert suite["suite"] == "relations" and suite["ok"] is True
    relations = suite["relations"]
    assert [set(r) for r in relations] == [{"name", "passed", "detail", "seconds"}] * 17
    assert all(r["passed"] and r["seconds"] >= 0 for r in relations)
    # the text output is the relations' summary, line for line
    summary = ["PASS %s" % r["name"] for r in relations]
    assert text.splitlines() == ["== suite: relations =="] + summary
    assert suite["output"] == summary


def test_verify_json_reports_a_failing_suite(capsys, monkeypatch):
    misprints = {
        (mu, xi): published_tables()[n][mu][xi] for n, mu, xi in KNOWN_DISCREPANCIES
    }
    real = cli.spin_kostka
    monkeypatch.setattr(
        cli, "spin_kostka", lambda xi, mu: misprints.get((mu, xi)) or real(xi, mu)
    )
    assert main(["verify", "--suite", "tables", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    (suite,) = data["suites"]
    assert suite["suite"] == "tables" and suite["ok"] is False
    assert any(line.startswith("FAIL cell n=6 xi=5,1 mu=2,1,1,1,1") for line in suite["output"])
    assert suite["output"][-1] == "tables: FAIL"


def _modules_added(argv):
    """The stdout of ``main(argv)`` in a fresh process that imports the CLI,
    and the modules it loads beyond those the interpreter loaded at start."""
    script = (
        "import sys\n"
        "start = set(sys.modules)\n"
        "import spinkostka.cli\n"
        "spinkostka.cli.main(%r)\n"
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - start)))\n" % (argv,)
    )
    src = os.path.dirname(os.path.dirname(spinkostka.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout, set(proc.stderr.split())


def test_table_run_loads_only_the_layers_it_runs():
    """A fresh process that imports the CLI and prints a table loads none of
    the oracle, the published tables and the invariants, and adds neither
    ``dataclasses`` nor ``json`` to what the interpreter loaded at start; one
    that computes a cell with the oracle loads the oracle but not
    ``dataclasses``."""
    out, added = _modules_added(["table", "--n", "4"])
    assert "spinkostka.engine" in added and "| mu \\ xi |" in out
    assert not added & {
        "spinkostka.oracle", "spinkostka.goldens", "spinkostka.invariants", "dataclasses", "json"
    }
    out, added = _modules_added(["compute", "--xi", "3,1", "--mu", "2,1,1", "--oracle"])
    assert "spinkostka.oracle" in added and out.strip()
    assert "dataclasses" not in added
