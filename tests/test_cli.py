"""Command-line interface: parsing, formats, golden tables, exit codes."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import spinkostka
from spinkostka import cli, goldens, oracle, schur
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


# SHA-256 of render_table(build_table(n, mode), n, fmt, mode), as the
# formatter of LaurentPoly that tests/crosscheck.py keeps as reference_str
# rendered them
RENDERED_SHA256 = {
    ('spin', 2, 'md'): "87564972745ebf840cb01846a9e825c85931615f4e596c5c821e2ff0c2af8c98",
    ('spin', 2, 'csv'): "907f6c406b4a4e2224e49108e8a067856bb4e22ebf8e8500dacfe3f3d9811406",
    ('spin', 2, 'json'): "be4ed2fb56a56f572c8ce47e674f8c4d5a9dc740be135d08fe357abcf703c026",
    ('spin', 3, 'md'): "2ee82c54cfc02e30db93fd5413389a589005e16d10178f56dad8c6eac5655967",
    ('spin', 3, 'csv'): "4030d7a785a109407880bcb51b40f7241927490e78c2606f04646153268ac2ed",
    ('spin', 3, 'json'): "a5267f0e6e0dfdde488a8e49d1388ffdb034cb2697ce69a6c8759eb2d7ebd6d2",
    ('spin', 4, 'md'): "95de007f62f217711365eda8d9e1c8647ffd67374608d5bc2b2950ae1b8e097b",
    ('spin', 4, 'csv'): "3f3f56af11268d35ea8e93748807ff5978efb2ddf0c65754dfc24af17f89246d",
    ('spin', 4, 'json'): "ea2faa96f051407ae8d5626b84541e060c11e8f0666b782d03ae2244ac468c25",
    ('spin', 5, 'md'): "e1427fa9a0f17257e64bde7fcb3c91b322cf1891a36d3fee84d1aa8e5e3e76e4",
    ('spin', 5, 'csv'): "b22497c0ecfdd0f9fdf6a35f28d58ffd7c188bf0ea925be9453dff94aa0f1c89",
    ('spin', 5, 'json'): "dceee4b573d56cddf06d5017b15fac790495e76c147e63bae70ffa61acce07bf",
    ('spin', 6, 'md'): "80a1102174b8c696df0df3378e7cf6e0057b07a5c4a9f0e9cd81ab8ff9df53c7",
    ('spin', 6, 'csv'): "4bd65bd1f4aead6abf13e5f9e7b2a8a69efa7f10f483f9e263739375f1f339cb",
    ('spin', 6, 'json'): "9f994a401ca73ed3b27a9c32ec4b15f47b1653125cecf132256c835471c27ed7",
    ('spin', 7, 'md'): "ec2582fa2aceb8dce87d438c285ee3beb42654cd65196eadaa43f71e318036d3",
    ('spin', 7, 'csv'): "dc38452a55f1112d1fade5f2128d94dc4046cd0f176ef2f90862bf65dbc1fd54",
    ('spin', 7, 'json'): "51c3f5ad654b98b61a3964815f039ee8dd223621035764c0cf6a75b59f007ad8",
    ('spin', 8, 'md'): "94a6e30b24e5ec4a1936b3ce267b4c5981ee3749a88659a3945901e36645e887",
    ('spin', 8, 'csv'): "025b7a59004877dd4a57a028c8269b1809f046464fe76c4b0d33c935aabe35e9",
    ('spin', 8, 'json'): "149f825a4ff71d17ee62e63e17ff19c579bde5f8333eb93f75a0054446402cca",
    ('spin', 9, 'md'): "e27d4df5c9911377ae01d85a695125d5eb8921f60450ac191435072c813f3872",
    ('spin', 9, 'csv'): "8eeeb40305b9cc46a551ea2b049e7c31842361846e8e5568256e39334e03cba4",
    ('spin', 9, 'json'): "f9067149584c23de395e9517d8b44a331b6d615ac36bfa2184f50e9c408c8f30",
    ('spin', 10, 'md'): "3f62dd426945ff54fb886a99b75a9e6a0b136c36fa7d9aec35aaa890313a2f03",
    ('spin', 10, 'csv'): "59bf980795534190914c65c9508f952c2000b41a887180f0379002ff4c1e2fd9",
    ('spin', 10, 'json'): "65d12eef6020153d3ff76fbbab1deae88700217449f44351c0641d72cf525da5",
    ('b', 2, 'md'): "ca17ae7571fdfb63b6d572e1e94b9199f9637822b2b4abeb55dc37ae60e67552",
    ('b', 2, 'csv'): "9e88dd92b724c8ebe9c1d9f7efb7e9cffd0611654d7e9aa240783a3889146296",
    ('b', 2, 'json'): "ea51873be446c742e6921d733cf9251354a9b7f822b1fb8073569dbeebb7c2d9",
    ('b', 3, 'md'): "c6b0bd520998d8f86cfe4ae1ac10ae5d8e884f1de4f292869eb9051bbacb97f9",
    ('b', 3, 'csv'): "1a187a3144268c63767fe6039f566b5dbb96e7792fdde7633c1eb8d3e7ae8e48",
    ('b', 3, 'json'): "f0aa1e8494a86e9582541d5b42dcc836b486688837bef4bd8b5f76b6bead02f0",
    ('b', 4, 'md'): "0e002dbfb892c89ff4c3dcfa5d7815b79c2a1c45313214b5c0d4f585c585ca34",
    ('b', 4, 'csv'): "9646683c14de23453b26f45fa97b15b34ef2a71bcddfc4f0ac631bc46d4181fc",
    ('b', 4, 'json'): "deb281c2efd65ce6422fd95b08009f45865e1a83b1ba4eb1b2a1aa3af95e9d97",
    ('b', 5, 'md'): "c208516609ce84ec51a07584d4a3844a3145e8717ee40e3b340b975da1492af7",
    ('b', 5, 'csv'): "7f630e58885ad397e6ef04edbdcf6e95f8b45c10455eb94af5907e5da171d065",
    ('b', 5, 'json'): "41f89ec589f9a2de55bb77705cd907ca9d2a5531a89aca9f592e542ddee17970",
    ('b', 6, 'md'): "8beca6ddb4f816b2a3e4d10acf8605ecbb2e714d5653a7aacc9470b18db1f07c",
    ('b', 6, 'csv'): "c198a237d057a027bfcd1ddcbc94f818f4b141d015c82ed945f87c5a70adc4d6",
    ('b', 6, 'json'): "f0b023bbe93fd81a284eb85903737fd2244d3a3f9847bad54b41c0621709c5d8",
    ('b', 7, 'md'): "b1ad7e3e8864e1a92165827164534c1a84371ad7f6ac5c7ef0dab79dc7228c0a",
    ('b', 7, 'csv'): "89d453c74bd61489475916a89c91bdb48822eebcab9a8557c959f83da5cf60f8",
    ('b', 7, 'json'): "27d74b83f31655995f1a8054cc61118c5299c5936e287f01a68d3243b58459ef",
    ('b', 8, 'md'): "b69c75ec39125958decdc05b86c6023ac0bfc768e7edd76c7672bfe83018e862",
    ('b', 8, 'csv'): "463f368637923baaea730f938dfe06025d9c5d43f338935af422003ed4cbe739",
    ('b', 8, 'json'): "093f52d9fd42fe8a4f943de38dba4cf9fafda70d8051c6bc47344955d71a3226",
    ('b', 9, 'md'): "732340ae0722b32d5ae1c144af6a107b553a985fb17fd3835cde286bc845a3ae",
    ('b', 9, 'csv'): "e22f53f64157098cdaaaced7f0ee47980c83ed5bce02e85beb3807c97cb77c4b",
    ('b', 9, 'json'): "a83cb70673da32a32e792468df64804965b01a27957965389dc050031863f64e",
    ('b', 10, 'md'): "56ec2b5e2d39ee2d6e7c6fdbc550c6eb85a976132874334544ebf2640fae34cf",
    ('b', 10, 'csv'): "379eb2216838c598dddd230dc0cf6d5a169bba93b2b7b4ddc56178f6f9f879c2",
    ('b', 10, 'json'): "e4a77a0f4c3f677e2f9b40cdc61b302d0fa6220e6d5af2b5be4dabeaa5125577",
}


@pytest.mark.parametrize("mode", ["spin", "b"])
def test_rendered_tables_are_pinned(mode):
    for n in range(2, 11):
        table = build_table(n, mode)
        for fmt in ("md", "csv", "json"):
            text = render_table(table, n, fmt, mode)
            assert hashlib.sha256(text.encode()).hexdigest() == RENDERED_SHA256[mode, n, fmt], (mode, n, fmt)


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
    and build_table accepts only the int threads=1 (True == 1 is refused,
    as bools are everywhere)."""
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "5", "--threads", "2"])
    assert exc.value.code == 2
    for threads in (2, 0, True, False, 1.0, "1", None):
        with pytest.raises(ValueError, match=r"threads must be 1 \(an int\), got %s$" % re.escape(repr(threads))):
            build_table(5, threads=threads)
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


def test_table_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="^unknown table format 'xml'$"):
        render_table(build_table(2), 2, "xml")


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


def test_verify_oracle_rejects_a_wrong_cell(capsys, monkeypatch):
    """An oracle that differs from the engine on one cell fails the suite
    and names that cell."""
    real = oracle.oracle_spin_kostka
    monkeypatch.setattr(
        oracle,
        "oracle_spin_kostka",
        lambda xi, mu: real(xi, mu) + (1 if (xi, mu) == ((3, 1), (2, 2)) else 0),
    )
    assert main(["verify", "--suite", "oracle", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL oracle mismatch: (3, 1) (2, 2)\n" in out
    assert out.count("FAIL") == 2
    assert "oracle: FAIL" in out


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
