"""Tests of the benchmark itself: its checks catch a wrong output, its traced
counts repeat exactly, and it refuses to run without the library.

Passes here run through the real worker at small sizes:
    python -m pytest perfbench -q
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "table-spin": {"n": 7},
    "b-table": {"n": 10},
    "query-mix": dict(
        workloads.WORKLOADS["query-mix"], spin_weights=[5, 7], b_weights=[10, 11], hook_weights=[4, 6]
    ),
    "oracle-verify": {"oracle_n": 4, "via_bk_n": 3, "relations_degree": 1, "relations_seed": 0},
}

DETERMINISTIC = (
    "polynomial.laurent_term_products",
    "engine.htilde_terms",
    "straighten.calls",
    "partitions.vertical_strip_candidates",
    "oracle.apply_component_calls",
)


@pytest.fixture(scope="module")
def ref():
    return checks.load_reference()


def _perturb_poly(data):
    poly = checks.poly_from_json(data)
    poly[0] = poly.get(0, 0) + 1
    return {str(e): c for e, c in poly.items()}


def _perturb(workload, inputs, result):
    outputs = result["outputs"]
    if workload == "table-spin":
        outputs[0][2] = _perturb_poly(outputs[0][2])
    elif workload == "b-table":
        xi = outputs[0][0]
        outputs[0][2] = {"0": checks.poly_from_json(outputs[0][2]).get(0, 0) + 2 ** len(xi)}
    elif workload == "query-mix":
        # change only the second answer to a repeated query
        queries = inputs["queries"]
        i = next(i for i, q in enumerate(queries) if q in queries[:i] and q[0] == "spin")
        outputs[i] = _perturb_poly(outputs[i])
    else:
        outputs["oracle"][-1] = _perturb_poly(outputs["oracle"][-1])


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_fault_injection_is_caught(workload, ref):
    inputs = workloads.make_inputs(workload, 3, SMALL[workload])
    sample = run.oracle_sample(3, inputs) if workload == "query-mix" else None
    result = run.run_worker(workload, 3, SMALL[workload], False)
    attempted, failures = checks.check_pass(workload, inputs, result, ref, sample)
    assert attempted > 0 and failures == []
    _perturb(workload, inputs, result)
    attempted, failures = checks.check_pass(workload, inputs, result, ref, sample)
    assert len(failures) / attempted > 0
    if workload == "query-mix":
        assert any("repeat_differs" in failed for _, failed in failures)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_counts_repeat_exactly(workload):
    first = run.run_worker(workload, 7, SMALL[workload], True)["trace"]
    second = run.run_worker(workload, 7, SMALL[workload], True)["trace"]
    counts = [name for name, unit in run.PER_LAYER_UNITS.items() if unit == "count" and name in first]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert any(first[name] > 0 for name in DETERMINISTIC)


def test_stream_is_seeded():
    p = workloads.WORKLOADS["query-mix"]
    a, b = workloads.query_stream(11, p), workloads.query_stream(11, p)
    assert a == b and a != workloads.query_stream(12, p)
    props = workloads.properties("query-mix", {"queries": a})
    assert abs(props["repeat_share"] - p["repeat_share"]) < 0.01


def test_two_row_closed_form_matches_library():
    from spinkostka.schur import count_Ns

    for n in range(1, 11):
        for lam in workloads.partitions(n):
            for s in range(-1, n + 1):
                assert checks.count_hook_strips(lam, s) == count_Ns(lam, s, brute_force=True), (lam, s)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-spin", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
