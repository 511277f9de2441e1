"""One pass of a workload, in a fresh process.

Reads a job {"workload", "seed", "params", "trace", "spawned_at"} as JSON on
stdin, imports the library from the checkout's ``src``, builds the pass's
inputs from the seed, runs the timed work and prints one JSON object with the
timings and the outputs.  A fixed calibration loop is timed before the
library is imported and again after the pass.  The outputs are checked by the
parent, outside the timed region.  With "trace" set, the tracer wraps the
library for the pass.
"""

import gc
import json
import os
import resource
import sys
import time
from fractions import Fraction
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

clock = time.perf_counter


def calibrate(rounds=12):
    """Mean seconds per round of a fixed mix of the kinds of work the library
    does: dict and tuple updates, row-subset enumeration, and Fraction
    arithmetic.  The mean, not the median, because the machine's speed can
    flip between two levels within a pass.  The collector is off: its cost
    would grow with the heap the pass leaves behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        for _ in range(rounds):
            counts = {}
            for i in range(7000):
                key = (i % 97, i % 89)
                counts[key] = counts.get(key, 0) + i
            lam = (5, 4, 4, 3, 2, 2, 1, 1)
            for k in range(1, 5):
                for rows in combinations(range(len(lam)), k):
                    vec = tuple(part - (i in rows) for i, part in enumerate(lam))
                    if all(a >= b for a, b in zip(vec, vec[1:])):
                        counts[vec] = k
            x = Fraction(1, 3)
            for i in range(150):
                x = x * Fraction(i + 2, i + 1) - Fraction(1, i + 7)
        return (clock() - start) / rounds
    finally:
        if enabled:
            gc.enable()


def peak_rss_mb():
    """Peak resident set of this process, or of a child it waited for.  VmHWM
    counts only the memory mapped since exec; ru_maxrss would also count the
    parent's memory, which a child shares between fork and exec."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, children) / 1024


def run_table(inputs, mode):
    """cli.build_table at --threads 1, then render_table; each cell is one query,
    timed at the name build_table looks up."""
    from spinkostka import cli

    name = "spin_kostka" if mode == "spin" else "b_coeff"
    compute = getattr(cli, name)
    latencies = []

    def timed_cell(*args):
        start = clock()
        out = compute(*args)
        latencies.append(clock() - start)
        return out

    setattr(cli, name, timed_cell)
    try:
        start = clock()
        table = cli.build_table(inputs["n"], mode, threads=1)
        built = clock()
        text = cli.render_table(table, inputs["n"], "md", mode)
        done = clock()
    finally:
        setattr(cli, name, compute)
    peak = peak_rss_mb()
    lines = text.splitlines()
    return {
        "wall_s": done - start,
        "peak_rss_mb": peak,
        "build_s": built - start,
        "render_s": done - built,
        "latencies": latencies,
        "outputs": [[xi, mu, value.to_json()] for mu, row in table.items() for xi, value in row.items()],
        "render": [len(lines), lines[0].count("|") - 1 if lines else 0],
    }


def run_queries(inputs):
    """The query stream, one query at a time, through the package-level API."""
    import spinkostka

    api = {"spin": spinkostka.spin_kostka, "b": spinkostka.b_coeff, "hook": spinkostka.kostka_hook}
    answers, latencies = [], []
    start = clock()
    for kind, args in inputs["queries"]:
        fn = api[kind]
        t = clock()
        answers.append(fn(*args))
        latencies.append(clock() - t)
    wall = clock() - start
    peak = peak_rss_mb()
    outputs = [a if kind == "b" else a.to_json() for (kind, _), a in zip(inputs["queries"], answers)]
    return {"wall_s": wall, "peak_rss_mb": peak, "latencies": latencies, "outputs": outputs}


def run_oracle(inputs):
    """Oracle K- on every cell of one weight, the b*K path on another, and the
    operator relations."""
    from spinkostka import oracle

    latencies, oracle_values, via_bk_values = [], [], []
    start = clock()
    for fn, cells, values in (
        (oracle.oracle_spin_kostka, inputs["oracle_cells"], oracle_values),
        (oracle.oracle_spin_via_bK, inputs["via_bk_cells"], via_bk_values),
    ):
        for cell in cells:
            t = clock()
            values.append(fn(*cell))
            latencies.append(clock() - t)
    t = clock()
    report = oracle.verify_relations(**inputs["relations"])
    latencies.append(clock() - t)
    wall = clock() - start
    return {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "latencies": latencies,
        "outputs": {
            "oracle": [v.to_json() for v in oracle_values],
            "via_bk": [v.to_json() for v in via_bk_values],
            "relations": {"ok": report.ok, "results": [[r.name, r.passed] for r in report.results]},
        },
    }


def main():
    job = json.load(sys.stdin)
    started = time.monotonic()
    calibration_before = calibrate()
    # set-up runs from the spawn to here, less the calibration loop
    setup_from = job["spawned_at"] + time.monotonic() - started
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import spinkostka.cli  # noqa: F401  (the entry point a user runs imports every layer)
    import workloads

    inputs = workloads.make_inputs(job["workload"], job["seed"], job["params"])
    setup_s = time.monotonic() - setup_from

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if job["workload"] == "table-spin":
            result = run_table(inputs, "spin")
        elif job["workload"] == "b-table":
            result = run_table(inputs, "b")
        elif job["workload"] == "query-mix":
            result = run_queries(inputs)
        else:
            result = run_oracle(inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["setup_s"] = setup_s
    result["calibration_s"] = (calibration_before + calibrate()) / 2
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["trace_missing"] = tracer.missing
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
