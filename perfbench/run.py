"""spinkostka benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
Each pass of the workload runs in a fresh worker process (worker.py), one at a
time, on inputs drawn from its own seed (derived from --seed), and passes
repeat until --seconds have gone by (at least MIN_PASSES).  Every output of every pass is checked here, outside the timed
region.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where the metrics are the
end-to-end ones (medians over the passes, latency percentiles over all
queries of all passes) or, with --trace 1, the per-layer ones from the
traced passes, which alternate with untraced passes so that the tracing
overhead can be reported.

Times are reported at a reference CPU speed: each pass's measured times are
multiplied by CALIBRATION_REF_S over the time a fixed calibration loop took
in the same worker, averaged over a run of the loop just before the library
is imported and one just after the pass.  Shared machines drift in speed by
tens of percent within seconds and over minutes; the drift scales the pass
and the loop alike and cancels in the product.  The measured times are
printed beside them.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
CALIBRATION_REF_S = 0.002
WORKER_TIMEOUT_S = 120
ORACLE_SAMPLE = 12
ORACLE_SAMPLE_MAX_WEIGHT = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}

PER_LAYER_UNITS = {
    "polynomial.laurent_mul_calls": "count",
    "polynomial.laurent_term_products": "count",
    "polynomial.laurent_mul_self_s": "s",
    "engine.spin_kostka_calls": "count",
    "engine.spin_kostka_self_s": "s",
    "engine.htilde_expand_calls": "count",
    "engine.htilde_terms": "count",
    "engine.htilde_expand_self_s": "s",
    "engine.fast_path_calls": "count",
    "engine.kostka_hook_calls": "count",
    "straighten.calls": "count",
    "straighten.distinct_words": "count",
    "straighten.hit_ratio": "frac",
    "straighten.self_s": "s",
    "partitions.weak_compositions_yielded": "count",
    "partitions.vertical_strip_candidates": "count",
    "partitions.vertical_strip_yield_ratio": "frac",
    "partitions.self_s": "s",
    "schur.b_coeff_calls": "count",
    "schur.b_cache_hit_ratio": "frac",
    "schur.self_s": "s",
    "oracle.apply_component_calls": "count",
    "oracle.pexp_terms_out": "count",
    "oracle.inner_calls": "count",
    "oracle.basis_cache_hit_ratio": "frac",
    "oracle.self_s": "s",
    "polynomial.ratfunc_ops": "count",
    "polynomial.qpoly_gcd_calls": "count",
    "polynomial.ratfunc_self_s": "s",
    "cli.build_table_s": "s",
    "cli.render_table_s": "s",
    "workload.repeat_share": "frac",
    "trace.overhead_s": "s",
}


def run_worker(workload, seed, params, trace):
    job = {"workload": workload, "seed": seed, "params": params, "trace": trace}
    job["spawned_at"] = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError("worker failed (exit %d):\n%s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout)


def oracle_sample(seed, inputs):
    """Oracle values for a seeded sample of the distinct K- queries of weight
    <= ORACLE_SAMPLE_MAX_WEIGHT."""
    from spinkostka.oracle import oracle_spin_kostka

    cells = sorted(
        {args for kind, args in inputs["queries"] if kind == "spin" and sum(args[0]) <= ORACLE_SAMPLE_MAX_WEIGHT}
    )
    sample = random.Random(seed).sample(cells, min(ORACLE_SAMPLE, len(cells)))
    return {cell: checks.poly_from_json(oracle_spin_kostka(*cell).to_json()) for cell in sample}


def pass_seed(seed, i):
    """Seed of the i-th pass of a run.  Passes of one run draw different
    inputs, so that a run's percentiles pool several query orders."""
    return "%d.%d" % (seed, i)


def run_passes(workload, seed, params, seconds, trace, check):
    """Passes until `seconds` have gone by; with trace, untraced and traced
    passes alternate."""
    passes = []
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        traced = trace and len(passes) % 2 == 1
        result = run_worker(workload, pass_seed(seed, len(passes)), params, traced)
        result["traced"] = traced
        result["attempted"], result["failures"] = check(result, pass_seed(seed, len(passes)))
        passes.append(result)
        n_traced = sum(p["traced"] for p in passes)
        enough = len(passes) - n_traced >= (1 if trace else MIN_PASSES) and n_traced >= (1 if trace else 0)
        if enough and time.monotonic() + (time.monotonic() - started) > deadline:
            return passes


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed(result):
    """Factor that scales a pass's measured times to the reference speed."""
    return CALIBRATION_REF_S / result["calibration_s"]


def end_to_end(passes, attempted, failed):
    latencies = [x * speed(p) for p in passes for x in p["latencies"]]
    wall = statistics.median(p["wall_s"] * speed(p) for p in passes)
    return {
        "setup_s": statistics.median(p["setup_s"] * speed(p) for p in passes),
        "wall_s": wall,
        "queries_per_s": len(passes[0]["latencies"]) / wall,
        "query_p50_ms": 1e3 * percentile(latencies, 50),
        "query_p99_ms": 1e3 * percentile(latencies, 99),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "pass_frac": 1 - failed / attempted,
    }


def per_layer(passes, props):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    # counts and ratios from the first traced pass, times as medians
    out = {
        name: statistics.median(p["trace"][name] * speed(p) for p in traced) if PER_LAYER_UNITS[name] == "s" else value
        for name, value in traced[0]["trace"].items()
    }
    out["cli.build_table_s"] = statistics.median(p.get("build_s", 0.0) * speed(p) for p in traced)
    out["cli.render_table_s"] = statistics.median(p.get("render_s", 0.0) * speed(p) for p in traced)
    out["workload.repeat_share"] = props["repeat_share"]
    out["trace.overhead_s"] = statistics.median(p["wall_s"] * speed(p) for p in traced) - statistics.median(
        p["wall_s"] * speed(p) for p in plain
    )
    if traced[0]["trace_missing"]:
        print("warning: tracer targets not found: %s" % ", ".join(traced[0]["trace_missing"]), file=sys.stderr)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="spinkostka benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spinkostka", "__init__.py")):
        print("error: %s/spinkostka not found; run from a checkout of the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    params = workloads.WORKLOADS[args.workload]
    first = workloads.make_inputs(args.workload, pass_seed(args.seed, 0), params)
    props = workloads.properties(args.workload, first)
    ref = checks.load_reference()
    sample = oracle_sample(args.seed, first) if args.workload == "query-mix" else None

    def check(result, seed):
        inputs = workloads.make_inputs(args.workload, seed, params)
        return checks.check_pass(args.workload, inputs, result, ref, sample)

    passes = run_passes(args.workload, args.seed, params, args.seconds, bool(args.trace), check)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for output, failed in failures[:10]:
        print("FAILED %r: %s" % (output, ", ".join(failed)), file=sys.stderr)

    if args.trace:
        metrics, units = per_layer(passes, props), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(passes, attempted, len(failures)), END_TO_END_UNITS
    latencies = sum(len(p["latencies"]) for p in passes if not p["traced"])
    print("workload %s seed %d: %d passes (%d traced), %d query latencies"
          % (args.workload, args.seed, len(passes), sum(p["traced"] for p in passes), latencies))
    print("properties of the first pass %s" % json.dumps(props, sort_keys=True))
    plain = [p for p in passes if not p["traced"]]
    print("measured medians: wall_s %.6g s, setup_s %.6g s; calibration %.6g s (reference %g s)" % (
        statistics.median(p["wall_s"] for p in plain),
        statistics.median(p["setup_s"] for p in plain),
        statistics.median(p["calibration_s"] for p in passes),
        CALIBRATION_REF_S,
    ))
    print("failed_frac %.6f (%d of %d outputs)" % (len(failures) / attempted, len(failures), attempted))
    for name in units:
        print("%-40s %14.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
