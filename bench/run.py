"""chernlab benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload schwarz_grid --seed 1 --seconds 50 --trace 0

The package is imported from ``src/`` next to this directory.  The load is a
closed loop with one client: one ``run_scenario(..., parallel=False)`` call
at a time in this process, with BLAS held to one thread.  One warm-up call is
made and not timed; calls then repeat until ``--seconds`` have passed.  Every
report is checked against known values (``checks.py``).

``--trace 0`` gives the end-to-end metrics:

* ``scenario_s``: median wall seconds of one ``run_scenario`` call;
* ``setup_s``: median over fresh interpreters of the seconds to import
  chernlab and build the workload's metrics and maps (``setup_probe.py``);
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced calls with calls traced by ``tracing.py`` and
gives the per-layer metrics of one call: counts from the traced calls, which
must agree exactly, and the median of each time.  ``trace.overhead_s`` is the
traced minus the untraced median call time.  The run also checks that the
evaluator counter reproduces the known metric-evaluation counts of
``chern_curvature``.

The ratio of tasks ending in error and the ratio of failed correctness checks
are printed by name; the last line of standard output is one JSON object with
``correct``, ``attempted`` (checks made: one per task run, plus the count
checks of a traced run), ``failed`` (checks failed) and
``metrics``.  A record of the run and its conditions goes to ``.bench_out/``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# one BLAS thread, set before numpy loads; the set-up probes inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 15
MIN_CALLS = 3  # timed calls per untraced run, even past --seconds
MIN_PAIRS = 2  # untraced/traced call pairs per traced run, so counts can be compared
DEMO_REPORT_SEED = 7  # the seed shipped in scenarios/demo.json

# metric evaluations of one chern_curvature call on complex_hyperbolic(n)
CURVATURE_EVALS = {1: 41, 2: 193, 3: 457, 4: 833}

END_TO_END_UNITS = {"scenario_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


@dataclass
class Call:
    report: object
    seconds: float
    text: str
    budget_exhausted: int


def run_call(doc, seed, tracer=None):
    """One run_scenario call, with SearchBudgetExhausted warnings counted, not
    shown; other warnings are shown as usual."""
    from chernlab import scenario
    from chernlab.errors import SearchBudgetExhausted

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SearchBudgetExhausted)
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = perf_counter()
            report = scenario.run_scenario(doc, seed=seed, parallel=False)
            seconds = perf_counter() - start
            text = report.to_json()
    budget = 0
    for w in caught:
        if issubclass(w.category, SearchBudgetExhausted):
            budget += 1
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return Call(report, seconds, text, budget)


def setup_seconds(doc):
    """Median over fresh interpreters of import plus metric and map construction."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py")],
            input=json.dumps(doc),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def curvature_eval_counts():
    """Metric evaluations that the tracer counts in chern_curvature, n = 1..4."""
    from chernlab import curvature, metrics

    counts = {}
    for n in CURVATURE_EVALS:
        metric = metrics.catalog_metric("complex_hyperbolic", (n,))
        tracer = tracing.Tracer()
        with tracer.installed():
            curvature.chern_curvature(metric, np.zeros(n, dtype=complex))
        counts[n] = tracer.span_stats()["metrics.metric_eval"]["calls"]
    return counts


def conditions(seed):
    import scipy

    def blas(lib):
        info = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure(doc, seed, seconds, traced):
    """Timed calls after the warm-up: untraced calls only, or untraced and
    traced calls in alternation.  A new round starts only while a round of
    average length still ends within ``seconds``, once the minimum is made."""
    plain, traced_calls, layers, tracer = [], [], [], None
    start = perf_counter()

    def another_round(rounds, minimum):
        elapsed = perf_counter() - start
        return rounds < minimum or elapsed * (rounds + 1) / rounds <= seconds

    if not traced:
        while another_round(len(plain), MIN_CALLS):
            plain.append(run_call(doc, seed))
        return plain, traced_calls, layers, tracer
    while another_round(len(traced_calls), MIN_PAIRS):
        plain.append(run_call(doc, seed))
        tracer = tracing.Tracer()
        call = run_call(doc, seed, tracer)
        traced_calls.append(call)
        layers.append(tracing.layer_metrics(
            tracer, call.budget_exhausted,
            workloads.grid_points(doc), workloads.verified_points(doc)))
    return plain, traced_calls, layers, tracer


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "chernlab" / "__init__.py").is_file():
        print(f"bench: no chernlab package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "demo" and not (ROOT / "scenarios" / "demo.json").is_file():
        print(f"bench: no scenarios/demo.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chernlab

    if Path(chernlab.__file__).resolve().parent != (SRC / "chernlab").resolve():
        print(f"bench: imported chernlab from {chernlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    try:
        doc, expected = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "trace": args.trace, "conditions": conditions(args.seed)}
    metrics = {}
    if args.trace == 0:
        metrics["setup_s"], record["setup_samples"] = setup_seconds(doc)

    # warm-up, not timed; the demo's is made at the shipped seed to record its report
    warm = run_call(doc, DEMO_REPORT_SEED if args.workload == "demo" else args.seed)
    if args.workload == "demo":
        record["demo_report_sha256_seed7"] = hashlib.sha256(warm.text.encode()).hexdigest()

    plain, traced, layers, tracer = measure(doc, args.seed, args.seconds, args.trace == 1)
    calls = plain + traced
    failures = [
        f"task {index}: {message}"
        for call in calls
        for index, message in enumerate(checks.check_report(call.report, expected))
        if message is not None
    ]
    tasks = sum(len(call.report.tasks) for call in calls)
    errors = sum(entry["status"] == "error" for call in calls for entry in call.report.tasks)
    checked = tasks

    plain_s = statistics.median(call.seconds for call in plain)
    if args.trace == 0:
        metrics["scenario_s"] = plain_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    else:
        metrics, mismatched = tracing.median_metrics(layers)
        metrics["trace.overhead_s"] = statistics.median(call.seconds for call in traced) - plain_s
        counts = curvature_eval_counts()
        record["curvature_eval_counts"] = counts
        checked += 2
        if mismatched:
            failures.append(f"counts differ between traced calls: {', '.join(mismatched)}")
        if counts != CURVATURE_EVALS:
            failures.append(f"chern_curvature evaluation counts {counts}, expected {CURVATURE_EVALS}")
        units = tracing.per_layer_units()
    metrics = {name: metrics[name] for name in units}

    record.update(
        call_seconds=[call.seconds for call in plain],
        traced_call_seconds=[call.seconds for call in traced],
        budget_exhausted=[call.budget_exhausted for call in calls],
        task_ms=calls[-1].report.timing_ms,
        report_sha256=hashlib.sha256(calls[-1].text.encode()).hexdigest(),
        failures=failures,
        metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracing.write_spans(tracer, OUT / f"{stem}-spans.jsonl")

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced calls after one warm-up")
    print("conditions: " + json.dumps(record["conditions"], sort_keys=True))
    if "demo_report_sha256_seed7" in record:
        print(f"demo report sha256 at seed 7 (information): {record['demo_report_sha256_seed7']}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"task_error_ratio = {errors / tasks!r} ratio ({errors}/{tasks} tasks)")
    print(f"wrong_result_ratio = {len(failures) / checked!r} ratio ({len(failures)}/{checked} checks)")
    for message in failures:
        print(f"check failed: {message}")
    print(json.dumps({
        "correct": not failures,
        "attempted": checked,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
