#!/usr/bin/env python3
"""Benchmark of lvmkit, driven from outside the package.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 5        # summary table

Run it from the root of a source checkout; it imports lvmkit from
``src/`` there and exits with code 2 if that is missing.  One process,
one closed-loop client: each op starts when the previous one returns.
Inputs come from ``--seed`` alone (see workloads.py); every op's output is
checked against the outcome its input was built to have.

Each workload builds a fixed pool of inputs from the seed and runs it
round after round for ``--seconds``.  Every op run's time is adjusted to
a reference machine speed (speed.py), and an op's time is the median of
its rounds.

With ``--trace 0`` the end-to-end metrics are reported:

* ``ops_per_s``, ``latency_p50_s``, ``latency_p90_s``: each workload
  mixes op kinds with fixed weights, and its pool holds every kind in
  those proportions.  The metrics are those of the weighted mix over the
  pool's op times (stratified estimates), so a run that ends before or
  after one slow op does not shift them.  ``attempted`` in the result
  counts op runs; the record gives the latency sample count, one per
  input in the pool.
* ``setup_s``: median wall time, adjusted likewise, of fresh
  interpreters importing the modules the workload drives.

With ``--trace 1`` each op runs twice a round, untraced and traced in
alternating order, and the per-layer metrics of tracing.py are reported
per op, with ``trace.ops_ratio`` (traced over untraced ops per second) as
the tracing overhead and the ``import.*`` breakdown of set-up from
``-X importtime``.

The line before the result is a JSON record of the run: machine facts
(BLAS threads, library versions, CPU count), the sample count and error
rate, per-kind counts and mean times, the unadjusted end-to-end figures,
the share of inputs with each input property and the number that raised
each kind of numerical warning, and the metric each per-layer metric
should move.
"""

import os

# One BLAS thread: OpenBLAS's default threading on 2x2 to 6x6 matrices
# costs more CPU than wall time and widens the run-to-run spread.  This
# must happen before numpy loads, here and in every child interpreter.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_HALF = 3  # set-up timings before and after the timed loop
IMPORTTIME_REPEATS = 3

# name -> (unit, end-to-end metric it should move); the direction of every
# metric is in BENCHMARK.json
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
}
PER_LAYER = {
    "config_geometry.self_s": ("s", "analyze ops_per_s, latency_p90_s"),
    "config_geometry.hull_tests_per_config": (
        "count", "analyze ops_per_s, latency_p90_s"),
    "holonomy.self_s": ("s", "none: guard, flat on analyze"),
    "resonance.self_s": ("s", "classify latency_p90_s, latency_p50_s"),
    "resonance.unit_modulus_s": ("s", "classify latency_p90_s"),
    "resonance.generic_s": ("s", "classify latency_p50_s"),
    "family_gluing.self_s": ("s", "classify ops_per_s, verify ops_per_s"),
    "family_gluing.check_condition_s": ("s", "classify ops_per_s"),
    "family_gluing.gluing_s": ("s", "verify ops_per_s"),
    "resonant_group.self_s": ("s", "verify, dynamics ops_per_s"),
    "resonant_group.apply_calls": ("count", "verify, dynamics ops_per_s"),
    "resonant_group.compose_calls": ("count", "verify, dynamics ops_per_s"),
    "rep_variety.self_s": ("s", "verify ops_per_s"),
    "developing.self_s": ("s", "verify ops_per_s"),
    "developing.dev_eval_calls": ("count", "verify ops_per_s"),
    "action.self_s": ("s", "dynamics ops_per_s, latency_p50_s"),
    "cli.self_s": ("s", "analyze, classify, verify latency_p50_s"),
    "import.numpy_s": ("s", "setup_s"),
    "import.scipy_s": ("s", "setup_s"),
    "import.lvmkit_s": ("s", "setup_s"),
    "trace.ops_ratio": ("ratio", "none: tracing overhead"),
    "warnings.near_resonance": ("count", "none: numerical warnings caught"),
    "warnings.rank_ambiguous": ("count", "none: numerical warnings caught"),
    "warnings.case_boundary": ("count", "none: numerical warnings caught"),
}
WARNING_KINDS = (("near_resonance", "near-resonance"),
                 ("rank_ambiguous", "RankAmbiguous"),
                 ("case_boundary", "case boundary"))


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_child(cmd):
    """Wall time of one child interpreter running ``cmd``."""
    start = time.perf_counter()
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


def import_breakdown(modules):
    """Median over fresh interpreters of the summed ``-X importtime`` self
    time of the numpy, scipy and lvmkit modules."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import " + modules]
    runs = {"numpy": [], "scipy": [], "lvmkit": []}
    for _ in range(IMPORTTIME_REPEATS):
        err = subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                             capture_output=True, text=True).stderr
        totals = dict.fromkeys(runs, 0.0)
        for line in err.splitlines():
            # "import time: <self us> | <cumulative us> | <module>"
            fields = line.partition("import time:")[2].split("|")
            top = fields[-1].strip().split(".")[0]
            if top in totals and fields[0].strip().isdigit():
                totals[top] += int(fields[0]) / 1e6
        for name, value in totals.items():
            runs[name].append(value)
    return {"import.%s_s" % name: statistics.median(v)
            for name, v in runs.items()}


def blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def machine_facts():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": blas_threads(),
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def run_op(op):
    """(seconds, result or exception, warnings caught) of one op."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a crash is a failed op, not a failed run
            result = exc
        elapsed = time.perf_counter() - start
    return elapsed, result, [str(w.message) for w in caught]


def run_traced(tracer, op):
    tracer.start_op(op.kind, op.tag)
    tracer.install()
    try:
        elapsed, result, _ = run_op(op)
    finally:
        tracer.uninstall()
    tracer.add_op_time(elapsed)
    return elapsed, result


def passed(op, result):
    if isinstance(result, Exception):
        return False
    try:
        return bool(op.check(result))
    except Exception:
        return False


def weighted_stats(mix, samples):
    """Ops per second and latency quantiles of the weighted op mix, from
    per-kind samples; each sample carries its kind's weight share."""
    total = sum(w for _, w in mix)
    mean = sum(w / total * statistics.fmean(samples[k]) for k, w in mix)
    points = sorted((t, w / total / len(samples[k]))
                    for k, w in mix for t in samples[k])

    def quantile(q):
        acc = 0.0
        for t, weight in points:
            acc += weight
            if acc >= q - 1e-12:
                return t
        return points[-1][0]
    return 1.0 / mean, quantile(0.5), quantile(0.9)


def measure(workload, seed, seconds, trace, cycles=None, make_op=None,
            log=sys.stderr):
    """Run one workload; return (result dict, record dict).

    The workload's pool of inputs is run round after round until the time
    is up.  Each op run's time is adjusted to the reference machine speed
    (speed.py), and each op's time is the median of its rounds.  Traced
    runs time each op twice a round, plain and traced, in alternating
    order.  Set-up is timed before and after the timed loop, so a slow
    phase weighs on its median less.  ``cycles`` and ``make_op`` shrink or
    replace the pool for the self-test.
    """
    spec = workloads.WORKLOADS[workload]
    mix = spec["mix"]
    tracer = Tracer() if trace else None
    probe = SpeedProbe()
    caught = collections.Counter()
    executions = collections.Counter()
    failed = 0
    setup = []
    setup_raw = []
    metrics = {}
    setup_cmd = [sys.executable, "-c", "import " + spec["imports"]]

    def time_setup():
        setup_raw.append(time_child(setup_cmd))
        setup.append(probe.adjust(setup_raw[-1]))

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if trace:
            metrics.update(import_breakdown(spec["imports"]))
        else:
            time_child(setup_cmd)  # untimed: compiles bytecode, fills caches
            for _ in range(SETUP_HALF):
                time_setup()
        # first calls pay for lazy imports and caches users pay once
        for j, kind in enumerate(spec["warmup"]):
            run_op(workloads.make_op(workload, kind, seed, 10 ** 9 + j, j,
                                     workdir))

        pool = workloads.make_pool(workload, seed, workdir, cycles, make_op)
        times = [[] for _ in pool]
        raw = [[] for _ in pool]
        traced_times = [[] for _ in pool]
        rounds = 0
        deadline = time.perf_counter() + seconds
        while rounds == 0 or time.perf_counter() < deadline:
            for index, op in enumerate(pool):
                if rounds and time.perf_counter() >= deadline:
                    break
                traced_first = trace and (index + rounds) % 2
                if traced_first:
                    t_elapsed, t_result = run_traced(tracer, op)
                    traced_times[index].append(probe.adjust(t_elapsed))
                elapsed, result, messages = run_op(op)
                raw[index].append(elapsed)
                times[index].append(probe.adjust(elapsed))
                ok = passed(op, result)
                if trace:
                    if not traced_first:
                        t_elapsed, t_result = run_traced(tracer, op)
                        traced_times[index].append(probe.adjust(t_elapsed))
                    ok = ok and passed(op, t_result)
                executions[op.kind] += 1
                if rounds == 0:
                    for name, needle in WARNING_KINDS:
                        caught[name] += any(needle in m for m in messages)
                if not ok:
                    failed += 1
                    if failed <= 3:
                        print("failed op %d (%s, %s): %s" % (
                            index, op.kind, sorted(op.props),
                            str(result)[:300]), file=log)
            rounds += 1
        if not trace:
            for _ in range(SETUP_HALF):
                time_setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = by_kind(mix, pool, times)
    attempted = sum(executions.values())
    if trace:
        layers, attributed = layer_metrics(
            tracer, mix, samples, by_kind(mix, pool, traced_times),
            executions)
        metrics.update(layers)
        for name, _ in WARNING_KINDS:
            metrics["warnings." + name] = caught[name]
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        ops_per_s, p50, p90 = weighted_stats(mix, samples)
        metrics.update(ops_per_s=ops_per_s, latency_p50_s=p50,
                       latency_p90_s=p90, setup_s=statistics.median(setup))
        units = END_TO_END
    props = collections.Counter(p for op in pool for p in op.props)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    unadjusted = weighted_stats(mix, by_kind(mix, pool, raw))
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine_facts(),
              "latency_samples": len(pool), "rounds": rounds,
              "error_rate": failed / attempted,
              "kinds": {k: {"weight": w, "inputs": len(samples[k]),
                            "runs": executions[k],
                            "mean_s": statistics.fmean(samples[k])}
                        for k, w in mix},
              "input_shares": {p: n / len(pool)
                               for p, n in sorted(props.items())},
              "inputs_warned": dict(caught),
              "speed": {"reference_s": REFERENCE_S,
                        "kernel_mean_s": probe.mean_kernel_s(),
                        "kernel_runs": probe.kernel_runs},
              "unadjusted": dict(zip(("ops_per_s", "latency_p50_s",
                                      "latency_p90_s"), unadjusted))}
    if trace:
        record["attributed_share"] = attributed
        record["moves"] = {name: moves for name, (_, moves) in PER_LAYER.items()}
    else:
        record["setup_runs_s"] = setup
        record["unadjusted"]["setup_s"] = statistics.median(setup_raw)
    return result, record


def by_kind(mix, pool, times):
    """Per op kind, the median time of each of the pool's ops."""
    samples = {kind: [] for kind, _ in mix}
    for op, runs in zip(pool, times):
        samples[op.kind].append(statistics.median(runs))
    return samples


def layer_metrics(tracer, mix, samples, traced, executions):
    """Per-op layer self times and call counts of the weighted op mix,
    medians of per-call times per input class, and the traced over
    untraced throughput ratio; also the share of traced op time spent
    inside wrapped calls."""
    total = sum(w for _, w in mix)

    def per_op(key):
        return sum(w / total * tracer.totals[k][key] / executions[k]
                   for k, w in mix)
    op_s = per_op("op_s")
    out = {"%s.self_s" % layer: per_op(layer + ".self_s") for layer in LAYERS}
    out["cli.self_s"] = op_s - per_op("outer_s")
    reports = per_op("config_geometry.config_report")
    out["config_geometry.hull_tests_per_config"] = (
        per_op("config_geometry.in_convex_hull") / reports if reports else 0.0)
    out["resonant_group.apply_calls"] = per_op("resonant_group.apply")
    out["resonant_group.compose_calls"] = per_op("resonant_group.compose")
    out["developing.dev_eval_calls"] = per_op("developing.dev_eval")
    out["family_gluing.gluing_s"] = per_op("gluing_s")
    found = tracer.per_call["resonance.find_resonances"]
    for tag in ("unit_modulus", "generic"):
        out["resonance.%s_s" % tag] = statistics.median(found.get(tag, [0.0]))
    checks = [t for v in tracer.per_call["family_gluing.check_condition"].values()
              for t in v]
    out["family_gluing.check_condition_s"] = statistics.median(checks or [0.0])
    out["trace.ops_ratio"] = (weighted_stats(mix, traced)[0]
                              / weighted_stats(mix, samples)[0])
    return out, per_op("outer_s") / op_s


def summary(seed, seconds, trace):
    """Run every workload and print each metric by name and unit."""
    status = 0
    for workload in workloads.WORKLOADS:
        result, record = measure(workload, seed, seconds, trace)
        status = status or int(not result["correct"])
        print("%-9s %-40s %14s  %s" % (workload, "error_rate",
                                        "%.4f" % record["error_rate"],
                                        "(%d ops)" % result["attempted"]))
        for name, metric in result["metrics"].items():
            moves = PER_LAYER[name][1] if trace else ""
            print("%-9s %-40s %14.6g  %-6s %s" % (
                workload, name, metric["value"], metric["unit"], moves))
        sys.stdout.flush()
    return status


def locate_lvmkit():
    """Put this checkout's src/ first on sys.path and import lvmkit from
    it; return an error message when that is not possible."""
    if not (SRC / "lvmkit" / "__init__.py").is_file():
        return "lvmkit sources not found under %s" % SRC
    sys.path.insert(0, str(SRC))
    import lvmkit
    if Path(lvmkit.__file__).resolve().parent != SRC / "lvmkit":
        return "imported lvmkit from %s, not from %s" % (lvmkit.__file__, SRC)
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    error = locate_lvmkit()
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.workload == "all":
        return summary(args.seed, args.seconds, args.trace)
    result, record = measure(args.workload, args.seed, args.seconds,
                             args.trace)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
