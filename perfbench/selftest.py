"""Self-test of the benchmark.

A tiny run of every workload, untraced and traced, must be correct and
report exactly the metrics BENCHMARK.json names, with their units; and a
run whose every expectation is deliberately wrong must count every op as
failed.  Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

import io
import json
import math
import sys

import run
import workloads


def inverted(workload, kind, seed, index, count, workdir):
    """The workload's op with its expected outcome negated."""
    op = workloads.make_op(workload, kind, seed, index, count, workdir)
    check = op.check
    op.check = lambda result: not check(result)
    return op


def main():
    error = run.locate_lvmkit()
    if error:
        print(error, file=sys.stderr)
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result, record = run.measure(workload, 7, 0.01, trace, cycles=1)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert result["correct"] and result["failed"] == 0, (workload, trace)
            assert got == declared[trace], (workload, trace, got)
            assert all(math.isfinite(m["value"])
                       for m in result["metrics"].values())
            assert record["latency_samples"] == result["attempted"] > 0
            print("ok  %-9s trace=%d  %d ops" % (workload, trace,
                                                 result["attempted"]))
        result, record = run.measure(workload, 7, 0.01, 0, cycles=1,
                                     make_op=inverted,
                                     log=io.StringIO())
        assert not result["correct"], workload
        assert result["failed"] == result["attempted"] > 0, workload
        assert record["error_rate"] == 1.0, workload
        print("ok  %-9s wrong expectations counted: %d/%d failed"
              % (workload, result["failed"], result["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
