"""Smoke self-check of the benchmark.

    python3 perfbench/selfcheck.py

Run from the root of a chipgyro checkout. Runs every workload once at the
minimal length, untraced and traced, and asserts that the last line carries
exactly the metrics BENCHMARK.json names, each with its unit; that the
report names every end-to-end figure of the workload, per subcommand; and
that the benchmark fails without printing a result in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import workloads

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(command, workload, trace, cwd):
    argv = command + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_result(proc, declared):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, sorted(result)
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-3000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(declared), sorted(set(metrics) ^ set(declared))
    for name, metric in metrics.items():
        assert metric["unit"] == declared[name], (name, metric["unit"])
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    return proc.stdout


def reported(stdout):
    """Names of the ``metric <workload> <name> <value> <unit>`` report lines."""
    return {line.split()[2] for line in stdout.splitlines() if line.startswith("metric ")}


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    command = bench["command"]
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    scratch = tempfile.mkdtemp(prefix=".perfbench-selfcheck-", dir=root)
    try:
        for workload in workloads.WORKLOADS:
            commands = {inv.command for inv in workloads.generate(workload, 1, os.path.join(scratch, workload))}
            expected = {"import_s", "reference_s", "wall_s", "peak_rss_mb", "failed_frac"} | {f"cmd_s.{c}" for c in commands}
            stdout = check_result(run(command, workload, 0, root), end_to_end)
            missing = expected - reported(stdout)
            assert not missing, (workload, sorted(missing))
            check_result(run(command, workload, 1, root), per_layer)
            print(f"ok {workload}", flush=True)

        bare = os.path.join(scratch, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(command, workloads.WORKLOADS[0], 0, bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        assert proc.returncode != 0 and not last[0].startswith("{"), proc.stdout[-2000:]
        print("ok fails without the program")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
