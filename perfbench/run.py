"""chipgyro benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a chipgyro checkout; the program is imported from its
``src/`` directory and nothing is installed. Workloads and the reasons they
were chosen are in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics: a closed loop with one client
that runs one ``python -m chipgyro.cli`` child at a time, pass after pass
over the workload's invocations, for about ``--seconds`` seconds and at
least two passes. Every child's outputs are checked against the oracles in
``checks.py``, and every pass after the first must write byte-identical
files.

The speed of a shared machine drifts by a fifth or more within a minute,
which would swamp any change to the program. So the loop runs the fixed task
of ``reference.py``, which uses nothing of chipgyro, before every program
child and once more after the last, and divides each child's time by the
mean time of the two reference runs around it. The gated times are these
ratios (``wall_ref``, ``cmd_ref.slowest``): a program that gets 10 % slower
still reads 10 % higher. ``setup_s``, the time to start and import, is
scaled the same way to a machine on which the reference takes
``REFERENCE_S``. The raw seconds are in the report lines above the result.

``--trace 1`` runs the in-process traced run of ``layers.py`` instead,
which does a fixed amount of work whatever ``--seconds`` says.

Lines starting with ``#`` or ``metric`` are the report; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import workloads

MIN_PASSES = 2        # the determinism check needs a second pass
SETUP_REPEATS = 5
# Typical time of reference.py on a 2-vCPU x86-64 virtual machine (Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1). setup_s is the import time scaled to a
# machine on which the reference takes this long, so that a drift of the
# machine's speed between runs does not read as a change of set-up time.
REFERENCE_S = 1.25
CHILD_TIMEOUT_S = 150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="chipgyro benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def spawn(argv, env, cwd, log_prefix):
    """Run one child to completion. Returns (wall seconds from spawn to exit,
    max RSS in KiB, exit code)."""
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss, proc.returncode


def _last_line(path):
    with open(path, "rb") as handle:
        lines = handle.read().decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_reference(argv, env, root, log_prefix):
    """Wall time of one run of the reference task."""
    elapsed, _, code = spawn(argv, env, root, log_prefix)
    if code != 0:
        raise RuntimeError(f"reference task failed: {_last_line(log_prefix + '.err')}")
    return elapsed


def measure_setup(python, env, root, logs):
    """Median time for a fresh interpreter to start and import chipgyro.cli,
    after one untimed start that lets the byte-code caches fill."""
    argv = [python, "-c", "import chipgyro.cli"]
    samples = []
    for k in range(SETUP_REPEATS + 1):
        elapsed, _, code = spawn(argv, env, root, os.path.join(logs, f"setup{k}"))
        if code != 0:
            raise RuntimeError(f"import chipgyro.cli failed: {_last_line(os.path.join(logs, f'setup{k}.err'))}")
        samples.append(elapsed)
    return samples[1:]


def run_end_to_end(args, python, env, root, tmp):
    import checks

    logs = os.path.join(tmp, "logs")
    os.makedirs(logs)
    setup = measure_setup(python, env, root, logs)
    invocations = workloads.generate(args.workload, args.seed, os.path.join(tmp, "inputs"))
    reference = [python, os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")]

    pass_s, pass_rss, ref_s = [], [], []
    slot_s = {inv.slot: [] for inv in invocations}
    first_out, values, failures = {}, {}, []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        k = len(pass_s)
        records = []
        for inv in invocations:
            out = os.path.join(tmp, f"pass{k}", inv.slot)
            log = os.path.join(logs, f"{inv.slot}.{k}")
            ref_s.append(run_reference(reference, env, root, os.path.join(logs, f"reference.{len(ref_s)}")))
            argv = [python, "-m", "chipgyro.cli", *inv.argv(out)]
            records.append((inv, out, log, *spawn(argv, env, root, log)))
        pass_s.append(sum(r[3] for r in records))
        pass_rss.append(max(r[4] for r in records) / 1024.0)

        # answer and determinism checks, outside the timed pass
        for inv, out, log, elapsed, _, code in records:
            attempted += 1
            slot_s[inv.slot].append(elapsed)
            missed = []
            if code != 0:
                missed.append(f"exit code {code}: {_last_line(log + '.out')} {_last_line(log + '.err')}")
            else:
                try:
                    status = json.loads(_last_line(log + ".out")).get("status")
                except ValueError:
                    status = None
                if status != "ok":
                    missed.append(f"status {status!r}: {_last_line(log + '.out')}")
                checked, oracle_misses = checks.check(inv, out)
                missed += oracle_misses
                if k == 0:
                    values[inv.slot] = checked
                    first_out[inv.slot] = out
                elif inv.slot in first_out:
                    missed += checks.same_outputs(first_out[inv.slot], out)
                    shutil.rmtree(out)
            if missed:
                failed += 1
                failures.append({"slot": inv.slot, "pass": k, "missed": missed})

        elapsed = time.perf_counter() - start
        # stop where the run's length comes closest to --seconds
        if len(pass_s) >= MIN_PASSES and elapsed + 0.5 * elapsed / len(pass_s) > args.seconds:
            break

    ref_s.append(run_reference(reference, env, root, os.path.join(logs, f"reference.{len(ref_s)}")))

    # child j of the run ran between reference runs j and j + 1
    slot_ref = {inv.slot: [] for inv in invocations}
    for j in range(len(pass_s) * len(invocations)):
        slot = invocations[j % len(invocations)].slot
        slot_ref[slot].append(slot_s[slot][j // len(invocations)] / (0.5 * (ref_s[j] + ref_s[j + 1])))
    pass_ref = [sum(times[k] for times in slot_ref.values()) for k in range(len(pass_s))]
    metrics = {
        "setup_s": (statistics.median(setup) * REFERENCE_S / statistics.median(ref_s), "s"),
        "wall_ref": (statistics.median(pass_ref), "ref"),
        "cmd_ref.slowest": (max(statistics.median(times) for times in slot_ref.values()), "ref"),
        "peak_rss_mb": (statistics.median(pass_rss), "MB"),
    }

    # the issue-level breakdown: every end-to-end figure by subcommand, in seconds
    print(f"metric {args.workload} import_s {statistics.median(setup)!r} s n={len(setup)} max={max(setup)!r}")
    print(f"metric {args.workload} reference_s {statistics.median(ref_s)!r} s n={len(ref_s)} max={max(ref_s)!r}")
    print(f"metric {args.workload} wall_s {statistics.median(pass_s)!r} s n={len(pass_s)} max={max(pass_s)!r}")
    for command in checks.CHECKS:
        times = [t for inv in invocations if inv.command == command for t in slot_s[inv.slot]]
        if times:
            print(f"metric {args.workload} cmd_s.{command} {statistics.median(times)!r} s "
                  f"n={len(times)} max={max(times)!r}")
    print(f"metric {args.workload} peak_rss_mb {metrics['peak_rss_mb'][0]!r} MB n={len(pass_rss)} "
          f"max={max(pass_rss)!r}")
    print(f"metric {args.workload} failed_frac {failed / attempted!r} ratio n={attempted}")
    print("# samples: " + json.dumps({"import_s": setup, "pass_s": pass_s, "pass_rss_mb": pass_rss,
                                         "reference_s": ref_s, **slot_s}))
    print("# values: " + json.dumps(values, sort_keys=True))
    if failures:
        print("# failures: " + json.dumps(failures))
    return metrics, attempted, failed


def run_traced(args, python, env, root, tmp):
    import layers

    metrics, report, attempted, failed = layers.run_traced(tmp, python, env, root)
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} {value!r} {unit}")
    if report["missing_wrap_targets"]:
        print("# missing wrap targets: " + ", ".join(report["missing_wrap_targets"]), file=sys.stderr)
    print("# report: " + json.dumps(report, sort_keys=True))
    return metrics, attempted, failed


def environment(root):
    import numpy
    import scipy

    src_lines = 0
    for directory, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    src_lines += handle.read().count(b"\n")
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_py_lines": src_lines,
    }


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "chipgyro", "cli.py")):
        print(f"no chipgyro sources under {src}: run from the root of a chipgyro checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    python = sys.executable
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    print(f"# chipgyro benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# why {args.workload}: {workloads.WHY[args.workload]}")
    print("# env: " + json.dumps(environment(root), sort_keys=True))
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        run = run_traced if args.trace else run_end_to_end
        metrics, attempted, failed = run(args, python, env, root, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
