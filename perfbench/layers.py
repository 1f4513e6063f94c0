"""Traced run: per-layer metrics of chipgyro, measured in-process.

The layers are the package modules cli, magnetostatics, guide,
interferometer, noise and stability. The run

* parses ``python -X importtime`` of fresh interpreters into the
  ``cli.import_us.*`` metrics;
* calls ``chipgyro.cli.main`` in-process on the centre inputs of every
  workload, once untraced and once traced, and reads spans and counts off the
  traced calls (``trace.overhead_frac`` compares the two);
* times fixed-size probes of the numerical kernels through their public
  functions.

Spans are recorded by wrapping public functions from the benchmark's side;
the program is not changed. The centre inputs do not depend on the seed, so
every count repeats exactly from run to run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import workloads

# Public functions wrapped in the traced run, one or more per layer, with the
# arguments whose broadcast size is the number of points a call works on.
# Private helpers are not wrapped, so their time counts as the caller's self
# time. A target missing from the program is reported, never skipped in
# silence.
TARGETS = {
    "cli.load_config": (),
    "magnetostatics.field_modulus": ("rho", "z"),
    "guide.find_guide_minimum": (),
    "guide.characterize_guide": (),
    "guide.potential_hessian": (),
    "interferometer.transfer_H": ("f",),
    "interferometer.transfer_H_abs2": ("f",),
    "noise.PowerSpectralDensity.evaluate": ("f",),
    "noise.phase_variance": (),
    "noise.acceleration_phase_variance": (),
    "noise.rotation_phase_variance": (),
    "stability.projection_allan_curve": (),
    "stability.required_interrogation_time": (),
}
VARIANCE_SPANS = ("noise.phase_variance", "noise.acceleration_phase_variance",
                  "noise.rotation_phase_variance")
IMPORT_PACKAGES = {
    "total": "chipgyro",
    "scipy_ndimage": "scipy.ndimage",
    "scipy_optimize": "scipy.optimize",
    "scipy_special": "scipy.special",
    "numpy": "numpy",
    "yaml": "yaml",
}
IMPORT_REPEATS = 3
PROBE_POINTS = 4_000_000
DEPTH_GRID = 1001
MISSION_SPEEDS = (1, 2, 3, 4, 6, 8, 12, 16)
DICK_M_MAX = 100_000

NAME, START, END, PARENT, ROOT, POINTS = range(6)


class Tracer:
    """Spans (name, start, end, parent, root, points) kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.missing = []

    def begin(self, name, points=0):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else index
        self.spans.append([name, time.perf_counter(), 0.0, parent, root, points])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, name, point_args):
        signature = inspect.signature(fn)

        def points(args, kwargs):
            if not point_args:
                return 0
            bound = signature.bind(*args, **kwargs).arguments
            return int(np.broadcast(*[np.asarray(bound[a]) for a in point_args]).size)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name, points(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    def install(self, targets):
        """Wrap each ``layer.qualname`` target at every chipgyro module that
        binds it."""
        modules = [m for n, m in sys.modules.items() if n == "chipgyro" or n.startswith("chipgyro.")]
        for target, point_args in targets.items():
            layer, _, qualname = target.partition(".")
            owner = importlib.import_module(f"chipgyro.{layer}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                if target not in self.missing:
                    self.missing.append(target)
                continue
            wrapper = self._wrapper(original, target, point_args)
            if path:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def span_metrics(tracer, root_slots):
    """Per-layer metrics read off the spans of the traced CLI calls."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def of(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def self_s(name):
        return sum(spans[i][END] - spans[i][START] - child_time[i] for i in of(name))

    def duration_in(name, slot):
        return sum(spans[i][END] - spans[i][START] for i in of(name) if root_slots[spans[i][ROOT]] == slot)

    field = of("magnetostatics.field_modulus")
    minimum = set(of("guide.find_guide_minimum"))
    metrics = {
        "magnetostatics.field_modulus.calls": (len(field), "count"),
        "magnetostatics.field_modulus.points": (sum(spans[i][POINTS] for i in field), "count"),
        "magnetostatics.field_modulus.self_s": (self_s("magnetostatics.field_modulus"), "s"),
        "guide.characterize_guide.self_s": (self_s("guide.characterize_guide"), "s"),
        "guide.find_guide_minimum.field_calls": (sum(spans[i][PARENT] in minimum for i in field), "count"),
        "interferometer.transfer_H_abs2.points": (
            sum(spans[i][POINTS] for i in of("interferometer.transfer_H_abs2")), "count"),
    }
    for geometry in ("design", "ring"):
        slot = f"guide.{geometry}"
        metrics[f"guide.find_minimum_s.{geometry}"] = (duration_in("guide.find_guide_minimum", slot), "s")
        metrics[f"guide.characterize_s.{geometry}"] = (duration_in("guide.characterize_guide", slot), "s")
    evaluate = of("noise.PowerSpectralDensity.evaluate")
    for case in ("phase_2T1", "accel_2T4", "rotation_tab_2T1"):
        slot = f"noise.{case}"
        metrics[f"noise.variance_s.{case}"] = (sum(duration_in(n, slot) for n in VARIANCE_SPANS), "s")
        metrics[f"noise.integrand_points.{case}"] = (
            sum(spans[i][POINTS] for i in evaluate if root_slots[spans[i][ROOT]] == slot), "count")
    return metrics


def import_breakdown(python, env, cwd):
    """Median over fresh interpreters of the cumulative import time of each
    package, counted at its outermost entries in ``-X importtime``."""
    samples = {name: [] for name in IMPORT_PACKAGES}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import chipgyro.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, check=True)
        entries = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "| cumulative |" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            entries.append((depth, name.strip(), int(cumulative)))
        for metric, package in IMPORT_PACKAGES.items():
            samples[metric].append(_outermost_cumulative(entries, package))
    return {f"cli.import_us.{m}": (statistics.median(v), "us") for m, v in samples.items()}


def _outermost_cumulative(entries, package):
    """Sum of cumulative times of the entries named ``package`` or
    ``package.*`` that are not nested in another such entry. importtime
    prints children before their parent, so walk the lines backwards."""
    total, stack = 0, []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        mine = name == package or name.startswith(package + ".")
        if mine and not inside:
            total += cumulative
        stack.append((depth, inside or mine))
    return total


def _median_seconds(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_probes(centre_dir):
    """Fixed-size probes of the kernels. Returns (metrics, sizes, values,
    failures); sizes are computed from array shapes, not measured."""
    import chipgyro as cg

    species = cg.species_rb87()
    geometry = cg.GuideGeometry(loops=tuple(
        cg.WireLoop(radius=r, current=i, height=0.0) for r, i in workloads.DESIGN_LOOPS))
    radius, spacing = 500e-6, 13e-6
    rho = np.linspace(0.5 * radius, 1.5 * radius, DEPTH_GRID)
    z = np.linspace(10.0 * spacing / DEPTH_GRID, 10.0 * spacing, DEPTH_GRID)
    rr, zz = np.meshgrid(rho, z, indexing="ij")
    n_map, n_loops = rr.size, len(geometry.loops)
    t_map = _median_seconds(lambda: cg.field_modulus(geometry, rr, zz), 2)
    t_point = _median_seconds(lambda: [cg.field_modulus(geometry, 499.2e-6, 12.7e-6) for _ in range(500)], 5)

    ai = cg.rb87_config(pulse_duration=workloads.TAU, interrogation_time=1.0, latitude=math.radians(48.85))
    freqs = np.geomspace(1e-4, 10.0 / workloads.TAU, PROBE_POINTS)
    t_transfer = _median_seconds(lambda: cg.transfer_H_abs2(freqs, ai), 3)
    table = cg.PowerSpectralDensity.from_csv(os.path.join(centre_dir, "rotation_psd.csv"), domain="rotation")
    t_interp = _median_seconds(lambda: table.evaluate(freqs), 3)

    template = cg.rb87_config(pulse_duration=workloads.TAU, interrogation_time=4.0, atom_number=1e5)
    speeds = np.array(MISSION_SPEEDS, dtype=float) * species.recoil_velocity
    t_mission = _median_seconds(
        lambda: cg.feasibility_boundary(speeds, 5.2e-14, cg.SECONDS_PER_YEAR, template), 20)
    boundary = cg.feasibility_boundary(speeds, 5.2e-14, cg.SECONDS_PER_YEAR, template)
    mission_err = max(
        abs(two_t / checks.mission_closed_form({"atom_number": 1e5, "latitude_deg": 90.0}, v, 5.2e-14,
                                               cg.SECONDS_PER_YEAR) - 1.0)
        for v, two_t in boundary.points)
    taus = np.geomspace(ai.cycle_time, cg.SECONDS_PER_YEAR, 61)
    t_allan = _median_seconds(lambda: cg.projection_allan_curve(ai, taus), 50)
    t_dick = _median_seconds(lambda: cg.dick_sum_allan(table, ai, 1e4, m_max=DICK_M_MAX), 5)
    dick = cg.dick_sum_allan(table, ai, 1e4, m_max=DICK_M_MAX)

    metrics = {
        "magnetostatics.field_map_ns_per_point_loop": (t_map / (n_map * n_loops) * 1e9, "ns"),
        "magnetostatics.point_eval_us": (t_point / 500 * 1e6, "us"),
        "interferometer.transfer_abs2_ns_per_point": (t_transfer / PROBE_POINTS * 1e9, "ns"),
        "noise.psd_interp_ns_per_point": (t_interp / PROBE_POINTS * 1e9, "ns"),
        "stability.mission_us": (t_mission * 1e6, "us"),
        "stability.mission_rel_err": (mission_err, "ratio"),
        "stability.allan_curve_us": (t_allan * 1e6, "us"),
        "stability.dick_sum_us": (t_dick * 1e6, "us"),
    }
    # float64 inputs plus the result; temporaries are not counted
    sizes = {
        "field_map": {"points": n_map, "loops": n_loops, "computed_bytes": 3 * 8 * n_map},
        "transfer_abs2": {"points": PROBE_POINTS, "computed_bytes": 2 * 8 * PROBE_POINTS},
        "psd_interp": {"points": PROBE_POINTS, "knots": int(table.frequencies.size),
                       "computed_bytes": 2 * 8 * PROBE_POINTS},
        "dick_sum": {"terms": DICK_M_MAX, "computed_bytes": 4 * 8 * DICK_M_MAX},
    }
    values = {
        "mission_min_2T_s": [two_t for _, two_t in boundary.points],
        "dick_sum_sigma_rad_s": dick.sigma,
        "dick_sum_converged": dick.converged,
    }
    failures = []
    if mission_err > checks.MISSION_REL_TOL:
        failures.append(f"mission probe deviates from the closed form by {mission_err:.3e}")
    return metrics, sizes, values, failures


def run_traced(tmp, python, env, root):
    """The whole traced run. Returns (metrics, report, attempted, failed)."""
    import chipgyro.cli as cli

    report = {"failures": [], "values": {}}
    metrics = import_breakdown(python, env, root)

    invocations = []
    for workload in workloads.WORKLOADS:
        invocations += workloads.generate(workload, None, os.path.join(tmp, "centre", workload))

    # warm the lazy parts of numpy and scipy before anything is timed
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(invocations[-1].argv(os.path.join(tmp, "warm")))

    tracer = Tracer()
    root_slots = {}
    main_s = {}
    out_bytes = {}
    untraced_s = traced_s = 0.0
    failed = 0

    def untraced(argv):
        start = time.perf_counter()
        code = cli.main(argv)
        return code, time.perf_counter() - start

    def traced(argv):
        tracer.install(TARGETS)
        try:
            index = tracer.begin("cli.main")
            code = cli.main(argv)
            tracer.end(index)
        finally:
            tracer.uninstall()
        return code, index

    for i, inv in enumerate(invocations):
        out_u = os.path.join(tmp, "untraced", inv.slot)
        out_t = os.path.join(tmp, "traced", inv.slot)
        with contextlib.redirect_stdout(io.StringIO()):
            # alternate the order, so that what a second call gains from the
            # first (allocator, caches) does not count as tracing overhead
            if i % 2:
                code_t, root = traced(inv.argv(out_t))
                code_u, t_u = untraced(inv.argv(out_u))
            else:
                code_u, t_u = untraced(inv.argv(out_u))
                code_t, root = traced(inv.argv(out_t))
        root_slots[root] = inv.slot
        untraced_s += t_u
        traced_s += tracer.spans[root][END] - tracer.spans[root][START]
        main_s[inv.command] = main_s.get(inv.command, 0.0) + t_u
        out_bytes[inv.command] = out_bytes.get(inv.command, 0) + checks.output_bytes(out_u)
        values, failures = checks.check(inv, out_u)
        if code_u != 0 or code_t != 0:
            failures.append(f"exit codes {code_u} untraced, {code_t} traced")
        failures += checks.same_outputs(out_u, out_t)
        report["values"][inv.slot] = values
        if failures:
            report["failures"].append({inv.slot: failures})
            failed += 1

    for command in checks.CHECKS:
        metrics[f"cli.main_s.{command}"] = (main_s[command], "s")
        metrics[f"cli.output_bytes.{command}"] = (out_bytes[command], "bytes")
    metrics.update(span_metrics(tracer, root_slots))
    for inv in invocations:
        if inv.command == "noise" and inv.slot != "noise.sweep":
            case = inv.expect["case"]
            metrics[f"noise.rel_error_estimate.{case}"] = (
                report["values"][inv.slot]["rel_error_estimate"], "ratio")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")

    probe_metrics, sizes, probe_values, probe_failures = kernel_probes(
        os.path.join(tmp, "centre", "noise_wideband"))
    metrics.update(probe_metrics)
    report["values"]["probes"] = probe_values
    report["sizes"] = sizes
    report["rtol_requested"] = 1e-6
    report["spans"] = len(tracer.spans)
    report["missing_wrap_targets"] = tracer.missing
    if probe_failures:
        report["failures"].append({"probes": probe_failures})
    attempted = 2 * len(invocations) + 1
    return metrics, report, attempted, failed + bool(probe_failures)
