"""End-to-end benchmark of the ``repro`` package: four user workloads.

Run from the repository root::

    python3 perfbench/run.py --workload cli_fit --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``cli_fit`` — cold ``python -m repro fit`` runs, one after another;
* ``tracker_grouped`` — ``ReliabilityTracker.replay_grouped`` in process;
* ``fleet1000`` — ``fit_vb2_fleet`` over 1000 projects plus intervals;
* ``paper_tables`` — cold ``python -m repro all --scale quick``.

With ``--trace 0`` a run repeats the workload's pass (its unit of user
work) ``--seconds`` / ``NOMINAL_PASS_S`` times and reports the end-to-end
metrics. With ``--trace 1`` it runs the pass once untraced and twice
with every layer wrapped by :mod:`tracer`, reports the per-layer
metrics, prints a per-layer self-time table and checks that the exact
counters repeat. Every output is checked against the recorded reference
values. The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170.0  # a run ends well inside the 180 s it is allowed
SETUP_REPEATS = 3
P90_MIN_SAMPLES = 100

END_TO_END = (
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, span). A time metric is the span's inclusive seconds per
# pass, a count metric with a span is its calls per pass, a count
# without one is a tracer counter; the rest are computed by the run.
PER_LAYER = (
    ("startup.import_s", "s", None),
    ("startup.modules", "count", None),
    ("data.load_s", "s", "data.load"),
    ("data.truncate_s", "s", "data.truncate"),
    ("vb2.fit_s", "s", "vb2.fit"),
    ("vb2.fit_calls", "count", "vb2.fit"),
    ("vb2.fp_iters", "count", None),
    ("vb2.lanes", "count", None),
    ("warmstart.capture_s", "s", "warmstart.capture"),
    ("reliability.s", "s", "reliability"),
    ("reliability.calls", "count", "reliability"),
    ("prediction.s", "s", "prediction"),
    ("interval.s", "s", "interval"),
    ("interval.calls", "count", "interval"),
    ("fleet.fit_s", "s", "fleet.fit"),
    ("fleet.materialize_s", "s", "fleet.materialize"),
    ("fleet.intervals_s", "s", "fleet.intervals"),
    ("fleet.fp_iters", "count", None),
    *(
        (f"experiments.{table}.s", "s", f"experiments.{table}")
        for table in (
            "table1", "table2", "table3", "table4", "table5", "table6",
            "table7", "figure1",
        )
    ),
    ("experiments.run_all_methods_calls", "count", "experiments.run_all_methods"),
    ("mcmc.s", "s", "mcmc"),
    ("nint.s", "s", "nint"),
    ("laplace.s", "s", "laplace"),
    ("vb1.s", "s", "vb1"),
    ("trace.overhead_frac", "frac", None),
)

# Counts that must repeat bit for bit between traced passes of one input.
EXACT_COUNTERS = (
    "vb2.fp_iters", "vb2.lanes", "fleet.fp_iters",
    "experiments.run_all_methods_calls",
)


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run: no result is printed."""


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def remaining(self) -> float:
        remaining = self.end - time.perf_counter()
        if remaining <= 0:
            raise BenchmarkError("run exceeded its time limit")
        return remaining


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(workloads.SRC))


def _median(values):
    return statistics.median(values) if values else 0.0


# -- set-up -----------------------------------------------------------------


def measure_setup(name: str, seed: int, workdir: Path, deadline: Deadline) -> list[dict]:
    """Cold set-up, ``SETUP_REPEATS`` times: a fresh interpreter imports
    the workload's modules and builds its inputs. Each entry holds the
    wall time from spawn to exit and what the child reported."""
    results = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(workdir)],
            capture_output=True, text=True, env=_env(), cwd=workdir,
            timeout=deadline.remaining(),
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed:\n{proc.stderr}")
        results.append({"wall_s": wall, **json.loads(proc.stdout.splitlines()[-1])})
    return results


# -- passes -----------------------------------------------------------------


class PassResult:
    """One pass: its wall time, its operations and, if traced, its spans."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.wall_s = 0.0
        self.op_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.import_s: list[float] = []
        self.modules: list[int] = []
        self.install_s = 0.0  # wrapping the layers inside a timed process
        self.totals: dict[str, list] = {}
        self.counters = dict.fromkeys(tracing.COUNTER_NAMES, 0)
        self.top_level_s = 0.0

    def add_snapshot(self, snapshot: dict) -> None:
        for name, (calls, incl, self_s) in snapshot["totals"].items():
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            total[0] += calls
            total[1] += incl
            total[2] += self_s
        for name, value in snapshot["counters"].items():
            self.counters[name] += value
        self.top_level_s += snapshot["top_level_s"]

    def spans(self) -> int:
        return sum(calls for calls, _, _ in self.totals.values())

    def exact_counts(self) -> dict:
        counts = dict(self.counters)
        counts["experiments.run_all_methods_calls"] = self.totals.get(
            "experiments.run_all_methods", [0]
        )[0]
        return counts


def run_cli_pass(workload, j: int, traced: bool, workdir: Path, deadline: Deadline) -> PassResult:
    """Each invocation is a cold process; traced ones go through
    ``tracer.py``, which reports the import and the layer spans."""
    result = PassResult(traced)
    spans_path = workdir / "spans.json"
    for invocation in workload.invocations(j):
        if traced:
            command = [sys.executable, str(HERE / "tracer.py"), str(spans_path)]
        else:
            command = [sys.executable, "-m", "repro"]
        start = time.perf_counter()
        proc = subprocess.run(
            command + invocation.argv, capture_output=True, text=True,
            env=_env(), cwd=workdir, timeout=deadline.remaining(),
        )
        elapsed = time.perf_counter() - start
        result.wall_s += elapsed
        result.op_times.append(elapsed)
        result.attempted += 1
        error = (
            f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
            if proc.returncode != 0
            else invocation.check(proc.stdout)
        )
        if error is not None:
            result.failed += 1
            result.errors.append(f"{invocation.label}: {error}")
        if traced and proc.returncode == 0:
            snapshot = json.loads(spans_path.read_text())
            result.import_s.append(snapshot["import_s"])
            result.modules.append(snapshot["modules"])
            result.install_s += snapshot["install_s"]
            result.add_snapshot(snapshot)
    return result


def run_inprocess_pass(workload, j: int, tracer) -> PassResult:
    result = PassResult(tracer is not None)
    inputs = workload.pass_inputs(j)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        start = time.perf_counter()
        outputs, op_times = workload.run_pass(inputs)
        result.wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result.add_snapshot(tracer.snapshot())
    attempted, failed, errors = workload.check(inputs, outputs)
    result.attempted, result.failed, result.errors = attempted, failed, errors
    # A fleet is solved as one batch, so its projects have no times of
    # their own: the pass contributes one sample, its time per project.
    result.op_times = op_times or [result.wall_s / attempted]
    return result


# -- reporting --------------------------------------------------------------


def host_fingerprint() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS NumPy loaded, or ``None``."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _percentile_line(op_times: list[float]) -> str:
    if len(op_times) < P90_MIN_SAMPLES:
        return f"op_p90_s: not reported ({len(op_times)} operations < {P90_MIN_SAMPLES})"
    p90 = statistics.quantiles(op_times, n=10)[-1]
    return f"op_p90_s: {p90:.6f} s (n={len(op_times)})"


def end_to_end_metrics(passes, setups, in_process: bool, lines: list[str]) -> dict:
    walls = [p.wall_s for p in passes]
    ops = [t for p in passes for t in p.op_times]
    correct_ops = sum(p.attempted - p.failed for p in passes)
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    values = {
        "wall_s": _median(walls),
        "throughput_per_s": correct_ops / sum(walls),
        "op_p50_s": _median(ops),
        "setup_s": _median([s["wall_s"] for s in setups]),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    lines.append(f"wall_s: median of {len(walls)} passes")
    lines.append(f"op_p50_s: median of {len(ops)} operations")
    lines.append(_percentile_line(ops))
    lines.append(f"setup_s: median of {len(setups)} cold set-ups")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(plain, traced, startup, lines: list[str]) -> tuple[dict, list[str]]:
    """Medians over the traced passes, plus the exact-counter check."""
    problems = []
    import_s, modules = startup
    if len(set(modules)) > 1:
        problems.append(f"startup.modules differs between processes: {sorted(set(modules))}")
    counts = [p.exact_counts() for p in traced]
    for name in EXACT_COUNTERS:
        seen = {c[name] for c in counts}
        if len(seen) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(seen)}")
    # The tracer's own cost, from its parts: spans opened times the cost
    # of one span, plus wrapping the layers where that happens inside a
    # timed process. On a shared host this is steadier than the
    # difference of a traced and an untraced pass, printed beside it.
    span_s = tracing.span_cost_s()
    overheads = [p.spans() * span_s + p.install_s for p in traced]
    computed = {
        "startup.import_s": _median(import_s),
        "startup.modules": modules[0] if modules else 0,
        "trace.overhead_frac": _median(
            [o / (p.wall_s - o) for o, p in zip(overheads, traced)]
        ),
    }
    metrics = {}
    for name, unit, span in PER_LAYER:
        if name in computed:
            value = computed[name]
        elif span is None:
            value = _median([p.exact_counts()[name] for p in traced])
        else:
            field = 1 if unit == "s" else 0
            value = _median([p.totals.get(span, [0, 0.0, 0.0])[field] for p in traced])
        if unit == "count":
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    lines.extend(self_time_table(traced, import_s, in_pass_imports=traced[0].import_s != []))
    traced_wall = _median([p.wall_s for p in traced])
    plain_wall = _median([p.wall_s for p in plain])
    lines.append(
        f"trace.overhead_frac: {computed['trace.overhead_frac']:.5f} "
        f"({traced[0].spans()} spans x {span_s * 1e6:.2f} us + "
        f"{traced[0].install_s:.4f} s wrapping per pass); traced pass "
        f"{traced_wall:.4f} s vs untraced {plain_wall:.4f} s: "
        f"{traced_wall / plain_wall - 1.0:+.4f}"
    )
    return metrics, problems


def self_time_table(traced, import_s, in_pass_imports: bool) -> list[str]:
    """Per-layer self time per traced pass (mean over traced passes)."""
    n = len(traced)
    wall = sum(p.wall_s for p in traced) / n
    rows = {}
    for p in traced:
        for name, (calls, incl, self_s) in p.totals.items():
            row = rows.setdefault(name, [0.0, 0.0, 0.0])
            row[0] += calls / n
            row[1] += incl / n
            row[2] += self_s / n
    covered = sum(p.top_level_s for p in traced) / n
    if in_pass_imports:
        imports = sum(sum(p.import_s) for p in traced) / n
        calls = sum(len(p.import_s) for p in traced) / n
        rows["startup.import"] = [calls, imports, imports]
        covered += imports
    lines = [
        f"per-layer self time, per traced pass (mean of {n}; pass wall {wall:.4f} s)",
        f"{'layer':32s} {'calls':>9s} {'incl_s':>10s} {'self_s':>10s} {'self%':>7s}",
    ]
    for name, (calls, incl, self_s) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(
            f"{name:32s} {calls:9.1f} {incl:10.4f} {self_s:10.4f} {100 * self_s / wall:6.2f}%"
        )
    uncovered = wall - covered
    lines.append(
        f"{'(in no layer)':32s} {'':9s} {'':10s} {uncovered:10.4f} {100 * uncovered / wall:6.2f}%"
    )
    if not in_pass_imports:
        lines.append(
            f"startup.import (in set-up, not in the pass): median {_median(import_s):.4f} s"
        )
    return lines


# -- main -------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, list[str]]:
    deadline = Deadline(DEADLINE_S)
    cls = workloads.WORKLOADS[name]
    workload = cls(seed, workdir)
    setups = measure_setup(name, seed, workdir, deadline)
    workload.prepare()
    lines = [f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}"]

    tracer = None
    if cls.in_process:
        sys.path.insert(0, str(workloads.SRC))
        for module in cls.MODULES:
            __import__(module)
        tracer = tracing.Tracer() if trace else None

    def one_pass(j: int, traced: bool) -> PassResult:
        if cls.in_process:
            return run_inprocess_pass(workload, j, tracer if traced else None)
        return run_cli_pass(workload, j, traced, workdir, deadline)

    passes: list[PassResult] = []
    if trace:
        # Every pass replays input 0, so traced and untraced passes, and
        # the traced passes among themselves, do the same work.
        for traced in (False, True, True):
            passes.append(one_pass(0, traced))
            deadline.remaining()
    else:
        for j in range(max(1, int(seconds // cls.NOMINAL_PASS_S))):
            passes.append(one_pass(j, False))
            deadline.remaining()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    lines.append(f"host {json.dumps(host_fingerprint(), sort_keys=True)}")
    lines.append(
        f"passes {len(passes)}  operations attempted {attempted}  failed {failed}  "
        f"ops_failed_frac {failed / attempted:.6f}"
    )
    problems = []
    if trace:
        plain = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        if cls.in_process:
            startup = ([s["import_s"] for s in setups], [s["modules"] for s in setups])
        else:
            startup = (
                [t for p in traced for t in p.import_s],
                [m for p in traced for m in p.modules],
            )
        metrics, problems = per_layer_metrics(plain, traced, startup, lines)
    else:
        metrics = end_to_end_metrics(passes, setups, cls.in_process, lines)
    for error in errors[:10]:
        lines.append(f"WRONG OUTPUT {error}")
    for problem in problems:
        lines.append(f"COUNTER MISMATCH {problem}")
    for metric, entry in metrics.items():
        lines.append(f"{metric}: {entry['value']:.6g} {entry['unit']}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {workloads.SRC}", file=sys.stderr)
        return 2
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
