"""Layer spans recorded from outside the program.

The tracer wraps the public entry functions of each layer of ``repro``
(data loading, the VB2/VB1 solvers, interval and reliability
functionals, the fleet driver, the paper's baseline methods and the
experiment tables) and records, for each call, a span: its layer name,
its duration and the time its child spans covered. Nothing in the
program changes; the wrappers are installed on the imported modules and
removed again afterwards.

A layer re-entered while one of its spans is open (a method calling
itself through a subclass, say) does not open a second span, so
inclusive times never count the same interval twice.

As a script this module runs one traced ``repro`` command line::

    PYTHONPATH=src python3 perfbench/tracer.py spans.json fit --data ...

It times ``import repro.cli``, counts the loaded modules, runs the
command with every layer wrapped and writes the per-layer totals to
``spans.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, module, attribute path). Several entry points may share a
# span name; a callable instead of a name derives it from the call's
# arguments.
_TABLE_BY_DATA = {
    ("repro.experiments.table23", "DT"): "experiments.table2",
    ("repro.experiments.table23", "DG"): "experiments.table3",
    ("repro.experiments.table45", "DT"): "experiments.table4",
    ("repro.experiments.table45", "DG"): "experiments.table5",
}


def _table_name(module: str):
    def name(args, kwargs) -> str:
        kind = args[0] if args else kwargs.get("data_kind", "?")
        return _TABLE_BY_DATA.get((module, kind), f"{module}({kind})")
    return name


LAYERS = (
    ("data.load", "repro.data.io", "load_failure_times_csv"),
    ("data.load", "repro.data.io", "load_grouped_csv"),
    ("data.truncate", "repro.data.failure_data", "FailureTimeData.truncate"),
    ("data.truncate", "repro.data.failure_data", "GroupedData.truncate"),
    ("vb2.fit", "repro.core.vb2", "fit_vb2"),
    ("vb1", "repro.core.vb1", "fit_vb1"),
    ("warmstart.capture", "repro.core.warmstart", "warm_start_from"),
    ("reliability", "repro.core.reliability", "estimate_reliability"),
    ("prediction", "repro.core.prediction", "predict_failure_counts"),
    ("interval", "repro.bayes.joint", "JointPosterior.credible_interval"),
    ("fleet.fit", "repro.core.fleet", "fit_vb2_fleet"),
    ("fleet.materialize", "repro.core.fleet", "FleetResult.posterior"),
    ("fleet.intervals", "repro.core.fleet", "FleetResult.credible_intervals"),
    ("fleet.residual", "repro.core.fleet", "FleetResult.expected_total_faults"),
    ("mcmc", "repro.bayes.mcmc.gibbs_failure_time", "gibbs_failure_time"),
    ("mcmc", "repro.bayes.mcmc.gibbs_grouped", "gibbs_grouped"),
    ("nint", "repro.bayes.nint", "fit_nint"),
    ("laplace", "repro.bayes.laplace", "fit_laplace"),
    ("experiments.run_all_methods", "repro.experiments.runner",
     "run_all_methods"),
    ("experiments.table1", "repro.experiments.table1", "run"),
    (_table_name("repro.experiments.table23"), "repro.experiments.table23",
     "run"),
    (_table_name("repro.experiments.table45"), "repro.experiments.table45",
     "run"),
    ("experiments.table6", "repro.experiments.table67", "run_table6"),
    ("experiments.table7", "repro.experiments.table67", "run_table7"),
    ("experiments.figure1", "repro.experiments.figure1", "run"),
)


def _diagnostics(posterior) -> dict:
    """Fit diagnostics, looking through a wrapper posterior's ``base``."""
    diagnostics = getattr(posterior, "diagnostics", None)
    if diagnostics:
        return diagnostics
    return getattr(getattr(posterior, "base", None), "diagnostics", None) or {}


def _count_vb2(counters: dict, posterior) -> None:
    diagnostics = _diagnostics(posterior)
    counters["vb2.fp_iters"] += int(diagnostics.get("fixed_point_iterations", 0))
    n_values = getattr(posterior, "n_values", None)
    if n_values is None:
        n_values = getattr(getattr(posterior, "base", None), "n_values", ())
    counters["vb2.lanes"] += len(n_values)


def _count_fleet(counters: dict, fleet) -> None:
    counters["fleet.fp_iters"] += sum(
        int(d.get("fixed_point_iterations", 0)) for d in fleet.diagnostics
    )


# Exact counters read from a layer's results (work done, not time).
_COUNTERS = {"vb2.fit": _count_vb2, "fleet.fit": _count_fleet}
COUNTER_NAMES = ("vb2.fp_iters", "vb2.lanes", "fleet.fp_iters")


class Tracer:
    """Per-layer span totals for one process.

    ``totals[name] = [calls, inclusive_s, self_s]``; ``top_level_s`` is
    the time covered by spans with no parent span.
    """

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._stack: list[list] = []  # [name, start, child_s]
        self._open: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.totals: dict[str, list] = {}
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.top_level_s = 0.0

    def snapshot(self) -> dict:
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counters": dict(self.counters),
            "top_level_s": self.top_level_s,
        }

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if self._open.get(name):
            return fn(*args, **kwargs)
        self._open[name] = 1
        self._stack.append([name, self._clock(), 0.0])
        try:
            result = fn(*args, **kwargs)
        finally:
            _, start, child = self._stack.pop()
            duration = self._clock() - start
            self._open[name] = 0
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += duration
            total[2] += duration - child
            if self._stack:
                self._stack[-1][2] += duration
            else:
                self.top_level_s += duration
        count = _COUNTERS.get(name)
        if count is not None:
            count(self.counters, result)
        return result

    def _wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            return tracer.call(span, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point, wherever ``repro`` bound it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        originals = []
        for name, module_name, path in LAYERS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            originals.append((owner, attr, owner.__dict__[attr], name))
        wrapped = {}
        for owner, attr, original, name in originals:
            wrapper = wrapped.setdefault(id(original), self._wrapper(name, original))
            self._patch(owner, attr, wrapper)
        # Modules that imported a function by name hold their own binding.
        by_id = {id(original): original for _, _, original, _ in originals}
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in by_id and value is by_id[id(value)]:
                    self._patch(module, attr, wrapped[id(value)])

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Time a span adds to one call: a wrapped no-op against a bare one
    (best of ``repeats``, so a busy host does not inflate it)."""
    def noop():
        return None

    wrapped = Tracer()._wrapper("calibration", noop)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        middle = time.perf_counter()
        for _ in range(calls):
            wrapped()
        end = time.perf_counter()
        best = min(best, ((end - middle) - (middle - start)) / calls)
    return max(best, 0.0)


def main(argv: list[str]) -> int:
    out_path, repro_args = argv[0], argv[1:]
    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start
    modules = len(sys.modules)
    tracer = Tracer()
    start = time.perf_counter()
    tracer.install()
    install_s = time.perf_counter() - start
    code = None
    try:
        code = tracer.call("cli.main", repro.cli.main, repro_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(
                {"import_s": import_s, "modules": modules, "code": code,
                 "install_s": install_s, **tracer.snapshot()},
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
