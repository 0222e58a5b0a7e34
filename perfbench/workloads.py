"""The benchmark's workloads: inputs made from a seed, the operations a
user runs on them, and the checks of every output against reference
values recorded when the benchmark was defined.

Each workload draws its inputs from a fixed pool that is generated here
with NumPy alone (the program only ever receives the generated data);
the ``--seed`` picks which pool entries a run uses and in which order.
``perfbench/reference/`` holds, for every pool entry, the outputs the
program printed or returned at the commit that defined the benchmark,
together with a digest of the pool so that a change in the generator is
caught instead of being reported as wrong answers.

As a script this module is the benchmark's cold set-up step::

    PYTHONPATH=src python3 perfbench/workloads.py tracker_grouped 7 WORKDIR

It imports what the workload imports, builds the run's inputs (writing
CSV files into WORKDIR for the command-line workloads) and prints one
JSON line with the import time and the number of loaded modules.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path

# NumPy and ``repro`` are imported inside the functions that need them:
# the set-up step times the program's own import from a bare interpreter.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA_DIR = HERE / "data"
REFERENCE_DIR = HERE / "reference"

POOL_SEED = 2007  # fixed: the pools never depend on --seed
LEVEL = 0.99


# -- comparing printed numbers --------------------------------------------

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _last_place(token: str) -> float:
    """Value of one unit in the last printed digit of ``token``, or 0.0
    for an integer (which must match exactly)."""
    mantissa, _, exponent = token.lower().partition("e")
    if "." not in mantissa and not exponent:
        return 0.0
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def compare_text(reference: str, output: str) -> str | None:
    """``None`` if ``output`` prints the same numbers as ``reference``.

    The text between numbers must match exactly. A printed decimal may
    differ from the reference by 1.5 units in its last digit, so a value
    that moved by rounding noise across a print boundary still passes;
    integers must match exactly.
    """
    ref_parts = _NUMBER.split(reference.strip())
    out_parts = _NUMBER.split(output.strip())
    if len(ref_parts) != len(out_parts):
        return f"{len(out_parts) // 2} numbers printed, expected {len(ref_parts) // 2}"
    for i, (ref, out) in enumerate(zip(ref_parts, out_parts)):
        if i % 2 == 0:
            if ref != out:
                return f"text {out!r} where the reference has {ref!r}"
        elif abs(float(out) - float(ref)) > 1.5 * _last_place(ref):
            return f"value {out} where the reference has {ref}"
    return None


def close(value: float, reference: float, rel: float = 1e-6, abs_: float = 1e-9) -> bool:
    return math.isfinite(value) and abs(value - reference) <= abs_ + rel * abs(reference)


def _digest(chunks) -> str:
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk)
    return sha.hexdigest()


def _check_digest(name: str, digest: str, reference: dict) -> None:
    if digest != reference["inputs_sha256"]:
        raise RuntimeError(
            f"{name}: generated inputs differ from those the reference values "
            f"were recorded for (sha256 {digest} != {reference['inputs_sha256']})"
        )


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


def _order(seed: int, size: int):
    import numpy as np

    return np.random.default_rng(seed).permutation(size)


# -- cli_fit ----------------------------------------------------------------


class Invocation:
    """One cold ``python -m repro`` run and the output it must print."""

    def __init__(self, label: str, argv: list[str], reference: str, compare) -> None:
        self.label = label
        self.argv = argv
        self.reference = reference
        self.compare = compare

    def check(self, stdout: str) -> str | None:
        return self.compare(self.reference, stdout)


class CliFit:
    """A command-line user fitting data files, one cold process per fit.

    One pass is three ``repro fit`` runs: System 17 failure times (VB2,
    informative prior, reliability and predictive counts for the next
    10000 s), System 17 grouped data (VB2, informative prior), and one
    pool data set of Goel-Okumoto failure times (VB1).
    """

    name = "cli_fit"
    in_process = False
    NOMINAL_PASS_S = 5.0
    POOL = 32
    HORIZON = 80.0
    SYS17_TIMES = [
        "fit", "--kind", "times", "--horizon", "240000", "--method", "vb2",
        "--omega-mean", "50", "--omega-std", "15.8",
        "--beta-mean", "1e-5", "--beta-std", "3.2e-6", "--predict", "10000",
    ]
    SYS17_GROUPED = [
        "fit", "--kind", "grouped", "--method", "vb2",
        "--omega-mean", "50", "--omega-std", "15.8",
        "--beta-mean", "0.033", "--beta-std", "0.011",
    ]
    POOL_FIT = [
        "fit", "--kind", "times", "--horizon", repr(HORIZON), "--method", "vb1",
        "--omega-mean", "40", "--omega-std", "15",
        "--beta-mean", "0.03", "--beta-std", "0.015",
    ]

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = Path(workdir)
        self.order = [int(k) for k in _order(seed, self.POOL)]
        self.reference = load_reference(self.name)

    @classmethod
    def pool_csv(cls, k: int) -> str:
        """Pool data set ``k``: Goel-Okumoto failure times on (0, 80]."""
        import numpy as np

        rng = np.random.default_rng([POOL_SEED, 1, k])
        omega = 30.0 + 5.0 * (k % 5)
        beta = 0.02 + 0.01 * (k % 4)
        lifetimes = rng.exponential(1.0 / beta, rng.poisson(omega))
        times = np.sort(lifetimes[lifetimes <= cls.HORIZON])
        return "time\n" + "".join(f"{float(t)!r}\n" for t in times)

    @staticmethod
    def pool_digest(texts) -> str:
        return _digest(t.encode() for t in texts)

    def prepare(self) -> None:
        texts = [self.pool_csv(k) for k in range(self.POOL)]
        _check_digest(self.name, self.pool_digest(texts), self.reference)
        for k, text in enumerate(texts):
            (self.workdir / f"pool_{k}.csv").write_text(text)
        for name in ("sys17_times.csv", "sys17_grouped.csv"):
            (self.workdir / name).write_bytes((DATA_DIR / name).read_bytes())

    def invocations(self, j: int) -> list[Invocation]:
        k = self.order[j % self.POOL]
        ref = self.reference
        return [
            Invocation(
                "sys17_times",
                self.SYS17_TIMES + ["--data", str(self.workdir / "sys17_times.csv")],
                ref["sys17_times"], compare_text,
            ),
            Invocation(
                "sys17_grouped",
                self.SYS17_GROUPED + ["--data", str(self.workdir / "sys17_grouped.csv")],
                ref["sys17_grouped"], compare_text,
            ),
            Invocation(
                f"pool_{k}",
                self.POOL_FIT + ["--data", str(self.workdir / f"pool_{k}.csv")],
                ref["pool"][k], compare_text,
            ),
        ]


# -- paper_tables -------------------------------------------------------------

_ART = set(" .:-=+*#%@|")


def mask_paper_output(text: str) -> str:
    """Keep what ``repro all`` prints as numbers, minus wall-clock times.

    The "time (sec)" column of Tables 6 and 7 is a measured time, so its
    cells become ``<time>``. Rows drawn only from the figure's shading
    characters (and table rules) carry no numbers and are dropped.
    """
    kept = []
    timed = False
    for line in text.splitlines():
        if line.startswith(("Table 6", "Table 7")):
            timed = True
        elif not line.strip():
            timed = False
        if set(line) <= _ART:
            continue
        if timed and not line.startswith(("Table", "data")):
            head, _, _ = line.rstrip().rpartition(" ")
            line = f"{head} <time>"
        kept.append(line)
    return "\n".join(kept)


def compare_paper_output(reference: str, output: str) -> str | None:
    return compare_text(mask_paper_output(reference), mask_paper_output(output))


class PaperTables:
    """The reproduction user: ``repro all --scale quick --workers 1``.

    Its inputs are the paper's fixed data sets and the program's fixed
    MCMC seed, so ``--seed`` changes nothing here.
    """

    name = "paper_tables"
    in_process = False
    NOMINAL_PASS_S = 15.0
    ARGV = ["all", "--scale", "quick", "--workers", "1"]

    def __init__(self, seed: int, workdir: Path) -> None:
        self.reference = (REFERENCE_DIR / f"{self.name}.txt").read_text()

    def prepare(self) -> None:
        """Nothing to build: the inputs ship with the program."""

    def invocations(self, j: int) -> list[Invocation]:
        return [Invocation("all", self.ARGV, self.reference, compare_paper_output)]


# -- tracker_grouped ----------------------------------------------------------


class TrackerGrouped:
    """Sequential monitoring: ``ReliabilityTracker.replay_grouped`` over a
    decaying grouped campaign, warm starts on, one record per period.

    A campaign spreads 115 failures over 30 unit periods with intensity
    proportional to e^(-t/25) (the shape of the warm-start benchmark's
    Poisson(6 e^(-t/25)) campaign). Fixing the total keeps the work of
    one campaign close to that of another, so the seed moves where the
    failures fall, not how much there is to fit.
    """

    name = "tracker_grouped"
    in_process = True
    NOMINAL_PASS_S = 3.75  # 4 passes in 15 s: 120 periods, enough for a p90
    POOL = 16
    PERIODS = 30
    FAILURES = 115
    # Ship when the lower 99% bound on surviving the next 0.05 period
    # reaches 0.85: late in most campaigns, so records of both verdicts
    # are checked.
    WINDOW = 0.05
    TARGET = 0.85
    MODULES = ("repro.bayes.priors", "repro.core.sequential", "repro.data.failure_data")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.order = [int(k) for k in _order(seed, self.POOL)]
        self.reference = load_reference(self.name)

    @classmethod
    def pool_counts(cls, k: int):
        import numpy as np

        rng = np.random.default_rng([POOL_SEED, 2, k])
        intensity = np.exp(-np.arange(cls.PERIODS) / 25.0)
        return rng.multinomial(cls.FAILURES, intensity / intensity.sum())

    @staticmethod
    def pool_digest(counts) -> str:
        return _digest(c.astype("<i8").tobytes() for c in counts)

    def prepare(self) -> None:
        self.counts = [self.pool_counts(k) for k in range(self.POOL)]
        _check_digest(self.name, self.pool_digest(self.counts), self.reference)

    @classmethod
    def make_tracker(cls):
        from repro.bayes.priors import ModelPrior
        from repro.core.sequential import ReliabilityTracker

        return ReliabilityTracker(
            ModelPrior.informative(100.0, 50.0, 0.2, 0.1), alpha0=1.0,
            prediction_window=cls.WINDOW, reliability_target=cls.TARGET, level=LEVEL,
        )

    @classmethod
    def campaign_inputs(cls, k: int, counts):
        """Pool campaign ``k`` as unit-interval grouped data, with a fresh
        tracker."""
        import numpy as np
        from repro.data.failure_data import GroupedData

        data = GroupedData(counts=counts, boundaries=np.arange(1.0, counts.size + 1.0))
        return k, data, cls.make_tracker()

    def pass_inputs(self, j: int):
        k = self.order[j % self.POOL]
        return self.campaign_inputs(k, self.counts[k])

    @staticmethod
    def run_pass(inputs):
        """Replay the campaign; returns the records and each period's time."""
        _, data, tracker = inputs
        times = []
        observe = tracker.observe

        def timed_observe(period_data):
            start = time.perf_counter()
            record = observe(period_data)
            times.append(time.perf_counter() - start)
            return record

        tracker.observe = timed_observe
        return tracker.replay_grouped(data), times

    @staticmethod
    def summarize(records) -> list:
        return [
            [r.reliability_point, r.reliability_lower, r.meets_target, r.expected_residual]
            for r in records
        ]

    def check(self, inputs, records) -> tuple[int, int, list[str]]:
        """(attempted, failed, first errors) against the reference records."""
        k = inputs[0]
        expected = self.reference["campaigns"][k]
        errors = []
        for period, (got, ref) in enumerate(zip(self.summarize(records), expected)):
            point, lower, verdict, residual = got
            ok = (
                close(point, ref[0], abs_=1e-6, rel=0.0)
                and close(lower, ref[1], abs_=1e-6, rel=0.0)
                and close(residual, ref[3])
                and (verdict == ref[2] or abs(ref[1] - self.TARGET) <= 1e-6)
            )
            if not ok:
                errors.append(f"campaign {k} period {period + 1}: {got} != {ref}")
        missing = len(expected) - len(records)
        return len(expected), len(errors) + max(missing, 0), errors


# -- fleet1000 ----------------------------------------------------------------


class Fleet1000:
    """The portfolio user: ``fit_vb2_fleet`` over 1000 small Goel-Okumoto
    failure-time projects, then each project's 99% intervals for omega
    and beta and its expected residual faults."""

    name = "fleet1000"
    in_process = True
    NOMINAL_PASS_S = 15.0
    POOL = 2000
    PROJECTS = 1000
    MODULES = ("repro.bayes.priors", "repro.core.fleet", "repro.data.failure_data")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.order = [int(k) for k in _order(seed, self.POOL)]
        self.reference = load_reference(self.name)

    @classmethod
    def pool_projects(cls):
        """(times, horizon) per project, shaped like the fleet benchmark's
        ragged portfolio: omega 12..30, beta 0.008..0.016, horizon 60..100."""
        import numpy as np

        rng = np.random.default_rng([POOL_SEED, 3])
        projects = []
        for i in range(cls.POOL):
            omega = 12.0 + (i % 7) * 3.0
            beta = 0.008 + (i % 5) * 0.002
            horizon = 60.0 + (i % 11) * 4.0
            lifetimes = rng.exponential(1.0 / beta, rng.poisson(omega))
            projects.append((np.sort(lifetimes[lifetimes <= horizon]), horizon))
        return projects

    @staticmethod
    def pool_digest(projects) -> str:
        return _digest(t.astype("<f8").tobytes() + repr(h).encode() for t, h in projects)

    def prepare(self) -> None:
        self.projects = self.pool_projects()
        _check_digest(self.name, self.pool_digest(self.projects), self.reference)

    @staticmethod
    def prior():
        from repro.bayes.priors import ModelPrior

        return ModelPrior.informative(30.0, 10.0, 0.01, 0.005)

    def pass_inputs(self, j: int):
        from repro.data.failure_data import FailureTimeData

        halves = self.POOL // self.PROJECTS
        start = (j % halves) * self.PROJECTS
        indices = self.order[start:start + self.PROJECTS]
        datasets = [
            FailureTimeData(self.projects[i][0], horizon=self.projects[i][1])
            for i in indices
        ]
        return indices, datasets, self.prior()

    @staticmethod
    def run_pass(inputs):
        """Fit the fleet, then intervals and residual faults per project."""
        from repro.core.fleet import fit_vb2_fleet

        _, datasets, prior = inputs
        fleet = fit_vb2_fleet(datasets, prior)
        omega = fleet.credible_intervals("omega", LEVEL)
        beta = fleet.credible_intervals("beta", LEVEL)
        residual = fleet.expected_total_faults() - [d.count for d in datasets]
        return (omega, beta, residual), None

    @staticmethod
    def summarize(outputs) -> list:
        omega, beta, residual = outputs
        return [
            [float(o[0]), float(o[1]), float(b[0]), float(b[1]), float(r)]
            for o, b, r in zip(omega, beta, residual)
        ]

    def check(self, inputs, outputs) -> tuple[int, int, list[str]]:
        indices = inputs[0]
        expected = self.reference["projects"]
        errors = []
        rows = self.summarize(outputs)
        for i, got in zip(indices, rows):
            if not all(close(g, r) for g, r in zip(got, expected[i])):
                errors.append(f"project {i}: {got} != {expected[i]}")
        missing = len(indices) - len(rows)
        return len(indices), len(errors) + max(missing, 0), errors


# A run makes floor(--seconds / NOMINAL_PASS_S) passes, at least one: the
# same work on every host and every commit, whatever their speed. The
# nominal time is a fixed budget, not a measurement.
WORKLOADS = {
    cls.name: cls for cls in (CliFit, TrackerGrouped, Fleet1000, PaperTables)
}


def setup_main(argv: list[str]) -> int:
    """Cold set-up step: import the workload's modules, build its inputs."""
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    cls = WORKLOADS[name]
    start = time.perf_counter()
    for module in getattr(cls, "MODULES", ()):
        __import__(module)
    import_s = time.perf_counter() - start
    modules = len(sys.modules)
    workload = cls(seed, workdir)
    workload.prepare()
    if cls.in_process:
        workload.pass_inputs(0)
    print(json.dumps({"import_s": import_s, "modules": modules}))
    return 0


if __name__ == "__main__":
    sys.exit(setup_main(sys.argv[1:]))
