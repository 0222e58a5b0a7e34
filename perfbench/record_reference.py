"""Record the reference outputs the benchmark checks every run against.

Run from the repository root at the commit that defines the benchmark::

    PYTHONPATH=src python3 perfbench/record_reference.py

It writes ``perfbench/reference/``: the text ``repro fit`` prints for
every ``cli_fit`` input, every ``tracker_grouped`` pool campaign's
records, every ``fleet1000`` pool project's intervals and residual
faults, and the output of ``repro all --scale quick``. Each file also
holds a digest of the generated pool. Re-recording at a later commit
would turn the correctness check into a tautology; do it only when the
benchmark's inputs themselves change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))


def _short(x: float) -> float:
    """Twelve significant digits: ample for the checks' 1e-6 tolerance."""
    return float(f"{x:.12g}")


def _write(name: str, payload: dict) -> None:
    path = workloads.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    print(f"wrote {path}")


def _cli_output(argv: list[str]) -> str:
    import repro.cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = repro.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited with {code}")
    return buffer.getvalue()


def record_cli_fit(workdir: Path) -> None:
    cls = workloads.CliFit
    texts = [cls.pool_csv(k) for k in range(cls.POOL)]
    payload = {"inputs_sha256": cls.pool_digest(texts)}
    payload["sys17_times"] = _cli_output(
        cls.SYS17_TIMES + ["--data", str(workloads.DATA_DIR / "sys17_times.csv")]
    )
    payload["sys17_grouped"] = _cli_output(
        cls.SYS17_GROUPED + ["--data", str(workloads.DATA_DIR / "sys17_grouped.csv")]
    )
    pool = []
    for k, text in enumerate(texts):
        path = workdir / f"pool_{k}.csv"
        path.write_text(text)
        pool.append(_cli_output(cls.POOL_FIT + ["--data", str(path)]))
    payload["pool"] = pool
    _write(cls.name, payload)


def record_tracker(workdir: Path) -> None:
    cls = workloads.TrackerGrouped
    counts = [cls.pool_counts(k) for k in range(cls.POOL)]
    campaigns = []
    for k in range(cls.POOL):
        records, _ = cls.run_pass(cls.campaign_inputs(k, counts[k]))
        campaigns.append([
            [_short(p), _short(lo), bool(v), _short(r)]
            for p, lo, v, r in cls.summarize(records)
        ])
    _write(cls.name, {"inputs_sha256": cls.pool_digest(counts), "campaigns": campaigns})


def record_fleet(workdir: Path) -> None:
    from repro.core.fleet import fit_vb2_fleet
    from repro.data.failure_data import FailureTimeData

    cls = workloads.Fleet1000
    projects = cls.pool_projects()
    # One fleet over the whole pool: a project's posterior does not
    # depend on the fleet around it (fleet == scalar, bit for bit).
    datasets = [FailureTimeData(t, horizon=h) for t, h in projects]
    fleet = fit_vb2_fleet(datasets, cls.prior())
    outputs = (
        fleet.credible_intervals("omega", workloads.LEVEL),
        fleet.credible_intervals("beta", workloads.LEVEL),
        fleet.expected_total_faults() - [d.count for d in datasets],
    )
    rows = [[_short(x) for x in row] for row in cls.summarize(outputs)]
    _write(cls.name, {"inputs_sha256": cls.pool_digest(projects), "projects": rows})


def record_paper_tables(workdir: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *workloads.PaperTables.ARGV],
        capture_output=True, text=True, env=env, cwd=workdir, check=True,
    )
    path = workloads.REFERENCE_DIR / f"{workloads.PaperTables.name}.txt"
    path.write_text(proc.stdout)
    print(f"wrote {path}")


def main(argv: list[str]) -> int:
    recorders = {
        "cli_fit": record_cli_fit,
        "tracker_grouped": record_tracker,
        "fleet1000": record_fleet,
        "paper_tables": record_paper_tables,
    }
    names = argv or list(recorders)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=HERE))
    try:
        for name in names:
            recorders[name](workdir)
    finally:
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
