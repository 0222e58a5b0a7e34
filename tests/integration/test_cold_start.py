"""Cold-start guards: ``scipy.stats`` and ``scipy.optimize`` are imported
inside the functions that use them, never at module level.

Either package pulls in most of SciPy (linalg, sparse, integrate,
interpolate, ndimage, spatial), which costs a cold ``repro fit`` more
than the fit itself. The AST check keeps module-level imports out; the
subprocess check confirms that the everyday ``repro fit`` commands never
reach a function that needs them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from repro.data.datasets import system17_failure_times, system17_grouped
from repro.data.io import save_failure_times_csv, save_grouped_csv

SRC = Path(__file__).resolve().parents[2] / "src"

HEAVY = ("scipy.stats", "scipy.optimize")


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _heavy_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.module == "scipy":
        names = [f"scipy.{alias.name}" for alias in node.names]
    else:
        names = [node.module or ""]
    return [
        name for name in names
        if any(name == heavy or name.startswith(heavy + ".") for heavy in HEAVY)
    ]


def _module_level_heavy_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """Heavy imports that run when the module is imported: everything
    outside function bodies and ``if TYPE_CHECKING:`` blocks."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend((node.lineno, name) for name in _heavy_names(node))
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_no_module_level_scipy_stats_or_optimize():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name in _module_level_heavy_imports(tree):
            offenders.append(f"{path.relative_to(SRC)}:{line} {name}")
    assert offenders == [], (
        "module-level imports of scipy.stats/scipy.optimize (import them "
        f"inside the function that uses them): {offenders}"
    )


def test_the_guard_sees_module_level_and_skips_function_bodies():
    tree = ast.parse(
        "from scipy import stats as st\n"
        "import scipy.optimize\n"
        "from scipy.stats import norm\n"
        "from scipy import special\n"
        "if TYPE_CHECKING:\n"
        "    from scipy import stats\n"
        "class A:\n"
        "    from scipy import optimize\n"
        "    def f(self):\n"
        "        from scipy import stats\n"
        "def g():\n"
        "    import scipy.stats\n"
    )
    assert sorted(_module_level_heavy_imports(tree)) == [
        (1, "scipy.stats"), (2, "scipy.optimize"), (3, "scipy.stats"),
        (8, "scipy.optimize"),
    ]


#: Runs ``python -m repro`` and reports the heavy modules loaded at exit.
_PROBE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('LOADED', sorted(m for m in {heavy!r} "
    "if m in sys.modules), file=sys.stderr))\n"
    "sys.argv = ['repro'] + sys.argv[1:]\n"
    "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
).format(heavy=HEAVY)


def _run_fit(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", _PROBE, "fit", *args],
        capture_output=True, text=True, timeout=300, check=False, env=env,
    )


def test_repro_fit_never_imports_scipy_stats_or_optimize(tmp_path):
    times_csv = tmp_path / "times.csv"
    grouped_csv = tmp_path / "grouped.csv"
    save_failure_times_csv(system17_failure_times(), times_csv)
    save_grouped_csv(system17_grouped(), grouped_csv)
    runs = {
        "times": _run_fit(
            "--data", str(times_csv), "--kind", "times", "--horizon", "240000",
            "--method", "vb2", "--omega-mean", "50", "--omega-std", "15.8",
            "--beta-mean", "1e-5", "--beta-std", "3.2e-6", "--predict", "10000",
        ),
        "grouped": _run_fit(
            "--data", str(grouped_csv), "--kind", "grouped", "--method", "vb2",
            "--omega-mean", "50", "--omega-std", "15.8",
            "--beta-mean", "0.033", "--beta-std", "0.011",
        ),
    }
    for label, result in runs.items():
        assert result.returncode == 0, (label, result.stderr[-2000:])
        assert "99% CI" in result.stdout, label
        assert "LOADED []" in result.stderr, (label, result.stderr[-2000:])
    assert "predictive failures in window" in runs["times"].stdout
