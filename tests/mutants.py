"""Mutation gate: faults in `src/` that the tests must catch.

    python tests/mutants.py

Each entry of MUTANTS names a file, an exact text in it, the text that
replaces it, the test files that must catch the change and why it is a
fault.  The gate first runs those test files on an unchanged copy of the
repository and requires them to pass.  Then, for each entry, it copies
`src/`, `tests/` and `pyproject.toml` into a temporary directory, makes
the edit there, runs ``pytest -x -q`` on the entry's test files and
requires a failure (pytest's exit code 1).  The repository itself is
never edited.  Exits 0 when every mutant is killed, 1 otherwise.

Pytest does not collect this file: its name has no ``test_`` prefix.  An
entry is never removed, nor its text changed, to make the gate pass; a
survivor is mended by a test that fails on it and passes without it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple  # test files, relative to the repository root
    why: str


MUTANTS = (
    Mutant(
        "src/gasketfif/gasket.py",
        "MAX_WINDOW = 2.0**-3",
        "MAX_WINDOW = 2.0**-1",
        ("tests/test_gasket.py",),
        "descents whose window is up to half a cell wide are taken, not refused",
    ),
    Mutant(
        "src/gasketfif/model.py",
        "COMPATIBILITY_TOL = 1e-12",
        "COMPATIBILITY_TOL = 1e-3",
        ("tests/test_model.py", "tests/test_cli.py"),
        "junction discrepancies up to 1e-3 pass the compatibility check",
    ),
    Mutant(
        "src/gasketfif/gasket.py",
        "_WINDOW_ULPS = 8.0 * 2.0**-52",
        "_WINDOW_ULPS = 1.0 * 2.0**-52",
        ("tests/test_evaluator.py",),
        "a 1-ulp starting window does not cover bary_f's rounding at touching points",
    ),
    Mutant(
        "src/gasketfif/evaluator.py",
        "l0 * (a[0] * m0 + a[1] * m1 + a[2] * m2)",
        "l0 * (a[1] * m0 + a[0] * m1 + a[2] * m2)",
        ("tests/test_evaluator.py",),
        "eval_approx's tensor alpha form swaps the corners [1, 1] and [1, 2]",
    ),
)

_IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def _pytest(tests: tuple, mutant: Mutant = None) -> subprocess.CompletedProcess:
    """pytest -x -q on `tests` in a temporary copy of the repository,
    with `mutant`'s edit made in the copy when one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tmp / name, ignore=_IGNORE)
        shutil.copy2(ROOT / "pyproject.toml", tmp)
        if mutant is not None:
            target = tmp / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(
                    f"stale entry: {mutant.old!r} occurs {text.count(mutant.old)} times "
                    f"in {mutant.path}"
                )
            target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        return subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True)


def _failed(proc: subprocess.CompletedProcess) -> list:
    return [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]


def main() -> int:
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    base = _pytest(tests)
    if base.returncode != 0:
        print(f"the unchanged tests fail (pytest exit {base.returncode}):", *_failed(base), sep="\n")
        return 1
    survivors = 0
    for m in MUTANTS:
        proc = _pytest(m.tests, m)
        killed = proc.returncode == 1
        survivors += not killed
        verdict = "killed" if killed else f"SURVIVED (pytest exit {proc.returncode})"
        print(f"{verdict}: {m.path}: {m.old!r} -> {m.new!r}; {m.why}")
        for line in _failed(proc):
            print(f"    {line}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
