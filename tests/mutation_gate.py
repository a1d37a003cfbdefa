"""The mutation gate: tier-1 must fail on every mutant of ``mutants.py``.

For each mutant it copies ``src/``, ``tests/`` and ``pyproject.toml`` to
a temporary directory, applies the mutant there and runs tier-1 with
``-x`` against the copy.  The runs leave out ``test_mutants.py``, which
checks the table against the unmutated code and so fails on any mutant.
A control run on an unmutated copy comes first: if it fails, every
mutant would look killed, so the gate stops there.  It prints each
mutant's fate and first failure, and exits 1 if any mutant survives.

    python tests/mutation_gate.py [NAME ...]

Names pick mutants; with none it runs them all.  A mutant costs one
tier-1 run up to its first failure, 10 to 35 s on one core of a 2-core
x86-64 host, and the control run a whole one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

from mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "--ignore=tests/test_mutants.py"]


def first_failure(mutant: Optional[Mutant]) -> Optional[str]:
    """How tier-1 fails on a copy of the repository with ``mutant``
    applied (none: the control run): its first failure's summary line,
    or None if it passes."""
    with tempfile.TemporaryDirectory(prefix="trine-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            path = copy / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: its old text does not occur exactly once "
                                 f"in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        where = subprocess.run([sys.executable, "-c", "import trine; print(trine.__file__)"],
                               env=env, cwd=copy, capture_output=True, text=True, check=True)
        if not Path(where.stdout.strip()).resolve().is_relative_to(copy.resolve()):
            raise SystemExit(f"trine imports from {where.stdout.strip()}, not the copy")
        run = subprocess.run([sys.executable, *TIER1], env=env, cwd=copy,
                             capture_output=True, text=True)
        if run.returncode == 0:
            return None
        failed = [line for line in run.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
        return failed[0] if failed else f"exit code {run.returncode}"


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 1
    start = time.perf_counter()
    failure = first_failure(None)
    if failure is not None:
        print(f"the unmutated copy fails tier-1: {failure}", file=sys.stderr)
        return 1
    print(f"control  unmutated copy passes ({time.perf_counter() - start:.1f} s)", flush=True)
    survivors = []
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        failure = first_failure(mutant)
        seconds = time.perf_counter() - start
        if failure is None:
            survivors.append(mutant)
        print(f"{'killed' if failure else 'SURVIVED':8} {mutant.name} ({seconds:.1f} s)"
              + (f": {failure}" if failure else ""), flush=True)
    for mutant in survivors:
        print(f"survivor {mutant.name} in {mutant.file}: {mutant.reason}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
