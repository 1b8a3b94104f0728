"""Checks that the tests still catch broken rounding margins.

Usage, from the root of a source checkout:

    python3 tools/mutants.py

Each entry of MUTANTS breaks one derived margin of the solver: it names a
file under ``src/``, one exact snippet of its source, the snippet's
replacement and the test files that must then fail. For each mutant, the
harness copies ``src/`` to a temporary directory, applies the one
replacement there, and runs ``pytest -x -q`` on the named tests against the
copy, from the temporary directory, which holds the run's hypothesis
database; no pytest cache is written. A mutant the tests do not fail has
survived. The harness exits 1 if any mutant survives, and also, before
running anything, if a snippet is missing from its file or appears more than
once: a refactor that moves a margin must move its mutant with it. The
checkout's own files are never changed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # relative to the checkout's root


BOUNDS = "queryplan/bounds.py"
BOUNDS_TESTS = ("tests/test_bounds.py",)
EXACT = "queryplan/exact.py"
EXACT_TESTS = ("tests/test_exact.py",)

MUTANTS = (
    # _rule: the bounds a lane's rule answers golden-section rounds with
    Mutant(
        "rule-slope-bound-halved",
        BOUNDS,
        "g = sign * g - sigma",
        "g = sign * g - 0.5 * sigma",
        BOUNDS_TESTS,
    ),
    Mutant(
        "rule-no-curvature-drift",
        BOUNDS,
        "return (*ends, width, 2.0 * delta * _UP)",
        "return (*ends, 0.0, 2.0 * delta * _UP)",
        BOUNDS_TESTS,
    ),
    Mutant(
        "rule-tol-one-delta",
        BOUNDS,
        "return (*ends, width, 2.0 * delta * _UP)",
        "return (*ends, width, delta * _UP)",
        BOUNDS_TESTS,
    ),
    Mutant(
        "rule-lower-curvature-as-computed",
        BOUNDS,
        "low = max((kappa - zeta) * (1.0 - eta), 0.0) * _DOWN",
        "low = max(kappa, 0.0)",
        BOUNDS_TESTS,
    ),
    # _bracket_margin: the surrogate accept's bound on a check's value
    Mutant(
        "bracket-margin-no-epsilon",
        BOUNDS,
        "        eps\n        + 0.5 * GSS_TOL",
        "        0.5 * GSS_TOL",
        BOUNDS_TESTS,
    ),
    Mutant(
        "bracket-margin-no-curvature-term",
        BOUNDS,
        "        + 0.25 * kappa * GSS_TOL * GSS_TOL\n",
        "",
        BOUNDS_TESTS,
    ),
    # _split_accept and _split_bounds: the pairwise split's Δ margin, its
    # rounding band and its lower bound's cut
    Mutant(
        "split-margin-zero",
        EXACT,
        "margin = _margin(widest, k, scale)",
        "margin = 0.0",
        EXACT_TESTS,
    ),
    Mutant(
        "split-band-no-rounding-term",
        EXACT,
        "band = 1e-9 + 2.0 * (_gamma(2 * k + 6) * (4.0 * scale + 750.0)"
        " + _gamma(terms))",
        "band = 1e-9",
        EXACT_TESTS,
    ),
    Mutant(
        "split-lower-at-upper-cut",
        EXACT,
        "            low_y += term\n",
        "            low_y += float(e_y @ tail[short]) * f\n",
        EXACT_TESTS,
    ),
)


def _mutated(mutant: Mutant, src: Path) -> str:
    """The mutant's file under src with the mutant applied; raises
    ValueError unless its snippet appears there exactly once."""
    text = (src / mutant.file).read_text()
    found = text.count(mutant.snippet)
    if found != 1:
        raise ValueError(
            f"mutant {mutant.name}: snippet found {found} times in src/{mutant.file}"
        )
    return text.replace(mutant.snippet, mutant.replacement)


def _killed(mutant: Mutant) -> bool:
    """Whether the mutant's tests fail against a mutated copy of src/."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / mutant.file).write_text(_mutated(mutant, src))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        cmd = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *(str(ROOT / t) for t in mutant.tests),
        ]
        # run from the temporary directory, which then holds any hypothesis
        # database, so no failing example is replayed against the checkout
        done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
        if done.returncode not in (0, 1):
            raise RuntimeError(
                f"mutant {mutant.name}: pytest exited {done.returncode}\n{done.stdout}"
                f"{done.stderr}"
            )
        return done.returncode == 1


def main() -> int:
    try:
        for m in MUTANTS:  # every snippet is checked before any test runs
            _mutated(m, ROOT / "src")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    survivors = []
    for m in MUTANTS:
        start = time.perf_counter()
        killed = _killed(m)
        verdict = "killed" if killed else "SURVIVED"
        print(f"{m.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
        if not killed:
            survivors.append(m.name)
    if survivors:
        names = ", ".join(survivors)
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: {names}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
