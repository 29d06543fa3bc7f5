"""Mutation check of the thresholds the conditioning promise rests on.

Each mutant is a literal text substitution that loosens one line of the
package: a bound, a gate, a refusal, or a comparison of the cover-tree build
whose separated levels the bounds assume.  The runner applies it to a
temporary copy of the checkout, runs the test suite there with -x, and counts
the mutant killed when the suite fails.  The unmutated copy runs first and
must pass, so a broken checkout cannot pass for a full set of kills.  Not
collected by the package's test run (the file name does not match pytest's
test patterns); run it from the checkout root:

    python3 tests/mutants.py [NAME ...]

It exits 0 when every mutant run is killed and 1 when one survives; 2 means
the checkout does not fit the list (the unmutated suite fails, or a mutant's
text is not found exactly once).  The full list takes about 15 minutes on
2 cores.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (file under src/stablegp, text, its loosened replacement)
MUTANTS = {
    "envelope-at-min-lengthscale": (
        "kernels.py",
        "float(np.max(k.lengthscales))",
        "float(np.min(k.lengthscales))",
    ),
    "packing-count-2u+1": (
        "diagnostics.py",
        "((2.0 * u + 3.0) ** d - (2.0 * u - 1.0) ** d)",
        "((2.0 * u + 1.0) ** d - (2.0 * u - 1.0) ** d)",
    ),
    "shells-one-step-out": (
        "diagnostics.py",
        "psi(u * delta)",
        "psi((u + 1.0) * delta)",
    ),
    "cond-bound-without-max-lambda": (
        "diagnostics.py",
        "(lambda_max_bound + float(lam.max())) / float(lam.min())",
        "lambda_max_bound / float(lam.min())",
    ),
    "predicate-constant-0.39": (
        "linalg.py",
        "u * 3.9 * n**1.5",
        "u * 0.39 * n**1.5",
    ),
    "variance-reduction-0.999": (
        "sgp.py",
        'model.kernel.variance - np.einsum("mq,mq->q", K_zq, S)',
        'model.kernel.variance - 0.999 * np.einsum("mq,mq->q", K_zq, S)',
    ),
    "residual-gate-1e-1": (
        "sgp.py",
        "_RESIDUAL_ACCEPT = 1e-9",
        "_RESIDUAL_ACCEPT = 1e-1",
    ),
    "gate-tile-without-lambda": (
        "sgp.py",
        "R.reshape(-1)[start :: m + 1] += model.lam[tile]",
        "R.reshape(-1)[start :: m + 1] += 0.0",
    ),
    "gate-drops-last-partial-tile": (
        "sgp.py",
        "for start in range(0, m, rows):",
        "for start in range(0, m - m % rows, rows):",
    ),
    "cholesky-flags-at-n-11": (
        "diagnostics.py",
        "n_pred = max(model.m, 11)",
        "n_pred = 11",
    ),
    "claim-strictly-inside-R": (
        "covertree.py",
        "within = _cross_distances(X.take(cat, axis=0), node)[:, 0] <= R",
        "within = _cross_distances(X.take(cat, axis=0), node)[:, 0] < R",
    ),
    "prune-beyond-2R": (
        "covertree.py",
        "reach = 3.0 * R * (1.0 + _PRUNE_SLACK)",
        "reach = 2.0 * R * (1.0 + _PRUNE_SLACK)",
    ),
    "negative-variance-below-minus-1": (
        "cli.py",
        "if belief.var[worst] <= 0.0:",
        "if belief.var[worst] < -1.0:",
    ),
    "zero-variance-accepted": (
        "cli.py",
        "if belief.var[worst] <= 0.0:",
        "if belief.var[worst] < 0.0:",
    ),
}

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench", ".benchmarks")


def run_suite(root: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        cwd=root, env=env, capture_output=True, text=True,
    )


def first_failure(proc: subprocess.CompletedProcess) -> str:
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else f"exit {proc.returncode}"


def main(names) -> int:
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    names = names or list(MUTANTS)
    for name in names:
        module, old, _ = MUTANTS[name]
        found = (ROOT / "src" / "stablegp" / module).read_text().count(old)
        if found != 1:
            print(f"{name}: expected one {old!r} in {module}, found {found}", file=sys.stderr)
            return 2
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="stablegp-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        clean = run_suite(copy)
        if clean.returncode != 0:
            print(f"unmutated suite fails: {first_failure(clean)}", file=sys.stderr)
            return 2
        survivors = []
        for name in names:
            module, old, new = MUTANTS[name]
            path = copy / "src" / "stablegp" / module
            original = path.read_text()
            path.write_text(original.replace(old, new))
            try:
                proc = run_suite(copy)
            finally:
                path.write_text(original)
            verdict = f"killed by {first_failure(proc)}" if proc.returncode != 0 else "SURVIVED"
            print(f"{name}: {verdict}", flush=True)
            if proc.returncode == 0:
                survivors.append(name)
    print(f"{len(names) - len(survivors)} of {len(names)} killed in {time.perf_counter() - t0:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
