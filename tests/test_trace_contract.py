"""The benchmark tracer's contract with the package.

perfbench/tracer.py wraps the functions named in its LAYER_CALLS table by
looking each one up by name when a traced run starts, and its counters read
some of their arguments by name.  Renaming or deleting one of those
functions, or one of those arguments, or changing the shape of a result a
counter reads, would make every traced benchmark run crash; these tests catch
that in the ordinary test suite.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from stablegp import ClusteredModel, Family, Kernel, clustered_posterior
from stablegp import cli, linalg

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# argument names the tracer's counters read from a call's bound arguments
COUNTED_ARGUMENTS = {
    ("stablegp.linalg", "cg_multi"): {"B"},
    ("stablegp.linalg", "cho_solve"): {"B"},
    ("stablegp.kernels", "gram"): {"A", "B"},
    ("stablegp.kernels", "gram_gradients"): {"A", "B"},
    ("stablegp.cli", "write_table"): {"rows"},
}


def _layer_calls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses resolve the module by name
    spec.loader.exec_module(tracer)
    return tracer.LAYER_CALLS


LAYER_CALLS = _layer_calls()


@pytest.mark.parametrize("call", LAYER_CALLS, ids=lambda c: f"{c.module}.{c.function}")
def test_traced_function_resolves(call):
    fn = getattr(importlib.import_module(call.module), call.function, None)
    assert callable(fn), f"{call.module}.{call.function} is traced by the benchmark but does not exist"


@pytest.mark.parametrize("key", sorted(COUNTED_ARGUMENTS), ids=lambda k: f"{k[0]}.{k[1]}")
def test_counted_arguments_are_in_the_signature(key):
    assert key in {(c.module, c.function) for c in LAYER_CALLS}
    module, function = key
    params = inspect.signature(getattr(importlib.import_module(module), function)).parameters
    missing = COUNTED_ARGUMENTS[key] - set(params)
    assert not missing, f"{module}.{function} lost the argument(s) {sorted(missing)} the tracer counts"


@pytest.mark.parametrize("full_cov", [True, False])
def test_posterior_counter_reads_both_return_shapes(full_cov):
    (call,) = [c for c in LAYER_CALLS if (c.module, c.function) == ("stablegp.sgp", "clustered_posterior")]
    rng = np.random.default_rng(0)
    z = rng.uniform(-2.0, 2.0, size=(6, 2))
    kernel = Kernel(Family.MATERN32, 1.0, np.ones(2))
    model = ClusteredModel(kernel, 0.2, z, rng.normal(size=6), np.full(6, 0.05), np.full(6, 4))
    Q = rng.uniform(-2.0, 2.0, size=(11, 2))
    belief = clustered_posterior(model, Q, full_cov=full_cov)
    counts = call.counter({"model": model, "query": Q, "full_cov": full_cov}, belief)
    assert counts == {"queries": len(Q)}


# CG on a diagonal matrix takes one iteration per eigenvalue the right-hand
# side excites; column j of the upper-triangular ones excites the first j + 1
@pytest.mark.parametrize(
    "function, B, expected",
    [
        ("cg_multi", np.ones(4), {"rhs": 1, "iterations": 4, "max_iterations": 4}),
        ("cg_multi", np.triu(np.ones((4, 4)))[:, [0, 1, 3]], {"rhs": 3, "iterations": 1 + 2 + 4, "max_iterations": 4}),
        ("conjugate_gradient", np.ones(4), {"rhs": 1, "iterations": 4, "max_iterations": 4}),
    ],
    ids=["cg_multi-1d", "cg_multi-2d", "conjugate_gradient"],
)
def test_cg_counters_read_real_results(function, B, expected):
    (call,) = [c for c in LAYER_CALLS if (c.module, c.function) == ("stablegp.linalg", function)]
    A = np.diag([0.5, 1.0, 2.0, 4.0])
    args = {"matvec": lambda v: A @ v, "b": B} if function == "conjugate_gradient" else {"A": A, "B": B}
    result = getattr(linalg, function)(**args)
    assert call.counter(args, result) == expected


def test_cholesky_counter_reads_a_real_factorization():
    (call,) = [c for c in LAYER_CALLS if (c.module, c.function) == ("stablegp.linalg", "cholesky")]
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    assert call.counter({"A": A}, linalg.cholesky(A)) == {"jitter_max": 0.0}


@pytest.mark.parametrize("quoted", [False, True], ids=["loadtxt", "fallback"])
@pytest.mark.parametrize("has_y", [True, False])
def test_load_csv_counter_reads_both_parse_paths(tmp_path, monkeypatch, quoted, has_y):
    (call,) = [c for c in LAYER_CALLS if (c.module, c.function) == ("stablegp.cli", "_load_csv_columns")]
    rows = [[0.5, 1.5, 2.0], [-1.0, 0.25, 3.0], [4.0, -2.5, 0.0]]
    lines = [",".join(repr(v) for v in row[: 3 if has_y else 2]) for row in rows]
    if quoted:
        lines[1] = '"' + lines[1].replace(",", '","') + '"'  # float reads it, loadtxt does not
    path = tmp_path / "data.csv"
    path.write_text(("x1,x2,y" if has_y else "x1,x2") + "\n" + "\n".join(lines) + "\n")
    kept = []
    loadtxt_rows = cli._loadtxt_rows

    def spy(fh, width, skiprows):
        kept.append(loadtxt_rows(fh, width, skiprows))
        return kept[-1]

    monkeypatch.setattr(cli, "_loadtxt_rows", spy)
    result = cli._load_csv_columns(str(path), require_targets=False)
    assert (kept[0] is None) == quoted
    assert result[2] == has_y
    counts = call.counter({"path": str(path), "require_targets": False}, result)
    assert counts == {"rows_read": len(rows)}
