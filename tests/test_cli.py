import argparse
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from stablegp import (
    ClusteredModel,
    Dataset,
    Family,
    Kernel,
    NumericalFailure,
    build,
    cholesky_stability_predicate,
    clustered_posterior,
    cond_bound_with_noise,
    decay_envelope,
    exact_posterior,
    fit_clustered,
    inducing_points,
    lambda_max_bound,
    separation,
    spatial_resolution,
    spectrum,
    stability_report,
    wasserstein2_gaussians,
)
from stablegp import cli
from stablegp.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    load_csv,
    main,
)
from stablegp.sgp import _plus_lambda
from support import read_table, write_csv_dataset


@pytest.fixture()
def small_csv(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.uniform(-2.0, 2.0, size=(40, 2))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(40)
    path = tmp_path / "data.csv"
    write_csv_dataset(str(path), Dataset(X, y))
    return path


@pytest.fixture()
def kernel_json(tmp_path):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([1.0, 1.0])).to_json()))
    return path


def _strict_json(text: str):
    """json.loads that raises on NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------------
# CSV handling

def test_load_csv_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("x1,x2,y\n0.5,1.5,2.0\n")
    data = load_csv(str(path))
    assert data.n == 1 and data.d == 2
    assert data.y[0] == 2.0


def test_csv_roundtrip_identity(tmp_path, small_csv):
    data = load_csv(str(small_csv))
    out = tmp_path / "again.csv"
    write_csv_dataset(str(out), data)
    again = load_csv(str(out))
    assert np.array_equal(again.X, data.X)
    assert np.array_equal(again.y, data.y)


def test_load_csv_errors_name_the_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y\n1.0,2.0\nfoo,3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(str(bad))
    nan = tmp_path / "nan.csv"
    nan.write_text("x1,y\n1.0,nan\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(str(nan))
    short = tmp_path / "short.csv"
    short.write_text("x1,x2,y\n1.0,2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(str(short))
    # a record spanning several physical lines is numbered by the line it starts on
    for name, text, line in (
        ("header2.csv", '"x1\n",y\n1,2\nfoo,3\n', 4),
        ("quoted.csv", 'x1,y\n"1\n",2\nfoo,3\n', 4),
        ("badquoted.csv", 'x1,y\n1,2\n"foo\n",3\n4,5\n', 3),
    ):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(cli.UsageError, match=f"line {line}: non-numeric value"):
            load_csv(str(path))
    # a blank first line leaves an empty header; a quoted field past the csv
    # module's field limit sends loadtxt to the fallback, which must not crash
    blank = tmp_path / "blank.csv"
    blank.write_text("\nx1,y\n1,2\n")
    huge = tmp_path / "huge.csv"
    huge.write_text('x1,y\n1,2\n"' + "1" * 140_000 + '",2\n')
    huge_late = tmp_path / "huge_late.csv"
    huge_late.write_text('"x1\n",y\n"1\n",2\n"' + "1" * 140_000 + '",2\n')
    for path, message in ((blank, "header must be"), (huge, "line 3"), (huge_late, "line 5")):
        with pytest.raises(cli.UsageError, match=message):
            load_csv(str(path))
        out = tmp_path / "z.json"
        assert main(["select", str(path), "--method", "uniform", "--m", "1", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()


def _load_both_ways(monkeypatch, path, require_targets=True):
    """_load_csv_columns as shipped and with the loadtxt path forced off, plus
    whether the shipped call kept loadtxt's result.  Each result is the
    return value, or the error's type and message."""
    kept = []
    loadtxt_rows = cli._loadtxt_rows

    def spy(fh, width, skiprows):
        arr = loadtxt_rows(fh, width, skiprows)
        kept.append(arr is not None)
        return arr

    results = []
    for fast_path in (spy, lambda fh, width, skiprows: None):
        with monkeypatch.context() as m:
            m.setattr(cli, "_loadtxt_rows", fast_path)
            try:
                results.append(cli._load_csv_columns(str(path), require_targets))
            except ValueError as e:
                results.append((type(e), str(e)))
    return results[0], results[1], kept == [True]


def _bit_equal(a, b):
    if isinstance(a[0], type) or isinstance(b[0], type):
        return a == b  # an error's type and message
    return all(
        (u is None and v is None) or (u.shape == v.shape and u.dtype == v.dtype and u.tobytes() == v.tobytes())
        for u, v in zip(a, b, strict=True)
    )


def test_load_csv_fast_and_slow_paths_agree(tmp_path, monkeypatch):
    rng = np.random.default_rng(21)
    X = rng.normal(size=(300, 2)) * 10.0 ** rng.uniform(-300.0, 300.0, size=(300, 1))
    X[:4, 0] = [-0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308]
    y = rng.normal(size=300)
    write_csv_dataset(str(tmp_path / "repr.csv"), Dataset(X, y))
    np.savetxt(tmp_path / "g17.csv", np.column_stack([X, y]), fmt="%.17g", delimiter=",", header="x1,x2,y", comments="")
    texts = {
        "crlf.csv": "x1,x2,y\r\n0.5,1.5,2.0\r\n-1e-3,3,4.25\r\n",
        "blank.csv": "x1,x2,y\n\n0.5,1.5,2.0\n\n\n-1e-3,3,4.25\n\n",
        "padded.csv": "x1,x2,y\n 0.5 ,\t1.5\t,  2.0\n-1e-3\t, 3 ,4.25 \n",
        "query.csv": "x1,x2\n0.5,1.5\n-1e-3,3\n",
        "no_newline.csv": "x1,x2,y\n0.5,1.5,2.0\n-1e-3,3,4.25",
        "quoted.csv": 'x1,x2,y\n"1.0",1.5,2.0\n-1e-3,3,4.25\n',
        "underscore.csv": "x1,x2,y\n1_0,1.5,2.0\n-1e-3,3,4.25\n",
        "lone_cr.csv": "x1,x2,y\r0.5,1.5,2.0\r-1e-3,3,4.25\r",
        "mixed.csv": "x1,x2,y\r\n0.5,1.5,2.0\n-1e-3,3,4.25\r\n7,8,9\r10,11,12\n",
        "two_line_header.csv": '"x1\r\n",x2,y\r\n0.5,1.5,2.0\n-1e-3,3,4.25\n',
        # numpy opens a path by its suffix: plain text under a compressed name
        "plain.csv.gz": "x1,x2,y\n0.5,1.5,2.0\n-1e-3,3,4.25\n",
        "plain.csv.xz": "x1,x2,y\n0.5,1.5,2.0\n-1e-3,3,4.25\n",
    }
    for name, text in texts.items():
        (tmp_path / name).write_bytes(text.encode())
    # loadtxt rejects quotes and underscores, which float reads, and the
    # compressed names fail to decompress
    slow_only = ("quoted.csv", "underscore.csv", "plain.csv.gz", "plain.csv.xz")
    for name in ["repr.csv", "g17.csv", *texts]:
        fast, slow, kept = _load_both_ways(monkeypatch, tmp_path / name, require_targets=name != "query.csv")
        assert _bit_equal(fast, slow), name
        assert not isinstance(fast[0], type), name
        assert kept == (name not in slow_only), name
    # Bytes that are not UTF-8, in the header's chunk, past it, and past the
    # first _SCAN_CHUNK characters of the rows: the data rows are decoded
    # before loadtxt runs, so both paths raise the same error.
    rows = "".join(f"{i},{i / 7!r}\n" for i in range(2000)).encode()
    bad = (
        ("latin1_head.csv", b"x1,y\n1,\xe92\n"),
        ("latin1_tail.csv", b"x1,y\n" + rows + b"3,\xff\n"),
        ("latin1_late_chunk.csv", b"x1,y\n" + b"1,2\n" * (cli._SCAN_CHUNK // 4 + 1) + b"3,\xff\n"),
    )
    for name, data in bad:
        (tmp_path / name).write_bytes(data)
        fast, slow, kept = _load_both_ways(monkeypatch, tmp_path / name)
        assert fast == slow and fast[0] is UnicodeDecodeError and not kept, name
    fast, _, _ = _load_both_ways(monkeypatch, tmp_path / "repr.csv")
    assert np.array_equal(fast[0], X) and np.array_equal(fast[1], y)
    fast, _, _ = _load_both_ways(monkeypatch, tmp_path / "quoted.csv")
    assert fast[0][0, 0] == 1.0
    fast, _, _ = _load_both_ways(monkeypatch, tmp_path / "underscore.csv")
    assert fast[0][0, 0] == 10.0


@pytest.mark.parametrize(
    "text, line",
    [
        ("x1,y\n1,2\n3,nan\n5,6\n", 3),
        ("x1,y\n1,2\n3,4\n-inf,6\n7,8\n", 4),
        ("x1,y\n1,2\n3,1e400\n5,6\n", 3),
        ("x1,y\n1,2\n3,4,\n5,6\n", 3),
        ("x1,x2,y\n1,2,3\n4,5\n6,7,8\n", 3),
        ("x1,x2,y\n1,2\n3,4\n5,6\n", 2),  # every row narrower: loadtxt returns 2 columns
        ("x1,y\n1,2\n3\x1c,4\n", 3),  # loadtxt strips the separator, float does not
        pytest.param(  # the same separator, past the first chunk of the scan
            "x1,y\n" + "1,2\n" * (cli._SCAN_CHUNK // 4 + 1) + "3\x1c,4\n", cli._SCAN_CHUNK // 4 + 3,
            id="separator-past-first-chunk",
        ),
    ],
)
def test_load_csv_fast_path_rejects_what_slow_path_rejects(tmp_path, monkeypatch, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    fast, slow, _ = _load_both_ways(monkeypatch, path)
    assert isinstance(fast[0], type) and fast == slow
    with pytest.raises(ValueError, match=f": line {line}: "):
        load_csv(str(path))


def test_load_csv_header_only_raises_without_warning(tmp_path):
    for text in ("x1,y\n", "x1,y\n\n\n"):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                load_csv(str(path))


def test_load_csv_fast_and_slow_paths_agree_on_random_files(tmp_path, monkeypatch):
    # Rows glued from awkward tokens: whitespace of every kind, quotes,
    # underscores, non-finite and out-of-range values, ragged rows, the
    # three line endings.  Both paths must give the same arrays or errors.
    tokens = [
        "1.5", "-2", "1e5", "1e400", "nan", "-inf", "Infinity", "1_0", '"3"', " ", "\t", "", "\xa0",
        "\x0b", "\x1c", "\x1f", "\x85", "\u0661", "+.5", "5.", ".", "e3", "0x1", "#", "\x00", "4.9e-324",
    ]
    rng = np.random.default_rng(22)
    accepted = 0
    for i in range(300):
        width = int(rng.integers(1, 4))
        header = ",".join([f"x{k + 1}" for k in range(width - 1)] + ["y"])
        rows = []
        for _ in range(int(rng.integers(0, 5))):
            fields = []
            for _ in range(int(rng.choice([width, width, width, width - 1, width + 1]))):
                if rng.random() < 0.7:
                    fields.append(repr(float(rng.normal())))
                else:
                    fields.append("".join(rng.choice(tokens, size=int(rng.integers(1, 3)))))
            rows.append(",".join(fields))
        newline = str(rng.choice(["\n", "\r\n", "\r"]))
        path = tmp_path / f"r{i}.csv"
        path.write_bytes((newline.join([header, *rows]) + newline).encode())
        fast, slow, _ = _load_both_ways(monkeypatch, path)
        assert _bit_equal(fast, slow), path.read_bytes()
        accepted += not isinstance(fast[0], type)
    assert accepted > 30


def test_load_csv_scans_the_rows_in_small_chunks(tmp_path, monkeypatch):
    # The rows are decoded _SCAN_CHUNK characters at a time before loadtxt
    # parses them, so on 50,000 rows (3.8 MB of text) the read holds about
    # the 1.2 MB result, loadtxt's own buffers and one chunk; the arrays do
    # not depend on the chunk size.
    rng = np.random.default_rng(23)
    path = tmp_path / "big.csv"
    write_csv_dataset(str(path), Dataset(rng.normal(size=(50_000, 2)), rng.normal(size=50_000)))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        X, y = cli._load_csv_columns(str(path), require_targets=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 2.5 * 2**20
    monkeypatch.setattr(cli, "_SCAN_CHUNK", 1 << 20)
    X_wide, y_wide = cli._load_csv_columns(str(path), require_targets=True)
    assert _bit_equal((X, y), (X_wide, y_wide))


# ---------------------------------------------------------------------------
# select

def test_select_covertree_wide_epsilon_single_point(tmp_path):
    data = tmp_path / "two.csv"
    data.write_text("x1,y\n0.0,1.0\n1.0,2.0\n")
    out = tmp_path / "z.json"
    code = main(["select", str(data), "--method", "covertree", "--epsilon", "10.0", "--out", str(out)])
    assert code == EXIT_OK
    obj = _strict_json(out.read_text())
    assert obj["metrics"]["M"] == 1
    # one point has no pair to measure
    assert obj["metrics"]["separation"] is None


def test_select_covertree_rejects_data_of_infinite_extent(tmp_path, capsys):
    # every coordinate is finite, but squared differences of 1e200-sized
    # coordinates overflow, so the distance from the mean to the data is inf
    X = np.random.default_rng(0).uniform(-5.0, 5.0, size=(500, 2)) * 1e200
    data = tmp_path / "huge.csv"
    write_csv_dataset(str(data), Dataset(X, np.zeros(500)))
    out = tmp_path / "z.json"
    code = main(["select", str(data), "--method", "covertree", "--epsilon", "1e199", "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: the data's extent is not finite: the largest distance from the data mean is inf\n"
    )
    assert not out.exists()


def test_select_uniform_all_points(tmp_path, small_csv):
    out = tmp_path / "z.json"
    code = main(["select", str(small_csv), "--method", "uniform", "--m", "40", "--out", str(out)])
    assert code == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["metrics"]["M"] == 40
    assert obj["metrics"]["spatial_resolution"] == 0.0


def test_select_covertree_metrics_recompute(tmp_path, small_csv):
    out = tmp_path / "z.json"
    code = main(["select", str(small_csv), "--method", "covertree", "--epsilon", "0.5", "--out", str(out)])
    assert code == EXIT_OK
    obj = json.loads(out.read_text())
    pts = np.asarray(obj["points"], dtype=float)
    data = load_csv(str(small_csv))
    assert obj["metrics"]["M"] == pts.shape[0]
    assert obj["metrics"]["separation"] == pytest.approx(separation(pts))
    assert obj["metrics"]["spatial_resolution"] == pytest.approx(spatial_resolution(data.X, pts))
    assert obj["metrics"]["separation"] >= 0.5
    assert obj["metrics"]["spatial_resolution"] <= 0.5


@pytest.mark.parametrize(
    "flags, provenance",
    [
        (["covertree", "--epsilon", "0.5"], {"method": "covertree", "level": 3, "epsilon": 0.5, "seed": 4}),
        (["uniform", "--m", "5"], {"method": "uniform", "seed": 4, "indices": [19, 26, 33, 34, 37]}),
        (["kmeans", "--m", "5", "--kmeans-iters", "3"], {"method": "kmeans", "seed": 4, "iters": 3}),
    ],
    ids=["covertree", "uniform", "kmeans"],
)
def test_select_writes_the_provenance_of_its_method(tmp_path, small_csv, flags, provenance):
    out = tmp_path / "z.json"
    assert main(["select", str(small_csv), "--method", *flags, "--seed", "4", "--out", str(out)]) == EXIT_OK
    obj = _strict_json(out.read_text())
    assert list(obj) == ["points", "provenance", "metrics"]
    # the same keys in the same order, so z.json is the same file byte for byte
    assert list(obj["provenance"].items()) == list(provenance.items())
    X = load_csv(str(small_csv)).X
    if "level" in provenance:
        tree = build(X, 0.5, seed=4)
        assert provenance["level"] == tree.L
        assert obj["points"] == inducing_points(tree).tolist()
    if "indices" in provenance:
        assert obj["points"] == X[provenance["indices"]].tolist()


@pytest.mark.parametrize(
    "method, d, kind",
    [
        *itertools.product(["covertree", "no-voronoi", "uniform", "kmeans"], (1, 2), ("uniform", "grid")),
        ("wide-epsilon", 1, "two"),  # test_select_covertree_wide_epsilon_single_point's data
    ],
)
def test_select_spatial_resolution_is_the_full_scan(tmp_path, method, d, kind):
    # Voronoi trees take it from the leaves' own points; it must still be the
    # nearest-point scan's value bit for bit, ties included.
    path = tmp_path / "data.csv"
    if kind == "two":
        path.write_text("x1,y\n0.0,1.0\n1.0,2.0\n")
    else:
        rng = np.random.default_rng((23, d, kind == "grid"))
        X = rng.uniform(-2.0, 2.0, size=(400, d))
        if kind == "grid":
            X = np.round(X * 4.0) / 4.0
        write_csv_dataset(str(path), Dataset(X, rng.normal(size=400)))
    flags = {
        "covertree": ["--method", "covertree", "--epsilon", "0.3"],
        "no-voronoi": ["--method", "covertree", "--epsilon", "0.3", "--no-voronoi"],
        "uniform": ["--method", "uniform", "--m", "25"],
        "kmeans": ["--method", "kmeans", "--m", "25"],
        "wide-epsilon": ["--method", "covertree", "--epsilon", "10.0"],
    }[method]
    out = tmp_path / "z.json"
    assert main(["select", str(path), *flags, "--seed", "4", "--out", str(out)]) == EXIT_OK
    obj = json.loads(out.read_text())
    pts = np.asarray(obj["points"], dtype=float)
    assert obj["metrics"]["spatial_resolution"] == spatial_resolution(load_csv(str(path)).X, pts)


def test_select_reads_data_from_a_pipe(tmp_path, small_csv):
    # a pipe cannot seek, so its rows are parsed in one pass; the inducing
    # set must be the one the same file gives when read from disk
    outs = {name: tmp_path / f"{name}.json" for name in ("pipe", "file")}
    flags = ["--method", "covertree", "--epsilon", "0.5", "--out"]
    assert main(["select", str(small_csv), *flags, str(outs["file"])]) == EXIT_OK
    argv = ["select", "/dev/stdin", *flags, str(outs["pipe"])]
    _fresh_python(f"import sys\nfrom stablegp.cli import main\nsys.exit(main({argv!r}))", stdin=small_csv.read_text())
    got = {name: _strict_json(path.read_text()) for name, path in outs.items()}
    for obj in got.values():
        del obj["metrics"]["wall_time_ms"]
    assert got["pipe"] == got["file"]


def test_select_rejects_bad_usage(tmp_path, small_csv, capsys):
    out = tmp_path / "z.json"
    # covertree needs an epsilon, the other methods a target M
    for method, flag in (("covertree", "--epsilon"), ("uniform", "--m"), ("kmeans", "--m")):
        assert main(["select", str(small_csv), "--method", method, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {flag} is required for method={method}\n"
    assert main(["select", str(tmp_path / "missing.csv"), "--method", "uniform", "--m", "3", "--out", str(out)]) == EXIT_USAGE
    assert main(["select", str(small_csv), "--method", "uniform", "--m", "99", "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    kmeans = ["select", str(small_csv), "--method", "kmeans", "--m", "5", "--out", str(out)]
    assert main(kmeans + ["--kmeans-iters", "0"]) == EXIT_OK


# ---------------------------------------------------------------------------
# fit / predict

def fit_files(tmp_path, small_csv, kernel_json, steps=0, extra=()):
    z_path = tmp_path / "z.json"
    assert main(["select", str(small_csv), "--method", "covertree", "--epsilon", "0.6", "--out", str(z_path)]) == EXIT_OK
    model_path = tmp_path / "model.json"
    args = [
        "fit", str(small_csv), str(z_path), str(kernel_json),
        "--sigma2", "0.1", "--steps", str(steps), "--out", str(model_path),
    ]
    args += list(extra)
    assert main(args) == EXIT_OK
    return z_path, model_path


def test_fit_zero_steps_matches_library_fit(tmp_path, small_csv, kernel_json):
    z_path, model_path = fit_files(tmp_path, small_csv, kernel_json)
    obj = _strict_json(model_path.read_text())
    data = load_csv(str(small_csv))
    z = np.asarray(json.loads(z_path.read_text())["points"], dtype=float)
    kernel = Kernel.from_json(json.loads(kernel_json.read_text()))
    want = fit_clustered(data, z, kernel, 0.1)
    assert np.allclose(np.asarray(obj["u"]), want.u, atol=0.0)
    assert np.allclose(np.asarray(obj["lambda"]), want.lam, atol=0.0)
    assert np.asarray(obj["counts"]).sum() == data.n


def test_fit_deterministic_under_seed(tmp_path, small_csv, kernel_json):
    _, m1 = fit_files(tmp_path, small_csv, kernel_json, steps=4, extra=("--seed", "3"))
    text1 = m1.read_text()
    _, m2 = fit_files(tmp_path, small_csv, kernel_json, steps=4, extra=("--seed", "3"))
    assert m2.read_text() == text1


def test_fit_training_log_mostly_nonincreasing(tmp_path, kernel_json):
    rng = np.random.default_rng(7)
    data = cli._synthetic_problem(2, 300, 0.09, 5, np.zeros((1, 2)))[0]
    path = tmp_path / "synth.csv"
    write_csv_dataset(str(path), data)
    z_path = tmp_path / "z.json"
    assert main(["select", str(path), "--method", "covertree", "--epsilon", "1.0", "--out", str(z_path)]) == EXIT_OK
    model_path = tmp_path / "model.json"
    code = main([
        "fit", str(path), str(z_path), str(kernel_json),
        "--sigma2", "0.5", "--steps", "40", "--batch", "300", "--probes", "30",
        "--seed", "1", "--out", str(model_path),
    ])
    assert code == EXIT_OK
    _, rows = read_table(str(model_path) + ".log.csv")
    values = np.array([row["objective"] for row in rows])
    drops = np.diff(values) <= 0.0
    assert drops.mean() >= 0.8


def test_predict_mean_matches_u_under_tight_lambda(tmp_path, kernel_json):
    rng = np.random.default_rng(1)
    X = np.array([[-2.0, 0.0], [0.0, 0.0], [2.0, 0.0]]).repeat(50, axis=0)
    y = np.repeat([1.0, -0.5, 2.0], 50) + 1e-6 * rng.standard_normal(150)
    path = tmp_path / "tight.csv"
    write_csv_dataset(str(path), Dataset(X, y))
    z_path = tmp_path / "z.json"
    assert main(["select", str(path), "--method", "covertree", "--epsilon", "1.0", "--out", str(z_path)]) == EXIT_OK
    model_path = tmp_path / "model.json"
    assert main([
        "fit", str(path), str(z_path), str(kernel_json),
        "--sigma2", "1e-6", "--steps", "0", "--out", str(model_path),
    ]) == EXIT_OK
    model = json.loads(model_path.read_text())
    query = tmp_path / "query.csv"
    z = np.asarray(model["z"], dtype=float)
    write_csv_dataset(str(query), Dataset(z, np.zeros(len(z))))
    # strip targets so predict exercises the no-target path
    lines = query.read_text().strip().split("\n")
    header = lines[0].rsplit(",", 1)[0]
    body = [line.rsplit(",", 1)[0] for line in lines[1:]]
    query.write_text("\n".join([header] + body) + "\n")
    pred_path = tmp_path / "pred.csv"
    assert main(["predict", str(model_path), str(query), "--out", str(pred_path)]) == EXIT_OK
    _, rows = read_table(str(pred_path))
    means = np.array([row["mean"] for row in rows])
    assert np.max(np.abs(means - np.asarray(model["u"]))) <= 1e-3


def test_predict_far_query_reverts_to_prior(tmp_path, small_csv, kernel_json):
    _, model_path = fit_files(tmp_path, small_csv, kernel_json)
    query = tmp_path / "far.csv"
    query.write_text("x1,x2\n500.0,500.0\n")
    pred_path = tmp_path / "pred.csv"
    assert main(["predict", str(model_path), str(query), "--out", str(pred_path)]) == EXIT_OK
    _, rows = read_table(str(pred_path))
    assert abs(rows[0]["mean"]) <= 1e-8
    assert rows[0]["stddev"] == pytest.approx(1.0, abs=1e-8)


def test_predict_rmse_matches_recomputation(tmp_path, small_csv, kernel_json, capsys):
    _, model_path = fit_files(tmp_path, small_csv, kernel_json)
    pred_path = tmp_path / "pred.csv"
    assert main(["predict", str(model_path), str(small_csv), "--out", str(pred_path)]) == EXIT_OK
    printed = capsys.readouterr().out
    rmse_line = [t for t in printed.split() if t.startswith("rmse=")][0]
    reported = float(rmse_line.split("=")[1])
    _, rows = read_table(str(pred_path))
    means = np.array([row["mean"] for row in rows])
    data = load_csv(str(small_csv))
    recomputed = math.sqrt(float(np.mean((means - data.y) ** 2)))
    assert reported == pytest.approx(recomputed, rel=1e-9)


def test_predict_memory_does_not_grow_with_query_count_squared(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.uniform(-5.0, 5.0, size=(2000, 2))
    data = Dataset(X, np.sin(X[:, 0]) * np.cos(X[:, 1]) + 0.1 * rng.standard_normal(2000))
    kernel = Kernel(Family.MATERN32, 1.0, np.array([1.0, 1.0]))
    model = fit_clustered(data, inducing_points(build(X, epsilon=0.6)), kernel, 0.1)
    assert 120 <= model.m <= 200
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model.to_json()))
    n_queries = 5000
    query = tmp_path / "query.csv"
    write_csv_dataset(str(query), Dataset(rng.uniform(-5.0, 5.0, size=(n_queries, 2)), np.zeros(n_queries)))
    pred_path = tmp_path / "pred.csv"
    tracemalloc.start()
    try:
        assert main(["predict", str(model_path), str(query), "--out", str(pred_path)]) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a quarter of one dense Q x Q float64 covariance (47.7 MiB at 5000 queries)
    assert peak < n_queries**2 * 8 / 4
    _, rows = read_table(str(pred_path))
    assert len(rows) == n_queries


@pytest.mark.parametrize("key, value", [("sigma2", math.inf), ("lambda", math.inf), ("u", math.nan), ("z", -math.inf)])
def test_predict_rejects_non_finite_model_file(tmp_path, small_csv, kernel_json, capsys, key, value):
    # json.dumps writes Infinity and NaN, as fit once did for --sigma2 inf
    _, model_path = fit_files(tmp_path, small_csv, kernel_json)
    obj = json.loads(model_path.read_text())
    obj[key] = np.full(np.shape(obj[key]), value).tolist()
    model_path.write_text(json.dumps(obj))
    out = tmp_path / "pred.csv"
    assert main(["predict", str(model_path), str(small_csv), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"error: cannot load model from {model_path}: ")


def test_json_inputs_that_are_not_objects_are_usage_errors(tmp_path, small_csv, kernel_json, capsys):
    z_path, model_path = fit_files(tmp_path, small_csv, kernel_json)
    listed = tmp_path / "list.json"
    listed.write_text("[]\n")
    out = tmp_path / "out"
    for argv, what in (
        (["predict", str(listed), str(small_csv)], "model"),
        (["fit", str(small_csv), str(listed), str(kernel_json)], "inducing set"),
        (["fit", str(small_csv), str(z_path), str(listed)], "kernel"),
    ):
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: cannot load {what} from {listed}: ")


_NOT_AN_ARRAY = "points must form a nonempty (n, d) array with d >= 1"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"points": [[0.0, 0.0], [NaN, 1.0]], "provenance": {}}', "inducing points must be finite"),
        ('{"points": [[0.0, 0.0], [Infinity, 1.0]], "provenance": {}}', "inducing points must be finite"),
        ('{"points": [], "provenance": {}}', _NOT_AN_ARRAY),
        ('{"points": [0.0, 1.0], "provenance": {}}', _NOT_AN_ARRAY),
        ('{"points": [[]], "provenance": {}}', _NOT_AN_ARRAY),
        ('{"provenance": {}}', "'points'"),
    ],
    ids=["NaN", "Infinity", "empty", "1-d", "no-columns", "missing"],
)
def test_fit_rejects_non_finite_inducing_points(tmp_path, small_csv, kernel_json, capsys, text, message):
    z_path = tmp_path / "z.json"
    z_path.write_text(text)
    out = tmp_path / "m.json"
    assert main(["fit", str(small_csv), str(z_path), str(kernel_json), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert capsys.readouterr().err == f"error: cannot load inducing set from {z_path}: {message}\n"


def test_fit_reads_only_the_points_of_an_inducing_set(tmp_path, small_csv, kernel_json):
    z_path = tmp_path / "z.json"
    z_path.write_text('{"points": [[0.0, 0.0], [1.0, 1.0]]}')
    out = tmp_path / "m.json"
    assert main(["fit", str(small_csv), str(z_path), str(kernel_json), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["z"] == [[0.0, 0.0], [1.0, 1.0]]


def test_predict_rejects_queries_of_another_dimension(tmp_path, small_csv, kernel_json, capsys):
    _, model_path = fit_files(tmp_path, small_csv, kernel_json)
    query = tmp_path / "q3.csv"
    query.write_text("x1,x2,x3\n0.0,0.5,1.0\n")
    out = tmp_path / "pred.csv"
    capsys.readouterr()
    assert main(["predict", str(model_path), str(query), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert capsys.readouterr().err == "error: query dimension 3 does not match model dimension 2\n"


@pytest.mark.parametrize(
    "z_points, kernel_ls, message",
    [
        ([[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0, 1.0], "inducing points have dimension 2, kernel expects 3"),
        ([[0.0], [1.0]], [1.0], "data has dimension 2, inducing points have dimension 1"),
    ],
    ids=["kernel", "inducing-points"],
)
def test_fit_rejects_mismatched_dimensions(tmp_path, small_csv, capsys, z_points, kernel_ls, message):
    z_path = tmp_path / "z.json"
    z_path.write_text(json.dumps({"points": z_points, "provenance": {}}))
    kernel_path = tmp_path / "k.json"
    kernel_path.write_text(json.dumps(Kernel(Family.MATERN32, 1.0, np.array(kernel_ls)).to_json()))
    out = tmp_path / "m.json"
    assert main(["fit", str(small_csv), str(z_path), str(kernel_path), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists() and not (tmp_path / "m.json.log.csv").exists()
    assert capsys.readouterr().err == f"error: {message}\n"


def _tiny_noise_model(tmp_path, sigma2):
    """A 220-point clustered model fitted at a noise below the rounding of its variances, and its z."""
    rng = np.random.default_rng(3)
    X = rng.uniform(-5.0, 5.0, size=(2000, 2))
    data_path = tmp_path / "d.csv"
    write_csv_dataset(str(data_path), Dataset(X, np.sin(X[:, 0]) + 0.1 * rng.standard_normal(2000)))
    kernel_path = tmp_path / "k.json"
    kernel_path.write_text(json.dumps(Kernel(Family.MATERN32, 1.0, np.array([0.7, 0.7])).to_json()))
    z_path, model_path = tmp_path / "z.json", tmp_path / "m.json"
    assert main(["select", str(data_path), "--method", "covertree", "--epsilon", "0.5", "--out", str(z_path)]) == EXIT_OK
    fit = ["fit", str(data_path), str(z_path), str(kernel_path), "--sigma2", sigma2, "--out", str(model_path)]
    assert main(fit) == EXIT_OK
    z = np.array(json.loads(model_path.read_text())["z"])
    assert len(z) == 220
    return model_path, z


def _write_query(path, points):
    path.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in points.tolist()))


def test_predict_refuses_negative_variances(tmp_path, capsys):
    # at sigma2 = 1e-16 the posterior variance at an inducing point is at most
    # sigma2 / N_j, about 1e-17, below the rounding of variance - colsum(K_zq * S),
    # so some computed variances come out negative; they used to be written as
    # a standard deviation of exactly 0
    model_path, z = _tiny_noise_model(tmp_path, "1e-16")
    query = tmp_path / "q.csv"
    _write_query(query, z)
    out = tmp_path / "pred.csv"
    capsys.readouterr()
    assert main(["predict", str(model_path), str(query), "--out", str(out)]) == EXIT_NUMERICAL
    assert not out.exists()
    # a stability report of the model, then the failure, as fit writes them
    report, failure = capsys.readouterr().err.splitlines()
    assert _strict_json(report)["stability_report"] == _strict_json(
        json.dumps(stability_report(ClusteredModel.from_json(json.loads(model_path.read_text()))).to_json())
    )
    found = re.fullmatch(
        r"numerical failure: (\d+) of 220 posterior variances are not positive, the smallest (\S+) at query (\d+)",
        failure,
    )
    assert found is not None
    assert int(found[1]) >= 1 and float(found[2]) < 0.0 and int(found[3]) < 220


def test_predict_refuses_zero_variances(tmp_path, capsys):
    # Lambda > 0 makes every true variance positive, so a computed 0 is as
    # wrong as a negative one; it used to be written as a standard deviation of 0
    model_path, z = _tiny_noise_model(tmp_path, "3e-15")
    var = clustered_posterior(ClusteredModel.from_json(json.loads(model_path.read_text())), z, full_cov=False).var
    zero = z[var == 0.0]
    assert len(zero) >= 1
    query = tmp_path / "q.csv"
    _write_query(query, zero)
    out = tmp_path / "pred.csv"
    capsys.readouterr()
    assert main(["predict", str(model_path), str(query), "--out", str(out)]) == EXIT_NUMERICAL
    assert not out.exists()
    failure = capsys.readouterr().err.splitlines()[-1]
    assert failure == (
        f"numerical failure: {len(zero)} of {len(zero)} posterior variances are not positive, the smallest 0.0 at query 0"
    )


def test_exit_codes_for_usage_and_numerical_failure(tmp_path, small_csv, capsys):
    assert main([]) == EXIT_USAGE
    assert main(["select", str(small_csv), "--method", "nope", "--out", "x"]) == EXIT_USAGE

    # duplicated inducing rows with a vanishing diagonal shift make K_zz + Lambda
    # singular in double precision, so its zero-jitter Cholesky factor fails
    kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([1.0, 1.0]))
    broken = {
        "kernel": kernel.to_json(),
        "sigma2": 1e-30,
        "z": [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]],
        "u": [1.0, -1.0, 0.5],
        "lambda": [1e-30, 1e-30, 1e-30],
        "counts": [1, 1, 1],
    }
    model_path = tmp_path / "broken.json"
    model_path.write_text(json.dumps(broken))
    query = tmp_path / "q.csv"
    query.write_text("x1,x2\n0.5,0.5\n")
    capsys.readouterr()
    code = main(["predict", str(model_path), str(query), "--out", str(tmp_path / "p.csv")])
    assert code == EXIT_NUMERICAL
    report, failure = capsys.readouterr().err.splitlines()
    assert _strict_json(report)["stability_report"]["cholesky_ok_double"] is False
    assert failure.startswith("numerical failure: Cholesky factorization 'kzz_plus_lambda' failed: n=3")


def test_fit_failure_with_nearly_coinciding_inducing_points_exits_numerical(tmp_path, kernel_json, capsys):
    # the first two inducing points are 1e-9 apart and each holds data, so
    # K_zz + Lambda is singular under a vanishing sigma2 and training fails;
    # the handler prints a stability report of that model, which needs no
    # factor of it, and the failure itself follows
    X = np.array([[-0.1, 0.0], [-0.2, 0.1], [0.1, 0.0], [0.2, -0.1], [1.0, 1.0], [0.9, 1.1]])
    data_path = tmp_path / "near.csv"
    write_csv_dataset(str(data_path), Dataset(X, np.array([1.0, 0.8, -1.0, -0.7, 0.5, 0.4])))
    z_path = tmp_path / "z.json"
    z_path.write_text(json.dumps({"points": [[0.0, 0.0], [1e-9, 0.0], [1.0, 1.0]], "provenance": {}}))
    args = [
        "fit", str(data_path), str(z_path), str(kernel_json),
        "--sigma2", "1e-30", "--steps", "1", "--batch", "6", "--out", str(tmp_path / "m.json"),
    ]
    assert main(args) == EXIT_NUMERICAL
    report, failure = capsys.readouterr().err.splitlines()
    # strict JSON: the infinite bounds are written as null
    report = _strict_json(report)["stability_report"]
    assert report["cg_iteration_bound"] is None and report["observed"]["cond"] is None
    assert report["cholesky_ok_double"] is False
    assert failure == "numerical failure: Cholesky factorization 'kzz_plus_lambda' failed: n=3"


# ---------------------------------------------------------------------------
# sweep tables

def test_sweep_resolution_table(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    # 0.7 is not a power-of-two multiple of 0.25, so it gets a tree of its own;
    # 0.5 and 1.0 are read off the 0.25 tree
    args = [
        "sweep-resolution", "--d", "1", "--n", "120",
        "--epsilons", "0.25", "0.5", "0.7", "1.0", "--seeds", "0", "1", "--sigma2", "0.1",
        "--out", str(out),
    ]
    built = []
    tree_build = cli.ct.build

    def counting_build(X, epsilon, **kwargs):
        built.append(epsilon)
        return tree_build(X, epsilon, **kwargs)

    monkeypatch.setattr(cli.ct, "build", counting_build)
    assert main(args) == EXIT_OK
    assert built == [0.25, 0.7, 0.25, 0.7]
    meta, rows = read_table(str(out))
    assert meta["command"].startswith("sweep-resolution")
    assert all(row["status"] == "ok" for row in rows)
    # finest epsilon keeps the most inducing points within every (d, seed) group
    for seed in (0, 1):
        group = sorted((r for r in rows if r["seed"] == seed), key=lambda r: r["epsilon"])
        ms = [r["m"] for r in group]
        assert ms[0] == max(ms)
    # cond column is bracketed by the theoretical bound recomputed per row
    data_by_seed = {s: cli._synthetic_problem(1, 120, 0.1, s, np.zeros((1, 1)))[0] for s in (0, 1)}
    from stablegp import build, inducing_points

    grid = cli.query_grid(1, np.full(1, -5.0), np.full(1, 5.0))
    kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([0.5]))
    exact_by_seed = {s: exact_posterior(d, kernel, 0.1, grid) for s, d in data_by_seed.items()}
    for row in rows:
        data = data_by_seed[row["seed"]]
        tree = build(data.X, epsilon=row["epsilon"], seed=int(row["seed"]))
        z = inducing_points(tree)
        model = fit_clustered(data, z, kernel, 0.1)
        env = decay_envelope(model.kernel)
        bound = cond_bound_with_noise(lambda_max_bound(env, separation(model.z), 1), model.lam)
        assert 1.0 <= row["cond"] <= bound
        # the shared tree gives every row what a fresh build at its epsilon gives
        belief = clustered_posterior(model, grid)
        exact = exact_by_seed[row["seed"]]
        assert row["m"] == model.m
        assert row["cond"] == spectrum(_plus_lambda(model)).cond
        assert row["wasserstein2"] == wasserstein2_gaussians(belief.mean, belief.cov, exact.mean, exact.cov)


def factored_in_sweep(monkeypatch):
    """The rows of a small two-d sweep, its solve log's Cholesky entries and every matrix it factored."""
    from scipy import linalg as sla

    from stablegp import linalg

    matrices = []
    factor = sla.cholesky

    def recording_cholesky(A, **kwargs):
        matrices.append(np.array(A))
        return factor(A, **kwargs)

    monkeypatch.setattr(linalg.sla, "cholesky", recording_cholesky)
    with linalg.solve_log() as log:
        rows = cli.sweep_resolution_rows(d_list=[1, 2], n=300, epsilons=[0.3, 1.2], seeds=[0], sigma2=0.1)
    assert all(row["status"] == "ok" for row in rows)
    return rows, [e for e in log if e["kind"] == "cholesky"], matrices


def test_sweep_factors_one_size_n_matrix_per_problem(monkeypatch):
    rows, logged, _ = factored_in_sweep(monkeypatch)
    # one (d, seed) problem per d: its K_xx + sigma2 I is the only n x n factorization
    assert [(e["tag"], e["n"]) for e in logged if e["n"] == 300] == [("kzz_plus_lambda", 300)] * 2
    # and each model's K_zz + Lambda is factored once, by its posterior: the
    # cond and cg_iterations columns use the matrix, not a second factor
    assert [e["n"] for e in logged if e["n"] != 300] == [row["m"] for row in rows]
    # the exact GP is the singleton clustered model, so nothing else is factored
    assert {e["tag"] for e in logged} == {"kzz_plus_lambda"}


def test_sweep_factors_only_matrices_cholesky_provably_handles(monkeypatch):
    _, _, matrices = factored_in_sweep(monkeypatch)
    assert len(matrices) > 2
    for A in matrices:
        cond = spectrum(A).cond
        assert cholesky_stability_predicate(cond, max(A.shape[0], 11), 52), (A.shape[0], cond)


def test_query_grid_is_the_unscrambled_sobol_grid():
    from scipy.stats import qmc

    for d in range(1, len(cli._SOBOL_DIRECTIONS) + 1):
        lo, hi = np.linspace(-3.0, 1.0, d), np.linspace(-1.5, 7.0, d)
        unit = qmc.Sobol(d, scramble=False).random_base2(6)
        assert np.array_equal(cli.query_grid(d, np.zeros(d), np.ones(d)), unit)
        assert np.array_equal(cli.query_grid(d, lo, hi), lo + unit * (hi - lo))
    for d in (0, len(cli._SOBOL_DIRECTIONS) + 1):
        with pytest.raises(ValueError):
            cli.query_grid(d, np.zeros(max(d, 1)), np.ones(max(d, 1)))


def test_kms_demo_table(tmp_path):
    out = tmp_path / "kms.csv"
    args = ["kms-demo", "--rho", "0.9", "0.99", "--n", "64", "256", "--trials", "5", "--out", str(out)]
    assert main(args) == EXIT_OK
    _, rows = read_table(str(out))
    assert len(rows) == 4
    for row in rows:
        assert row["cond"] >= row["trench_lower"]
        if row["trench_upper"] != "":
            assert row["cond"] <= row["trench_upper"]
    # solve error grows with rho at fixed n
    for n in (64, 256):
        errs = [r["err_median"] for r in sorted(rows, key=lambda r: r["rho"]) if r["n"] == n]
        assert errs[0] <= errs[1]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--n", "0"),
        ("--n", "5001"),
        ("--epsilons", "0"),
        ("--epsilons", "-0.3"),
        ("--epsilons", "inf"),
        ("--epsilons", "nan"),
        ("--sigma2", "0"),
        ("--sigma2", "-0.1"),
        ("--sigma2", "inf"),
        ("--sigma2", "nan"),
        ("--seeds", "-1"),
        ("--n", "-1"),
        ("--n", "nan"),
        ("--n", "inf"),
        ("--epsilons", "-1"),
        ("--seeds", "nan"),
        ("--seeds", "inf"),
        ("--seeds", "1.5"),
    ],
)
def test_sweep_resolution_rejects_out_of_range_flags(tmp_path, capsys, flag, value):
    argv = ["sweep-resolution", "--d", "1", "--n", "50", "--epsilons", "0.6", "--seeds", "0", flag, value]
    _assert_rejected(tmp_path, capsys, argv, flag)


def test_datasize_sweep_table(tmp_path):
    rng = np.random.default_rng(3)
    data = cli._synthetic_problem(2, 600, 0.04, 9, np.zeros((1, 2)))[0]
    path = tmp_path / "geo.csv"
    write_csv_dataset(str(path), data)
    out = tmp_path / "table.csv"
    args = [
        "datasize-sweep", str(path), "--n-list", "300", "500", "--m-list", "20", "80",
        "--methods", "covertree", "uniform", "--sigma2", "0.04", "--seed", "2",
        "--out", str(out),
    ]
    assert main(args) == EXIT_OK
    _, rows = read_table(str(out))
    ok = [r for r in rows if r["status"] == "ok" and r["method"] == "covertree"]
    # more inducing points should not hurt accuracy at fixed n
    for n in (300, 500):
        group = sorted((r for r in ok if r["n"] == n), key=lambda r: r["m_requested"])
        assert group[-1]["rmse"] <= group[0]["rmse"] * 1.05
    # more data should not hurt stability at fixed m
    for m in (20, 80):
        group = sorted((r for r in ok if r["m_requested"] == m), key=lambda r: r["n"])
        assert group[-1]["cond"] <= group[0]["cond"] * 1.05


def test_datasize_sweep_accepts_smallest_sizes(tmp_path):
    path = tmp_path / "geo.csv"
    write_csv_dataset(str(path), cli._synthetic_problem(2, 60, 0.04, 9, np.zeros((1, 2)))[0])
    out = tmp_path / "table.csv"
    args = ["datasize-sweep", str(path), "--n-list", "2", "--m-list", "1", "--methods", "covertree", "--out", str(out)]
    assert main(args) == EXIT_OK
    _, rows = read_table(str(out))
    assert [(r["n"], r["status"]) for r in rows] == [(2, "ok")]
    assert math.isfinite(rows[0]["rmse"])


def test_datasize_sweep_trains_every_method(tmp_path):
    path = tmp_path / "geo.csv"
    write_csv_dataset(str(path), cli._synthetic_problem(2, 80, 0.04, 9, np.zeros((1, 2)))[0])
    tables = {}
    for steps in ("0", "2"):
        out = tmp_path / f"steps{steps}.csv"
        args = ["datasize-sweep", str(path), "--n-list", "60", "--m-list", "6", "--steps", steps]
        assert main(args + ["--methods", "covertree", "uniform", "kmeans", "--out", str(out)]) == EXIT_OK
        tables[steps] = read_table(str(out))[1]
    assert [(r["method"], r["status"]) for r in tables["2"]] == [("covertree", "ok"), ("kmeans", "ok"), ("uniform", "ok")]
    for trained, untrained in zip(tables["2"], tables["0"]):
        # training keeps the inducing points and moves the hyperparameters
        assert trained["m"] == untrained["m"]
        assert trained["rmse"] != untrained["rmse"] and trained["cond"] != untrained["cond"]


def _fail_first_call(monkeypatch, name):
    """Make the first call of cli.<name> raise NumericalFailure("forced")."""
    original, calls = getattr(cli, name), []

    def failing(*args, **kwargs):
        calls.append(name)
        if len(calls) == 1:
            raise NumericalFailure("forced")
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, failing)


def test_sweep_tables_keep_a_failed_model_as_an_error_row(tmp_path, small_csv, monkeypatch):
    sweeps = [
        (["sweep-resolution", "--d", "1", "--n", "60", "--epsilons", "0.5", "1.0"],
         "clustered_posterior", {"d": 1.0, "epsilon": 0.5, "seed": 0.0}, ["m", "wasserstein2", "cond", "cg_iterations"]),
        (["datasize-sweep", str(small_csv), "--n-list", "30", "--m-list", "4", "8"],
         "fit_clustered", {"n": 30.0, "m_requested": 4.0, "method": "covertree"}, ["m", "cond", "rmse"]),
    ]
    for argv, name, keys, blank in sweeps:
        _fail_first_call(monkeypatch, name)
        out = tmp_path / "table.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        first, second = read_table(str(out))[1]
        assert first == {**keys, **dict.fromkeys(blank, ""), "status": "error: forced"}
        assert second["status"] == "ok"


def test_datasize_sweep_provenance_names_the_kernel(tmp_path, small_csv, kernel_json):
    matern = tmp_path / "matern.json"
    matern.write_text(json.dumps(Kernel(Family.MATERN32, 1.0, np.array([1.0, 1.0])).to_json()))
    hashes = set()
    for kernel in (kernel_json, matern):
        out = tmp_path / f"{kernel.stem}.csv"
        args = ["datasize-sweep", str(small_csv), "--n-list", "30", "--m-list", "5", "--kernel", str(kernel)]
        assert main(args + ["--out", str(out)]) == EXIT_OK
        hashes.add(read_table(str(out))[0]["config_hash"])
    assert len(hashes) == 2


def test_tables_have_provenance_and_are_reproducible(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["kms-demo", "--rho", "0.9", "--n", "64", "--trials", "3", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    head = out1.read_text().split("\n")[:3]
    assert head[0].startswith("# command=")
    assert head[1].startswith("# config_hash=")
    assert head[2].startswith("# seed=")
    assert out1.read_text().split("\n")[1:] == out2.read_text().split("\n")[1:]
    with open(str(out1) + ".config.json") as fh:
        sidecar = json.load(fh)
    assert sidecar["config"]["trials"] == 3


@pytest.mark.parametrize("command", ["fit", "predict", "sweep-resolution", "kms-demo", "datasize-sweep"])
def test_table_config_is_every_parsed_flag_but_out(tmp_path, small_csv, kernel_json, command):
    # the sidecar records what the parser declares, no more and no less
    z_path, model_path = fit_files(tmp_path, small_csv, kernel_json)
    argv = {
        "fit": [str(small_csv), str(z_path), str(kernel_json)],
        "predict": [str(model_path), str(small_csv)],
        "sweep-resolution": ["--d", "1", "--n", "50", "--epsilons", "1.2"],
        "kms-demo": ["--rho", "0.9", "--n", "16", "--trials", "2"],
        "datasize-sweep": [str(small_csv), "--n-list", "30", "--m-list", "5"],
    }[command]
    out = tmp_path / "out.json"
    assert main([command, *argv, "--out", str(out)]) == EXIT_OK
    table = str(out) + ".log.csv" if command == "fit" else str(out)
    with open(table + ".config.json") as fh:
        sidecar = json.load(fh)
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(sidecar["config"]) == {a.dest for a in commands[command]._actions} - {"help", "out"}
    meta, _ = read_table(table)
    assert meta["command"] == sidecar["command"] == command
    assert meta["config_hash"] == sidecar["config_hash"]
    assert meta["seed"] == str(sidecar["config"].get("seed", ""))


# ---------------------------------------------------------------------------
# flag ranges

_NONNEGATIVE_INT = ["nan", "inf", "1.5", "-1"]
_POSITIVE_INT = ["nan", "inf", "0", "-1"]
_POSITIVE_FLOAT = ["nan", "inf", "0", "-1"]

# Per command: the flags of a valid invocation after its input files, and the
# rejected values of each numeric flag.  sweep-resolution's cases are in
# test_sweep_resolution_rejects_out_of_range_flags.
_RANGES = {
    "select": (
        ["--method", "covertree", "--epsilon", "0.6"],
        {"--epsilon": _POSITIVE_FLOAT, "--m": _POSITIVE_INT, "--kmeans-iters": _NONNEGATIVE_INT,
         "--seed": _NONNEGATIVE_INT},
    ),
    "fit": (
        ["--steps", "0"],
        {"--sigma2": _POSITIVE_FLOAT, "--steps": _NONNEGATIVE_INT, "--batch": _POSITIVE_INT,
         "--lr": _POSITIVE_FLOAT, "--probes": _POSITIVE_INT, "--seed": _NONNEGATIVE_INT},
    ),
    "kms-demo": (
        ["--rho", "0.9", "--n", "64"],
        {"--rho": _POSITIVE_FLOAT + ["1", "1.5"], "--n": _POSITIVE_INT, "--trials": _POSITIVE_INT,
         "--seed": _NONNEGATIVE_INT},
    ),
    "datasize-sweep": (
        ["--n-list", "40", "--m-list", "20", "--methods", "covertree"],
        {"--n-list": _POSITIVE_INT + ["1"], "--m-list": _POSITIVE_INT, "--sigma2": _POSITIVE_FLOAT,
         "--steps": _NONNEGATIVE_INT, "--seed": _NONNEGATIVE_INT},
    ),
}

# (command, flags, the flag the error names): every value above, then cases
# that put the bad value next to others or after a valid one
_REJECTED = [
    (command, [flag, value], flag)
    for command, (_, values) in _RANGES.items()
    for flag, bad in values.items()
    for value in bad
] + [
    ("select", ["--method", "kmeans", "--m", "5", "--kmeans-iters", "-1"], "--kmeans-iters"),
    ("fit", ["--steps", "1", "--batch", "0"], "--batch"),
    ("fit", ["--steps", "-2"], "--steps"),
    ("fit", ["--steps", "0", "--batch", "0"], "--batch"),
    ("fit", ["--steps", "0", "--probes", "0"], "--probes"),
    ("fit", ["--steps", "5", "--lr", "-0.5"], "--lr"),
    ("fit", ["--steps", "0", "--lr", "-0.5"], "--lr"),
    ("fit", ["--steps", "1", "--lr", "inf"], "--lr"),
    ("datasize-sweep", ["--n-list", "-5"], "--n-list"),
    ("datasize-sweep", ["--n-list", "40", "1"], "--n-list"),
    ("datasize-sweep", ["--m-list", "-3"], "--m-list"),
    ("datasize-sweep", ["--m-list", "20", "0"], "--m-list"),
]


def _assert_rejected(tmp_path, capsys, argv, flag):
    """argv exits 1, writes no file, and its error names flag."""
    before = set(tmp_path.iterdir())
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert set(tmp_path.iterdir()) == before
    assert capsys.readouterr().err.startswith(f"error: argument {flag}: ")


@pytest.mark.parametrize("command, flags, flag", _REJECTED, ids=[" ".join([c, *f]) for c, f, _ in _REJECTED])
def test_out_of_range_flag_is_a_usage_error(tmp_path, small_csv, kernel_json, capsys, command, flags, flag):
    z_path = tmp_path / "z.json"
    z_path.write_text(json.dumps({"points": [[0.0, 0.0], [1.0, 1.0]], "provenance": {}}))
    files = {"select": [small_csv], "fit": [small_csv, z_path, kernel_json], "datasize-sweep": [small_csv]}
    argv = [command, *map(str, files.get(command, [])), *_RANGES[command][0], *flags]
    _assert_rejected(tmp_path, capsys, argv, flag)


def test_every_numeric_flag_declares_its_range():
    # A bare int or float type takes nan, inf or either sign; a flag added
    # without a range declared in its type fails here.
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert len(commands) == 6
    bare = [
        f"{name} {action.dest}"
        for name, sub in commands.items()
        for action in sub._actions
        if action.type in (int, float) and action.choices is None
    ]
    assert bare == []


# ---------------------------------------------------------------------------
# start-up


def _fresh_python(code: str, stdin: str = "") -> str:
    """stdout of code run, with stdin piped in, by a new interpreter that imports this stablegp."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join([src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        input=stdin, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


_DEFERRED = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.spatial")


def test_commands_start_without_deferred_scipy_modules(tmp_path, small_csv, kernel_json):
    # Every select, fit and predict is a new process, and these modules took
    # most of its start-up.  Only the k-d tree behind cluster_assign needs
    # scipy.spatial, so it loads on first use; the other three never load,
    # whichever command runs (together they cost about 1 s and 30 MiB).
    loaded = _fresh_python(f"import stablegp, stablegp.cli, sys; print([m for m in {_DEFERRED!r} if m in sys.modules])")
    assert loaded.strip() == "[]"
    d = str(tmp_path)
    out = _fresh_python(
        "import json, sys\n"
        "from stablegp import ClusteredModel, stability_report\n"
        "from stablegp.cli import main\n"
        f"data, kernel, d = {str(small_csv)!r}, {str(kernel_json)!r}, {d!r}\n"
        "codes = [\n"
        "    main(['select', data, '--method', 'covertree', '--epsilon', '0.5', '--out', d + '/z.json']),\n"
        "    main(['fit', data, d + '/z.json', kernel, '--steps', '2', '--batch', '20', '--out', d + '/model.json']),\n"
        "]\n"
        "with open(d + '/model.json') as fh:\n"
        "    report = stability_report(ClusteredModel.from_json(json.load(fh))).to_json()\n"
        "codes.append(main(['predict', d + '/model.json', data, '--out', d + '/pred.csv']))\n"
        "codes.append(main(['sweep-resolution', '--d', '1', '2', '--n', '60', '--epsilons', '1.0', '2.0',\n"
        "                   '--out', d + '/sweep.csv']))\n"
        f"print(json.dumps([codes, report, [m for m in {_DEFERRED!r} if m in sys.modules]]))\n"
    )
    codes, report, loaded = json.loads(out.splitlines()[-1])
    assert codes == [EXIT_OK] * 4
    assert loaded == ["scipy.spatial"]
    with open(tmp_path / "model.json") as fh:
        model = ClusteredModel.from_json(json.load(fh))
    assert report == json.loads(json.dumps(stability_report(model).to_json()))
    _, rows = read_table(str(tmp_path / "sweep.csv"))
    assert [r["status"] for r in rows] == ["ok"] * 4
