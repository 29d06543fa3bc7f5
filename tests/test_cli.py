import json
import math
import tracemalloc

import numpy as np
import pytest

from stablegp import (
    Dataset,
    Family,
    Kernel,
    build,
    clustered_posterior,
    cond_bound_with_noise,
    decay_envelope,
    fit_clustered,
    gram,
    inducing_points,
    lambda_max_bound,
    separation,
    spatial_resolution,
)
from stablegp.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    load_csv,
    main,
    read_table,
    synthetic_prior_dataset,
    write_csv_dataset,
)


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


# ---------------------------------------------------------------------------
# select

def test_select_covertree_wide_epsilon_single_point(tmp_path):
    data = tmp_path / "two.csv"
    data.write_text("x1,y\n0.0,1.0\n1.0,2.0\n")
    out = tmp_path / "z.json"
    code = main(["select", str(data), "--method", "covertree", "--epsilon", "10.0", "--out", str(out)])
    assert code == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["metrics"]["M"] == 1


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


def test_select_rejects_bad_usage(tmp_path, small_csv):
    out = tmp_path / "z.json"
    # covertree needs an epsilon or a target M
    assert main(["select", str(small_csv), "--method", "covertree", "--out", str(out)]) == EXIT_USAGE
    assert main(["select", str(tmp_path / "missing.csv"), "--method", "uniform", "--m", "3", "--out", str(out)]) == EXIT_USAGE
    assert main(["select", str(small_csv), "--method", "uniform", "--m", "99", "--out", str(out)]) == EXIT_USAGE


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
    obj = json.loads(model_path.read_text())
    data = load_csv(str(small_csv))
    z = np.asarray(json.loads(z_path.read_text())["points"], dtype=float)
    kernel = Kernel.from_json(kernel_json.read_text())
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
    data = synthetic_prior_dataset(d=2, n=300, sigma2=0.09, seed=5)
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


def test_exit_codes_for_usage_and_numerical_failure(tmp_path, small_csv):
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
    code = main(["predict", str(model_path), str(query), "--out", str(tmp_path / "p.csv")])
    assert code == EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# sweep tables

def test_sweep_resolution_table(tmp_path):
    out = tmp_path / "sweep.csv"
    args = [
        "sweep-resolution", "--d", "1", "--n", "120",
        "--epsilons", "0.25", "0.5", "1.0", "--seeds", "0", "1", "--sigma2", "0.1",
        "--out", str(out),
    ]
    assert main(args) == EXIT_OK
    meta, rows = read_table(str(out))
    assert meta["command"].startswith("sweep-resolution")
    assert all(row["status"] == "ok" for row in rows)
    # finest epsilon keeps the most inducing points within every (d, seed) group
    for seed in (0, 1):
        group = sorted((r for r in rows if r["seed"] == seed), key=lambda r: r["epsilon"])
        ms = [r["m"] for r in group]
        assert ms[0] == max(ms)
    # cond column is bracketed by the theoretical bound recomputed per row
    data_by_seed = {s: synthetic_prior_dataset(1, 120, 0.1, s) for s in (0, 1)}
    from stablegp import build, inducing_points

    for row in rows:
        data = data_by_seed[row["seed"]]
        tree = build(data.X, epsilon=row["epsilon"], seed=int(row["seed"]))
        z = inducing_points(tree)
        kernel = Kernel(Family.SQUARED_EXPONENTIAL, 1.0, np.array([0.5]))
        model = fit_clustered(data, z, kernel, 0.1)
        env = decay_envelope(model.kernel)
        bound = cond_bound_with_noise(lambda_max_bound(env, separation(model.z), 1), model.lam)
        assert 1.0 <= row["cond"] <= bound


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


def test_datasize_sweep_table(tmp_path):
    rng = np.random.default_rng(3)
    data = synthetic_prior_dataset(d=2, n=600, sigma2=0.04, seed=9)
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
