import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sbmlab.cli
from sbmlab.cli import build_parser, main
from sbmlab.harness import _CONFIG_KEYS, SWEEP_CSV_COLUMNS, parse_config
from sbmlab.learn import svd_theta
from sbmlab.model import (
    BlockGraphon,
    SbmParams,
    edge_prob_matrix,
    map_trials,
    sample_ssbm,
    write_edge_list,
)
from sbmlab.seeds import derive_seed
from sbmlab.split import subsample_edges


def test_sample_writes_edge_list(tmp_path, parse_edge_list):
    out = tmp_path / "g.txt"
    labels = tmp_path / "labels.txt"
    code = main(
        ["--n", "60", "--d", "5", "--eps", "0.5", "--seed", "3",
         "--out", str(out), "sample", "--labels-out", str(labels)]
    )
    assert code == 0
    g_ref, lab_ref = sample_ssbm(SbmParams(60, 5.0, eps=0.5), 3)
    g = parse_edge_list(out)
    assert g.n == 60 and np.array_equal(g.edges, g_ref.edges)
    assert np.array_equal(np.loadtxt(labels, dtype=np.int64), lab_ref.assignment)
    # the verb writes through write_edge_list: same bytes as the path form
    ref = tmp_path / "ref.txt"
    write_edge_list(g_ref, ref)
    assert out.read_bytes() == ref.read_bytes()


def test_sample_null_refuses_labels_out(tmp_path, capsys):
    # a G(n, d/n) draw has no labels: the verb says so before writing anything
    out, labels = tmp_path / "g.txt", tmp_path / "labels.txt"
    argv = ["--n", "50", "--d", "4", "--out", str(out), "sample", "--null", "--labels-out", str(labels)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("sample: ") and "no labels" in err and err.count("\n") == 1
    assert not out.exists() and not labels.exists()


def test_sample_null_to_stdout(capsys):
    assert main(["--n", "50", "--d", "4", "--seed", "1", "sample", "--null"]) == 0
    lines = capsys.readouterr().out.splitlines()
    n, m = map(int, lines[0].split())
    assert n == 50 and len(lines) == m + 1


def test_split_writes_three_files(tmp_path, parse_edge_list):
    prefix = tmp_path / "s"
    code = main(["--n", "80", "--d", "6", "--eta", "0.3", "--seed", "5", "split", "--prefix", str(prefix)])
    assert code == 0
    assert Path(f"{prefix}.meta").read_text() == "eta=0.3 seed=5\n"
    g, _ = sample_ssbm(SbmParams(80, 6.0, eps=0.5, eta=0.3), 5)
    sp = subsample_edges(g, 0.3, derive_seed(5, "cli-split"))
    for suffix, part in (("y1", sp.y1), ("y2", sp.y2)):
        g2 = parse_edge_list(f"{prefix}.{suffix}")
        assert g2.n == 80 and np.array_equal(g2.edges, part.edges)


def test_recover_and_project_rows(tmp_path, capsys):
    assert main(["--n", "200", "--d", "12", "--eps", "0.9", "--seed", "7", "recover", "--method", "spectral"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "method,rate"
    method, rate = out[1].split(",")
    assert method == "spectral" and float(rate) > 0.2

    assert main(["--n", "200", "--d", "12", "--eps", "0.9", "--delta", "0.2", "--seed", "7", "project"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("method,rate_before,rate_after")
    fields = out[1].split(",")
    assert float(fields[2]) > 0.1  # rate preserved after projection
    assert fields[-1] == "ok"


def test_recover_and_project_honour_config_method(tmp_path, capsys):
    # recovery.method reaches both verbs; --method overrides it
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text(
        "params.n = 200\nparams.d = 12.0\nparams.eps = 0.9\nparams.delta = 0.2\n"
        "recovery.method = oracle\nseed = 7\n"
    )
    for verb in ("recover", "project"):
        for flags, method in (([], "oracle"), (["--method", "random"], "random")):
            assert main(["--config", str(cfg), verb, *flags]) == 0
            assert capsys.readouterr().out.splitlines()[1].split(",")[0] == method
    # the oracle recovers the planted labels exactly
    assert main(["--config", str(cfg), "recover"]) == 0
    assert float(capsys.readouterr().out.splitlines()[1].split(",")[1]) == pytest.approx(1.0)


@pytest.mark.parametrize("verb", ["recover", "project"])
def test_random_method_does_not_draw_the_truth(capsys, verb):
    # the signal-free baseline draws its labels from its own seed; on the
    # planted labels' stream it would reproduce the truth at rate 1
    for seed in range(4):
        argv = ["--n", "400", "--d", "16", "--eps", "0.9", "--delta", "0.2", "--seed", str(seed)]
        assert main(argv + [verb, "--method", "random"]) == 0
        assert abs(float(capsys.readouterr().out.splitlines()[1].split(",")[1])) < 0.1


PROJECT_EXAMPLE = ["--n", "200", "--d", "12", "--eps", "0.9", "--delta", "0.2", "project"]


def test_project_row_at_the_sweep_cap(capsys):
    # README's example at seed 3 ends at the sweep cap: a row, a log line, exit 0
    assert main(PROJECT_EXAMPLE + ["--seed", "3"]) == 0
    captured = capsys.readouterr()
    header, row = captured.out.splitlines()
    assert header.split(",")[-1] == "status"
    fields = row.split(",")
    assert fields[0] == "spectral" and float(fields[1]) > 0.0
    assert fields[2:] == ["", "", "", "", "", "no_convergence"]
    assert "after 2000 sweeps" in captured.err


def test_project_row_when_certified_infeasible(capsys, monkeypatch):
    def certified(m0, spec):
        raise sbmlab.cli.ProjectionInfeasibleError(0.25, 20.0)

    monkeypatch.setattr(sbmlab.cli, "corr_preserving_projection", certified)
    assert main(PROJECT_EXAMPLE) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].split(",")[2:] == ["", "", "", "", "", "infeasible"]
    assert "certified infeasible" in captured.err


def test_test_verb_byte_stable(tmp_path):
    args = ["--n", "150", "--d", "10", "--eps", "0.6", "--seed", "11", "--trials", "4"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1), "test", "--no-timing"]) == 0
    assert main(args + ["--out", str(f2), "test", "--no-timing"]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    header = f1.read_text().splitlines()[0]
    assert header == "seed,arm,statistic,threshold,decision,recovery_rate_if_known,wall_time_ms"
    # both arms present
    arms = {line.split(",")[1] for line in f1.read_text().splitlines()[1:]}
    assert arms == {"P", "Q"}


def test_test_verb_oracle_null_arm_uses_random_baseline(tmp_path):
    # the oracle needs the planted labels, which the null arm does not have
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text(
        "params.n = 150\nparams.d = 10.0\nparams.eps = 0.6\nrecovery.method = oracle\n"
        "trials = 4\nseed = 11\n"
    )
    out = tmp_path / "oracle.csv"
    assert main(["--config", str(cfg), "--out", str(out), "test", "--no-timing"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    q_rows = [r for r in rows if r[1] == "Q"]
    assert len(q_rows) == 4
    assert any(float(r[2]) != 0.0 for r in q_rows)
    assert sum(int(r[4]) for r in q_rows) / len(q_rows) < 1.0


def test_learn_verb(tmp_path, capsys):
    gout = tmp_path / "w.txt"
    assert main(
        ["--n", "300", "--d", "20", "--eps", "0.8", "--seed", "13", "--trials", "3",
         "learn", "--graphon-out", str(gout)]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "trial,frob_error_sq,ratio_to_kd"
    assert len(lines) == 4
    # each error against the n x n reference |theta_hat - theta|_F^2
    p = SbmParams(300, 20.0, eps=0.8, k=2)

    def dense_error(g, s, labels):
        theta_hat = svd_theta(g, p.k).dense()
        return float(np.linalg.norm(theta_hat - edge_prob_matrix(p, labels)) ** 2), theta_hat

    ref = map_trials(dense_error, p, "P", 3, 13, "cli-learn")
    for line, (want, _) in zip(lines[1:], ref):
        assert float(line.split(",")[1]) == pytest.approx(want, rel=1e-10)
    # the graphon file holds trial 0's estimate, clipped to [0, 1] at the write
    assert gout.read_text().startswith("300\n")
    w = BlockGraphon(np.loadtxt(gout, skiprows=1, ndmin=2))
    assert w.m == 300 and w.b.min() >= 0.0 and w.b.max() <= 1.0
    assert ref[0][1].min() < 0.0
    assert np.array_equal(w.b, np.clip(ref[0][1], 0.0, 1.0))


@pytest.mark.parametrize("n", ["400", "1000"])
def test_learn_verb_on_an_edgeless_draw(capsys, n):
    # at d = 0.001 the draw has no edges: theta_hat = 0, so the error is
    # n^2 (d/n)^2 = d^2 at every n
    assert main(["--n", n, "--d", "0.001", "--eps", "0", "--trials", "1", "--seed", "1", "learn"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "trial,frob_error_sq,ratio_to_kd"
    assert float(lines[1].split(",")[1]) == pytest.approx(1e-6, rel=1e-9)


def test_ldlr_verb(tmp_path):
    out = tmp_path / "ldlr.csv"
    assert main(["--n", "8", "--d", "4", "--eps", "0.5", "--out", str(out), "ldlr", "--ell", "3"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,d,eps,k,ell,degree,mass,cumulative_norm"
    assert len(lines) == 5


def test_ldlr_verb_rejects_an_oversized_table(tmp_path, capsys):
    out = tmp_path / "ldlr.csv"
    assert main(["--n", "8", "--d", "4", "--out", str(out), "ldlr", "--ell", "8"]) == 1
    assert capsys.readouterr().err.startswith("ldlr: support table")
    assert not out.exists()


def test_sweep_verb(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(
        ["--n", "200", "--d", "16", "--seed", "17", "--trials", "4",
         "--out", str(out), "sweep", "--grid", "1.0", "--no-timing"]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("snr,eps,power")
    assert lines[-1].startswith("# grid=1")


def test_sweep_bad_grid(capsys):
    for grid, message in (
        ("1.0,oops", "SNR grid must be comma-separated numbers, got '1.0,oops'"),
        ("1.0,-1", "SNR grid values must be finite and positive, got -1.0"),
        ("nan", "SNR grid values must be finite and positive, got nan"),
        (",", "SNR grid must hold at least one value, got ','"),
    ):
        assert main(["--n", "100", "--d", "8", "sweep", "--grid", grid]) == 1
        assert capsys.readouterr().err == f"sweep: {message}\n"


def test_check_verb(capsys):
    assert main(["--n", "400", "--d", "20", "--eps", "0.5", "--seed", "19", "--trials", "3", "check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "max_norm,mean_norm,bound,max_ratio,trials"
    vals = lines[1].split(",")
    assert float(vals[0]) <= float(vals[2])


def test_scripts_run(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for script, args, header, rows in (
        ("run_phase_sweep.py", ["--n", "200", "--trials", "3", "--grid", "0.5,2"],
         ",".join(SWEEP_CSV_COLUMNS), 2),
        ("run_ldlr_curves.py", ["--ells", "1,2", "--points", "3"], "n,d,k,ell,eps,snr,norm", 6),
    ):
        out = tmp_path / f"{script}.csv"
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / script), *args, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == header and len(lines) == rows + 1
    # an ell past the table guard is rejected before any row is written
    out = tmp_path / "rejected.csv"
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_ldlr_curves.py"),
         "--ells", "3,8", "--points", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("run_ldlr_curves: ") and "Traceback" not in proc.stderr
    assert not out.exists()
    # parameters the config rejects, and a grid that is not all finite
    # positive numbers, end the sweep script with one line before any trial
    for args, message in (
        (["--n", "20", "--k", "1", "--grid", "1"], "average degree must be in (0, n), got d=60.0"),
        (["--grid", "1.0,oops"], "SNR grid must be comma-separated numbers, got '1.0,oops'"),
        (["--grid=-1"], "SNR grid values must be finite and positive, got -1.0"),
        (["--grid", "1,nan"], "SNR grid values must be finite and positive, got nan"),
        (["--grid", ","], "SNR grid must hold at least one value, got ','"),
    ):
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_phase_sweep.py"),
             "--trials", "1", *args, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"run_phase_sweep: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, stderr",
    [
        # at d = 0.01 the draw has no edges, so recovery cannot center the adjacency
        (["--n", "30", "--d", "0.01", "--seed", "1", "recover"],
         "recover: empty graph: cannot center the adjacency\n"),
        (["--n", "30", "--d", "0.01", "--seed", "1", "project"],
         "project: empty graph: cannot center the adjacency\n"),
        (["--n", "50", "--d", "0.5", "--trials", "2", "check"],
         "check: need average degree at least 1\n"),
        # k = n is rejected when the config loads, before any trial
        (["--n", "3", "--d", "1", "--k", "3", "--trials", "1", "learn"],
         "sbmlab: need 2 <= k < n communities, got k=3, n=3\n"),
        # an output path in a directory that does not exist
        (["--n", "50", "--d", "4", "--out", "{missing}/x.csv", "sample"],
         "sample: [Errno 2] No such file or directory: '{missing}/x.csv'\n"),
        (["--n", "50", "--d", "4", "split", "--prefix", "{missing}/run"],
         "split: [Errno 2] No such file or directory: '{missing}/run.y1'\n"),
        (["--n", "50", "--d", "4", "--trials", "1", "learn", "--graphon-out", "{missing}/w.txt"],
         "learn: [Errno 2] No such file or directory: '{missing}/w.txt'\n"),
    ],
    ids=["recover", "project", "check", "learn", "sample-out", "split-prefix", "learn-graphon-out"],
)
def test_recovery_failure_exits_one_without_traceback(tmp_path, argv, stderr):
    # a verb's ValueError or OSError ends the run with exit 1 and one stderr line
    root = Path(__file__).resolve().parents[1]
    missing = tmp_path / "missing"
    proc = subprocess.run(
        [sys.executable, "-m", "sbmlab.cli", *(arg.format(missing=missing) for arg in argv)],
        env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == stderr.format(missing=missing)
    assert proc.stdout == ""


def test_usage_errors_exit_code_one():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert main(["accept", "--suite", "nonsense"]) == 1
    # --threads is no flag: every trial runs in the calling thread
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "check"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--config", "{bad}", "sample"], "line 1: unknown key 'unknown.key'"),
        (["--config", "{typo}", "sample"], "line 2: params.n must be int, got '4OO'"),
        (["--trials", "0", "test"], "need at least one trial"),
        (["--n", "1", "sample"], "need at least 2 vertices, got n=1"),
        (["--config", "{missing}", "sample"], "No such file or directory"),
        (["--config", "{threads}", "check"], "line 1: unknown key 'threads'"),
        (["--config", "{spectrl}", "test"], "unknown recovery method 'spectrl'"),
        (["--config", "{ldlr}", "test"], "unknown pipeline 'ldlr'"),
        (["--n", "20", "--d", "4", "--k", "1", "test"], "need 2 <= k < n communities, got k=1, n=20"),
        (["--n", "20", "--d", "4", "--k", "20", "test"], "need 2 <= k < n communities, got k=20, n=20"),
        # tau is always the null arm's calibrated quantile and eta is params.eta,
        # so the keys that once chose another rule are stale, whatever the flags
        (["--config", "{slack}", "test"], "line 1: unknown key 'eta.policy'"),
        (["--config", "{slack}", "--eps", "0.25", "test"], "line 1: unknown key 'eta.policy'"),
        (["--config", "{fixed}", "test"], "line 1: unknown key 'threshold.policy'"),
        (["--config", "{value}", "test"], "line 1: unknown key 'threshold.value'"),
        # tau's level is the constant 0.99: a config that names it does not load
        (["--config", "{nan}", "--n", "200", "--d", "10", "--trials", "3", "test", "--no-timing"],
         "line 1: unknown key 'threshold.quantile'"),
        # the bipartite split needs an even n, and the plug-in's rank k below a side's n/2
        (["--config", "{bipartite}", "--n", "401", "--d", "16", "--trials", "3", "test"],
         "pipeline = bipartite needs an even n and k < n/2, got n=401, k=2"),
        (["--config", "{bipartite}", "--n", "10", "--d", "4", "--k", "5", "--eps", "0.1", "test"],
         "pipeline = bipartite needs an even n and k < n/2, got n=10, k=5"),
    ],
    ids=[
        "unknown-key", "bad-value", "zero-trials", "one-vertex", "missing-file", "threads-key",
        "unknown-method", "ldlr-pipeline", "one-community", "k-equals-n", "eta-policy-key",
        "eta-policy-after-flags", "threshold-policy-key", "threshold-value-key", "nan-threshold",
        "bipartite-odd-n", "bipartite-rank-too-large",
    ],
)
def test_bad_config_file(tmp_path, capsys, argv, message):
    paths = {"missing": tmp_path / "missing.cfg"}
    for name, text in (
        ("bad", "unknown.key = 1\n"),
        ("typo", "# a letter O for a zero\nparams.n = 4OO\n"),
        ("spectrl", "recovery.method = spectrl\n"),
        ("ldlr", "pipeline = ldlr\n"),
        ("slack", "eta.policy = slack\n"),
        ("fixed", "threshold.policy = fixed\n"),
        ("value", "threshold.value = 12.5\n"),
        ("threads", "threads = 2\n"),
        ("nan", "threshold.quantile = nan\n"),
        ("bipartite", "pipeline = bipartite\n"),
    ):
        paths[name] = tmp_path / f"{name}.cfg"
        paths[name].write_text(text)
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("sbmlab: ") and message in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


def test_flags_repair_an_invalid_config_file(tmp_path, capsys):
    # the file alone keeps the default d = 16 at n = 10, outside (0, n); the
    # config is checked once with the flags applied, at d = 4
    cfg = tmp_path / "small.cfg"
    cfg.write_text("params.n = 10\n")
    assert main(["--config", str(cfg), "--trials", "1", "test"]) == 1
    assert capsys.readouterr().err == "sbmlab: average degree must be in (0, n), got d=16.0\n"
    assert main(["--config", str(cfg), "--d", "4", "--trials", "1", "test", "--no-timing"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3
    assert "Traceback" not in captured.err


def test_test_verb_pipelines(tmp_path, capsys):
    # graphon pipeline: above-threshold planted arm separates from the null
    cfg = tmp_path / "g.cfg"
    cfg.write_text(
        "params.n = 300\nparams.d = 60.0\nparams.eps = 0.9\nparams.k = 2\n"
        "pipeline = graphon\ntrials = 6\nseed = 23\n"
    )
    out = tmp_path / "graphon.csv"
    assert main(["--config", str(cfg), "--out", str(out), "test", "--no-timing"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    power = sum(int(r[4]) for r in rows if r[1] == "P") / 6
    size = sum(int(r[4]) for r in rows if r[1] == "Q") / 6
    assert power >= 0.8 and size <= 0.2

    # bipartite pipeline runs end to end
    cfg2 = tmp_path / "b.cfg"
    cfg2.write_text(
        "params.n = 120\nparams.d = 24.0\nparams.eps = 0.9\nparams.k = 2\n"
        "pipeline = bipartite\ntrials = 4\nseed = 29\n"
    )
    out2 = tmp_path / "bip.csv"
    assert main(["--config", str(cfg2), "--out", str(out2), "test", "--no-timing"]) == 0
    assert len(out2.read_text().splitlines()) == 9

    # ldlr has its own verb: a config naming it as a pipeline does not load
    cfg3 = tmp_path / "l.cfg"
    cfg3.write_text("params.n = 100\nparams.d = 8.0\npipeline = ldlr\n")
    capsys.readouterr()
    for verb in (["test"], ["sweep", "--grid", "1.0"]):
        assert main(["--config", str(cfg3), *verb]) == 1
        assert capsys.readouterr().err == "sbmlab: unknown pipeline 'ldlr'\n"


def test_accept_json_wiring(tmp_path, monkeypatch):
    import sbmlab.cli as cli
    from sbmlab.acceptance import CriterionResult

    canned = [
        CriterionResult("C1", True, {"metric_a": 1.0}, 0.1),
        CriterionResult("C2", False, {"metric_b": 2.5}, 0.2),
    ]
    monkeypatch.setattr(cli, "run_acceptance", lambda suite, seed=None: canned)
    out = tmp_path / "report.json"
    code = main(["--out", str(out), "accept", "--suite", "full", "--json"])
    assert code == 2  # one canned criterion fails
    import json

    data = json.loads(out.read_text())
    assert data[0]["criterion"] == "C1" and data[0]["passed"] is True
    assert data[1]["metrics"]["metric_b"] == 2.5

    out2 = tmp_path / "report.csv"
    assert main(["--out", str(out2), "accept", "--suite", "full"]) == 2
    assert out2.read_text().splitlines()[0] == "criterion,status,metric,value"


def test_accept_exits_two_on_budget_overrun(tmp_path, monkeypatch):
    import json

    import sbmlab.acceptance as acceptance

    monkeypatch.setattr(acceptance, "BUDGET_S", dict.fromkeys(acceptance.BUDGET_S, 0))
    out = tmp_path / "fast.json"
    assert main(["--out", str(out), "accept", "--suite", "fast", "--json"]) == 2
    data = json.loads(out.read_text())
    # every statistic passes; the exit code comes from the budgets alone
    assert data and all(r["passed"] for r in data)
    assert all(r["budget_s"] == 0 and r["elapsed_s"] > 0 for r in data)


def test_accept_json_unbounded_budget_is_null(tmp_path, monkeypatch):
    import json

    import sbmlab.cli as cli
    from sbmlab.acceptance import CriterionResult

    canned = [CriterionResult("C10", True, {"identical": 1.0}, 5.0)]
    monkeypatch.setattr(cli, "run_acceptance", lambda suite, seed=None: canned)
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "accept", "--suite", "full", "--json"]) == 0
    (record,) = json.loads(out.read_text())
    assert record["budget_s"] is None and record["elapsed_s"] == 5.0


README = Path(__file__).resolve().parents[1] / "README.md"


VERBS = (
    "sample", "split", "recover", "project", "test", "learn", "ldlr", "sweep", "check", "accept",
)


def _readme_examples():
    """Every `sbmlab ...` line of README.md as an argv list, comments dropped."""
    for line in README.read_text().splitlines():
        words = line.split("#")[0].split()
        if words[:1] == ["sbmlab"]:
            yield words[1:]


def _reduced(argv, tmp_path):
    """Smaller n and trials, the fast battery for the full one, files under tmp_path."""
    argv = list(argv)
    for flag, cap in (("--n", 200), ("--trials", 3)):
        if flag in argv:
            i = argv.index(flag) + 1
            argv[i] = str(min(int(argv[i]), cap))
    if "--suite" in argv:
        argv[argv.index("--suite") + 1] = "fast"
    for flag in ("--out", "--prefix"):
        if flag in argv:
            i = argv.index(flag) + 1
            argv[i] = str(tmp_path / argv[i])
    return argv


def test_readme_out_examples_run(tmp_path, capsys):
    # every README example runs as written, global flags on either side of the
    # verb, and each CSV it writes has the header README documents
    readme = README.read_text()
    examples = [_reduced(argv, tmp_path) for argv in _readme_examples()]
    assert {next(w for w in argv if w in VERBS) for argv in examples} == set(VERBS)
    done = []
    for argv in examples:
        if argv in done:
            continue
        done.append(argv)
        verb = next(w for w in argv if w in VERBS)
        capsys.readouterr()
        code = main(argv)
        assert code == 0 or (verb == "accept" and code == 2), (argv, code)
        if verb == "split":
            prefix = argv[argv.index("--prefix") + 1]
            assert all(Path(f"{prefix}.{ext}").exists() for ext in ("y1", "y2", "meta"))
            continue
        if "--out" in argv:
            lines = Path(argv[argv.index("--out") + 1]).read_text().splitlines()
        else:
            lines = capsys.readouterr().out.splitlines()
        if verb == "sample":
            n, m = map(int, lines[0].split())  # header `n m`
            assert n == 200 and len(lines) == m + 1
        else:
            assert f"`{lines[0]}`" in readme, (verb, lines[0])
        if verb == "test":
            assert f"Trial CSV columns: `{lines[0]}`" in readme
            assert len(lines) == 1 + 2 * 3


def test_readme_names_every_flag_and_config_key():
    # README's flag line and config-key list name exactly what the code accepts
    readme = README.read_text()
    line = re.search(r"global flags (.*?) valid before", readme, re.S).group(1)
    usage = build_parser().format_usage()
    assert sorted(re.findall(r"--[a-z-]+", line)) == sorted(re.findall(r"\[(--[a-z-]+)", usage))
    section, example = readme.split("## Config files", 1)[1].split("```")[:2]
    keys = re.findall(r"^- `([^`]+)`", section, re.M) + re.findall(r"`([^`]+)`:", section)
    assert sorted(set(keys)) == sorted(_CONFIG_KEYS)
    # the example config loads as it is printed
    assert parse_config(example).params.n == 2000


def test_global_flags_on_both_sides_of_the_verb(tmp_path):
    before, after = tmp_path / "before.txt", tmp_path / "after.txt"
    assert main(["--n", "60", "--d", "5", "--seed", "3", "--out", str(before), "sample"]) == 0
    assert main(["--n", "60", "sample", "--d", "5", "--seed", "3", "--out", str(after)]) == 0
    assert before.read_bytes() == after.read_bytes()
