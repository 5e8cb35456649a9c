"""Config resolution, CSV artifacts, subcommands, exit codes, import cost."""

import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import bayesfir
from bayesfir import cli, estimator
from bayesfir.optim import OptimizerConfig
from bayesfir.simgen import dump_dataset, load_dataset

from oracles import own_warmup_trace

BASE = {
    "n": "20",
    "n_total": "240",
    "n_warmup": "60",
    "nk_sweep": "30",
    "snr": "5",
    "runs": "2",
    "seed": "3",
    "methods": "sgp,em1",
}


def base_args(out, extra=()):
    args = []
    for key, val in BASE.items():
        args.extend([f"--{key.replace('_', '-')}", val])
    args.extend(["--out", str(out)])
    args.extend(extra)
    return args


def read_csv(path):
    """(comment lines, column names, data rows) of a trace/summary file."""
    comments = []
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            else:
                rows.append(line.split(","))
    return comments, rows[0], rows[1:]


def test_resolve_config_defaults_and_precedence():
    resolved = cli.resolve_config({}, {k: None for k in cli.CONFIG_SCHEMA})
    assert resolved["n"] == 80
    assert resolved["nk_sweep"] == (1, 10, 50)
    assert resolved["methods"] == ("bb", "sgp", "bfgs", "em", "em1", "em2", "opt")
    over = {k: None for k in cli.CONFIG_SCHEMA}
    over["n"] = "12"
    resolved = cli.resolve_config({"n": "9", "snr": "2.5"}, over)
    assert resolved["n"] == 12  # flag beats file
    assert resolved["snr"] == 2.5  # file beats default


def test_resolve_config_rejects_bad_values():
    empty = {k: None for k in cli.CONFIG_SCHEMA}
    for key, bad in (
        ("seed", "-1"),
        ("workers", "0"),
        ("nk_sweep", "10,0"),
        ("nk_sweep", ","),
        ("methods", "sgp,warp"),
        ("mode", "sometimes"),
        ("n", "eighty"),
    ):
        over = dict(empty)
        over[key] = bad
        with pytest.raises(cli.ConfigError):
            cli.resolve_config({}, over)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nn = 10\nsnr=2.0\n\nmethods = sgp\n")
    assert cli.parse_config_file(str(path)) == {"n": "10", "snr": "2.0", "methods": "sgp"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 10\nmystery = 4\n")
    with pytest.raises(cli.ConfigError, match="line 2"):
        cli.parse_config_file(str(bad))
    ugly = tmp_path / "ugly.cfg"
    ugly.write_text("n 10\n")
    with pytest.raises(cli.ConfigError, match="line 1"):
        cli.parse_config_file(str(ugly))


def test_repeated_config_key_exits_2(tmp_path, capsys):
    # a key set twice used to resolve silently to its last value
    path = tmp_path / "twice.cfg"
    path.write_text("n = 20\nsnr = 5\n\nn = 40\n")
    with pytest.raises(cli.ConfigError, match="line 4.*'n'.*line 1"):
        cli.parse_config_file(str(path))
    assert cli.main(["single", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "line 1" in err
    assert not (tmp_path / "single_trace.csv").exists()


def test_lambda_only_is_a_token_not_an_option(tmp_path):
    # the lambda-only runs are the *_lambda tokens and em1/em2; there is no
    # flag or config key that rewrites the other tokens into them
    with pytest.raises(SystemExit) as exc:
        cli.main(["single", "--lambda-only"] + base_args(tmp_path))
    assert exc.value.code == 2
    path = tmp_path / "run.cfg"
    path.write_text("n = 10\nlambda_only = 1\n")
    with pytest.raises(cli.ConfigError, match="line 2"):
        cli.parse_config_file(str(path))


def test_repeated_method_tokens_exit_2(tmp_path, capsys):
    # a token listed twice would run twice, and summary.csv would merge the
    # two passes into one row
    for methods in ("sgp,sgp", "sgp,em1,sgp"):
        assert cli.main(["montecarlo"] + base_args(tmp_path, ["--methods", methods])) == 2
        assert "sgp" in capsys.readouterr().err
    assert not (tmp_path / "runs.csv").exists()


def test_optimizer_constants_are_not_config_keys(tmp_path):
    # the optimizer's constants live in OptimizerConfig alone: a config file
    # or a flag that names one is refused
    for name in (f.name for f in fields(OptimizerConfig)):
        path = tmp_path / f"{name}.cfg"
        path.write_text(f"n = 10\n{name} = 1e-8\n")
        with pytest.raises(cli.ConfigError, match="line 2"):
            cli.parse_config_file(str(path))
        with pytest.raises(SystemExit) as exc:
            cli.main(["single", f"--{name.replace('_', '-')}", "1e-8", "--out", str(tmp_path)])
        assert exc.value.code == 2


TIMING_COLUMNS = ("batch_seconds", "cumulative_seconds", "total_seconds")


def strip_timing(path):
    """CSV lines without the wall-time columns and the config comment (it echoes out=)."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("# config:")]
    header = next(ln for ln in lines if not ln.startswith("#")).split(",")
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    return [ln if ln.startswith("#") else ",".join(ln.split(",")[i] for i in keep) for ln in lines]


def test_single_writes_trace_system_and_dataset(tmp_path):
    assert cli.main(["single"] + base_args(tmp_path / "a")) == 0
    header, columns, rows = read_csv(tmp_path / "a" / "single_trace.csv")
    assert header[0] == f"# schema={cli.SCHEMA_TRACE}"
    assert header[1].startswith("# config: ")
    assert "lambda0=ybar/(nbar*n)" in header[1]
    assert columns == list(cli.TRACE_COLUMNS)
    # 2 methods x 1 batch size x (240 - 60) / 30 batches
    assert len(rows) == 2 * 6
    by_method = {m: [r for r in rows if r[1] == m] for m in ("sgp", "em1")}
    assert all(len(v) == 6 for v in by_method.values())
    assert [r[3] for r in by_method["sgp"]] == [str(k) for k in range(1, 7)]
    fits = [float(r[5]) for r in rows]
    assert all(np.isfinite(fits))
    h = np.loadtxt(tmp_path / "a" / "system.csv", skiprows=3)
    assert h.shape == (20,)
    u, y = load_dataset(tmp_path / "a" / "dataset.csv")
    assert u.shape == (240,)
    # a second run reproduces everything except wall-clock columns and the
    # config comment (which embeds the output directory)
    assert cli.main(["single"] + base_args(tmp_path / "b")) == 0
    assert strip_timing(tmp_path / "a" / "single_trace.csv") == strip_timing(tmp_path / "b" / "single_trace.csv")

    def sans_config(path):
        return [ln for ln in path.read_text().splitlines() if not ln.startswith("# config:")]

    assert sans_config(tmp_path / "a" / "system.csv") == sans_config(tmp_path / "b" / "system.csv")
    assert sans_config(tmp_path / "a" / "dataset.csv") == sans_config(tmp_path / "b" / "dataset.csv")


def test_nk_flag_overrides_the_sweep(tmp_path):
    assert cli.main(["single"] + base_args(tmp_path, ["--nk", "60"])) == 0
    _, _, rows = read_csv(tmp_path / "single_trace.csv")
    assert len(rows) == 2 * 3  # (240 - 60) / 60 batches per method
    assert {r[0] for r in rows} == {"60"}


def test_montecarlo_outputs_and_worker_independence(tmp_path):
    assert cli.main(["montecarlo"] + base_args(tmp_path / "w1", ["--nk", "30"])) == 0
    header, columns, rows = read_csv(tmp_path / "w1" / "runs.csv")
    assert header[0] == f"# schema={cli.SCHEMA_TRACE}"
    assert len(rows) == 2 * 2 * 6  # runs x methods x batches
    sheader, scols, srows = read_csv(tmp_path / "w1" / "summary.csv")
    assert sheader[0] == f"# schema={cli.SCHEMA_SUMMARY}"
    assert scols == list(cli.SUMMARY_COLUMNS)
    assert {r[0] for r in srows} == {"sgp", "em1"}
    for row in srows:
        med, q1, q3 = float(row[2]), float(row[3]), float(row[4])
        assert q1 <= med <= q3
        token_rows = [r for r in rows if r[1] == row[0]]
        finals = [r for r in token_rows if r[3] == "6"]
        assert abs(np.median([float(r[5]) for r in finals]) - med) < 1e-12
        assert abs(sum(float(r[10]) for r in finals) - float(row[5])) < 1e-9
    # fanning out across processes must not change any numbers
    assert cli.main(["montecarlo"] + base_args(tmp_path / "w2", ["--nk", "30", "--workers", "2"])) == 0
    assert strip_timing(tmp_path / "w1" / "runs.csv") == strip_timing(tmp_path / "w2" / "runs.csv")


def test_stream_reproduces_single_trace(tmp_path):
    assert cli.main(["single"] + base_args(tmp_path)) == 0
    assert cli.main(
        ["stream"] + base_args(tmp_path, ["--nk", "30", str(tmp_path / "dataset.csv")])
    ) == 0
    _, tcols, trows = read_csv(tmp_path / "single_trace.csv")
    sheader, scols, srows = read_csv(tmp_path / "stream_trace.csv")
    assert sheader[0] == f"# schema={cli.SCHEMA_STREAM}"
    assert scols == [c for c in cli.TRACE_COLUMNS if c != "fit"]
    assert len(srows) == len(trows)
    fit_idx = tcols.index("fit")
    for srow, trow in zip(srows, trows):
        trimmed = trow[:fit_idx] + trow[fit_idx + 1:]
        assert srow[1:-2] == trimmed[1:-2]  # run_id and wall time may differ


ALL_TOKENS = ",".join(cli.METHOD_TOKENS)


def run_all_commands(tmp_path, name, extra_montecarlo):
    """Run montecarlo (once per extra flag list), single and stream over all tokens at n = 20."""
    out = tmp_path / name
    extra = ["--methods", ALL_TOKENS, "--n-total", "160", "--nk", "10"]
    for tag, flags in extra_montecarlo.items():
        assert cli.main(["montecarlo"] + base_args(out / tag, extra + flags)) == 0
    sweep = ["--methods", ALL_TOKENS, "--n-total", "160", "--nk-sweep", "1,10"]
    assert cli.main(["single"] + base_args(out / "single", sweep)) == 0
    data = str(out / "single" / "dataset.csv")
    assert cli.main(["stream"] + base_args(out / "stream", extra + [data])) == 0
    return out


def test_shared_warm_start_writes_the_own_warmup_outputs(tmp_path, monkeypatch):
    # the reference warms every method up on its own; starting them all from
    # one warmup must not change a single non-timing byte of any output
    with monkeypatch.context() as patch:
        patch.setattr(cli, "run_trace", own_warmup_trace)
        ref = run_all_commands(tmp_path, "ref", {"w1": [], "opt": ["--mode", "opt"]})
    got = run_all_commands(tmp_path, "got", {
        "w1": [], "w2": ["--workers", "2"], "opt": ["--mode", "opt"],
    })
    pairs = [("w1", "w1"), ("w1", "w2"), ("opt", "opt")]
    files = [(f"{g}/{name}", f"{r}/{name}") for r, g in pairs for name in ("runs.csv", "summary.csv")]
    files += [("single/single_trace.csv",) * 2, ("stream/stream_trace.csv",) * 2]
    for got_name, ref_name in files:
        assert strip_timing(got / got_name) == strip_timing(ref / ref_name), got_name
    _, _, rows = read_csv(got / "w1" / "runs.csv")
    assert {r[1] for r in rows} == set(cli.METHOD_TOKENS)


def test_one_warmup_optimization_per_stream(tmp_path, monkeypatch):
    # every method of a run starts from one warmup: R runs make R, the nk
    # sweep of single makes one, and stream makes one; no warmup
    # optimization happens outside initialize
    calls = {"initialize": 0, "opt": 0, "in_batch": False}
    real_init = estimator.OnlineEstimator.initialize
    real_batch = estimator.OnlineEstimator.process_batch
    real_opt = estimator.opt_until_convergence

    def counting_init(self, u, y):
        calls["initialize"] += 1
        return real_init(self, u, y)

    def flagging_batch(self, u, y):
        calls["in_batch"] = True
        try:
            return real_batch(self, u, y)
        finally:
            calls["in_batch"] = False

    def counting_opt(*args, **kwargs):
        calls["opt"] += not calls["in_batch"]
        return real_opt(*args, **kwargs)

    monkeypatch.setattr(estimator.OnlineEstimator, "initialize", counting_init)
    monkeypatch.setattr(estimator.OnlineEstimator, "process_batch", flagging_batch)
    monkeypatch.setattr(estimator, "opt_until_convergence", counting_opt)
    methods = ["--methods", "sgp,em1,bfgs_lambda,opt"]
    for argv, want in (
        (["montecarlo", "--runs", "3"], 3),
        (["montecarlo", "--runs", "3", "--mode", "opt"], 3),
        (["single", "--nk-sweep", "10,30"], 1),
        (["stream", "--nk", "30", str(tmp_path / "dataset.csv")], 1),
    ):
        calls.update(initialize=0, opt=0)
        assert cli.main(argv[:1] + base_args(tmp_path, argv[1:] + methods)) == 0
        assert (calls["initialize"], calls["opt"]) == (want, want), argv


def test_stream_input_errors_exit_2(tmp_path, capsys):
    missing = cli.main(["stream", str(tmp_path / "nope.csv")])
    assert missing == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("u,y\n1.0,2.0\n3.0\n")
    assert cli.main(["stream", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err
    non_finite = tmp_path / "nan.csv"
    non_finite.write_text("u,y\n1.0,2.0\nnan,3.0\n")
    assert cli.main(["stream", str(non_finite)]) == 2
    assert "line 3: non-finite" in capsys.readouterr().err
    short = tmp_path / "short.csv"
    short.write_text("u,y\n" + "".join(f"{i}.0,{i}.0\n" for i in range(5)))
    assert cli.main(["stream", "--n-warmup", "40", str(short)]) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("u,y\n")
    assert cli.main(["stream", str(empty)]) == 2


def test_stream_length_sets_n_total(tmp_path):
    # a warmup longer than the configured n_total is fine: a stream runs
    # over the whole file, whatever n_total says
    rng = np.random.default_rng(5)
    dump_dataset(tmp_path / "long.csv", rng.standard_normal(6100), rng.standard_normal(6100))
    argv = ["stream", "--n", "4", "--nk", "50", "--n-warmup", "6000", "--methods", "sgp",
            "--out", str(tmp_path), str(tmp_path / "long.csv")]
    assert cli.main(argv) == 0
    header, _, rows = read_csv(tmp_path / "stream_trace.csv")
    assert " n_total=6100 " in header[1]
    assert [r[3] for r in rows] == ["1", "2"]


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli.main(["single", "--methods", "warp", "--out", str(tmp_path)]) == 2
    assert "warp" in capsys.readouterr().err
    # a repeated batch size would write its rows twice under one run_id
    repeated = ["--n", "20", "--n-total", "120", "--n-warmup", "60", "--nk-sweep", "30,30"]
    assert cli.main(["single", *repeated, "--methods", "sgp", "--out", str(tmp_path)]) == 2
    assert "more than once: 30" in capsys.readouterr().err
    assert cli.main(["single", "--nk-sweep", ",", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "single_trace.csv").exists()
    assert cli.main(["single", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert cli.main(["single", "--nk", "0", "--out", str(tmp_path)]) == 2
    assert cli.main(["single", "--nk-sweep", "5,0", "--out", str(tmp_path)]) == 2
    assert cli.main(["montecarlo", "--workers", "0", "--out", str(tmp_path)]) == 2
    assert cli.main(["single", "--config", str(tmp_path / "absent.cfg")]) == 2
    capsys.readouterr()
    # NaN compares false with everything, so it must not slip past "snr <= 0";
    # inf is noise-free data and stays valid
    tiny = ["--n", "20", "--n-total", "120", "--n-warmup", "60", "--runs", "1", "--methods", "sgp"]
    assert cli.main(["montecarlo", *tiny, "--snr", "nan", "--out", str(tmp_path)]) == 2
    assert "snr" in capsys.readouterr().err
    assert cli.main(["montecarlo", *tiny, "--snr", "inf", "--out", str(tmp_path)]) == 0


def test_runtime_failures_exit_3(tmp_path, monkeypatch, capsys):
    def boom(resolved):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(cli, "cmd_montecarlo", boom)
    assert cli.main(["montecarlo", "--out", str(tmp_path)]) == 3
    assert "disk on fire" in capsys.readouterr().err


def test_csv_writes_are_atomic(tmp_path):
    assert cli.main(["single"] + base_args(tmp_path)) == 0
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []


def test_cli_import_loads_no_scipy_linalg_lib_signal_stats_or_interpolate():
    src_dir = os.path.dirname(os.path.dirname(bayesfir.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    code = (
        "import sys; import bayesfir.cli; "
        "print(sorted(m for m in ('scipy.linalg', 'scipy._lib', 'scipy.signal', "
        "'scipy.stats', 'scipy.interpolate') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
