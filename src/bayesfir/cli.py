"""Command-line benchmark harness.

Three commands share one flat key=value config (every key can also be set
with a ``--key value`` flag).  It holds the experiment protocol, whose
defaults are ``simgen.ExperimentConfig``'s, and four keys only the CLI reads;
every run uses the defaults of ``optim.OptimizerConfig`` and the constants of
``optim``, and neither can be set here.

* ``single``     one random system, a trace per method and per batch size.
* ``montecarlo`` repeated runs with per-run RNG streams and a summary table.
* ``stream``     run the estimator over a recorded u,y file (no fit column);
                 n_total is the file's length.

Each stream's warmup chunk is optimized once (``warm_start``), and every
method of the run -- every batch size of the ``single`` sweep too -- starts
from that one record (``run_methods``); the timing columns count batches
only, never the warmup.

All randomness derives from the config seed, so the statistical content of
every output file is reproducible; the timing columns are measured wall time
and necessarily vary between invocations.  Exit codes: 0 success, 2
usage/config error, 3 runtime failure (partially written files are cleaned
up).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .estimator import BETA0, MODES, OnlineEstimator
from .optim import OptimizerConfig
from .simgen import (
    ExperimentConfig,
    bandlimited_input,
    dump_dataset,
    fit,
    load_dataset,
    random_system,
    simulate_io,
)

SCHEMA_TRACE = "bayesfir-trace-v1"
SCHEMA_STREAM = "bayesfir-stream-trace-v1"
SCHEMA_SUMMARY = "bayesfir-summary-v1"
SCHEMA_SYSTEM = "bayesfir-system-v1"

TRACE_COLUMNS = (
    "run_id",
    "method",
    "lambda_only",
    "batch_index",
    "nbar",
    "fit",
    "lambda",
    "beta",
    "sigma2",
    "batch_seconds",
    "cumulative_seconds",
)
SUMMARY_COLUMNS = (
    "method",
    "lambda_only",
    "median_final_fit",
    "q1_final_fit",
    "q3_final_fit",
    "total_seconds",
)

# token -> (updater, lambda_only, mode)
METHOD_TOKENS = {
    "bb": ("bb", False, "onestep"),
    "sgp": ("sgp", False, "onestep"),
    "bfgs": ("bfgs", False, "onestep"),
    "em": ("em", False, "onestep"),
    "em1": ("em1", True, "onestep"),
    "em2": ("em2", True, "onestep"),
    "bb_lambda": ("bb", True, "onestep"),
    "sgp_lambda": ("sgp", True, "onestep"),
    "bfgs_lambda": ("bfgs", True, "onestep"),
    "opt": ("sgp", False, "opt"),
    "opt_lambda": ("sgp", True, "opt"),
}


class ConfigError(Exception):
    """Bad usage or configuration; maps to exit code 2."""


def _cast_methods(text: str) -> tuple:
    tokens = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not tokens:
        raise ValueError("empty method list")
    for tok in tokens:
        if tok not in METHOD_TOKENS:
            raise ValueError(
                f"unknown method {tok!r}; expected one of {sorted(METHOD_TOKENS)}"
            )
    # a repeated token would run twice and merge into one summary row
    return _unrepeated(tokens)


def _cast_int_list(text: str) -> tuple:
    values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise ValueError("empty integer list")
    # a repeated nk_sweep entry would write its rows twice under one run_id
    return _unrepeated(values)


def _unrepeated(values: tuple) -> tuple:
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"listed more than once: {', '.join(map(str, repeated))}")
    return values


def _cast_mode(text: str) -> str:
    if text not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {text!r}")
    return text


_PROTOCOL_CASTS = {
    "n": int,
    "n_total": int,
    "n_warmup": int,
    "n_k": int,
    "snr": float,
    "runs": int,
    "seed": int,
    "methods": _cast_methods,
}
CONFIG_SCHEMA = {
    **{f.name: (_PROTOCOL_CASTS[f.name], f.default) for f in fields(ExperimentConfig)},
    "nk_sweep": (_cast_int_list, (1, 10, 50)),
    "mode": (_cast_mode, "onestep"),
    "out": (str, "."),
    "workers": (int, 1),
}


def parse_config_file(path: str) -> dict:
    """Read a flat key=value config file into raw string values."""
    raw, lines = {}, {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}: line {lineno}: expected key=value")
                key, value = (part.strip() for part in text.split("=", 1))
                if key not in CONFIG_SCHEMA:
                    raise ConfigError(f"{path}: line {lineno}: unknown config key {key!r}")
                if key in lines:
                    raise ConfigError(
                        f"{path}: line {lineno}: config key {key!r} already set on line {lines[key]}"
                    )
                raw[key], lines[key] = value, lineno
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return raw


def resolve_config(file_values: dict, overrides: dict) -> dict:
    """Apply defaults, file values, then CLI overrides; cast and validate."""
    resolved = {}
    for key, (cast, default) in CONFIG_SCHEMA.items():
        value = default
        if key in file_values:
            try:
                value = cast(file_values[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        if overrides.get(key) is not None:
            raw = overrides[key]
            try:
                value = cast(raw) if isinstance(raw, str) else raw
            except ValueError as exc:
                raise ConfigError(f"flag --{key.replace('_', '-')}: {exc}") from exc
        resolved[key] = value
    if resolved["seed"] < 0:
        raise ConfigError("seed must be >= 0")
    if resolved["workers"] < 1:
        raise ConfigError("workers must be >= 1")
    if any(nk < 1 for nk in resolved["nk_sweep"]):
        raise ConfigError("nk_sweep entries must be >= 1")
    return resolved


def experiment_config(resolved: dict) -> ExperimentConfig:
    try:
        return ExperimentConfig(**{f.name: resolved[f.name] for f in fields(ExperimentConfig)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def warm_start(u, y, xcfg, ocfg):
    """The stream's warmup, optimized once; every method of a run starts from it."""
    warm = xcfg.n_warmup
    return OnlineEstimator(n=xcfg.n, config=ocfg).initialize(u[:warm], y[:warm])


def run_trace(u, y, h_true, token, xcfg, warm, run_id, mode_override=None):
    """Run one estimator from the warm start over the stream; one output row per batch."""
    method, lam_only, mode = METHOD_TOKENS[token]
    if mode_override == "opt":
        mode = "opt"
    est = OnlineEstimator(
        n=xcfg.n, method=method, mode=mode, lambda_only=lam_only, config=warm.config
    )
    est.start(warm)
    rows = []
    cumulative = 0.0
    for start in range(xcfg.n_warmup, len(u), xcfg.n_k):
        snap = est.process_batch(u[start : start + xcfg.n_k], y[start : start + xcfg.n_k])
        cumulative += snap.seconds
        fit_val = fit(h_true, snap.h) if h_true is not None else None
        rows.append(
            [
                run_id,
                token,
                int(lam_only),
                snap.batch_index,
                snap.nbar,
                fit_val,
                snap.eta.lam,
                snap.eta.beta,
                snap.sigma2,
                snap.seconds,
                cumulative,
            ]
        )
    return rows


def run_methods(u, y, h_true, xcfg, warm, run_id, mode):
    """Trace rows of every method of the run over one stream, all from one warm start."""
    rows = []
    for token in xcfg.methods:
        rows.extend(run_trace(u, y, h_true, token, xcfg, warm, run_id, mode_override=mode))
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # numpy scalars repr as np.float64(...)
    return str(value)


def _config_comment(resolved: dict) -> str:
    pairs = []
    for key in CONFIG_SCHEMA:
        val = resolved[key]
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        pairs.append(f"{key}={val}")
    pairs.append(f"beta0={BETA0}")
    pairs.append("lambda0=ybar/(nbar*n)")
    return "# config: " + " ".join(pairs)


def _write_csv(path, schema, resolved, columns, rows):
    """Write atomically: a temp file is renamed only after a complete write."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(f"# schema={schema}\n")
            fh.write(_config_comment(resolved) + "\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def cmd_single(resolved: dict) -> None:
    xcfg = experiment_config(resolved)
    out = resolved["out"]
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng(xcfg.seed)
    system = random_system(rng, xcfg.n)
    u = bandlimited_input(rng, xcfg.n_total)
    y = simulate_io(system, u, xcfg.snr, rng)
    warm = warm_start(u, y, xcfg, OptimizerConfig())  # the sweep varies nk, not the warmup
    rows = []
    for nk in resolved["nk_sweep"]:
        xcfg_nk = replace(xcfg, n_k=nk)
        rows.extend(run_methods(u, y, system.h_true, xcfg_nk, warm, nk, resolved["mode"]))
    _write_csv(os.path.join(out, "single_trace.csv"), SCHEMA_TRACE, resolved, TRACE_COLUMNS, rows)
    _write_csv(
        os.path.join(out, "system.csv"), SCHEMA_SYSTEM, resolved, ("h",),
        [[float(v)] for v in system.h_true],
    )
    dump_dataset(os.path.join(out, "dataset.csv"), u, y)


def _mc_run(args):
    xcfg, ocfg, run_index, mode = args
    rng = np.random.default_rng(np.random.SeedSequence((xcfg.seed, run_index)))
    system = random_system(rng, xcfg.n)
    u = bandlimited_input(rng, xcfg.n_total)
    y = simulate_io(system, u, xcfg.snr, rng)
    warm = warm_start(u, y, xcfg, ocfg)
    return run_methods(u, y, system.h_true, xcfg, warm, run_index, mode)


def montecarlo_rows(xcfg, ocfg, mode="onestep", workers=1):
    """All trace rows for the Monte Carlo study, merged in run order.

    Each run draws from its own (seed, run_index) stream, so results are
    identical no matter how the work is split across processes.
    """
    jobs = [(xcfg, ocfg, run, mode) for run in range(xcfg.runs)]
    if workers > 1:
        # imported here: most runs are serial and need not pay for it at import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_run = list(pool.map(_mc_run, jobs))
    else:
        per_run = [_mc_run(job) for job in jobs]
    rows = []
    for chunk in per_run:
        rows.extend(chunk)
    return rows


def summarize(rows):
    """Per-method medians/quartiles of final fit plus total cumulative time."""
    finals = {}
    for row in rows:
        key = (row[1], row[2])
        finals.setdefault(key, {})[row[0]] = row  # last row per run wins
    out = []
    for (token, lam_only), per_run in sorted(finals.items()):
        last_rows = list(per_run.values())
        fits = np.array([r[5] for r in last_rows], dtype=float)
        total = float(np.sum([r[10] for r in last_rows]))
        q1, med, q3 = np.percentile(fits, [25.0, 50.0, 75.0])
        out.append([token, lam_only, float(med), float(q1), float(q3), total])
    return out


def cmd_montecarlo(resolved: dict) -> None:
    xcfg = experiment_config(resolved)
    out = resolved["out"]
    os.makedirs(out, exist_ok=True)
    rows = montecarlo_rows(
        xcfg, OptimizerConfig(), mode=resolved["mode"], workers=resolved["workers"]
    )
    _write_csv(os.path.join(out, "runs.csv"), SCHEMA_TRACE, resolved, TRACE_COLUMNS, rows)
    _write_csv(
        os.path.join(out, "summary.csv"), SCHEMA_SUMMARY, resolved, SUMMARY_COLUMNS,
        summarize(rows),
    )


def cmd_stream(resolved: dict, input_path: str) -> None:
    try:
        u, y = load_dataset(input_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    resolved = {**resolved, "n_total": len(u)}  # the stream's length, not the config's
    xcfg = experiment_config(resolved)
    out = resolved["out"]
    os.makedirs(out, exist_ok=True)
    warm = warm_start(u, y, xcfg, OptimizerConfig())
    rows = run_methods(u, y, None, xcfg, warm, 0, resolved["mode"])
    columns = tuple(c for c in TRACE_COLUMNS if c != "fit")
    stripped = [row[:5] + row[6:] for row in rows]
    _write_csv(os.path.join(out, "stream_trace.csv"), SCHEMA_STREAM, resolved, columns, stripped)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesfir",
        description="Streaming Bayesian FIR identification benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("single", "trace one random system across methods and batch sizes"),
        ("montecarlo", "Monte Carlo study with per-run RNG streams"),
        ("stream", "run the estimator over a recorded u,y file"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", default=None, help="key=value config file")
        p.add_argument("--nk", type=int, default=None, help="batch size (overrides n_k and the sweep)")
        for key in CONFIG_SCHEMA:
            p.add_argument("--" + key.replace("_", "-"), dest=key, metavar="VALUE", default=None)
        if name == "stream":
            p.add_argument("input", metavar="DATA", help="two-column u,y file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        overrides = {key: getattr(args, key) for key in CONFIG_SCHEMA}
        if args.nk is not None:
            if args.nk < 1:
                raise ConfigError("--nk must be >= 1")
            overrides["n_k"] = args.nk
            overrides["nk_sweep"] = (args.nk,)
        resolved = resolve_config(file_values, overrides)
        if args.command == "single":
            cmd_single(resolved)
        elif args.command == "montecarlo":
            cmd_montecarlo(resolved)
        else:
            cmd_stream(resolved, args.input)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: no partial outputs remain
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
