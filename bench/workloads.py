"""The bayesfir benchmark workloads and their output checks.

Every workload follows the paper protocol: a random stable system from
``simgen.random_system``, band-limited input, SNR 5 and a 100-sample warmup.
Stream ``k`` of a run draws everything from ``SeedSequence((seed, k))``, the
same scheme the ``montecarlo`` command uses per run, and the estimator is
handed plain arrays only.  Each workload is a closed loop: the next batch is
fed only after ``process_batch`` has returned, and the tokens of a workload
are interleaved batch by batch so that machine drift spreads over all of them.

``measure_*`` give the end-to-end metrics with tracing off; ``trace_*``
alternate untraced and traced passes over fixed work and give the per-layer
metrics, the tracing overhead and the exact-count checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import linalg as sla

from bayesfir import cli, estimator, simgen
from bayesfir.optim import OptimizerConfig
from tracer import FACTORIZING, GENERATE, OPT, STEPS, Tracer

WARMUP = 100
SNR = 5.0
# Relative distance allowed between the estimate and the dense reference
# K (R K + sigma2 I)^-1 Phi'y; observed distances are below 1e-11.
REF_TOL = 1e-8
STUDY_TIMEOUT_S = 150.0
ALL_TOKENS = (
    "bb", "sgp", "bfgs", "em", "em1", "em2", "bb_lambda", "sgp_lambda", "bfgs_lambda",
    "opt", "opt_lambda",
)
STAT_FUNCS = ("ingest", "ls_estimate", "noise_variance", "sherman_morrison_inverse_update")


@dataclass(frozen=True)
class StreamWorkload:
    """Streams fed in-process through ``OnlineEstimator``.

    Streams are short, so that one run covers many systems: the spread
    between seeds comes mostly from which systems are drawn (final fit ranges
    from under 10% to over 95% across systems).  A run first feeds the fixed
    work, streams ``0 .. fixed_streams - 1``, whatever ``--seconds`` is; the
    counts of attempted and failed operations, the final fit and the study
    time come from it alone, so they depend on the seed and nothing else.
    It then replays those streams in order until ``--seconds`` have passed;
    a replay must reproduce its stream's results exactly, and latency,
    throughput and set-up time use every stream fed.  ``trace_streams``
    streams are the fixed work of one traced pass.
    """

    name: str
    n: int
    nk: int
    tokens: tuple
    n_total: int
    fixed_streams: int
    trace_streams: int


@dataclass(frozen=True)
class StudyWorkload:
    """``bayesfir montecarlo`` studies, one subprocess each, ``--workers 1``.

    Study ``j`` of a run passes ``--seed seed * SEED_STRIDE + j``, so every
    study draws its own systems.  A run first makes the fixed work, studies
    ``0 .. fixed_studies - 1``; the counts, the final fit and the study time
    come from it alone.  It then replays those studies in order until
    ``--seconds`` have passed; a replay must exit as its study did and write
    the same non-timing columns, and the latency figures use every study
    made.  A study that exits non-zero loses only its own runs.
    Traced runs pair an untraced and a traced copy of study 0.
    """

    name: str
    n: int
    nk: int
    tokens: tuple
    n_total: int
    runs: int
    fixed_studies: int
    setup_probes: int


ONESTEP = ("bb", "sgp", "bfgs", "em", "em1", "em2", "bb_lambda", "sgp_lambda", "bfgs_lambda")

WORKLOADS = {
    wl.name: wl
    for wl in (
        StreamWorkload("onestep-n80-nk10", n=80, nk=10, tokens=ONESTEP, n_total=300,
                       fixed_streams=36, trace_streams=3),
        # 30 samples past the warmup: each run is one full warmup optimization
        # per token plus three batches, so a study of 5 runs takes a few seconds
        # and the fixed work covers 40 systems.
        StudyWorkload("reopt-study", n=80, nk=10, tokens=("sgp", "em2", "opt", "opt_lambda"),
                      n_total=130, runs=5, fixed_studies=8, setup_probes=5),
    )
}

TINY = {
    "onestep-n80-nk10": dict(n_total=130, fixed_streams=1, trace_streams=1),
    "reopt-study": dict(n_total=120, runs=1, fixed_studies=1, setup_probes=1),
}


@dataclass
class Outcome:
    """What one run hands back to ``run.py``."""

    metrics: dict
    attempted: int
    failed: int
    correct: bool
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------- streams


def make_stream(seed: int, k: int, n: int, n_total: int):
    rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
    system = simgen.random_system(rng, n)
    u = simgen.bandlimited_input(rng, n_total)
    y = simgen.simulate_io(system, u, SNR, rng)
    return system.h_true, u, y


def dense_posterior_mean(u, y, n, lam, beta, sigma2):
    """K (R K + sigma2 I)^-1 Phi'y from an explicit regressor matrix."""
    phi = sla.toeplitz(u, np.r_[u[0], np.zeros(n - 1)])  # row t: u(t), ..., u(t-n+1)
    idx = np.arange(1, n + 1)
    kern = lam * beta ** np.maximum.outer(idx, idx)
    rmat = phi.T @ phi
    return kern @ np.linalg.solve(rmat @ kern + sigma2 * np.eye(n), phi.T @ y)


@dataclass
class TokenRun:
    est: object
    latencies: list = field(default_factory=list)
    failed: int = 0
    folded: list = field(default_factory=lambda: [(0, WARMUP)])
    digest: object = field(default_factory=hashlib.sha256)
    snap: object = None


@dataclass
class StreamResult:
    init_s: list
    latencies: dict  # token -> seconds per process_batch call
    samples: dict  # token -> samples folded in by successful process_batch calls
    attempted: int
    failed: int
    check_failures: int
    worst_ref_err: float
    fits: dict
    digests: dict
    errors: list

    def outcome(self) -> tuple:
        """The non-timing results, which a replay of the stream must repeat."""
        return (self.attempted, self.failed, self.check_failures, self.fits, self.digests)


def feed_stream(wl: StreamWorkload, seed: int, k: int, n_total: int = None,
                tracer: Tracer = None) -> StreamResult:
    """Run every token of ``wl`` over stream ``k`` and check the final estimates."""
    h_true, u, y = make_stream(seed, k, wl.n, n_total or wl.n_total)
    runs, init_s, errors = {}, [], []
    attempted = failed = 0
    for tok in wl.tokens:
        method, lambda_only, mode = cli.METHOD_TOKENS[tok]
        est = estimator.OnlineEstimator(wl.n, method=method, mode=mode, lambda_only=lambda_only)
        if tracer is not None:
            tracer.label = tok
        attempted += 1
        t0 = time.perf_counter()
        try:
            est.initialize(u[:WARMUP], y[:WARMUP])
        except Exception as exc:  # counted as a failed operation; the run goes on
            failed += 1
            errors.append(f"{tok} initialize: {exc!r}")
            continue
        init_s.append(time.perf_counter() - t0)
        runs[tok] = TokenRun(est)

    samples = dict.fromkeys(runs, 0)
    for start in range(WARMUP, u.size, wl.nk):
        stop = min(start + wl.nk, u.size)
        ub, yb = u[start:stop], y[start:stop]
        for tok, run in runs.items():
            if tracer is not None:
                tracer.label = tok
            attempted += 1
            t0 = time.perf_counter()
            try:
                snap = run.est.process_batch(ub, yb)
            except Exception as exc:  # the update is atomic: keep the old state, go on
                run.latencies.append(time.perf_counter() - t0)
                run.failed += 1
                errors.append(f"{tok} batch@{start}: {exc!r}")
                continue
            run.latencies.append(time.perf_counter() - t0)
            run.snap = snap
            run.folded.append((start, stop))
            samples[tok] += stop - start
            run.digest.update(snap.h.tobytes())
            run.digest.update(np.array([snap.eta.lam, snap.eta.beta, snap.sigma2, snap.nbar]).tobytes())
    if tracer is not None:
        tracer.label = None

    check_failures = 0
    worst = 0.0
    fits = {}
    for tok, run in runs.items():
        failed += run.failed
        if run.snap is None:
            continue
        attempted += 1
        uf = np.concatenate([u[a:b] for a, b in run.folded])
        yf = np.concatenate([y[a:b] for a, b in run.folded])
        snap = run.snap
        ref = dense_posterior_mean(uf, yf, wl.n, snap.eta.lam, snap.eta.beta, snap.sigma2)
        err = float(np.linalg.norm(snap.h - ref)) / max(float(np.linalg.norm(ref)), 1.0)
        worst = max(worst, err)
        if not err <= REF_TOL or snap.nbar != uf.size:
            check_failures += 1
            failed += 1
            errors.append(f"{tok} stream {k}: estimate off the dense reference by {err:.3e}")
        fits[tok] = 100.0 * (1.0 - float(np.linalg.norm(h_true - snap.h)) / float(np.linalg.norm(h_true)))
    return StreamResult(
        init_s=init_s,
        latencies={tok: run.latencies for tok, run in runs.items()},
        samples=samples,
        attempted=attempted,
        failed=failed,
        check_failures=check_failures,
        worst_ref_err=worst,
        fits=fits,
        digests={tok: run.digest.hexdigest() for tok, run in runs.items()},
        errors=errors,
    )


def _token_metrics(latencies: dict, samples: dict) -> dict:
    """Throughput, median and p90 latency of each token, geometric mean over tokens.

    Per token, then averaged, because the tokens' costs differ by up to 40
    times: pooled figures would follow the slowest token alone, and a pooled
    median falls in the gap between fast and slow tokens.
    """
    toks = [tok for tok, lat in latencies.items() if lat]
    return {
        "samples_per_s": statistics.geometric_mean(
            samples[tok] / sum(latencies[tok]) for tok in toks if samples[tok]),
        "batch_p50_ms": 1e3 * statistics.geometric_mean(
            float(np.median(latencies[tok])) for tok in toks),
        "batch_p90_ms": 1e3 * statistics.geometric_mean(
            float(np.percentile(latencies[tok], 90.0)) for tok in toks),
    }


def _merge(dicts) -> dict:
    """Per-token lists concatenated, or per-token numbers summed."""
    merged = {}
    for d in dicts:
        for tok, val in d.items():
            merged[tok] = merged[tok] + val if tok in merged else val
    return merged


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def measure_streams(wl: StreamWorkload, seed: int, seconds: float) -> Outcome:
    # Untimed warm-up so that lazy imports and first-call costs stay out.
    feed_stream(wl, seed, 0, n_total=WARMUP + 2 * wl.nk)
    deadline = time.perf_counter() + seconds
    fixed = [feed_stream(wl, seed, k) for k in range(wl.fixed_streams)]
    replays, mismatched = [], []
    while time.perf_counter() < deadline:
        k = len(replays) % wl.fixed_streams
        replays.append(feed_stream(wl, seed, k))
        if replays[-1].outcome() != fixed[k].outcome():
            mismatched.append(f"replay of stream {k} gave different results")
    results = fixed + replays
    latencies = _merge(r.latencies for r in results)
    attempted = sum(r.attempted for r in fixed)
    failed = sum(r.failed for r in fixed)
    metrics = {
        **_token_metrics(latencies, _merge(r.samples for r in results)),
        "final_fit_median": statistics.median(f for r in fixed for f in r.fits.values()),
        "ok_share": 1.0 - failed / attempted,
        "setup_s": statistics.median(t for r in results for t in r.init_s),
        "study_s": sum(sum(lat) for r in fixed for lat in r.latencies.values()),
        "peak_rss_mb": _peak_rss_mb(),
    }
    notes = [
        f"streams={len(fixed)} fixed + {len(replays)} replayed "
        "(counts, final fit and study time over the fixed ones)",
        f"batches timed={sum(map(len, latencies.values()))} initialize calls={sum(len(r.init_s) for r in results)}",
        f"worst relative distance to dense reference={max(r.worst_ref_err for r in results):.3e}",
    ]
    notes += ([e for r in fixed for e in r.errors] + mismatched)[:20]
    return Outcome(metrics, attempted, failed,
                   correct=not mismatched and all(r.check_failures == 0 for r in results),
                   notes=notes)


# ------------------------------------------------------------------ traces

# Summary fields that count work; they must repeat exactly between passes.
EXACT_FIELDS = ("batches", "calls", "raised", "steps", "null_steps", "backtracks",
                "opt_iterations", "by_label")


def _layer_metrics(summaries: list, latencies: dict, overhead: list, plain_s: list,
                   runs: int, ratio=(0.0, 0.0)) -> dict:
    """Per-layer metrics; times are medians over the traced passes."""
    first = summaries[0]
    batches = max(first["batches"], 1)

    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    def self_ms(names):
        return med(lambda s: 1e3 * sum(s["self_s"].get(n, 0.0) for n in names) / batches)

    def calls(names):
        return sum(first["calls"].get(n, 0) for n in names) / batches

    out = {}
    for fn in STAT_FUNCS:
        out[f"stats.{fn}.calls_per_batch"] = calls([f"stats.{fn}"])
        out[f"stats.{fn}.self_ms_per_batch"] = self_ms([f"stats.{fn}"])
    out["kernel.build_tc_kernel.self_ms_per_batch"] = self_ms(["kernel.build_tc_kernel"])
    out["kernel.psd_sqrt_factor.calls_per_batch"] = calls(["kernel.psd_sqrt_factor"])
    for name in FACTORIZING:
        out[f"{name}.calls_per_batch"] = calls([name])
        out[f"{name}.self_ms_per_batch"] = self_ms([name])
    out["likelihood.factorizations_per_batch"] = calls(FACTORIZING)
    out["likelihood.nonfinite_per_batch"] = first["raised"].get("likelihood.neg_log_ml", 0) / batches
    out["optim.step.self_ms_per_batch"] = self_ms(STEPS + (OPT,))
    out["optim.backtracks_per_batch"] = first["backtracks"] / batches
    out["optim.null_step_share"] = first["null_steps"] / max(first["steps"], 1)
    out["optim.opt_iterations_per_batch"] = first["opt_iterations"] / batches
    out["estimator.process_batch.self_ms_per_batch"] = self_ms(
        ["estimator.OnlineEstimator.process_batch"])
    out["estimator.initialize.ms"] = med(lambda s: 1e3 * statistics.median(s["init_s"] or [0.0]))
    out["simgen.generate_ms_per_run"] = med(
        lambda s: 1e3 * sum(s["total_s"].get(n, 0.0) for n in GENERATE) / runs)
    out["cli.self_s"] = med(lambda s: sum(v for n, v in s["total_self_s"].items()
                                          if n.startswith("cli.")))
    for tok in ALL_TOKENS:
        lat = latencies.get(tok)
        out[f"token.{tok}.batch_p50_ms"] = 1e3 * float(np.median(lat)) if lat else 0.0
        lab = first["by_label"].get(tok)
        out[f"token.{tok}.factorizations_per_batch"] = (
            lab["factorizations"] / lab["batches"] if lab and lab["batches"] else 0.0)
    out["opt_onestep_ratio"], out["opt_onestep_ratio.base_s"] = ratio
    out["trace.overhead_s"] = statistics.median(overhead)
    out["trace.overhead_share"] = statistics.median(
        o / p for o, p in zip(overhead, plain_s))
    return out


def _exact_mismatch(summaries: list) -> list:
    first = summaries[0]
    return [f"count {key} differs between traced passes"
            for s in summaries[1:] for key in EXACT_FIELDS if s[key] != first[key]]


def trace_streams(wl: StreamWorkload, seed: int, seconds: float) -> Outcome:
    feed_stream(wl, seed, 0, n_total=WARMUP + 2 * wl.nk)
    deadline = time.perf_counter() + seconds
    summaries, plain_s, overhead, problems = [], [], [], []
    latencies, reference = {}, None
    while len(summaries) < 2 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        plain = [feed_stream(wl, seed, k) for k in range(wl.trace_streams)]
        if reference is None:  # counts come from the first pass; later ones must repeat it
            reference = [r.outcome() for r in plain]
            attempted, failed = sum(r.attempted for r in plain), sum(r.failed for r in plain)
        t1 = time.perf_counter()
        tracer = Tracer()
        tracer.install()
        try:
            traced = [feed_stream(wl, seed, k, tracer=tracer) for k in range(wl.trace_streams)]
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        summaries.append(tracer.summary())
        plain_s.append(t1 - t0)
        overhead.append((t2 - t1) - (t1 - t0))
        latencies = _merge([latencies] + [r.latencies for r in plain])
        if [r.outcome() for r in plain] != reference:
            problems.append("a repeated untraced pass gave different results")
        if [r.outcome() for r in traced] != reference:
            problems.append("traced and untraced passes gave different results")
        if any(r.check_failures for r in plain + traced):
            problems.append("estimate off the dense reference")
    problems += _exact_mismatch(summaries)
    metrics = _layer_metrics(summaries, latencies, overhead, plain_s, runs=wl.trace_streams)
    notes = [f"traced passes={len(summaries)} over streams 0..{wl.trace_streams - 1}, "
             f"{summaries[0]['spans']} spans each",
             f"absent functions: {', '.join(summaries[0]['absent']) or 'none'}"]
    notes += _factorization_notes(summaries[0])
    return Outcome(metrics, attempted, failed, correct=not problems, notes=notes + problems[:20])


def _factorization_notes(summary: dict) -> list:
    return [f"factorizations/batch {tok}: {v['factorizations'] / v['batches']:.3f}"
            for tok, v in sorted(summary["by_label"].items()) if v["batches"]]


# ------------------------------------------------------------------- study


def _run_child(argv: list, env: dict) -> tuple:
    """(wall seconds, exit code, stderr tail) of a child process that is always reaped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, err = proc.communicate(timeout=STUDY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    return time.perf_counter() - t0, proc.returncode, (err or "")[-500:]


def _read_runs(path: Path) -> list:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    if tuple(header) != cli.TRACE_COLUMNS:
        raise ValueError(f"unexpected runs.csv header {header}")
    return list(reader)


TIMING_COLUMNS = (cli.TRACE_COLUMNS.index("batch_seconds"),
                  cli.TRACE_COLUMNS.index("cumulative_seconds"))


def _non_timing(row) -> tuple:
    """The columns that must repeat exactly, from CSV text or in-process values alike."""
    return tuple(_cell(v) for i, v in enumerate(row) if i not in TIMING_COLUMNS)


def _cell(value):
    if value is None or value == "":
        return ""
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


@dataclass
class StudyResult:
    wall_s: float
    code: int  # exit code of the CLI
    rows: list
    summary: dict  # trace summary of a traced study, else None
    problems: list  # wrong output; a non-zero exit is not one
    error: str = ""  # why the CLI exited non-zero

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems

    def outcome(self) -> tuple:
        """The non-timing results, which a replay of the study must repeat."""
        return (self.code, [_non_timing(r) for r in self.rows])


# Study j of a run passes --seed seed * SEED_STRIDE + j to the CLI; a run
# makes far fewer than SEED_STRIDE studies, so seeds never collide.
SEED_STRIDE = 1000


class StudyRunner:
    """Runs CLI studies in a scratch directory inside the checkout."""

    def __init__(self, wl: StudyWorkload, seed: int, root: Path):
        self.wl = wl
        self.seed = seed
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + os.pathsep + old if old else src
        scratch = root / ".bench_out"
        scratch.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=scratch))
        self.expected_rows = wl.runs * len(wl.tokens) * math.ceil((wl.n_total - WARMUP) / wl.nk)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def cli_seed(self, j: int) -> int:
        return self.seed * SEED_STRIDE + j

    def study(self, j: int, traced: bool = False, check_run0: bool = True) -> StudyResult:
        """Run study ``j``; with ``check_run0``, compare run 0 with an in-process rerun."""
        out = self.dir / ("traced" if traced else "plain")
        shutil.rmtree(out, ignore_errors=True)
        argv = [
            "montecarlo", "--runs", str(self.wl.runs), "--n", str(self.wl.n),
            "--nk", str(self.wl.nk), "--n-total", str(self.wl.n_total),
            "--n-warmup", str(WARMUP), "--snr", str(SNR), "--seed", str(self.cli_seed(j)),
            "--workers", "1", "--methods", ",".join(self.wl.tokens), "--out", str(out),
        ]
        summary_path = self.dir / "summary.json"
        if traced:
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                   str(summary_path)] + argv
        else:
            cmd = [sys.executable, "-m", "bayesfir.cli"] + argv
        wall, code, err = _run_child(cmd, self.env)
        if code != 0:
            return StudyResult(wall, code, [], None, [], f"study {j} exited {code}: {err.strip()}")
        rows = _read_runs(out / "runs.csv")
        problems = []
        if len(rows) != self.expected_rows or any(
                len(r) != len(cli.TRACE_COLUMNS) or "" in r for r in rows):
            problems.append(f"study {j}: runs.csv has {len(rows)} rows, "
                            f"expected {self.expected_rows} complete")
        elif check_run0:
            run0 = [_non_timing(r) for r in self.run0_rows(j)]
            if [_non_timing(r) for r in rows[: len(run0)]] != run0:
                problems.append(f"study {j}: runs.csv differs from the in-process rerun")
        summary = json.loads(summary_path.read_text()) if traced else None
        return StudyResult(wall, code, rows, summary, problems)

    def import_probe(self) -> float:
        wall, code, err = _run_child([sys.executable, "-c", "import bayesfir.cli"], self.env)
        if code != 0:
            raise RuntimeError(f"importing bayesfir.cli failed: {err}")
        return wall

    def run0_rows(self, j: int) -> list:
        """Run 0 of study ``j``, recomputed in-process by ``montecarlo_rows``."""
        xcfg = simgen.ExperimentConfig(
            n=self.wl.n, n_total=self.wl.n_total, n_warmup=WARMUP, n_k=self.wl.nk, snr=SNR,
            runs=1, seed=self.cli_seed(j), methods=self.wl.tokens,
        )
        return cli.montecarlo_rows(xcfg, OptimizerConfig(), mode="onestep", workers=1)


def _study_figures(rows: list) -> dict:
    """Per-token latencies, samples folded, final fits and the criterion-9 ratio."""
    col = cli.TRACE_COLUMNS.index
    per_token, samples, last = {}, {}, {}
    for r in rows:
        key = (r[col("run_id")], r[col("method")])
        per_token.setdefault(key[1], []).append(float(r[col("batch_seconds")]))
        prev = int(last[key][col("nbar")]) if key in last else WARMUP
        samples[key[1]] = samples.get(key[1], 0) + int(r[col("nbar")]) - prev
        last[key] = r
    cum = {key: float(r[col("cumulative_seconds")]) for key, r in last.items()}
    ratio, base = math.inf, 0.0
    for (run, tok), secs in cum.items():
        opt = cum.get((run, "opt"))
        if tok in ONESTEP and opt is not None and opt / secs < ratio:
            ratio, base = opt / secs, secs
    return {
        "samples": samples,
        "fits": [float(r[col("fit")]) for r in last.values()],
        "per_token": per_token,
        "ratio": (ratio, base) if base else (0.0, 0.0),
    }


def measure_study(wl: StudyWorkload, seed: int, seconds: float, root: Path) -> Outcome:
    runner = StudyRunner(wl, seed, root)
    replays, mismatched = [], []
    try:
        setup = [runner.import_probe() for _ in range(wl.setup_probes)]
        deadline = time.perf_counter() + seconds
        fixed = [runner.study(j) for j in range(wl.fixed_studies)]
        while time.perf_counter() < deadline:
            j = len(replays) % wl.fixed_studies
            replays.append(runner.study(j, check_run0=False))
            if replays[-1].outcome() != fixed[j].outcome():
                mismatched.append(f"replay of study {j} gave different results")
    finally:
        runner.close()
    attempted = len(fixed)
    failed = sum(not r.ok for r in fixed)
    problems = [p for r in fixed for p in r.problems] + mismatched
    notes = [r.error for r in fixed if r.error] + problems
    if failed == attempted:
        return Outcome({}, attempted, failed, correct=False, notes=notes)
    figures = [_study_figures(r.rows) for r in fixed + replays if r.ok]
    per_token = _merge(f["per_token"] for f in figures)
    metrics = {
        **_token_metrics(per_token, _merge(f["samples"] for f in figures)),
        "final_fit_median": statistics.median(
            x for r in fixed if r.ok for x in _study_figures(r.rows)["fits"]),
        "ok_share": 1.0 - failed / attempted,
        "setup_s": statistics.median(setup),
        "study_s": sum(r.wall_s for r in fixed if r.ok),
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    ratio = min(f["ratio"] for f in figures)
    notes = [f"studies={attempted} fixed + {len(replays)} replayed, {wl.runs} runs each "
             f"(counts, final fit and study time over the fixed ones) import probes={len(setup)} "
             f"batches timed={sum(map(len, per_token.values()))}",
             "opt/one-step worst per-run ratio {:.2f} (base {:.4f} s)".format(*ratio)] + notes
    return Outcome(metrics, attempted, failed, correct=not problems, notes=notes[:20])


def trace_study(wl: StudyWorkload, seed: int, seconds: float, root: Path) -> Outcome:
    """Alternate untraced and traced copies of the first study that exits cleanly.

    The counts cover the studies tried until then and its first traced copy.
    """
    runner = StudyRunner(wl, seed, root)
    summaries, plain_s, overhead, latencies, ratios = [], [], [], {}, []
    problems, notes, attempted, failed = [], [], 0, 0
    try:
        deadline = time.perf_counter() + seconds
        tried = [runner.study(0)]
        while not tried[-1].ok and len(tried) < wl.fixed_studies:
            tried.append(runner.study(len(tried)))
        j, plain = len(tried) - 1, tried[-1]
        problems += [p for r in tried for p in r.problems]
        notes += [r.error for r in tried if r.error]
        attempted, failed = len(tried), sum(not r.ok for r in tried)
        if plain.ok:
            reference = plain.outcome()
            attempted += 1
            while True:
                traced = runner.study(j, traced=True, check_run0=False)
                if traced.outcome() != reference:
                    problems.append("traced and untraced studies gave different results")
                if not traced.ok:
                    failed += len(summaries) == 0
                    notes.append(traced.error)
                    break
                figures = _study_figures(plain.rows)
                latencies = _merge([latencies, figures["per_token"]])
                ratios.append(figures["ratio"])
                summaries.append(traced.summary)
                plain_s.append(plain.wall_s)
                overhead.append(traced.wall_s - plain.wall_s)
                if len(summaries) >= 2 and time.perf_counter() >= deadline:
                    break
                plain = runner.study(j, check_run0=False)
                if plain.outcome() != reference:
                    problems.append("a repeated untraced study gave different results")
                    break
    finally:
        runner.close()
    if not summaries:
        return Outcome({}, attempted, failed, correct=False, notes=notes + problems)
    problems += _exact_mismatch(summaries)
    metrics = _layer_metrics(summaries, latencies, overhead, plain_s, runs=wl.runs,
                             ratio=min(ratios))
    notes = [f"traced copies of study {j} ({wl.runs} runs)={len(summaries)}, "
             f"{summaries[0]['spans']} spans each",
             f"absent functions: {', '.join(summaries[0]['absent']) or 'none'}",
             *_factorization_notes(summaries[0]), *notes, *problems]
    return Outcome(metrics, attempted, failed, correct=not problems, notes=notes[:40])
