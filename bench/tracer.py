"""In-memory span tracer that wraps the public functions of the bayesfir layers.

``Tracer.install`` replaces each target function with a timing wrapper by
rebinding every attribute in the loaded ``bayesfir`` modules that *is* that
function object, so ``from .x import f`` aliases (as in ``estimator`` and
``optim``) are caught as well.  Methods are rebound on their class.  A target
that no longer exists is recorded in ``absent`` instead of failing, so the
benchmark keeps working while layers are deleted.

Each call appends one span: name, start, end and parent (the span that was
open when it began).  Spans are stored in flat arrays in start order, so a
parent always precedes its children; self time is a span's duration minus
the durations of its direct children.  Nothing is written out until
``summary`` is asked for.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

BATCH = "estimator.OnlineEstimator.process_batch"
INIT = "estimator.OnlineEstimator.initialize"
STEPS = ("optim.gradient_step", "optim.em_step", "optim.em_variant_step")
OPT = "optim.opt_until_convergence"
FACTORIZING = (
    "likelihood.neg_log_ml",
    "likelihood.grad_neg_log_ml",
    "likelihood.grad_lambda_only",
    "likelihood.posterior_moments",
)
GENERATE = ("simgen.random_system", "simgen.bandlimited_input", "simgen.simulate_io")

# (module, attribute path, positional argument that labels the call's spans)
TARGETS = (
    ("stats", "ingest", None),
    ("stats", "ls_estimate", None),
    ("stats", "noise_variance", None),
    ("stats", "sherman_morrison_inverse_update", None),
    ("kernel", "build_tc_kernel", None),
    ("kernel", "psd_sqrt_factor", None),
    ("likelihood", "neg_log_ml", None),
    ("likelihood", "grad_neg_log_ml", None),
    ("likelihood", "grad_lambda_only", None),
    ("likelihood", "posterior_moments", None),
    ("optim", "gradient_step", None),
    ("optim", "em_step", None),
    ("optim", "em_variant_step", None),
    ("optim", "opt_until_convergence", None),
    ("estimator", "OnlineEstimator.process_batch", None),
    ("estimator", "OnlineEstimator.initialize", None),
    ("simgen", "random_system", None),
    ("simgen", "bandlimited_input", None),
    ("simgen", "simulate_io", None),
    ("simgen", "fit", None),
    ("cli", "main", None),
    ("cli", "cmd_montecarlo", None),
    ("cli", "montecarlo_rows", None),
    ("cli", "run_trace", 3),  # run_trace(u, y, h_true, token, ...)
    ("cli", "summarize", None),
)


class Tracer:
    """Span recorder; ``label`` tags every span started while it is set."""

    def __init__(self):
        self.names = []
        self.labels = [None]
        self.name_id = array("i")
        self.label_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.reports = {}  # span index -> (gamma, backtracks) of a StepReport
        self.absent = []
        self.label = None
        self._label_ids = {None: 0}
        self._stack = []
        self._patches = []

    def _label_index(self, label) -> int:
        idx = self._label_ids.get(label)
        if idx is None:
            idx = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return idx

    def _wrap(self, name: str, fn, label_arg):
        nid = len(self.names)
        self.names.append(name)
        is_step = name in STEPS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_label = self.label
            if label_arg is not None and len(args) > label_arg:
                self.label = args[label_arg]
            idx = len(self.start)
            self.name_id.append(nid)
            self.label_id.append(self._label_index(self.label))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.raised.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
                self.label = outer_label
            if is_step:
                self.reports[idx] = (out.gamma, out.backtracks)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target found in the loaded ``bayesfir`` modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, path, label_arg in TARGETS:
            name = f"{modname}.{path}"
            try:
                module = importlib.import_module(f"bayesfir.{modname}")
            except ImportError:
                self.absent.append(name)
                continue
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, label_arg)
            if outer:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for modkey, mod in list(sys.modules.items()):
                if mod is None or not (modkey == "bayesfir" or modkey.startswith("bayesfir.")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()

    def summary(self) -> dict:
        """Aggregate the spans into per-name totals.

        "In batch" spans are ``process_batch`` calls and everything they
        caused; per-batch figures divide those totals by the batch count.
        """
        count = len(self.start)
        nid = np.frombuffer(self.name_id, dtype=np.int32, count=count)
        lid = np.frombuffer(self.label_id, dtype=np.int32, count=count)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=count)
        raised = np.frombuffer(self.raised, dtype=np.int8, count=count).astype(bool)
        dur = np.frombuffer(self.end, count=count) - np.frombuffer(self.start, count=count)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=count)
        self_s = dur - child[:count]

        ids = {name: i for i, name in enumerate(self.names)}
        batch_id = ids.get(BATCH, -1)
        in_batch = np.zeros(count, dtype=bool)
        for i in range(count):
            p = parent[i]
            in_batch[i] = nid[i] == batch_id or (p >= 0 and in_batch[p])

        def of(name, mask=None):
            sel = nid == ids.get(name, -2)
            return sel if mask is None else sel & mask

        out = {
            "absent": list(self.absent),
            "spans": count,
            "batches": int(of(BATCH).sum()),
            "calls": {},
            "self_s": {},
            "raised": {},
            "total_s": {},
            "total_self_s": {},
        }
        for name in self.names:
            sel_b = of(name, in_batch)
            sel = of(name)
            out["calls"][name] = int(sel_b.sum())
            out["self_s"][name] = float(self_s[sel_b].sum())
            out["raised"][name] = int(raised[sel_b].sum())
            out["total_s"][name] = float(dur[sel].sum())
            out["total_self_s"][name] = float(self_s[sel].sum())
        out["init_s"] = dur[of(INIT)].tolist()

        steps = [i for i in self.reports if in_batch[i]]
        out["steps"] = len(steps)
        out["null_steps"] = sum(1 for i in steps if self.reports[i][0] == 0.0)
        out["backtracks"] = sum(self.reports[i][1] for i in steps)
        opt_id = ids.get(OPT, -2)
        out["opt_iterations"] = sum(1 for i in steps if nid[parent[i]] == opt_id)

        fact = np.isin(nid, [ids[n] for n in FACTORIZING if n in ids]) & in_batch
        batch = of(BATCH)
        out["by_label"] = {
            str(self.labels[k]): {
                "batches": int((batch & (lid == k)).sum()),
                "factorizations": int((fact & (lid == k)).sum()),
            }
            for k in np.unique(lid[batch])
        }
        return out
