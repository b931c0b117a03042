"""Span tracing of quasiheat's layers, applied from outside the package.

``Tracer.install`` replaces every binding of the traced public functions --
the defining module's attribute, every ``from .x import f`` copy in other
quasiheat modules, ``NoisePath.increment_hat`` on the class and the
``linprog`` that ``quasiheat.fitting`` imported from scipy -- with a wrapper
that appends one span (name, start, end, parent) to flat in-memory arrays.
``Tracer.remove`` puts the originals back.  Nothing inside the package is
edited, so the traced run executes exactly the untraced code.

A span's self time is its duration minus the durations of its direct child
spans; spans nest because the program is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span name); both mollifiers share one span name
TARGETS = (
    ("noise", "NoisePath.increment_hat", "noise.increment_hat"),
    ("solver", "solve_nonlinear", "solver.solve_nonlinear"),
    ("solver", "solve_linear_constant", "solver.solve_linear_constant"),
    ("solver", "solve_anisotropic_batch", "solver.solve_anisotropic_batch"),
    ("nonlinearity", "increment_averaged_coefficient", "nonlinearity.increment_averaged_coefficient"),
    ("nonlinearity", "freeze", "nonlinearity.freeze"),
    ("grid", "increment", "grid.increment"),
    ("grid", "cylinder_samples", "grid.cylinder_samples"),
    ("grid", "mollify", "grid.mollify"),
    ("grid", "mollify_deriv", "grid.mollify"),
    ("fitting", "fit_affine_gradient", "fitting.fit_affine_gradient"),
    ("fitting", "fit_affine_scalar", "fitting.fit_affine_scalar"),
    ("fitting", "linprog", "fitting.linprog"),
    ("fitting", "chebyshev_center", "fitting.chebyshev_center"),
    ("regularity", "modelling_remainder", "regularity.modelling_remainder"),
    ("regularity", "increment_constant", "regularity.increment_constant"),
    ("regularity", "holder_seminorm", "regularity.holder_seminorm"),
    ("regularity", "time_term_constant", "regularity.time_term_constant"),
    ("regularity", "increment_affine_pair", "regularity.increment_affine_pair"),
    ("regularity", "flux_mismatch", "regularity.flux_mismatch"),
    ("corpus", "build_corpus", "corpus.build_corpus"),
)

SOLVER_SPANS = (
    "solver.solve_nonlinear",
    "solver.solve_linear_constant",
    "solver.solve_anisotropic_batch",
)

_CALLS = (
    "noise.increment_hat", "nonlinearity.increment_averaged_coefficient",
    "nonlinearity.freeze", "grid.increment", "grid.cylinder_samples",
    "fitting.fit_affine_gradient", "fitting.fit_affine_scalar", "fitting.linprog",
    "fitting.chebyshev_center",
)
_SELF = (tuple(n for n in _CALLS if n != "nonlinearity.freeze")
         + SOLVER_SPANS + ("grid.mollify", "corpus.build_corpus"))
_REGULARITY = tuple(name for _, _, name in TARGETS if name.startswith("regularity."))

# every per-layer metric the traced run reports, with its unit
PER_LAYER = (
    [(f"{n}.calls", "count") for n in _CALLS + _REGULARITY]
    + [(f"{n}.self_s", "s") for n in _SELF + _REGULARITY]
    + [
        ("noise.increment_hat.us_per_call", "us"),
        ("noise.increments_per_step", "ratio"),
        ("solver.sweeps", "count"),
        ("solver.steps", "count"),
        ("solver.us_per_step", "us"),
        ("grid.increment.mb_computed", "MB"),
        ("fitting.linprog.failed", "count"),
        ("fitting.residual_gap_max", "abs"),
        ("harness.artifact_bytes", "bytes"),
        ("harness.glue_s", "s"),
        ("trace.run_s", "s"),
        ("trace.top_level_share", "share"),
        ("trace.overhead_share", "share"),
        ("checks_failed_share", "share"),
    ]
)


def _quasiheat_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "quasiheat" or name.startswith("quasiheat."))]


def _resolve(module: str, attr: str):
    """(holder, attribute name, original) for a target."""
    mod = sys.modules[f"quasiheat.{module}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, meth, cls.__dict__[meth]
    return mod, attr, getattr(mod, attr)


class Tracer:
    """Records spans of the wrapped calls; one instance per traced run."""

    def __init__(self):
        self.span_names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._patched: list = []  # (holder, attribute, original)
        # counters observed at the boundaries
        self.steps_seen: dict = {}  # noise stream key -> bytearray over steps
        self._paths: dict = {}  # id(path) -> (path, its steps_seen entry)
        self.increment_bytes = 0
        self.linprog_failed = 0
        self.residual_gap_max = float("-inf")
        self.t0 = time.perf_counter()

    # ---- wrapping ----------------------------------------------------------

    def install(self) -> None:
        import quasiheat  # noqa: F401  (loads every submodule)

        if self._patched:
            raise RuntimeError("tracer already installed")
        observers = {
            "noise.increment_hat": self._observe_increment_hat,
            "grid.increment": self._observe_increment,
            "fitting.fit_affine_gradient": self._observe_fit_gradient,
            "fitting.fit_affine_scalar": self._observe_fit_scalar,
            "fitting.linprog": self._observe_linprog,
        }
        modules = _quasiheat_modules()
        for module, attr, name in TARGETS:
            holder, key, orig = _resolve(module, attr)
            wrapper = self._wrap(name, orig, observers.get(name))
            if isinstance(holder, type):
                self._patch(holder, key, orig, wrapper)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, binding, orig, wrapper)

    def _patch(self, holder, key, orig, wrapper) -> None:
        setattr(holder, key, wrapper)
        self._patched.append((holder, key, orig))

    def remove(self) -> None:
        for holder, key, orig in reversed(self._patched):
            setattr(holder, key, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, name: str, fn, observe):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.span_names):
            self.span_names.append(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(signature, args, kwargs, result)
            return result

        return traced

    # ---- boundary observations -------------------------------------------

    def _observe_increment_hat(self, sig, args, kwargs, result) -> None:
        path = args[0]
        step = args[1] if len(args) > 1 else kwargs["step"]
        # equal (spec, grid, substeps) regenerate equal increments, so paths
        # built separately for one stream share a record; holding the path
        # keeps its id from being reused
        held, seen = self._paths.get(id(path), (None, None))
        if held is not path:
            key = (path.spec, path.grid, path.substeps)
            seen = self.steps_seen.setdefault(key, bytearray(path.grid.n_steps))
            self._paths[id(path)] = (path, seen)
        if step >= len(seen):
            seen.extend(bytes(step + 1 - len(seen)))
        seen[step] = 1

    def _observe_increment(self, sig, args, kwargs, result) -> None:
        f = sig.bind(*args, **kwargs).arguments["f"]
        self.increment_bytes += f.values.nbytes + result.values.nbytes

    def _record_gap(self, achieved: float, reported: float) -> None:
        self.residual_gap_max = max(self.residual_gap_max, achieved - reported)

    def _observe_fit_gradient(self, sig, args, kwargs, result) -> None:
        bound = sig.bind(*args, **kwargs).arguments
        x = np.asarray(bound["xrel"], dtype=float)
        v = np.asarray(bound["values"], dtype=float)
        x = x[:, None] if x.ndim == 1 else x
        v = v[:, None] if v.ndim == 1 else v
        self._record_gap(float(np.max(np.abs(v - result.model(x)))), result.residual)

    def _observe_fit_scalar(self, sig, args, kwargs, result) -> None:
        bound = sig.bind(*args, **kwargs).arguments
        x = np.asarray(bound["xrel"], dtype=float)
        v = np.asarray(bound["values"], dtype=float).reshape(-1)
        x = x[:, None] if x.ndim == 1 else x
        self._record_gap(float(np.max(np.abs(v - result.model(x)))), result.residual)

    def _observe_linprog(self, sig, args, kwargs, result) -> None:
        if not result.success:
            self.linprog_failed += 1

    # ---- results -------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span (times relative to tracer creation) to an .npz."""
        np.savez_compressed(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float) - self.t0,
            end=np.frombuffer(self.end, dtype=float) - self.t0,
        )

    def summary(self, run_s: float) -> dict:
        """Per-layer metrics of one traced run lasting ``run_s`` seconds."""
        k = len(self.span_names)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        ids = self._name_ids

        def n_calls(n):
            return int(calls[ids[n]])

        def self_of(n):
            return float(self_s[ids[n]])

        out = {f"{n}.calls": n_calls(n) for n in _CALLS + _REGULARITY}
        out.update({f"{n}.self_s": self_of(n) for n in _SELF + _REGULARITY})

        hat_calls = n_calls("noise.increment_hat")
        distinct = sum(sum(seen) for seen in self.steps_seen.values())
        solver_ids = [ids[n] for n in SOLVER_SPANS]
        hat = name == ids["noise.increment_hat"]
        steps = int(np.count_nonzero(hat & nested & np.isin(name[np.maximum(parent, 0)], solver_ids)))
        solver_self = sum(self_of(n) for n in SOLVER_SPANS)
        top = float(dur[~nested].sum())
        out.update({
            "noise.increment_hat.us_per_call":
                1e6 * self_of("noise.increment_hat") / hat_calls if hat_calls else 0.0,
            "noise.increments_per_step": hat_calls / distinct if distinct else 0.0,
            "solver.sweeps": sum(n_calls(n) for n in SOLVER_SPANS),
            "solver.steps": steps,
            "solver.us_per_step": 1e6 * solver_self / steps if steps else 0.0,
            "grid.increment.mb_computed": self.increment_bytes / 1e6,
            "fitting.linprog.failed": self.linprog_failed,
            "fitting.residual_gap_max":
                self.residual_gap_max if np.isfinite(self.residual_gap_max) else 0.0,
            "harness.glue_s": run_s - top,
            "trace.run_s": run_s,
            "trace.top_level_share": top / run_s if run_s > 0 else 0.0,
            "trace.spans": len(dur),
        })
        return out
