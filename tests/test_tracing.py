"""The benchmark's tracer (bench/tracing.py) against the package.

The tracer wraps package functions by name and evaluates ``result.model(x)``
of every fit it observes.  bench/ is outside the Tier-1 test paths, so these
checks are what catches a rename or deletion that would break
``bench/run.py --trace 1``.
"""

import importlib.util
from pathlib import Path

import numpy as np

import quasiheat.fitting

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_tracer_wraps_every_target_and_removes_cleanly():
    originals = [tracing._resolve(module, attr)[2] for module, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr, _), orig in zip(tracing.TARGETS, originals):
            assert tracing._resolve(module, attr)[2].__wrapped__ is orig
        x = np.linspace(-1.0, 1.0, 9)
        quasiheat.fitting.fit_affine_scalar(x, 0.5 * x + 1.0)
        X = np.stack([x, x[::-1] ** 2], axis=1)
        quasiheat.fitting.fit_affine_gradient(X, X @ np.array([[1.0, 0.2], [0.2, -1.0]]))
    finally:
        tracer.remove()
    assert [tracing._resolve(m, a)[2] for m, a, _ in tracing.TARGETS] == originals
    stats = tracer.summary(1.0)
    assert stats["fitting.fit_affine_scalar.calls"] == 1
    assert stats["fitting.fit_affine_gradient.calls"] == 1
    # the d = 1 fit is solved exactly, the d = 2 fit by one LP
    assert stats["fitting.linprog.calls"] == 1
    # the observers evaluated each fit's model at the samples, and each
    # reported residual is the sup its model achieves there
    assert stats["fitting.residual_gap_max"] == 0.0


def test_each_public_solve_counts_one_sweep():
    from quasiheat import solver
    from quasiheat.grid import GridSpec
    from quasiheat.noise import NoisePath, NoiseSpec
    from quasiheat.nonlinearity import sine_family

    grid = GridSpec.create(1, 16)
    path = NoisePath(NoiseSpec(alpha=0.75, dim=1, sigma=1.0, master_seed=1), grid)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        solver.solve_nonlinear(path, sine_family(1, 0.5))
        solver.solve_linear_constant(path)
    finally:
        tracer.remove()
    assert tracer.summary(1.0)["solver.sweeps"] == 2
