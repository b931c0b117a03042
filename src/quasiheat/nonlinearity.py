"""Admissible flux nonlinearities A with exact Jacobians.

A nonlinearity is admissible when its Jacobian DA is uniformly elliptic
(eta.DA(p)eta >= lambda|eta|^2), normalized (|DA(p)eta| <= |eta|), and
Lipschitz (|DA(p)-DA(q)| <= Lambda|p-q|).  Jacobians are supplied
analytically per family; certification is probe-based over a configured box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.random import Generator, Philox

from .grid import SpaceTimeField, increment, read_only


class NonlinearityError(ValueError):
    pass


class ValidationError(NonlinearityError):
    """Raised when probing contradicts the declared constants.

    Carries the offending gradient probe in ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Nonlinearity:
    """Flux A: R^d -> R^d with analytic Jacobian and certified constants.

    ``ev`` and ``jac`` act on arrays of shape (..., d) and return (..., d)
    and (..., d, d) respectively.  ``linear_matrix`` is set when DA is
    constant, in which case the divergence-form equation is exactly a
    constant-coefficient one.
    """

    name: str
    dim: int
    ev: Callable = field(repr=False)
    jac: Callable = field(repr=False)
    lam: float = 0.0
    Lam: float = 0.0
    params: dict = field(default_factory=dict)
    linear_matrix: Optional[np.ndarray] = None

    @property
    def is_linear(self) -> bool:
        return self.linear_matrix is not None


def sine_family(dim: int, kappa: float) -> Nonlinearity:
    """A(p)_i = (p_i + kappa*sin(p_i)) / (1 + kappa), componentwise.

    DA = diag((1 + kappa*cos p_i) / (1 + kappa)); lambda = (1-kappa)/(1+kappa),
    Lambda = kappa/(1+kappa).  kappa = 0 reduces to the identity.
    """
    if kappa is None or not (0.0 <= kappa < 1.0):
        raise NonlinearityError(f"kappa must lie in [0, 1), got {kappa}")
    k = float(kappa)

    def ev(p):
        p = np.asarray(p, dtype=float)
        return (p + k * np.sin(p)) / (1.0 + k)

    def jac(p):
        p = np.asarray(p, dtype=float)
        diag = (1.0 + k * np.cos(p)) / (1.0 + k)
        out = np.zeros(p.shape + (dim,))
        for i in range(dim):
            out[..., i, i] = diag[..., i]
        return out

    linear = np.eye(dim) if k == 0.0 else None
    return Nonlinearity(
        name="sine",
        dim=dim,
        ev=ev,
        jac=jac,
        lam=(1.0 - k) / (1.0 + k),
        Lam=k / (1.0 + k),
        params={"kappa": k},
        linear_matrix=linear,
    )


def linear_family(matrix) -> Nonlinearity:
    """A(p) = M p for a symmetric M with spectrum inside [lambda, 1]."""
    M = np.array(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonlinearityError("matrix must be square")
    if not np.allclose(M, M.T, atol=1e-12):
        raise NonlinearityError("matrix must be symmetric")
    eigs = np.linalg.eigvalsh(M)
    if eigs.min() <= 0 or eigs.max() > 1.0 + 1e-12:
        raise NonlinearityError(f"matrix spectrum {eigs} must lie in (0, 1]")
    dim = M.shape[0]

    def ev(p):
        return np.asarray(p, dtype=float) @ M.T

    def jac(p):
        p = np.asarray(p, dtype=float)
        return np.broadcast_to(M, p.shape + (dim,)).copy()

    return Nonlinearity(
        name="linear-anisotropic",
        dim=dim,
        ev=ev,
        jac=jac,
        lam=float(eigs.min()),
        Lam=0.0,
        params={"matrix": M.tolist()},
        linear_matrix=M,
    )


def builtin_family(kind: str, dim: int, kappa: float = None, matrix=None) -> Nonlinearity:
    if kind == "sine":
        if matrix is not None:
            raise NonlinearityError("the sine flux takes kappa, not a matrix")
        return sine_family(dim, kappa)
    if kind in ("linear", "linear-anisotropic"):
        if matrix is None:
            matrix = np.eye(dim)
        return linear_family(matrix)
    raise NonlinearityError(f"unknown nonlinearity kind {kind!r}")


@dataclass
class CertificationReport:
    name: str
    probes: int
    min_rayleigh: float
    max_opnorm: float
    max_lipschitz: float
    declared_lambda: float
    declared_Lambda: float
    passed: bool


# ``validate`` draws this many gradient probes from [-_PROBE_BOX, _PROBE_BOX]^d
_PROBES = 2000
_PROBE_BOX = 5.0


def validate(A: Nonlinearity) -> CertificationReport:
    """Probe the ellipticity, normalization and Lipschitz assumptions.

    Samples a fixed set of gradient probes; fails (raising ValidationError
    with the witnessing probe) when any probe contradicts the declared
    lambda, the unit bound on |DA eta|, or the declared Lipschitz constant.
    """
    rng = Generator(Philox(key=np.array([0, 0x6E6F6E6C], dtype=np.uint64)))
    p = rng.uniform(-_PROBE_BOX, _PROBE_BOX, size=(_PROBES, A.dim))
    J = A.jac(p)
    S = 0.5 * (J + np.swapaxes(J, -1, -2))
    eigs = np.linalg.eigvalsh(S)
    min_ray = float(eigs[..., 0].min())
    ops = np.linalg.norm(J, ord=2, axis=(-2, -1))
    max_op = float(ops.max())

    q = rng.uniform(-_PROBE_BOX, _PROBE_BOX, size=(_PROBES, A.dim))
    Jq = A.jac(q)
    num = np.linalg.norm(J - Jq, ord=2, axis=(-2, -1))
    den = np.linalg.norm(p - q, axis=-1)
    ok = den > 1e-9
    lips = num[ok] / den[ok]
    max_lip = float(lips.max())

    tol = 1e-9
    passed = (
        min_ray >= A.lam - tol and max_op <= 1.0 + tol and max_lip <= A.Lam + tol
    )
    report = CertificationReport(
        name=A.name,
        probes=_PROBES,
        min_rayleigh=min_ray,
        max_opnorm=max_op,
        max_lipschitz=max_lip,
        declared_lambda=A.lam,
        declared_Lambda=A.Lam,
        passed=passed,
    )
    if not passed:
        if min_ray < A.lam - tol:
            witness = p[int(np.argmin(eigs[..., 0]))]
        elif max_op > 1.0 + tol:
            witness = p[int(np.argmax(ops))]
        else:
            witness = p[ok][int(np.argmax(lips))]
        raise ValidationError(
            f"nonlinearity {A.name!r} violates its declared constants: "
            f"min_rayleigh={min_ray:.6g} (lambda={A.lam}), max|DA|={max_op:.6g}, "
            f"max_lip={max_lip:.6g} (Lambda={A.Lam})",
            witness=witness,
        )
    return report


@dataclass(frozen=True)
class FrozenCoefficient:
    """Constant elliptic matrix a = DA(grad u(z)) frozen at a basepoint."""

    matrix: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        sym = 0.5 * (a + a.T)
        eigs = np.linalg.eigvalsh(sym)
        if eigs.min() < self.lam - 1e-9:
            raise NonlinearityError(
                f"frozen coefficient violates ellipticity: eig {eigs.min()} < {self.lam}"
            )
        if np.linalg.norm(a, ord=2) > 1.0 + 1e-9:
            raise NonlinearityError("frozen coefficient violates |a eta| <= |eta|")
        object.__setattr__(self, "matrix", read_only(a.view())[0])


def freeze(A: Nonlinearity, grad_u_at_z) -> FrozenCoefficient:
    """a(z) = DA(grad u(z))."""
    g = np.asarray(grad_u_at_z, dtype=float).reshape(A.dim)
    return FrozenCoefficient(matrix=A.jac(g), lam=A.lam)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_THETA = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


def increment_averaged_coefficient(
    A: Nonlinearity, grad_u: SpaceTimeField, y
) -> SpaceTimeField:
    """a_y(t,x): the Jacobian averaged along the segment between grad u(t,x)
    and grad u(t,x+y).

    Uses 8-node Gauss-Legendre quadrature of
    integral_0^1 DA(theta*grad u(x+y) + (1-theta)*grad u(x)) dtheta,
    pointwise over snapshots; y = 0 returns DA(grad u) up to rounding (a few ulp).
    """
    if grad_u.component_shape != (A.dim,):
        raise NonlinearityError("grad_u must be a d-component vector field")
    p0 = grad_u.values
    p1 = increment(grad_u, y).values + p0
    acc = None
    for theta, w in zip(_GL_THETA, _GL_W):
        term = w * A.jac(theta * p1 + (1.0 - theta) * p0)
        acc = term if acc is None else acc + term
    return SpaceTimeField(grad_u.grid, grad_u.times, acc)
