"""Reference operator algebra and the iterative norm solver, kept as
cross-checks for the exact block norms of ``qsim.operator_norm``.

Everything here works on ``qsim.LinearMap`` objects through their apply
contract only, independent of the compiled gather indices and frame tables.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from qromlab import qsim
from qromlab.qsim import LinearMap, RegisterLayout


def compose(*maps: LinearMap) -> LinearMap:
    """Product of maps; the rightmost factor is applied first."""
    if not maps:
        raise ValueError("compose needs at least one map")
    dim = maps[0].dim
    for m in maps:
        if m.dim != dim:
            raise ValueError("dimension mismatch in composition")

    def ap(v):
        for m in reversed(maps):
            v = m.apply(v)
        return v

    def adj(v):
        for m in maps:
            v = m.adjoint_apply(v)
        return v

    return LinearMap(dim, ap, adj, label="·".join(m.label or "?" for m in maps))


def commutator(a: LinearMap, b: LinearMap) -> LinearMap:
    """[A, B] = AB - BA."""
    if a.dim != b.dim:
        raise ValueError("commutator needs maps of equal dimension")

    def ap(v):
        return a.apply(b.apply(v)) - b.apply(a.apply(v))

    def adj(v):
        # (AB - BA)^dag = B^dag A^dag - A^dag B^dag
        return b.adjoint_apply(a.adjoint_apply(v)) - a.adjoint_apply(b.adjoint_apply(v))

    return LinearMap(a.dim, ap, adj, label=f"[{a.label},{b.label}]")


def equality_projector_map(layout: RegisterLayout, reg_a: str, reg_b: str) -> LinearMap:
    """Projector onto basis states whose two registers hold equal values."""
    if layout.width(reg_a) != layout.width(reg_b):
        raise ValueError("equality projector needs registers of equal width")
    mask = layout.field(reg_a) == layout.field(reg_b)
    return LinearMap(
        layout.dim, lambda v: np.where(mask, v, 0.0), label=f"P=({reg_a},{reg_b})",
        self_adjoint=True,
    )


def dense(a: LinearMap) -> np.ndarray:
    """The matrix of a map, one apply per basis column."""
    return np.column_stack([a.apply(e) for e in np.eye(a.dim)])


# ---------------------------------------------------------------------------
# Lanczos on A^dag A (Golub & Van Loan, ch. 10): a lower estimate of the
# largest singular value with a read residual


NORM_RTOL = 1e-10
# Caps the Lanczos basis at MAX_LANCZOS_STEPS x dim x 16 B: 64 MiB at MAX_NORM_DIM.
MAX_LANCZOS_STEPS = 256


@dataclass(frozen=True)
class LanczosEstimate:
    """``iterations`` counts Lanczos steps, each one ``A`` and one ``A^dag``
    apply.  ``residual`` is ||A^dag A y - theta y|| for the top Ritz pair
    (theta, y); ``converged`` means it is at most ``NORM_RTOL * theta``."""

    value: float
    iterations: int
    converged: bool
    residual: float


def lanczos_norm(a: LinearMap, seed: int = 0) -> LanczosEstimate:
    """One seeded random start; the basis is kept and fully reorthogonalized.
    Each step takes the top Ritz value theta of the tridiagonal and its
    residual beta_k |s_k|, and stops once that is at most ``NORM_RTOL * theta``.
    beta_k = 0 (residual 0) means the Krylov space is invariant and theta
    exact, which makes the zero map exactly 0.0."""
    if a.dim > qsim.MAX_NORM_DIM:
        raise ValueError(f"norm estimation capped at dimension {qsim.MAX_NORM_DIM}, got {a.dim}")
    steps = min(MAX_LANCZOS_STEPS, a.dim)
    basis = np.empty((steps, a.dim), dtype=np.complex128)
    alphas: list[float] = []
    betas: list[float] = []
    start_seed = int.from_bytes(hashlib.sha256(f"{seed}/lanczos".encode()).digest()[:8], "big") >> 1
    v = qsim.random_state_vector(a.dim, np.random.default_rng(start_seed))
    for k in range(steps):
        basis[k] = v
        w = a.adjoint_apply(a.apply(v))
        alphas.append(float(np.real(np.vdot(v, w))))
        done = basis[: k + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice is enough
            w = w - np.conj(done @ np.conj(w)) @ done
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        theta, residual = float(ritz[-1]), beta * float(abs(vecs[-1, -1]))
        converged = residual <= NORM_RTOL * theta
        if converged:
            break
        betas.append(beta)
        v = w / beta
    return LanczosEstimate(float(np.sqrt(max(theta, 0.0))), k + 1, converged, residual)
