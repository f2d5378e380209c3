"""Matrix-free statevector engine over named qubit registers.

Conventions:

* A layout is an ordered list of ``(name, qubit_count)`` pairs.  The first
  register owns the most significant bits of the flat amplitude index, so a
  basis state is addressed as ``value_0 << shift_0 | value_1 << shift_1 | ...``
  with shifts decreasing in listing order.  This fixes bit-exact fixtures.
* Operators are :class:`LinearMap` objects built from apply / adjoint-apply
  closures.  Dense matrices are only formed for small local gates that get
  embedded into a layout; operators on the full space are never materialized.
* States are plain complex128 vectors of length ``2**total``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

MAX_STATE_QUBITS = 24
MAX_NORM_DIM = 2 ** 14


def _label_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1

Vector = np.ndarray


class RegisterLayout:
    """Ordered named registers over a global qubit index."""

    def __init__(self, registers: Sequence[tuple[str, int]]):
        names = [name for name, _ in registers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in {names}")
        for name, width in registers:
            if width < 1:
                raise ValueError(f"register {name!r} needs at least one qubit")
        self.registers: tuple[tuple[str, int], ...] = tuple(
            (str(name), int(width)) for name, width in registers
        )
        self.total = sum(width for _, width in self.registers)
        if self.total > MAX_STATE_QUBITS:
            raise ValueError(f"layout has {self.total} qubits, cap is {MAX_STATE_QUBITS}")
        self.dim = 1 << self.total
        self._shifts: dict[str, int] = {}
        self._widths: dict[str, int] = {}
        pos = self.total
        for name, width in self.registers:
            pos -= width
            self._shifts[name] = pos
            self._widths[name] = width
        self._field_cache: dict[str, np.ndarray] = {}
        self._arange: np.ndarray | None = None

    def arange(self) -> np.ndarray:
        if self._arange is None:
            self._arange = np.arange(self.dim, dtype=np.int64)
            self._arange.setflags(write=False)
        return self._arange

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(1 << width for _, width in self.registers)

    def width(self, name: str) -> int:
        return self._widths[name]

    def shift(self, name: str) -> int:
        return self._shifts[name]

    def axis(self, name: str) -> int:
        return self.names.index(name)

    def field(self, name: str) -> np.ndarray:
        """Register value of every basis index, as a read-only int64 array."""
        cached = self._field_cache.get(name)
        if cached is None:
            idx = np.arange(self.dim, dtype=np.int64)
            cached = (idx >> self._shifts[name]) & ((1 << self._widths[name]) - 1)
            cached.setflags(write=False)
            self._field_cache[name] = cached
        return cached

    def values(self, name: str) -> np.ndarray:
        """Values of one register along its own axis of ``dims``, shaped to
        broadcast against ``amplitudes.reshape(dims)``."""
        shape = [1] * len(self.registers)
        shape[self.axis(name)] = -1
        return np.arange(1 << self._widths[name], dtype=np.int64).reshape(shape)

    def basis_index(self, assignment: Mapping[str, int]) -> int:
        missing = set(self.names) - set(assignment)
        if missing:
            raise ValueError(f"unassigned registers: {sorted(missing)}")
        out = 0
        for name, value in assignment.items():
            if not 0 <= value < (1 << self._widths[name]):
                raise ValueError(f"value {value} out of range for register {name!r}")
            out |= value << self._shifts[name]
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, RegisterLayout) and self.registers == other.registers

    def __hash__(self) -> int:
        return hash(self.registers)

    def __repr__(self) -> str:
        body = ", ".join(f"{n}:{w}" for n, w in self.registers)
        return f"RegisterLayout({body})"


@dataclass
class StateVector:
    layout: RegisterLayout
    amplitudes: Vector
    normalized: bool = True

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.layout.dim,):
            raise ValueError("amplitude length does not match layout dimension")
        if self.normalized:
            nrm = np.linalg.norm(self.amplitudes)
            if abs(nrm - 1.0) > 1e-9:
                raise ValueError(f"state norm {nrm} is not 1 within 1e-9")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


class LinearMap:
    """Matrix-free operator: an apply-to-vector contract plus its adjoint."""

    def __init__(
        self,
        dim: int,
        apply: Callable[[Vector], Vector],
        adjoint_apply: Callable[[Vector], Vector] | None = None,
        label: str = "",
        self_adjoint: bool = False,
    ):
        self.dim = dim
        self._apply = apply
        self._adjoint_apply = apply if self_adjoint else adjoint_apply
        self.label = label
        self.self_adjoint = self_adjoint

    def apply(self, vec: Vector) -> Vector:
        return self._apply(np.asarray(vec, dtype=np.complex128))

    def adjoint_apply(self, vec: Vector) -> Vector:
        if self._adjoint_apply is None:
            raise ValueError(f"map {self.label!r} has no adjoint")
        return self._adjoint_apply(np.asarray(vec, dtype=np.complex128))

    def adjoint(self) -> "LinearMap":
        return LinearMap(self.dim, self.adjoint_apply, self.apply, label=f"adj({self.label})")

    # Operator algebra.  A @ B applies B first, matching matrix products.

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        return compose(self, other)

    def __repr__(self) -> str:
        return f"LinearMap(dim={self.dim}, label={self.label!r})"


def identity_map(dim: int) -> LinearMap:
    return LinearMap(dim, lambda v: v.copy(), label="1", self_adjoint=True)


def zero_map(dim: int) -> LinearMap:
    return LinearMap(dim, lambda v: np.zeros_like(v), label="0", self_adjoint=True)


def compose(*maps: LinearMap) -> LinearMap:
    """Product of maps; the rightmost factor is applied first."""
    if not maps:
        raise ValueError("compose needs at least one map")
    dim = maps[0].dim
    for m in maps:
        if m.dim != dim:
            raise ValueError("dimension mismatch in composition")

    def ap(v: Vector) -> Vector:
        for m in reversed(maps):
            v = m.apply(v)
        return v

    def adj(v: Vector) -> Vector:
        for m in maps:
            v = m.adjoint_apply(v)
        return v

    label = "·".join(m.label or "?" for m in maps)
    return LinearMap(dim, ap, adj, label=label)


def commutator(a: LinearMap, b: LinearMap) -> LinearMap:
    """[A, B] = AB - BA."""
    if a.dim != b.dim:
        raise ValueError("commutator needs maps of equal dimension")

    def ap(v: Vector) -> Vector:
        return a.apply(b.apply(v)) - b.apply(a.apply(v))

    def adj(v: Vector) -> Vector:
        # (AB - BA)^dag = B^dag A^dag - A^dag B^dag
        return b.adjoint_apply(a.adjoint_apply(v)) - a.adjoint_apply(b.adjoint_apply(v))

    return LinearMap(a.dim, ap, adj, label=f"[{a.label},{b.label}]")


# ---------------------------------------------------------------------------
# State construction


def basis_state(layout: RegisterLayout, assignment: Mapping[str, int]) -> StateVector:
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.basis_index(assignment)] = 1.0
    return StateVector(layout, amps)


def uniform_state(
    layout: RegisterLayout,
    uniform_registers: Iterable[str],
    basis_assignment: Mapping[str, int] | None = None,
) -> StateVector:
    """Tensor product of uniform superpositions and computational basis states.

    Every register must appear either in ``uniform_registers`` or as a key of
    ``basis_assignment``.
    """
    uniform = set(uniform_registers)
    assigned = dict(basis_assignment or {})
    leftover = set(layout.names) - uniform - set(assigned)
    if leftover:
        raise ValueError(f"unassigned registers: {sorted(leftover)}")
    parts = []
    for name, width in layout.registers:
        d = 1 << width
        if name in uniform:
            parts.append(np.full(d, 1.0 / np.sqrt(d), dtype=np.complex128))
        else:
            v = np.zeros(d, dtype=np.complex128)
            v[assigned[name]] = 1.0
            parts.append(v)
    amps = parts[0]
    for p in parts[1:]:
        amps = np.kron(amps, p)
    return StateVector(layout, amps)


def random_state_vector(dim: int, rng: np.random.Generator) -> Vector:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a Gaussian block."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# Structured register operators


def _reshaped(amps: Vector, layout: RegisterLayout) -> Vector:
    return amps.reshape(layout.dims)


def uniform_projector_apply(amps: Vector, layout: RegisterLayout, regs: Sequence[str]) -> Vector:
    """Apply the uniform-superposition projector on each register in ``regs``."""
    out = _reshaped(amps, layout)
    for name in regs:
        k = layout.axis(name)
        out = np.broadcast_to(out.mean(axis=k, keepdims=True), out.shape)
    return np.ascontiguousarray(out).reshape(-1)


def uniform_projector_map(layout: RegisterLayout, regs: Sequence[str]) -> LinearMap:
    regs = tuple(regs)
    return LinearMap(
        layout.dim,
        lambda v: uniform_projector_apply(v, layout, regs),
        label="Phi(" + ",".join(regs) + ")",
        self_adjoint=True,
    )


def equality_mask(layout: RegisterLayout, reg_a: str, reg_b: str) -> np.ndarray:
    if layout.width(reg_a) != layout.width(reg_b):
        raise ValueError("equality projector needs registers of equal width")
    return layout.field(reg_a) == layout.field(reg_b)


def mask_projector_map(layout: RegisterLayout, mask: np.ndarray, label: str = "mask") -> LinearMap:
    return LinearMap(layout.dim, lambda v: np.where(mask, v, 0.0), label=label, self_adjoint=True)


def equality_projector_map(layout: RegisterLayout, reg_a: str, reg_b: str) -> LinearMap:
    return mask_projector_map(layout, equality_mask(layout, reg_a, reg_b), label=f"P=({reg_a},{reg_b})")


def xor_register_map(layout: RegisterLayout, src: str, dst: str) -> LinearMap:
    """CNOT^(x)n with ``src`` as controls and ``dst`` as targets: dst ^= src."""
    if layout.width(src) != layout.width(dst):
        raise ValueError("xor needs registers of equal width")
    shift = layout.shift(dst)

    def ap(v: Vector) -> Vector:
        perm = layout.arange() ^ (layout.field(src) << shift)
        return v[perm]

    return LinearMap(layout.dim, ap, label=f"xor({src}->{dst})", self_adjoint=True)


def embed(op, targets: Sequence[str], layout: RegisterLayout, label: str = "") -> LinearMap:
    """Lift a local operator onto a layout, identity on all other registers.

    ``op`` is a dense matrix on the tensor product of the target registers,
    taken in the order given by ``targets``.
    """
    matrix = np.asarray(op, dtype=np.complex128)
    axes = [layout.axis(t) for t in targets]
    d_local = 1
    for t in targets:
        d_local <<= layout.width(t)
    if matrix.shape != (d_local, d_local):
        raise ValueError(
            f"local operator has shape {matrix.shape}, targets span dimension {d_local}"
        )
    local_dims = tuple(1 << layout.width(t) for t in targets)
    k = len(axes)

    def _run(mat: np.ndarray, v: Vector) -> Vector:
        t = v.reshape(layout.dims)
        t = np.moveaxis(t, axes, range(k))
        rest = t.shape[k:]
        t = np.ascontiguousarray(t).reshape(d_local, -1)
        t = mat @ t
        t = t.reshape(local_dims + rest)
        t = np.moveaxis(t, range(k), axes)
        return np.ascontiguousarray(t).reshape(-1)

    mat_h = matrix.conj().T
    return LinearMap(
        layout.dim,
        lambda v: _run(matrix, v),
        lambda v: _run(mat_h, v),
        label=label or f"embed({','.join(targets)})",
    )


# ---------------------------------------------------------------------------
# Norm estimation, probes, measurement


NORM_RTOL = 1e-10
# Caps the Lanczos basis at MAX_LANCZOS_STEPS x dim x 16 B: 64 MiB at MAX_NORM_DIM.
MAX_LANCZOS_STEPS = 256


@dataclass(frozen=True)
class NormEstimate:
    """Largest singular value of a map, with the Lanczos solve behind it.

    ``iterations`` counts Lanczos steps, each one ``A`` and one ``A^dag``
    apply.  ``residual`` is ||A^dag A y - theta y|| for the top Ritz pair
    (theta, y); ``converged`` means it is at most ``NORM_RTOL * theta``.
    """

    value: float
    iterations: int
    converged: bool
    residual: float

    def __float__(self) -> float:
        return self.value


def operator_norm(a: LinearMap, seed: int = 0) -> NormEstimate:
    """Largest singular value by Lanczos on A^dag A (Golub & Van Loan, ch. 10).

    One seeded random start; the basis is kept and fully reorthogonalized.
    Each step takes the top Ritz value theta of the tridiagonal and its
    residual beta_k |s_k|, and stops once that is at most ``NORM_RTOL * theta``.
    beta_k = 0 (residual 0) means the Krylov space is invariant and theta
    exact, which makes the zero map exactly 0.0.
    """
    if a.dim > MAX_NORM_DIM:
        raise ValueError(f"norm estimation capped at dimension {MAX_NORM_DIM}, got {a.dim}")
    steps = min(MAX_LANCZOS_STEPS, a.dim)
    basis = np.empty((steps, a.dim), dtype=np.complex128)
    alphas: list[float] = []
    betas: list[float] = []
    v = random_state_vector(a.dim, np.random.default_rng(_label_seed(seed, "lanczos")))
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
    return NormEstimate(float(np.sqrt(max(theta, 0.0))), k + 1, converged, residual)


def probe_max_ratio(a: LinearMap, probes: int = 32, seed: int = 0) -> float:
    """max ||A v|| / ||v|| over random probes; < 1e-10 declares the zero map."""
    rng = np.random.default_rng(_label_seed(seed, "probe-zero"))
    worst = 0.0
    for _ in range(probes):
        v = random_state_vector(a.dim, rng)
        worst = max(worst, float(np.linalg.norm(a.apply(v))))
    return worst


def is_zero_map(a: LinearMap, probes: int = 32, seed: int = 0, threshold: float = 1e-10) -> bool:
    return probe_max_ratio(a, probes=probes, seed=seed) < threshold


def unitarity_defect(u: LinearMap, probes: int = 32, seed: int = 0) -> float:
    """max deviation of ||U v|| from ||v|| = 1 over random probes."""
    rng = np.random.default_rng(_label_seed(seed, "probe-unitary"))
    worst = 0.0
    for _ in range(probes):
        v = random_state_vector(u.dim, rng)
        worst = max(worst, abs(float(np.linalg.norm(u.apply(v))) - 1.0))
    return worst


def projector_defect(p: LinearMap, probes: int = 32, seed: int = 0) -> float:
    """max of ||P^2 v - P v|| and |<u, P v> - <P u, v>| over random probes."""
    rng = np.random.default_rng(_label_seed(seed, "probe-projector"))
    worst = 0.0
    for _ in range(probes):
        v = random_state_vector(p.dim, rng)
        u = random_state_vector(p.dim, rng)
        pv = p.apply(v)
        worst = max(worst, float(np.linalg.norm(p.apply(pv) - pv)))
        worst = max(worst, abs(complex(np.vdot(u, pv)) - complex(np.vdot(p.apply(u), v))))
    return worst


def register_distribution(state: StateVector, register: str) -> np.ndarray:
    """Marginal computational-basis distribution of one register."""
    layout = state.layout
    k = layout.axis(register)
    t = np.abs(state.amplitudes.reshape(layout.dims)) ** 2
    other = tuple(i for i in range(len(layout.dims)) if i != k)
    return t.sum(axis=other)


def measure(
    register: str, state: StateVector, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Sample a computational-basis measurement of one register and collapse."""
    layout = state.layout
    probs = register_distribution(state, register)
    total = probs.sum()
    if total <= 0:
        raise ValueError("cannot measure a zero-norm state")
    probs = probs / total
    outcome = int(rng.choice(len(probs), p=probs))
    t = state.amplitudes.reshape(layout.dims)
    amps = np.where(layout.values(register) == outcome, t, 0.0).reshape(-1)
    nrm = np.linalg.norm(amps)
    if nrm == 0:
        raise ValueError("collapsed onto a zero-norm branch")
    return outcome, StateVector(layout, amps / nrm)
