"""Matrix-free statevector engine over named qubit registers.

Conventions:

* A layout is an ordered list of ``(name, qubit_count)`` pairs.  The first
  register owns the most significant bits of the flat amplitude index, so a
  basis state is addressed as ``value_0 << shift_0 | value_1 << shift_1 | ...``
  with shifts decreasing in listing order.  This fixes bit-exact fixtures.
* Operators are :class:`LinearMap` objects built from one apply closure.
  Dense matrices are only formed for small local gates: a
  program's unitaries, lifted onto a layout by :func:`embed`, and the
  Hadamard-frame factors, which :mod:`qromlab.qworlds` applies itself as
  real gemms.  Operators on the full space are never materialized.
* The full-state kernels share one blocking rule (:func:`blocks`): a gate
  of :func:`embed`, the XOR query and signing maps
  (:class:`qromlab.qworlds.Permutation`), a frame-diagonal apply and the
  game's probability tensors split the state over its leading registers
  into blocks of at most ``BLOCK_AMPS`` amplitudes (or of the axes they
  keep whole, when those hold more) and run block by block.  A gate and an
  XOR map write each block's result back into the block they read, so they
  apply in place (:meth:`LinearMap.apply_in_place`); a frame-diagonal apply
  writes into one preallocated output.  A block's result has the bits the
  unblocked kernel gives it.
* Operator norms are exact: :func:`operator_norm` takes a map that is
  block-diagonal, each block a submatrix of one projector diagonal in the
  Hadamard frame, and solves every distinct block densely.
* States are plain complex128 vectors of length ``2**total``; a game starts
  from every chain register uniform and every other register |0>, evolved
  as one chain column until its first query
  (:meth:`qromlab.qworlds.ChainWorld.initial_head`).  Outcomes are read as
  exact probability tensors by the game, never sampled here.
* The three random-vector probes (:func:`probe_max_ratio`,
  :func:`unitarity_defect`, :func:`projector_defect`) decide nothing in a
  report; they cross-check maps that have no compiled structure to read, and
  the benchmark's trace times them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rom

MAX_STATE_QUBITS = 24
MAX_NORM_DIM = 2 ** 14
# Amplitudes per block of the full-state kernels (:func:`blocks`): 4 MiB of
# complex128, about the L2 cache of the 2-vCPU Xeon the benchmarks run on.
BLOCK_AMPS = 2 ** 18

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
        self.names: tuple[str, ...] = tuple(name for name, _ in self.registers)
        self.dims: tuple[int, ...] = tuple(1 << width for _, width in self.registers)
        self._shifts: dict[str, int] = {}
        self._widths: dict[str, int] = {}
        pos = self.total
        for name, width in self.registers:
            pos -= width
            self._shifts[name] = pos
            self._widths[name] = width

    def width(self, name: str) -> int:
        return self._widths[name]

    def shift(self, name: str) -> int:
        return self._shifts[name]

    def axis(self, name: str) -> int:
        return self.names.index(name)

    def values(self, name: str) -> np.ndarray:
        """Values of one register along its own axis of ``dims``, shaped to
        broadcast against ``amplitudes.reshape(dims)``."""
        shape = [1] * len(self.registers)
        shape[self.axis(name)] = -1
        return np.arange(1 << self._widths[name], dtype=np.int64).reshape(shape)

    def __eq__(self, other) -> bool:
        return isinstance(other, RegisterLayout) and self.registers == other.registers

    def __hash__(self) -> int:
        return hash(self.registers)

    def __repr__(self) -> str:
        body = ", ".join(f"{n}:{w}" for n, w in self.registers)
        return f"RegisterLayout({body})"


class LinearMap:
    """Matrix-free operator: an apply-to-vector contract.

    With ``in_place`` set, the callable overwrites the vector it is given
    with the result and returns it: :meth:`apply` hands it a copy, and
    :meth:`apply_in_place` hands it the caller's state itself.
    """

    # No map carries an adjoint; the benchmark's trace tooling reads this.
    _adjoint_apply = None

    def __init__(
        self,
        dim: int,
        apply: Callable[[Vector], Vector],
        label: str = "",
        in_place: bool = False,
    ):
        self.dim = dim
        self._apply = apply
        self.label = label
        self.in_place = in_place

    def _operand(self, vec: Vector) -> Vector:
        if self.in_place:
            return np.array(vec, dtype=np.complex128, order="C").reshape(-1)
        return np.asarray(vec, dtype=np.complex128)

    def apply(self, vec: Vector) -> Vector:
        return self._apply(self._operand(vec))

    def apply_in_place(self, vec: Vector) -> Vector:
        """Overwrite ``vec``, a writable C-contiguous complex128 vector of the
        map's dimension, with the map applied to it, and return it."""
        if not self.in_place:
            raise ValueError(f"map {self.label!r} has no in-place kernel")
        if not (
            isinstance(vec, np.ndarray)
            and vec.dtype == np.complex128
            and vec.shape == (self.dim,)
            and vec.flags.c_contiguous
            and vec.flags.writeable
        ):
            raise ValueError(
                f"map {self.label!r} applies in place to a writable C-contiguous complex128 "
                f"vector of length {self.dim}, got {getattr(vec, 'dtype', type(vec).__name__)} "
                f"of shape {np.shape(vec)}"
            )
        return self._apply(vec)

    def __repr__(self) -> str:
        return f"LinearMap(dim={self.dim}, label={self.label!r})"


# ---------------------------------------------------------------------------
# Random states and unitaries


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


def uniform_projector_apply(amps: Vector, layout: RegisterLayout, regs: Sequence[str]) -> Vector:
    """Apply the uniform-superposition projector on each register in ``regs``.

    Each register's mean is taken on the array the previous means left, so
    only the first one reads the whole state; the result is broadcast back
    to the layout once, at the end.
    """
    out = amps.reshape(layout.dims)
    for name in regs:
        out = out.mean(axis=layout.axis(name), keepdims=True)
    return np.ascontiguousarray(np.broadcast_to(out, layout.dims)).reshape(-1)


def uniform_projector_map(layout: RegisterLayout, regs: Sequence[str]) -> LinearMap:
    regs = tuple(regs)
    return LinearMap(
        layout.dim,
        lambda v: uniform_projector_apply(v, layout, regs),
        label="Phi(" + ",".join(regs) + ")",
    )


def blocks(dims: Sequence[int], keep: Sequence[int] = ()) -> list[tuple[slice, ...]]:
    """The blocking rule of the full-state kernels: index tuples that split
    an array of shape ``dims`` over its leading axes not in ``keep`` into
    blocks of at most ``BLOCK_AMPS`` entries, in flat index order.

    Each split axis but the last takes one value per block and the last an
    aligned run of values; the axes in ``keep`` and every axis after the
    split stay whole.  An array of at most ``BLOCK_AMPS`` entries is one
    block, ``()``.  When the kept axes alone hold more, a block is one value
    of every axis not kept.  A kernel runs block by block and writes each
    block's result back into the block or into one preallocated output, so
    a state-sized temporary becomes a block-sized one that stays in cache.
    """
    size = int(np.prod(dims))
    spans: list[list[slice]] = []
    for axis, d in enumerate(dims):
        if size <= BLOCK_AMPS:
            break
        if axis in keep:
            spans.append([slice(None)])
            continue
        size //= d
        run = max(1, BLOCK_AMPS // size)
        spans.append([slice(start, start + run) for start in range(0, d, run)])
        size *= run
    return list(itertools.product(*spans))


def block_of(a: np.ndarray, block: tuple[slice, ...]) -> np.ndarray:
    """The part of ``a`` that ``block`` reads, for an ``a`` broadcast against
    the blocked array (size 1 on the axes it does not read)."""
    return a[tuple(s if n > 1 else slice(None) for s, n in zip(block, a.shape))]


def embed(op, targets: Sequence[str], layout: RegisterLayout) -> LinearMap:
    """Lift a local operator onto a layout, identity on all other registers.

    ``op`` is a dense matrix on the tensor product of the target registers,
    taken in the order given by ``targets``.

    It serves the program gates of the game; the Hadamard frame of the chain
    registers does not go through it (:func:`qromlab.qworlds._hadamard_frame`).

    The map applies in place (:meth:`LinearMap.apply_in_place`), block by
    block (:func:`blocks`, the target axes kept whole): each block's target
    axes are moved to the front of a contiguous copy, changed by one gemm
    and written back into the block they were read from, so an apply
    allocates two blocks and no state.  Every output column is the same gemm
    column the unblocked transpose gives, bit for bit, as long as the block
    leaves the gemm more than 2 columns.
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
    k = len(axes)

    def run(v: Vector) -> Vector:
        state = v.reshape(layout.dims)
        for block in blocks(layout.dims, axes):
            t = np.moveaxis(state[block], axes, range(k))
            shape = t.shape
            t = matrix @ np.ascontiguousarray(t).reshape(d_local, -1)
            np.moveaxis(state[block], axes, range(k))[...] = t.reshape(shape)
        return v

    return LinearMap(layout.dim, run, label=f"embed({','.join(targets)})", in_place=True)


# ---------------------------------------------------------------------------
# Exact operator norms and probes


@dataclass(frozen=True)
class NormEstimate:
    """Exact operator norm of a block-diagonal map (see :func:`operator_norm`).

    ``iterations`` counts the distinct nonempty blocks solved.
    """

    value: float
    iterations: int
    # Always True: the value is computed exactly, not iterated to a
    # tolerance.  Kept because trace tooling reads it.
    converged = True


def parity(a) -> np.ndarray:
    """Parity of the set bits of each entry of a non-negative integer array."""
    a = np.asarray(a, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        a = a ^ (a >> s)
    return (a & 1).astype(bool)


def _signs(rows: np.ndarray, support: np.ndarray) -> np.ndarray:
    """The +-1 matrix (-1)^{popcount(r & s)} over r in ``rows`` (a mask) and
    s in ``support`` (indices): Hadamard-frame entries times sqrt(G)."""
    return 1.0 - 2.0 * parity(np.flatnonzero(rows)[:, None] & support[None, :])


def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D bool array in ``np.unique(a, axis=0)``
    order.  Each row is packed to bytes and compared as one void key, which
    sorts several times faster than ``np.unique`` on the bool columns."""
    packed = np.packbits(a, axis=1)
    _, first = np.unique(packed.view(f"V{packed.shape[1]}").reshape(-1), return_index=True)
    return a[first]


def operator_norm(table, rows, cols) -> NormEstimate:
    """Exact norm of the block-diagonal map whose block k is Pi[R_k, C_k].

    Pi = H diag(table) H is the projector with the 0/1 ``table`` (G entries)
    as its diagonal in the Hadamard frame H of log2(G) qubits.  ``rows`` and
    ``cols`` are (K, G) boolean masks: R_k and C_k.  The map they describe
    has dimension K*G, capped at ``MAX_NORM_DIM``.

    A qubit the table does not read is one Pi acts on as the identity, so
    every block splits further over that qubit's values; the blocks are
    solved on the qubits the table reads.  With S the support there,
    G' Pi[R, C] = V_R V_C^T for the +-1 sign matrices V_R = H[R, S] sqrt(G'),
    G' the reduced table's size.  That product is an integer matrix and
    float64 forms it exactly, so a zero block is exactly zero, and the one
    rounding step is a dense SVD of it, backward stable: the value is the
    exact norm to within a small multiple of G * eps, relative.  Where R and
    C are disjoint, Pi[R, C] = -(1 - Pi)[R, C], and the smaller of S and its
    complement is used.  Blocks with an empty side are zero; blocks with the
    same pair {R, C} are solved once.
    """
    table = np.asarray(table, dtype=np.float64).reshape(-1)
    if not np.all((table == 0.0) | (table == 1.0)):
        raise ValueError("operator_norm needs a 0/1 frame table, the diagonal of a projector")
    g = table.size
    rows, cols = np.asarray(rows, dtype=bool), np.asarray(cols, dtype=bool)
    if g & (g - 1) or rows.shape != cols.shape or rows.shape[1:] != (g,):
        raise ValueError(
            f"block masks {rows.shape}, {cols.shape} do not fit a frame table of {g} entries"
        )
    if rows.size > MAX_NORM_DIM:
        raise ValueError(f"operator norms capped at dimension {MAX_NORM_DIM}, got {rows.size}")
    qubits = (2,) * (g.bit_length() - 1)
    table = table.reshape(qubits)
    unread = [q for q in range(len(qubits)) if np.array_equal(table.take(0, q), table.take(1, q))]
    order = unread + [q for q in range(len(qubits)) if q not in unread]
    g = 1 << (len(qubits) - len(unread))
    table = table.transpose(order).reshape(-1, g)[0]
    rows, cols = (
        m.reshape(-1, *qubits).transpose(0, *(q + 1 for q in order)).reshape(-1, g)
        for m in (rows, cols)
    )
    pairs = _distinct_rows(np.concatenate([rows, cols], axis=1)[rows.any(1) & cols.any(1)])
    blocks = {}
    for r, c in zip(pairs[:, :g], pairs[:, g:]):
        blocks.setdefault(tuple(sorted((r.tobytes(), c.tobytes()))), (r, c))
    support = table == 1.0
    value = 0.0
    for r, c in blocks.values():
        s = ~support if 2 * np.count_nonzero(support) > g and not (r & c).any() else support
        if s.any():
            s = np.flatnonzero(s)
            value = max(value, float(np.linalg.norm(_signs(r, s) @ _signs(c, s).T, 2)) / g)
    return NormEstimate(value, len(blocks))


def probe_max_ratio(a: LinearMap, probes: int = 32, seed: int = 0) -> float:
    """max ||A v|| / ||v|| over random probes; < 1e-10 declares the zero map."""
    rng = np.random.default_rng(rom.derive_seed(seed, "probe-zero"))
    worst = 0.0
    for _ in range(probes):
        v = random_state_vector(a.dim, rng)
        worst = max(worst, float(np.linalg.norm(a.apply(v))))
    return worst


def unitarity_defect(u: LinearMap, probes: int = 32, seed: int = 0) -> float:
    """max deviation of ||U v|| from ||v|| = 1 over random probes."""
    rng = np.random.default_rng(rom.derive_seed(seed, "probe-unitary"))
    worst = 0.0
    for _ in range(probes):
        v = random_state_vector(u.dim, rng)
        worst = max(worst, abs(float(np.linalg.norm(u.apply(v))) - 1.0))
    return worst


def projector_defect(p: LinearMap, probes: int = 32, seed: int = 0) -> float:
    """max of ||P^2 v - P v|| and |<u, P v> - <P u, v>| over random probes."""
    rng = np.random.default_rng(rom.derive_seed(seed, "probe-projector"))
    worst = 0.0
    for _ in range(probes):
        v = random_state_vector(p.dim, rng)
        u = random_state_vector(p.dim, rng)
        pv = p.apply(v)
        worst = max(worst, float(np.linalg.norm(p.apply(pv) - pv)))
        worst = max(worst, abs(complex(np.vdot(u, pv)) - complex(np.vdot(p.apply(u), v))))
    return worst
