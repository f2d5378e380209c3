"""Matrix-free statevector engine over named qubit registers.

Conventions:

* A layout is an ordered list of ``(name, qubit_count)`` pairs.  The first
  register owns the most significant bits of the flat amplitude index, so a
  basis state is addressed as ``value_0 << shift_0 | value_1 << shift_1 | ...``
  with shifts decreasing in listing order.  This fixes bit-exact fixtures.
* Operators are :class:`LinearMap` objects built from one apply closure
  that overwrites the vector it is given: :meth:`LinearMap.apply` hands it
  a copy, :meth:`LinearMap.apply_in_place` the caller's state.
  Dense matrices are only formed for small local gates: a
  program's unitaries, lifted onto a layout by :func:`embed`, and the
  Hadamard-frame factors, which :mod:`qromlab.qworlds` applies itself as
  real gemms.  Operators on the full space are never materialized.
* The full-state kernels share one blocking rule (:func:`blocks`): a gate
  of :func:`embed`, the XOR query and signing maps
  (:class:`qromlab.qworlds.Permutation`), a frame-diagonal apply, the
  uniform projector and the game's probability tensors split the state
  over its leading registers into blocks of at most ``BLOCK_AMPS``
  amplitudes (or of the axes they keep whole, when those hold more) and
  run block by block.  Each keeps whole only the registers it mixes: a
  gate's targets, an XOR map's flipped registers, the chain registers of
  the frame, the averaged registers.  Every map writes each block's result
  back into the block it read, so it applies in place.  So a run holds its
  live state and a few blocks of scratch.  A block's result has the bits
  the unblocked kernel gives it.
* Operator norms are exact: :func:`operator_norm` takes a map that is
  block-diagonal, each block a submatrix of one projector diagonal in the
  Hadamard frame, and solves every distinct block densely.
* Memory: a state is a zeroed complex128 vector of length ``2**total`` in
  its own private anonymous mapping (:func:`new_state`), returned to the
  system when the last view of it is dropped, and the kernels' block
  buffers are borrowed from one small pool (:func:`scratch`) and written
  with ``out=``, so a run allocates nothing per block.  Neither goes
  through the C heap, whose dynamic mmap threshold rises with every large
  array freed and then keeps later ones resident after they are freed.
* Processes: independent shares of work run on every usable CPU
  (:func:`usable_cpus`).  :func:`forked` plays each share but the caller's
  own in a forked child and hands back the children's results in share
  order; the attacks' trials and the sweep's drift points both go through
  it.  Shares that call BLAS run under :func:`one_blas_thread`.
* A game starts from every chain register uniform and every other
  register |0>, evolved as one chain column until its first query
  (:meth:`qromlab.qworlds.ChainWorld.initial_head`).  Outcomes are read as
  exact probability tensors by the game, never sampled here.
* The three random-vector probes (:func:`probe_max_ratio`,
  :func:`unitarity_defect`, :func:`projector_defect`) decide nothing in a
  report; they cross-check maps that have no compiled structure to read, and
  the benchmark's trace times them.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
import os
import pickle
import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import rom

MAX_STATE_QUBITS = 24
MAX_NORM_DIM = 2 ** 14
# Amplitudes per block of the full-state kernels (:func:`blocks`): 512 KiB of
# complex128, so a block, its copy and a gemm's product fit the 2 MiB L2
# cache per core of the 2-vCPU Xeon the benchmarks run on.  Timed there on a
# 21-qubit game state, it is the fastest of 2^14, 2^15, 2^16 and 2^18 for
# the gates, the signing map and the probability tensors, and within 7% of
# the fastest for the query map and the frame applies; at 2^18 (4 MiB) an
# XOR map apply is 1.4-1.8x slower.
BLOCK_AMPS = 2 ** 15

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

    The callable overwrites the C-contiguous complex128 vector it is given
    with the result and returns it: :meth:`apply` hands it a copy, and
    :meth:`apply_in_place` hands it the caller's state itself.
    """

    # No map carries an adjoint; the benchmark's trace tooling reads this.
    _adjoint_apply = None

    def __init__(self, dim: int, apply: Callable[[Vector], Vector], label: str = ""):
        self.dim = dim
        self._apply = apply
        self.label = label

    def apply(self, vec: Vector) -> Vector:
        return self._apply(np.array(vec, dtype=np.complex128, order="C").reshape(-1))

    def apply_in_place(self, vec: Vector) -> Vector:
        """Overwrite ``vec``, a writable C-contiguous complex128 vector of the
        map's dimension, with the map applied to it, and return it."""
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
# States and scratch buffers

# numpy's tracemalloc domain: a state is traced as one of numpy's arrays.
_NUMPY_TRACE_DOMAIN = 389047
_track = ctypes.pythonapi.PyTraceMalloc_Track
_track.argtypes, _track.restype = (ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t), ctypes.c_int
_untrack = ctypes.pythonapi.PyTraceMalloc_Untrack
_untrack.argtypes, _untrack.restype = (ctypes.c_uint, ctypes.c_size_t), ctypes.c_int


def new_state(dim: int) -> Vector:
    """A zeroed complex128 vector of length ``dim`` in its own private
    anonymous mapping, advised for huge pages as numpy advises its own large
    arrays.  The mapping is returned to the system when the last view of the
    vector is dropped, so a freed state leaves nothing resident and moves no
    malloc threshold.  tracemalloc traces it in numpy's domain while it
    lives, as it traces numpy's own arrays.  mmap is imported by the first
    state: a command that makes none need not pay for it at start-up."""
    import mmap

    nbytes = dim * np.dtype(np.complex128).itemsize
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    state = np.frombuffer(buf, dtype=np.complex128)
    address = state.ctypes.data
    _track(_NUMPY_TRACE_DOMAIN, address, nbytes)
    weakref.finalize(buf, _untrack, _NUMPY_TRACE_DOMAIN, address)
    return state


# The idle scratch buffers, flat complex128, in the order they were given back.
_SCRATCH: list[np.ndarray] = []


def _borrow(size: int) -> np.ndarray:
    fits = [i for i, buf in enumerate(_SCRATCH) if buf.size >= size]
    if fits:
        return _SCRATCH.pop(min(reversed(fits), key=lambda i: _SCRATCH[i].size))
    if _SCRATCH:
        _SCRATCH.pop(0)  # every idle buffer is too small: replace the coldest
    return np.empty(size, dtype=np.complex128)


@contextlib.contextmanager
def scratch(*sizes: int) -> Iterator[list[Vector]]:
    """Lend flat, uninitialised complex128 buffers of ``sizes`` amplitudes
    for the body of a ``with`` block, and take them back after it.

    The block kernels borrow their block buffers here and write them with
    ``out=``, so a kernel allocates nothing per block, nor per apply once
    the pool holds buffers large enough.  A loan is the smallest idle buffer
    that fits, of those the one given back last, likeliest still in cache;
    when none fits, one idle buffer is dropped for a new one, so the pool
    holds no more buffers than were ever lent at once, the deepest nesting
    of kernels.  Nested kernels get distinct buffers.
    """
    lent = [_borrow(size) for size in sizes]
    try:
        yield [buf[:size] for buf, size in zip(lent, sizes)]
    finally:
        # the first lent goes back last, so a kernel's next loan of the
        # same sizes gets every buffer back in the same role
        _SCRATCH.extend(reversed(lent))


# ---------------------------------------------------------------------------
# Shares on every usable CPU


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_share(play, share) -> tuple[int, int]:
    """Fork a child that pickles ``list(play(share))``, or how many results
    it made and the traceback it raised, to a pipe; returns the child's pid
    and the pipe's read end.  The child leaves through ``os._exit``: no
    atexit handler runs and no inherited stdio buffer is flushed.  An
    interrupt or exit in the child ends it without a result."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        made = []
        try:
            for result in play(share):
                made.append(result)
            payload = made, None
        except Exception:
            import traceback

            payload = len(made), traceback.format_exc()
        with open(write, "wb") as pipe:
            pickle.dump(payload, pipe)
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def forked(play, shares, describe) -> Iterator[Iterator[list]]:
    """Fork one child per share of ``shares``, each playing
    ``list(play(share))``, while the body of the ``with`` block runs.

    The block gets an iterator over the children's result lists in share
    order, which it reads after its own work.  A child whose share raised
    raises RuntimeError there, with the child's traceback, naming
    ``describe(share, made)``: ``made`` results came before the error, or
    None when the child ended without a word.  When the block ends before
    every child has delivered, by its own error or an interrupt, the
    children that have not are killed.  Every child is reaped.
    """
    children = []  # (share, pid, the read end of its pipe)
    delivered = set()

    def results():
        for share, pid, read in children:
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            delivered.add(pid)
            try:
                out, error = pickle.loads(data)  # results, or how many it made and a traceback
            except (pickle.UnpicklingError, EOFError):
                out, error = None, "the child process ended without a result"
            if error is not None:
                raise RuntimeError(f"{describe(share, out)} failed in a child process:\n{error}")
            yield out

    try:
        for share in shares:
            children.append((share, *_fork_share(play, share)))
        yield results()
    finally:
        for share, pid, read in children:
            if pid not in delivered:
                os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            os.close(read)


def blas_thread_functions():
    """The getter and setter of the loaded OpenBLAS's thread count, found
    through ctypes in the library numpy's wheels bundle, under the symbol
    names its builds export; None where none is found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(name for name in os.listdir(libs) if "openblas" in name)
    except OSError:
        return None
    for name in names:
        lib = ctypes.CDLL(os.path.join(libs, name))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[bool]:
    """Hold the loaded OpenBLAS at one thread for the body of a ``with``
    block, children forked in it included, and give the process its thread
    count back after it, also on error.  The block gets False, and nothing
    is held, where the count cannot be set (:func:`blas_thread_functions`).
    Shares on every CPU need the hold: with the default count in each
    process, idle BLAS threads spin on CPUs the other shares need."""
    found = blas_thread_functions()
    if found is None:
        yield False
        return
    get, put = found
    threads = get()
    put(1)
    try:
        yield True
    finally:
        put(threads)


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


def blocks(dims: Sequence[int], keep: Sequence[int] = ()) -> list[tuple[slice, ...]]:
    """The blocking rule of the full-state kernels: index tuples that split
    an array of shape ``dims`` over its leading axes not in ``keep`` into
    blocks of at most ``BLOCK_AMPS`` entries, in flat index order.

    Each split axis but the last takes one value per block and the last an
    aligned run of values; the axes in ``keep`` and every axis after the
    split stay whole.  An array of at most ``BLOCK_AMPS`` entries is one
    block, ``()``.  When the kept axes alone hold more, a block is one value
    of every axis not kept.  A kernel runs block by block and writes each
    block's result back into the block (the game's probability tensors add
    it into the tensors), so a state-sized temporary becomes a block buffer
    (:func:`scratch`) that stays in cache.
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


def uniform_projector_map(layout: RegisterLayout, regs: Sequence[str]) -> LinearMap:
    """The uniform-superposition projector on each register in ``regs``.

    It applies block by block (:func:`blocks`, the averaged registers kept
    whole): each register's mean is taken on the array the previous means
    left, so only the first one reads the block, and the last mean is
    written back over the block it was read from.  The means alternate
    between two borrowed buffers (:func:`scratch`).
    """
    regs = tuple(regs)
    axes = [layout.axis(name) for name in regs]

    def run(v: Vector) -> Vector:
        state = v.reshape(layout.dims)
        spans = blocks(layout.dims, axes)
        shape = list(state[spans[0]].shape)
        with scratch(*[math.prod(shape)] * min(2, len(axes))) as bufs:
            outs = []
            for i, axis in enumerate(axes):
                shape[axis] = 1
                outs.append(bufs[i % 2][: math.prod(shape)].reshape(shape))
            for block in spans:
                means = state[block]
                for axis, out in zip(axes, outs):
                    means = np.mean(means, axis=axis, keepdims=True, out=out)
                state[block] = means
        return v

    return LinearMap(layout.dim, run, label="Phi(" + ",".join(regs) + ")")


def embed(op, targets: Sequence[str], layout: RegisterLayout) -> LinearMap:
    """Lift a local operator onto a layout, identity on all other registers.

    ``op`` is a dense matrix on the tensor product of the target registers,
    taken in the order given by ``targets``.

    It serves the program gates of the game; the Hadamard frame of the chain
    registers does not go through it (:func:`qromlab.qworlds._hadamard_frame`).

    The map applies in place (:meth:`LinearMap.apply_in_place`), block by
    block (:func:`blocks`, the target axes kept whole): each block's target
    axes are moved to the front of a contiguous copy, changed by one gemm
    and written back into the block they were read from.  The copy and the
    gemm's product are borrowed block buffers (:func:`scratch`), so an apply
    allocates no block and no state.  Every output column is the same gemm
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
        spans = blocks(layout.dims, axes)
        shape = np.moveaxis(state[spans[0]], axes, range(k)).shape
        with scratch(*[math.prod(shape)] * 2) as (moved, product):
            moved, product = moved.reshape(shape), product.reshape(d_local, -1)
            for block in spans:
                np.copyto(moved, np.moveaxis(state[block], axes, range(k)))
                np.matmul(matrix, moved.reshape(d_local, -1), out=product)
                np.moveaxis(state[block], axes, range(k))[...] = product.reshape(shape)
        return v

    return LinearMap(layout.dim, run, label=f"embed({','.join(targets)})")


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


def check_norm_dim(dim: int) -> None:
    """ValueError when :func:`operator_norm`'s map of dimension ``dim`` passes
    ``MAX_NORM_DIM``; callers check before they build its masks."""
    if dim > MAX_NORM_DIM:
        raise ValueError(f"operator norms capped at dimension {MAX_NORM_DIM}, got {dim}")


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
    check_norm_dim(rows.size)
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
