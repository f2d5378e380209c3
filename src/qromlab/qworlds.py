"""Superposition hash-chain worlds and their operators.

A :class:`ChainWorld` holds the data of a game in which the intermediate hash
chain elements live in quantum registers, initially in the uniform
superposition, while the final chain elements (the public key) are classical
strings sampled up front.  The random oracle is answered by a unitary that
compares the query input against every chain register and XORs the successor
of each match into the output register, falling back to a fixed random
function on mismatch.

Register naming over a world with C chains of length w on n-bit strings:

``x`` / ``y``     oracle query input / output registers (n qubits each)
``m``             message register (l bits for Lamport, a bits for Winternitz)
``sig0..sig{l-1}`` signature output blocks (n qubits each)
``b``             one workspace qubit conventionally used as a blinded flag
``e``             adversary workspace (configurable width)
``g{c}_{j}``      chain c position j, for j <= w-2 (the quantum positions)

Chain position w-1 is never a qubit register: it is pinned to the classical
public-key string ``p[c]``, and every operator that formally touches it folds
the pinned value in exactly (a constant XOR for oracle and signing queries, a
scalar outcome weight for measurements).

Lamport keys are 2l chains of length 2, chain ``2*i + j`` carrying the
secret string that signs bit value ``j`` at message position ``i``, as in
:mod:`qromlab.ots`; :meth:`ChainWorld.revealed` is its
:func:`~qromlab.ots.revealed`, the one rule that tells the schemes apart.

Every world operator has one of two representations, compiled once when it is
built:

* The query and blinded-sign unitaries are XOR involutions on basis states,
  each kept as its small broadcast table ``delta`` of the bits it flips and
  applied in place, block by block (:class:`Permutation`).  The query
  unitary XORs the answer table f(x, gamma) of :func:`overlay_table` into
  ``y``, and only an evolved state needs the map.  Everything else reads f
  itself
  (:func:`query_unitary_as_function`): the oracle-consistency check compares
  it with the classical reprogrammed oracle, the acceptance table walks the
  chains through it, and the exact commutator norms read its phase in the
  Hadamard frame of ``y`` (:func:`query_phase_splits`).
* Every projector is a product of uniform projectors and their complements on
  chain registers.  The uniform projector is H|0><0|H, so in the Hadamard
  frame of the chain registers each projector is a diagonal 0/1 (or
  sqrt-weight) table.  :class:`FrameDiagonal` applies it as the frame
  change :func:`to_frame` (real Sylvester factors over blocks of whole chain
  registers of at most 4 qubits, applied as dgemms to the state's float64
  view; built on first use once per world and shared by every map on every
  layout of it; its own inverse), the table multiply and the change back.
  Like every full-state kernel it runs under the blocking rule of
  :func:`qromlab.qsim.blocks`: the state splits over its leading (head)
  registers into blocks of at most ``qsim.BLOCK_AMPS`` amplitudes, whole
  chain columns each, and each block's result is written into one
  preallocated output.  The game changes each block of its final state
  into the frame once and reads every outcome map from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import ots, qsim, rom
from .qsim import LinearMap, RegisterLayout


@dataclass(frozen=True)
class BlindingSet:
    """Explicit subset of an nbits-wide message space, with the inclusion rate
    that produced it (kept for reporting)."""

    nbits: int
    epsilon: float
    members: frozenset[int]

    def __post_init__(self):
        if any(not 0 <= m < (1 << self.nbits) for m in self.members):
            raise ValueError("blinding set member outside the message space")

    def __contains__(self, m: int) -> bool:
        return m in self.members

    def __len__(self) -> int:
        return len(self.members)

    def complement(self) -> tuple[int, ...]:
        return tuple(m for m in range(1 << self.nbits) if m not in self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def mask(self) -> np.ndarray:
        """Membership of every message, one bool per message."""
        out = np.zeros(1 << self.nbits, dtype=bool)
        out[list(self.members)] = True
        return out


class ChainWorld:
    """Chains-in-superposition world for one scheme instance.

    Everything random is a function of ``seed``: the oracle table ``h_table``
    and the public endpoints ``p`` (one per chain) come from its "oracle" and
    "endpoints" sub-seeds.  The message space is ``params.message_bits`` wide;
    a world without ``params`` has none.
    """

    def __init__(
        self,
        scheme: str,
        n: int,
        w: int,
        chain_count: int,
        l_sem: int,
        params,
        blinding: BlindingSet | None,
        seed: int,
        workspace_qubits: int = 2,
    ):
        if w < 2:
            raise ValueError("chains need at least two positions")
        if chain_count < 1:
            raise ValueError(f"a world needs at least one chain, got {chain_count}")
        if n < 1:
            raise ValueError(f"chain strings need at least one bit, got n={n}")
        message_bits = None if params is None else params.message_bits
        if blinding is not None and message_bits is not None and blinding.nbits != message_bits:
            raise ValueError("blinding set width does not match the message space")
        self.scheme = scheme
        self.n = n
        self.w = w
        self.chain_count = chain_count
        self.l_sem = l_sem
        self.message_bits = message_bits
        self.params = params
        self.h_table = rom.RandomOracleTable(n, seed=rom.derive_seed(seed, "oracle")).full_table()
        rng = np.random.default_rng(rom.derive_seed(seed, "endpoints"))
        self.p = tuple(int(rng.integers(0, 1 << n)) for _ in range(chain_count))
        self.blinding = blinding
        self.seed = seed
        self.workspace_qubits = workspace_qubits
        self._layout_cache: dict = {}

    # -- registers ----------------------------------------------------------

    def chain_register(self, c: int, j: int) -> str:
        if not (0 <= c < self.chain_count and 0 <= j <= self.w - 2):
            raise ValueError(f"no quantum register for chain {c} position {j}")
        return f"g{c}_{j}"

    def chain_registers(self) -> tuple[str, ...]:
        return tuple(
            self.chain_register(c, j)
            for c in range(self.chain_count)
            for j in range(self.w - 1)
        )

    def sigma_registers(self) -> tuple[str, ...]:
        return tuple(f"sig{i}" for i in range(self.l_sem))

    def _layout(self, kind: str) -> RegisterLayout:
        cached = self._layout_cache.get(kind)
        if cached is not None:
            return cached
        n = self.n
        regs: list[tuple[str, int]] = []
        if kind in ("norm", "game"):
            regs += [("x", n), ("y", n)]
        if kind in ("game", "game-noxy"):
            if self.message_bits is None:
                raise ValueError("world has no message space")
            regs += [("m", self.message_bits)]
            regs += [(name, n) for name in self.sigma_registers()]
            regs += [("b", 1), ("e", self.workspace_qubits)]
        regs += [(name, n) for name in self.chain_registers()]
        layout = RegisterLayout(regs)
        self._layout_cache[kind] = layout
        return layout

    def norm_layout(self) -> RegisterLayout:
        """x, y and the chain registers; the operator-norm arena."""
        return self._layout("norm")

    def game_layout(self, include_xy: bool = True) -> RegisterLayout:
        """Full game arena; drop x/y for sign-only analyses."""
        return self._layout("game" if include_xy else "game-noxy")

    def chain_layout(self) -> RegisterLayout:
        """Chain registers only; enough for projector algebra."""
        return self._layout("chains")

    def chain_dim(self, layout: RegisterLayout) -> int:
        """G, the dimension of the chain registers, which trail every layout
        a state lives on, n qubits each (ValueError if they do not trail
        ``layout`` so)."""
        chains = self.chain_registers()
        if layout.registers[len(layout.registers) - len(chains):] != tuple(
            (name, self.n) for name in chains
        ):
            raise ValueError(f"chain registers {chains} of {self.n} qubits do not trail {layout!r}")
        return 1 << (self.n * len(chains))

    def initial_head(self, layout: RegisterLayout) -> tuple[RegisterLayout, np.ndarray]:
        """The game's initial state, every chain register uniform and every
        other register |0>, as the registers before the chains and the
        state's one chain column over them.

        The chain registers trail every layout and start uniform, so every
        column of the initial state over the chain index is the same vector:
        |0> times amp, the product of the chain registers' 1/sqrt(d) factors
        taken left to right.  The state is that column repeated G times, G
        the chain registers' dimension.  Unitaries off the chains keep the
        columns equal, so a game evolves the one column until it touches the
        chains (:func:`qromlab.game.evolve_program`).
        """
        column = np.zeros(layout.dim // self.chain_dim(layout), dtype=np.complex128)
        chains = self.chain_registers()
        amp = 1.0
        for name in chains:
            amp *= 1.0 / np.sqrt(1 << layout.width(name))
        column[0] = amp
        return RegisterLayout(layout.registers[: len(layout.registers) - len(chains)]), column

    # -- scheme structure ---------------------------------------------------

    def messages(self) -> range:
        if self.message_bits is None:
            raise ValueError("world has no message space")
        return range(1 << self.message_bits)

    def unblinded(self) -> tuple[int, ...]:
        if self.blinding is None:
            return tuple(self.messages())
        return self.blinding.complement()

    def revealed(self, m: int) -> tuple[tuple[int, int], ...]:
        """The chain position (c, j) that signing ``m`` reveals, one per
        signature block in semantic order (:func:`qromlab.ots.revealed`);
        j = w-1 is the pinned endpoint p[c]."""
        return ots.revealed(self.params, m)

    def thresholds(self, m: int) -> tuple[int, ...]:
        """Per chain, the lowest position revealed by signing ``m``.

        Registers strictly below the threshold stay untouched by the signing
        query; threshold w-1 means only the public endpoint is exposed.
        """
        out = [self.w - 1] * self.chain_count
        for c, j in self.revealed(m):
            out[c] = j
        return tuple(out)

    def chain_values(self, layout: RegisterLayout, c: int, j: int):
        """Chain position (c, j) over ``layout``: its register's values, or the
        pinned endpoint p[c] at j = w-1."""
        return layout.values(self.chain_register(c, j)) if j <= self.w - 2 else self.p[c]

    # -- classical oracles --------------------------------------------------

    def base_oracle(self, x: int) -> int:
        return self.h_table[x]

    def chain_tuple(self, assignment: Mapping[str, int]) -> rom.ChainTuple:
        rows = []
        for c in range(self.chain_count):
            row = [assignment[self.chain_register(c, j)] for j in range(self.w - 1)]
            row.append(self.p[c])
            rows.append(tuple(row))
        return rom.ChainTuple(n=self.n, l=self.chain_count, w=self.w, gamma=tuple(rows))

    def overlay_oracle(self, assignment: Mapping[str, int]) -> rom.ReprogrammedOracle:
        """The classical reprogrammed oracle consistent with sampled chain values."""
        return rom.ReprogrammedOracle(self.base_oracle, self.chain_tuple(assignment))


def lamport_world(
    n: int,
    l: int,
    blinding: BlindingSet | None = None,
    seed: int = 0,
    workspace_qubits: int = 2,
) -> ChainWorld:
    params = ots.LamportParams(n=n, l=l)
    return ChainWorld("lamport", n, params.w, params.chains, l, params, blinding, seed, workspace_qubits)


def winternitz_world(
    n: int,
    a: int,
    w: int,
    blinding: BlindingSet | None = None,
    seed: int = 0,
    workspace_qubits: int = 2,
) -> ChainWorld:
    # Lab worlds accept any w >= 2; the scheme-level power-of-two restriction
    # only concerns the classical signing API.
    params = ots.derive_wots_params(a, w, n, require_power_of_two=False)
    return ChainWorld("winternitz", n, w, params.l, params.l, params, blinding, seed, workspace_qubits)


def chain_world(n: int, l: int, w: int, seed: int = 0) -> ChainWorld:
    """Bare chain structure with no message space; enough for oracle-side checks."""
    return ChainWorld("winternitz", n, w, l, l, None, None, seed)


# ---------------------------------------------------------------------------
# Unitaries: one XOR map each


class Permutation(LinearMap):
    """The XOR involution |i> -> |i ^ delta(i)>, applied in place.

    ``delta`` broadcasts against ``layout.dims`` (size 1 along every register
    it does not read) and holds flat-index bits of the registers it flips.
    It must not vary along a register it flips (ValueError otherwise), so
    the map is its own inverse and moves no amplitude out of a run of the
    flat index that holds every flipped register whole.  The state runs over
    such runs, the blocks of :func:`qromlab.qsim.blocks` that keep every
    register from the first flipped one on whole: each block is gathered
    from a copy of itself by its local flat index XOR its part of delta, one
    block-sized index XORed with each block's part in turn.  An apply
    allocates that copy and that index, no state.  A delta that is 0
    everywhere is the identity and leaves the state untouched.
    """

    def __init__(self, layout: RegisterLayout, delta, label: str):
        delta = np.asarray(delta, dtype=np.int64)
        delta = delta.reshape((1,) * (len(layout.dims) - delta.ndim) + delta.shape)
        if np.broadcast_shapes(delta.shape, layout.dims) != layout.dims:
            raise ValueError(f"{label}: delta of shape {delta.shape} does not fit {layout!r}")
        bits = int(np.bitwise_or.reduce(delta, axis=None))
        if bits >> layout.total:
            raise ValueError(f"{label}: delta holds bits outside the {layout.total}-qubit index")
        flipped = [
            axis
            for axis, (name, width) in enumerate(layout.registers)
            if bits >> layout.shift(name) & ((1 << width) - 1)
        ]
        read = [layout.names[axis] for axis in flipped if delta.shape[axis] > 1]
        if read:
            raise ValueError(f"{label}: delta varies along {read}, which it flips")
        self.layout = layout
        self.delta = delta

        def kernel(v: np.ndarray) -> np.ndarray:
            if not flipped:
                return v
            spans = qsim.blocks(layout.dims, range(flipped[0], len(layout.dims)))
            size = layout.dim // len(spans)
            index = np.arange(size).reshape(v.reshape(layout.dims)[spans[0]].shape)
            before = 0
            for start, block in zip(range(0, layout.dim, size), spans):
                part = qsim.block_of(delta, block)
                np.bitwise_xor(index, part ^ before, out=index)
                before = part
                run = v[start : start + size]
                # mode="wrap" writes into ``out`` directly; "raise" buffers it
                np.take(run.copy(), index.reshape(-1), out=run, mode="wrap")
            return v

        super().__init__(layout.dim, kernel, label=label, in_place=True)


def overlay_table(world: ChainWorld, layout: RegisterLayout) -> np.ndarray:
    """The reprogrammed oracle's answer to the query in ``x``, broadcast over
    the chain registers: the XOR of the successors (next chain register or
    pinned endpoint) of every chain register equal to ``x``, or h(x) when none
    matches.  Axes of registers it does not read have size 1."""
    x = layout.values("x")
    delta = 0
    hit = False
    for c in range(world.chain_count):
        for j in range(world.w - 1):
            match = x == layout.values(world.chain_register(c, j))
            delta = delta ^ np.where(match, world.chain_values(layout, c, j + 1), 0)
            hit = hit | match
    return np.where(hit, delta, np.asarray(world.h_table, dtype=np.int64)[x])


def build_query_unitary(world: ChainWorld, layout: RegisterLayout | None = None) -> LinearMap:
    """Oracle-query unitary: XOR the :func:`overlay_table` answer into ``y``."""
    layout = layout or world.norm_layout()
    return Permutation(layout, overlay_table(world, layout) << layout.shift("y"), "U_h")


def query_unitary_as_function(world: ChainWorld) -> np.ndarray:
    """f[x, gamma]: the answer the query unitary XORs into ``y`` for input x
    under every chain assignment gamma (chain registers in layout order, the
    first one most significant), as the :func:`overlay_table` that
    :func:`build_query_unitary` compiles."""
    return overlay_table(world, world.norm_layout()).reshape(1 << world.n, -1)


def query_phase_splits(f: np.ndarray) -> np.ndarray:
    """The query unitary in the Hadamard frame of ``y``, from its answer
    table f[x, gamma] (:func:`query_unitary_as_function`):
    B[x, k, gamma] = [k . f(x, gamma) is odd].

    In the frame of ``y`` (index k, as wide as x) U_h is the diagonal phase
    (-1)^{k . f(x, gamma)}: one +-1 diagonal 1 - 2 B[x, k] over gamma per
    block (x, k).
    """
    return qsim.parity(np.arange(len(f))[:, None] & f[:, None, :])


def build_blinded_sign_unitary(
    world: ChainWorld, layout: RegisterLayout | None = None
) -> LinearMap:
    """Signing-query unitary: identity on blinded basis messages, otherwise the
    revealed chain registers (or pinned endpoints) are XORed into the signature
    blocks."""
    layout = layout or world.game_layout()
    if world.blinding is None:
        raise ValueError("world has no blinding set")
    m = layout.values("m")
    delta = 0
    for msg in world.unblinded():
        flip = 0
        for (c, j), sig in zip(world.revealed(msg), world.sigma_registers()):
            flip = flip ^ (world.chain_values(layout, c, j) << layout.shift(sig))
        delta = delta ^ np.where(m == msg, flip, 0)
    return Permutation(layout, delta, "BSign")


# ---------------------------------------------------------------------------
# Projectors: one diagonal table each in the Hadamard frame of the chains

FRAME_BLOCK_QUBITS = 4


def _sylvester(qubits: int) -> np.ndarray:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    out = np.ones((1, 1))
    for _ in range(qubits):
        out = np.kron(out, h)
    return out


def _table_shape(world: ChainWorld, layout: RegisterLayout, extra: tuple[str, ...] = ()):
    """Broadcast shape of a table reading the chain registers (plus ``extra``)."""
    chains = world.chain_registers()
    missing = [name for name in chains if name not in layout.names]
    if missing:
        raise ValueError(
            "projectors are diagonal in the Hadamard frame of the chain registers; "
            f"layout {layout!r} lacks {missing}"
        )
    read = set(chains) | set(extra)
    return tuple(d if name in read else 1 for name, d in zip(layout.names, layout.dims))


def _hadamard_frame(world: ChainWorld) -> list[tuple[int, int, np.ndarray]]:
    """H on every chain qubit, as Sylvester factors over blocks of whole chain
    registers of at most FRAME_BLOCK_QUBITS qubits (a wider register is a
    block of its own).  The frame change is its own inverse.

    Each factor is ``(d, post, matrix)``: the block's dimension d, the
    dimension ``post`` of the chain registers after it, and the real matrix
    that :func:`to_frame` applies to the state's float64 view, where every
    complex amplitude is two adjacent floats.  The chain registers trail
    every layout, n qubits each, so that view reads as ``(pre, d, 2 post)``
    on every layout of the world, and a factor with registers after it is
    the batched ``M @ v``; the trailing factor (post = 1) is
    ``v @ kron(M, 1_2)`` on ``(pre, 2 d)``, M being symmetric.  Real dgemms
    do half the flops of complex ones on a matrix with no imaginary part.

    The factors are built on first use and kept in the world's layout cache,
    so every map on every layout of the world shares them.  Factors of at
    most 16 x 16 make each apply a memory-bound pass over the state; one
    256-wide factor is compute-bound on a 20-qubit state.

    Since the uniform projector is H|0><0|H, in this frame a uniform factor
    on a register reads "register is 0" and a complement factor "is not 0".
    """
    frame = world._layout_cache.get("frame")
    if frame is not None:
        return frame
    per_block = max(1, FRAME_BLOCK_QUBITS // world.n)
    chains = len(world.chain_registers())
    frame = []
    post = 1 << (world.n * chains)
    for start in range(0, chains, per_block):
        qubits = world.n * min(per_block, chains - start)
        post >>= qubits
        h = _sylvester(qubits)
        frame.append((1 << qubits, post, h if post > 1 else np.kron(h, np.eye(2))))
    world._layout_cache["frame"] = frame
    return frame


def to_frame(world: ChainWorld, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """H on every chain qubit of ``v``, an array of whole chain columns (a
    state, or a block of one, on any layout of ``world``), by the factors of
    :func:`_hadamard_frame`: into the frame, and back out of it.  The result
    is a new C-contiguous array of the shape of ``v``, or ``out`` when one
    is given (the last factor writes into it)."""
    frame = _hadamard_frame(world)
    shape = v.shape
    v = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64)
    for i, (d, post, h) in enumerate(frame):
        rows = (-1, d, 2 * post) if post > 1 else (-1, 2 * d)
        last = out is not None and i == len(frame) - 1
        dst = out.view(np.float64).reshape(rows) if last else None
        if post > 1:
            v = np.matmul(h, v.reshape(rows), out=dst)
        else:
            v = np.matmul(v.reshape(rows), h, out=dst)
    return v.reshape(-1).view(np.complex128).reshape(shape)


class FrameDiagonal(LinearMap):
    """A diagonal ``table`` in the Hadamard frame of the chain registers.

    ``apply`` changes into the frame (:func:`to_frame`), multiplies by the
    table (broadcast over the registers it does not read) and changes back,
    block by block (:func:`qromlab.qsim.blocks`, the chain registers kept
    whole), the last factor writing into the one output state.  Each block
    gets the unblocked kernel's bits while the trailing factor's gemm keeps
    more than two rows, as a block of ``BLOCK_AMPS`` amplitudes does.  Every
    map of one world shares the frame (:func:`_hadamard_frame`, built on
    first use), so a caller applying several of them to one state changes it
    into the frame once and changes back each product; a map that is only
    read through its ``table`` builds no frame.  A 0/1 table is an
    orthogonal projector.  ``term_count`` is the table's support size, one
    rank-one frame term per nonzero entry, and ``is_zero`` means it is 0.
    The chain registers must trail ``layout`` (ValueError otherwise).
    """

    def __init__(self, world: ChainWorld, layout: RegisterLayout, table: np.ndarray, label: str):
        world.chain_dim(layout)
        table = np.asarray(table, dtype=np.float64)
        chains = range(len(layout.names) - len(world.chain_registers()), len(layout.names))

        # The apply closes over locals, not over self, so a dropped map is
        # freed by reference count rather than only by the cycle collector.
        def apply(v: np.ndarray) -> np.ndarray:
            v = np.ascontiguousarray(v).reshape(layout.dims)

            # Nested calls hold no block in a local, so each frame factor
            # frees the array the one before made.
            def times_table(hv, block):
                return np.multiply(hv, qsim.block_of(table, block), out=hv)

            spans = qsim.blocks(layout.dims, chains)
            if len(spans) == 1:  # one block: its last factor makes the output
                return to_frame(world, times_table(to_frame(world, v), ())).reshape(-1)
            out = np.empty_like(v)
            for block in spans:
                to_frame(world, times_table(to_frame(world, v[block]), block), out[block])
            return out.reshape(-1)

        self.layout = layout
        self.table = table
        self.term_count = int(np.count_nonzero(table))
        self.is_zero = self.term_count == 0
        super().__init__(layout.dim, apply, label=label)


def frame_product_norm(a: FrameDiagonal, b: FrameDiagonal) -> float:
    """Exact operator norm of AB for two maps diagonal in the same frame: the
    largest entry of the product of their tables (0.0 when the supports are
    disjoint)."""
    if a.layout != b.layout:
        raise ValueError("frame diagonals live on different layouts")
    return float(np.max(np.abs(a.table * b.table)))


class QProjector(FrameDiagonal):
    """One outcome of the first-uniform-register measurement.

    The table holds the factors on quantum chain registers.  Factors that
    formally sit on a pinned endpoint contribute the exact scalar ``weight``
    to outcome probabilities instead (uniform-overlap 2^-n for a uniform
    factor, 1 - 2^-n for a complement factor).
    """

    def __init__(self, world, layout, outcome: int, table: np.ndarray, weight: float):
        self.outcome = outcome
        self.weight = weight
        super().__init__(world, layout, table, f"Q[{outcome}]")


def _q_tables(world: ChainWorld, m_star: int, layout: RegisterLayout, shape):
    """(table, endpoint weight) per outcome i = 1..l+1: the i-th revealed
    position is still uniform and the earlier ones are not; outcome l+1 says
    none is."""
    revealed = world.revealed(m_star)
    uniform = 2.0 ** -world.n
    out = []
    for i_star in range(1, world.l_sem + 2):
        table = np.ones(shape, dtype=bool)
        weight = 1.0
        for k, (c, j) in enumerate(revealed[: min(i_star, world.l_sem)]):
            fires = k == i_star - 1
            if j <= world.w - 2:
                zero = layout.values(world.chain_register(c, j)) == 0
                table &= zero if fires else ~zero
            else:
                weight *= uniform if fires else 1.0 - uniform
        out.append((table, weight))
    return out


def build_q_projectors(
    world: ChainWorld, m_star: int, layout: RegisterLayout | None = None
) -> list[QProjector]:
    """The l+1 outcome projectors for forgery message ``m_star``: outcome i
    locates the first revealed position still uniform, outcome l+1 says none
    is."""
    layout = layout or world.chain_layout()
    tables = _q_tables(world, m_star, layout, _table_shape(world, layout))
    return [
        QProjector(world, layout, i, table, weight)
        for i, (table, weight) in enumerate(tables, start=1)
    ]


def invariant_projector_from_thresholds(
    world: ChainWorld, thresholds, layout: RegisterLayout | None = None
) -> FrameDiagonal:
    """Projector onto chain configurations untouched below at least one
    threshold vector: the union over vectors t of the event "every register
    (c, j) with j < t_c is still uniform", an OR of hatted-zero conditions in
    the Hadamard frame."""
    layout = layout or world.chain_layout()
    shape = _table_shape(world, layout)
    table = np.zeros(shape, dtype=bool)
    for t in sorted(set(tuple(t) for t in thresholds)):
        term = np.ones(shape, dtype=bool)
        for c, tc in enumerate(t):
            for j in range(min(tc, world.w - 1)):
                term &= layout.values(world.chain_register(c, j)) == 0
        table |= term
    return FrameDiagonal(world, layout, table, "P")


def build_invariant_projector(
    world: ChainWorld, layout: RegisterLayout | None = None
) -> FrameDiagonal:
    """Projector onto chain states consistent with at most one unblinded
    message having been signed.  The zero map when everything is blinded."""
    if world.blinding is None:
        raise ValueError("world has no blinding set")
    thresholds = [world.thresholds(m) for m in world.unblinded()]
    return invariant_projector_from_thresholds(world, thresholds, layout)


def build_qtilde(
    world: ChainWorld, layout: RegisterLayout | None = None
) -> list[FrameDiagonal]:
    """Message-controlled outcome maps: on each basis message m, apply that
    message's outcome projector.

    Components whose projector has endpoint factors are scaled by the square
    root of the endpoint weight, which makes norms of the returned maps equal
    to the norms the full operators (with endpoint registers materialized)
    would produce.  They are therefore norm-faithful but not idempotent on
    worlds where a message digit points at the chain end.
    """
    layout = layout or world.game_layout(include_xy=False)
    chain_shape = _table_shape(world, layout)
    shape = _table_shape(world, layout, ("m",))
    m = layout.values("m")
    per_message = [(msg, _q_tables(world, msg, layout, chain_shape)) for msg in world.messages()]
    maps = []
    for i in range(world.l_sem + 1):
        table = np.zeros(shape)
        for msg, tables in per_message:
            q_table, weight = tables[i]
            table += np.where(m == msg, np.sqrt(weight) * q_table, 0.0)
        maps.append(FrameDiagonal(world, layout, table, f"Qtilde[{i + 1}]"))
    return maps


# ---------------------------------------------------------------------------
# Descriptors


def world_descriptor(world: ChainWorld) -> dict:
    doc = {
        "scheme": world.scheme,
        "n": world.n,
        "w": world.w,
        "chains": world.chain_count,
        "l": world.l_sem,
        "seed": world.seed,
        "p": list(world.p),
    }
    if world.message_bits is not None:
        doc["message_bits"] = world.message_bits
    if world.blinding is not None:
        doc["epsilon"] = world.blinding.epsilon
        doc["blinding_set"] = list(world.blinding.sorted_members())
    return doc

