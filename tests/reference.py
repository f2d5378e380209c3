"""Independent references for the tests: code no CLI path runs, kept to
cross-check the fast paths of the package.

* Operator algebra, a random-probe zero-map test and the iterative Lanczos
  norm solver, against the exact block norms of ``qsim.operator_norm``.
  They work on ``qsim.LinearMap`` objects through their apply contract only,
  independent of the compiled XOR tables and frame tables; a map that is
  not self-adjoint carries its adjoint as an :class:`Adjointed` map.
* Blinding sets given by their members: none, all, or an explicit set.
* The Hadamard frame of the chain registers as one dense Sylvester matrix,
  and as complex Sylvester gates lifted by ``qsim.embed``, against the real
  factored frame change ``qworlds.to_frame``.
* The uniform projector as successive broadcast means, against the reduced
  means of ``qsim.uniform_projector_apply``.
* The unblocked full-state kernels, against the blocked ones
  (``qsim.blocks``): the transpose-gemm ``embed`` on the whole state, the
  XOR map as one gather index ``v[arange ^ delta]``, the frame apply
  ``to_frame(in_frame(to_frame(v)))`` and the per-outcome probability
  tensors on numpy's full sum.
* Register fields, basis indices, the normalized-state wrapper and the
  register-by-register (kron) product state, against the repeated chain
  column of ``ChainWorld.initial_head``; a structured XOR map and register
  measurement.
* The full-state program loop, against the product start of
  ``game.evolve_program``.
* The sampling game engine: measure the evolved state register by register
  and run the scheme verifier against the reprogrammed oracle, against the
  exact outcome tensors and acceptance table of ``game.analyze_game``.
* The oracle memo, a chain tuple as one key, and chain samplers, against
  the closed-form chain distributions of ``rom``.
* The classical search attack world by world: its hits and first-hit
  probabilities over the oracle's full table, its adversary scanning every
  query, and subset enumeration of its verdicts, against the block arrays
  and the first-hit adversary of ``attacks``.
* A world descriptor as the JSON text the ``qgame`` report embeds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from qromlab import attacks, game, ots, qsim, qworlds, rom
from qromlab.qsim import LinearMap, RegisterLayout
from qromlab.qworlds import BlindingSet, ChainWorld, build_q_projectors


def blinding(nbits: int, members, epsilon: float = float("nan")) -> BlindingSet:
    return BlindingSet(nbits=nbits, epsilon=epsilon, members=frozenset(members))


def none_blinded(nbits: int) -> BlindingSet:
    return blinding(nbits, (), 0.0)


def all_blinded(nbits: int) -> BlindingSet:
    return blinding(nbits, range(1 << nbits), 1.0)


class Adjointed(LinearMap):
    """A map that carries its adjoint apply as ``adjoint``; the package's
    maps apply only."""

    def __init__(self, dim: int, apply, adjoint, label: str = ""):
        super().__init__(dim, apply, label=label)
        self.adjoint = adjoint


def adjoint_apply(a: LinearMap, v: np.ndarray) -> np.ndarray:
    """A^dag v: the adjoint an :class:`Adjointed` map carries, and otherwise
    the map's own apply.  Every other map the tests pass the algebra below
    is self-adjoint: U_h, BSign, P, Phi, Qtilde and Q, the identity and zero
    maps, the equality projector, the XOR register map and real diagonals."""
    return a.adjoint(v) if isinstance(a, Adjointed) else a.apply(v)


def embed_with_adjoint(op, targets: Sequence[str], layout: RegisterLayout) -> Adjointed:
    """``qsim.embed`` of ``op``, carrying ``qsim.embed`` of its conjugate
    transpose as its adjoint."""
    a, a_h = (qsim.embed(m, targets, layout) for m in (op, np.conj(op).T))
    return Adjointed(a.dim, a.apply, a_h.apply, label=a.label)


def identity_map(dim: int) -> LinearMap:
    return LinearMap(dim, lambda v: v.copy(), label="1")


def zero_map(dim: int) -> LinearMap:
    return LinearMap(dim, lambda v: np.zeros_like(v), label="0")


def is_zero_map(a: LinearMap, probes: int = 32, seed: int = 0, threshold: float = 1e-10) -> bool:
    return qsim.probe_max_ratio(a, probes=probes, seed=seed) < threshold


def compose(*maps: LinearMap) -> Adjointed:
    """Product of maps; the rightmost factor is applied first.  A factor's
    adjoint is read by :func:`adjoint_apply`: its own apply unless it is
    :class:`Adjointed`."""
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
            v = adjoint_apply(m, v)
        return v

    return Adjointed(dim, ap, adj, label="·".join(m.label or "?" for m in maps))


def commutator(a: LinearMap, b: LinearMap) -> Adjointed:
    """[A, B] = AB - BA.  A factor's adjoint is read by
    :func:`adjoint_apply`: its own apply unless it is :class:`Adjointed`."""
    if a.dim != b.dim:
        raise ValueError("commutator needs maps of equal dimension")

    def ap(v):
        return a.apply(b.apply(v)) - b.apply(a.apply(v))

    def adj(v):
        # (AB - BA)^dag = B^dag A^dag - A^dag B^dag
        return adjoint_apply(b, adjoint_apply(a, v)) - adjoint_apply(a, adjoint_apply(b, v))

    return Adjointed(a.dim, ap, adj, label=f"[{a.label},{b.label}]")


def equality_projector_map(layout: RegisterLayout, reg_a: str, reg_b: str) -> LinearMap:
    """Projector onto basis states whose two registers hold equal values."""
    if layout.width(reg_a) != layout.width(reg_b):
        raise ValueError("equality projector needs registers of equal width")
    mask = field(layout, reg_a) == field(layout, reg_b)
    return LinearMap(layout.dim, lambda v: np.where(mask, v, 0.0), label=f"P=({reg_a},{reg_b})")


def embed_moveaxis(op, targets: Sequence[str], layout: RegisterLayout) -> LinearMap:
    """``qsim.embed`` unblocked: move the target axes of the whole state to
    the front, one gemm on a contiguous copy, move them back."""
    matrix = np.asarray(op, dtype=np.complex128)
    axes = [layout.axis(t) for t in targets]
    local_dims = tuple(1 << layout.width(t) for t in targets)
    k = len(axes)

    def run(v):
        t = np.moveaxis(v.reshape(layout.dims), axes, range(k))
        rest = t.shape[k:]
        t = matrix @ np.ascontiguousarray(t).reshape(matrix.shape[0], -1)
        t = np.moveaxis(t.reshape(local_dims + rest), range(k), axes)
        return np.ascontiguousarray(t).reshape(-1)

    return LinearMap(layout.dim, run)


def xor_index(u: qworlds.Permutation) -> np.ndarray:
    """``qworlds.Permutation`` unblocked: the gather index ``arange ^ delta``
    over the whole flat index, so ``v[xor_index(u)]`` is ``u`` applied to
    ``v``."""
    index = np.arange(u.layout.dim, dtype=np.int64).reshape(u.layout.dims)
    return (index ^ u.delta).reshape(-1)


def embed_dense(op, targets: Sequence[str], layout: RegisterLayout) -> np.ndarray:
    """The full matrix of ``op`` on ``targets``: kron(op, 1) over the
    registers reordered targets-first, conjugated back into layout order."""
    order = [layout.axis(t) for t in targets]
    order += [a for a in range(len(layout.names)) if a not in order]
    rest = layout.dim // np.shape(op)[0]
    reordered = np.arange(layout.dim).reshape(layout.dims).transpose(order).reshape(-1)
    to_order = np.eye(layout.dim)[reordered]
    return to_order.T @ np.kron(op, np.eye(rest)) @ to_order


def chain_frame(world: ChainWorld, layout: RegisterLayout, v: np.ndarray) -> np.ndarray:
    """H on every chain qubit as one dense Sylvester matrix, the ``np.kron``
    product of one 2 x 2 Hadamard per chain qubit, applied to the trailing
    chain registers of ``layout``."""
    chains = world.chain_registers()
    assert layout.names[len(layout.names) - len(chains):] == chains
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    sylvester = np.ones((1, 1))
    for _ in range(sum(layout.width(name) for name in chains)):
        sylvester = np.kron(sylvester, h)
    return (v.reshape(-1, sylvester.shape[0]) @ sylvester.T).reshape(-1)


def embed_frame(world: ChainWorld, layout: RegisterLayout, v: np.ndarray) -> np.ndarray:
    """H on every chain qubit as complex Sylvester gates over blocks of whole
    chain registers of at most ``qworlds.FRAME_BLOCK_QUBITS`` qubits, each
    lifted onto ``layout`` by ``qsim.embed``."""
    blocks: list[list[str]] = [[]]
    width = 0
    for name in world.chain_registers():
        if blocks[-1] and width + layout.width(name) > qworlds.FRAME_BLOCK_QUBITS:
            blocks.append([])
            width = 0
        blocks[-1].append(name)
        width += layout.width(name)
    for block in blocks:
        h = qworlds._sylvester(sum(layout.width(name) for name in block))
        v = qsim.embed(h, block, layout).apply(v)
    return v


def frame_change(world: ChainWorld, v: np.ndarray) -> np.ndarray:
    """``qworlds.to_frame`` unblocked: each real Sylvester factor of
    ``qworlds._hadamard_frame`` applied to the whole state's float64 view."""
    v = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64)
    for d, post, h in qworlds._hadamard_frame(world):
        if post > 1:
            v = np.matmul(h, v.reshape(-1, d, 2 * post))
        else:
            v = v.reshape(-1, 2 * d) @ h
    return v.reshape(-1).view(np.complex128)


def in_frame(fd: qworlds.FrameDiagonal, hv: np.ndarray) -> np.ndarray:
    """The table of ``fd`` times a whole state given in the frame."""
    return (hv.reshape(fd.layout.dims) * fd.table).reshape(-1)


def frame_apply(world: ChainWorld, fd: qworlds.FrameDiagonal, v: np.ndarray) -> np.ndarray:
    """``fd.apply`` unblocked: ``to_frame(in_frame(to_frame(v)))`` on the
    whole state."""
    return frame_change(world, in_frame(fd, frame_change(world, v)))


def probability_tensor(amps: np.ndarray, world: ChainWorld) -> np.ndarray:
    """The plain tensor of ``game.probability_tensor`` as numpy's full sum
    over axes x y and b e of the state read as (x y, m, sigma, b e, chains)."""
    dims = (
        -1,
        1 << world.message_bits,
        1 << (world.n * world.l_sem),
        1 << (1 + world.workspace_qubits),
        1 << (world.n * len(world.chain_registers())),
    )
    return (np.abs(amps.reshape(dims)) ** 2).sum(axis=(0, 3))


def outcome_tensors(world: ChainWorld, final: np.ndarray, qtilde) -> list[np.ndarray]:
    """The outcome tensors of ``game.probability_tensor`` as a loop over
    whole states: the final state changed into the frame once, then per map
    the table product changed back and summed by :func:`probability_tensor`."""
    h_final = frame_change(world, final)
    return [probability_tensor(frame_change(world, in_frame(q, h_final)), world) for q in qtilde]


def uniform_projector_broadcast(amps: np.ndarray, layout: RegisterLayout, regs) -> np.ndarray:
    """The uniform projector on each register of ``regs``, every mean taken
    over the full broadcast output of the previous one."""
    out = amps.reshape(layout.dims)
    for name in regs:
        k = layout.axis(name)
        out = np.broadcast_to(out.mean(axis=k, keepdims=True), out.shape)
    return np.ascontiguousarray(out).reshape(-1)


def initial_state(world: ChainWorld, layout: RegisterLayout) -> np.ndarray:
    """The game's full initial state: the ``ChainWorld.initial_head`` column
    repeated over the chain index."""
    _, column = world.initial_head(layout)
    return np.repeat(column, layout.dim // column.size)


def evolve_program_full(
    program: game.AdversaryProgram, world: ChainWorld
) -> tuple[game.EvolvedStates, np.ndarray | None]:
    """Every step of ``program`` on the full state, from :func:`initial_state`:
    the evolved states and the state just before the signing query (None
    when the program makes none)."""
    needs_xy = any(isinstance(s, game.HashQuery) for s in program.steps)
    layout = world.game_layout(include_xy=needs_xy)
    state = initial_state(world, layout)
    u_h = qworlds.build_query_unitary(world, layout) if needs_xy else None
    bsign = qworlds.build_blinded_sign_unitary(world, layout)
    pre_sign = None
    for step in program.steps:
        if isinstance(step, game.ApplyUnitary):
            state = qsim.embed(step.matrix, step.registers, layout).apply(state)
        elif isinstance(step, game.HashQuery):
            state = u_h.apply(state)
        else:
            pre_sign = state
            state = bsign.apply(state)
    return game.EvolvedStates(layout=layout, final=state), pre_sign


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
        w = adjoint_apply(a, a.apply(v))
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


# ---------------------------------------------------------------------------
# Register fields, basis indices, states, a structured XOR map, measurement


def field(layout: RegisterLayout, name: str) -> np.ndarray:
    """Register value of every basis index, as an int64 array."""
    return (np.arange(layout.dim, dtype=np.int64) >> layout.shift(name)) & (
        (1 << layout.width(name)) - 1
    )


@dataclass
class StateVector:
    layout: RegisterLayout
    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.layout.dim,):
            raise ValueError("amplitude length does not match layout dimension")
        if self.normalized:
            nrm = np.linalg.norm(self.amplitudes)
            if abs(nrm - 1.0) > 1e-9:
                raise ValueError(f"state norm {nrm} is not 1 within 1e-9")


def uniform_state(
    layout: RegisterLayout,
    uniform_registers: Iterable[str],
    basis_assignment: Mapping[str, int] | None = None,
) -> StateVector:
    """Tensor product of uniform superpositions and computational basis
    states, one ``np.kron`` per register.

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


def basis_index(layout: RegisterLayout, assignment: Mapping[str, int]) -> int:
    """Flat amplitude index of the basis state that assigns every register."""
    missing = set(layout.names) - set(assignment)
    if missing:
        raise ValueError(f"unassigned registers: {sorted(missing)}")
    out = 0
    for name, value in assignment.items():
        if not 0 <= value < (1 << layout.width(name)):
            raise ValueError(f"value {value} out of range for register {name!r}")
        out |= value << layout.shift(name)
    return out


def basis_state(layout: RegisterLayout, assignment: Mapping[str, int]) -> StateVector:
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[basis_index(layout, assignment)] = 1.0
    return StateVector(layout, amps)


def xor_register_map(layout: RegisterLayout, src: str, dst: str) -> LinearMap:
    """CNOT^(x)n with ``src`` as controls and ``dst`` as targets: dst ^= src."""
    if layout.width(src) != layout.width(dst):
        raise ValueError("xor needs registers of equal width")
    perm = np.arange(layout.dim) ^ (field(layout, src) << layout.shift(dst))
    return LinearMap(layout.dim, lambda v: v[perm], label=f"xor({src}->{dst})")


def register_distribution(state: StateVector, register: str) -> np.ndarray:
    """Marginal computational-basis distribution of one register."""
    layout = state.layout
    k = layout.axis(register)
    t = np.abs(state.amplitudes.reshape(layout.dims)) ** 2
    return t.sum(axis=tuple(i for i in range(len(layout.dims)) if i != k))


def measure(register: str, state: StateVector, rng: np.random.Generator):
    """Sample a computational-basis measurement of one register and collapse:
    (outcome, post-measurement state)."""
    layout = state.layout
    probs = register_distribution(state, register)
    total = probs.sum()
    if total <= 0:
        raise ValueError("cannot measure a zero-norm state")
    outcome = int(rng.choice(len(probs), p=probs / total))
    t = state.amplitudes.reshape(layout.dims)
    amps = np.where(layout.values(register) == outcome, t, 0.0).reshape(-1)
    nrm = np.linalg.norm(amps)
    if nrm == 0:
        raise ValueError("collapsed onto a zero-norm branch")
    return outcome, StateVector(layout, amps / nrm)


# ---------------------------------------------------------------------------
# The sampling game engine


def verify(world: ChainWorld, m: int, sigma: Sequence[int], assignment: Mapping[str, int]) -> bool:
    """The scheme verifier against the oracle reprogrammed on sampled chains."""
    return ots.verify(world.params, world.p, m, sigma, world.overlay_oracle(assignment))


def sample_run(states: game.EvolvedStates, world: ChainWorld, mode: str, rng):
    """One measurement cascade on the evolved state: message, signature
    blocks, (in modified mode) the outcome projectors, then every chain
    register.  Returns (m_star, sigma, outcome index, assignment, win)."""
    layout = states.layout
    sv = StateVector(layout, states.final / np.linalg.norm(states.final))
    m_star, sv = measure("m", sv, rng)
    sigma = []
    for name in world.sigma_registers():
        v, sv = measure(name, sv, rng)
        sigma.append(v)
    q_outcome = None
    if mode == "modified":
        projectors = build_q_projectors(world, m_star, layout)
        branches = [q.apply(sv.amplitudes) for q in projectors]
        weights = [q.weight * float(np.real(np.vdot(b, b))) for q, b in zip(projectors, branches)]
        weights = np.array(weights)
        k = game.sample_index(weights / weights.sum(), rng.random())
        q_outcome = k + 1
        sv = StateVector(layout, branches[k] / np.linalg.norm(branches[k]))
    assignment = {}
    for name in world.chain_registers():
        v, sv = measure(name, sv, rng)
        assignment[name] = v
    win = m_star in world.blinding and verify(world, m_star, sigma, assignment)
    return m_star, sigma, q_outcome, assignment, win


def estimate_success_sampling(
    program: game.AdversaryProgram, world: ChainWorld, mode: str, trials: int, seed: int
) -> tuple[float, float]:
    """Wilson interval (z = 3) of the winning rate over ``trials`` sampled runs."""
    states = game.evolve_program(program, world)
    rng = np.random.default_rng(rom.derive_seed(seed, "game-mc"))
    wins = sum(sample_run(states, world, mode, rng)[4] for _ in range(trials))
    return game.wilson_interval(wins, trials)


# ---------------------------------------------------------------------------
# The oracle memo, chain keys and chain samplers


def known(oracle: rom.RandomOracleTable) -> dict[int, int]:
    """The oracle's memo: every input answered so far and its image."""
    return dict(oracle._table)


def flat(chains: rom.ChainTuple) -> tuple[int, ...]:
    """The chain entries row by row, as one hashable key."""
    return tuple(v for row in chains.gamma for v in row)


def _uniform(n: int, rng: np.random.Generator) -> int:
    return int(rng.integers(0, 1 << n))


def sample_real_chains(n: int, l: int, w: int, oracle, rng: np.random.Generator) -> rom.ChainTuple:
    """Chains grown by iterating the oracle on fresh uniform start values."""
    rows = []
    for _ in range(l):
        row = [_uniform(n, rng)]
        for _ in range(w - 1):
            row.append(oracle(row[-1]))
        rows.append(tuple(row))
    return rom.ChainTuple(n=n, l=l, w=w, gamma=tuple(rows))


def sample_consistent_chains(n: int, l: int, w: int, rng: np.random.Generator) -> rom.ChainTuple:
    """Chains sampled position-major, uniformly except on collision ties.

    Whenever the current entry equals an already-extended entry elsewhere, the
    successor is copied instead of freshly sampled, so the tuple stays
    consistent with *some* function.  Equal in distribution to
    :func:`sample_real_chains` over a fresh lazy oracle.
    """
    f: dict[int, int] = {}
    grid = [[_uniform(n, rng)] for _ in range(l)]
    for j in range(1, w):
        for i in range(l):
            x = grid[i][j - 1]
            y = f.get(x)
            if y is None:
                y = f[x] = _uniform(n, rng)
            grid[i].append(y)
    return rom.ChainTuple(n=n, l=l, w=w, gamma=tuple(tuple(row) for row in grid))


def sample_independent_chains(n: int, l: int, w: int, rng: np.random.Generator) -> rom.ChainTuple:
    """All l*w entries i.i.d. uniform, collisions allowed."""
    flat = [_uniform(n, rng) for _ in range(l * w)]
    rows = tuple(tuple(flat[i * w : (i + 1) * w]) for i in range(l))
    return rom.ChainTuple(n=n, l=l, w=w, gamma=rows)


# ---------------------------------------------------------------------------
# The classical search attack, one world at a time


def hit_wins(l: int, oracle: rom.RandomOracleTable, pk, blinding) -> list[tuple[int, bool]]:
    """All oracle inputs mapping onto the public key, ascending, with the win
    verdict the forgery pipeline reaches if that input is the first hit."""
    verdict: dict[int, bool] = {}
    for idx, p in enumerate(pk):  # a string's first index is the one forged
        if p not in verdict:
            _, m, m_prime = attacks._forgery_messages(l, idx)
            verdict[p] = (m not in blinding) and (m_prime in blinding)
    return [(y, verdict[h]) for y, h in enumerate(oracle.full_table()) if h in verdict]


def first_hit_exact(weight, hits: list[tuple[int, bool]]) -> tuple[float, float]:
    """(win probability, hit probability) over a uniform random q-subset of
    inputs, summed hit by hit in input order.

    ``hits`` lists (input, wins-if-first) for every preimage of a public-key
    string, ascending; ``weight`` comes from ``attacks._first_hit_weights``.
    """
    p_win = 0.0
    p_hit = 0.0
    for rank, (_, wins) in enumerate(hits):
        p_first = weight(rank)
        p_hit += p_first
        if wins:
            p_win += p_first
    return p_win, p_hit


def scanning_adversary(queries):
    """The search adversary that queries all of ``queries`` (ascending) and
    then forges from the first hit."""

    def adversary(handles: game.ClassicalHandles):
        y_star = None
        pk_index = None
        for y in queries:  # scan hits in ascending order
            hy = handles.hash_query(y)
            if pk_index is None and hy in handles.pk:
                y_star, pk_index = y, handles.pk.index(hy)  # first matching string
        if pk_index is None:
            return None  # concede: no preimage found
        return attacks._forge(handles, y_star, pk_index)  # None when the sign query was blinded

    return adversary


def exact_win_by_subset_enumeration(n: int, l: int, q: int, world_seed: int) -> float:
    """Average the deterministic attack verdict over every possible query
    subset.  Only feasible at small n; cross-checks the first-hit
    combinatorics of ``attacks.classical_search_attack``."""
    oracle, keypair, blinding = next(
        game.ClassicalWorlds(ots.LamportParams(n=n, l=l), 0.5, [world_seed])
    )
    hits = dict(hit_wins(l, oracle, keypair.pk, blinding))
    space = 1 << n
    q = min(q, space)
    wins = 0
    total = 0
    for subset in itertools.combinations(range(space), q):
        total += 1
        first = next((y for y in subset if y in hits), None)
        if first is not None and hits[first]:
            wins += 1
    return wins / total if total else 0.0


# ---------------------------------------------------------------------------
# World descriptors


def world_descriptor_json(world: ChainWorld) -> str:
    return json.dumps(qworlds.world_descriptor(world), indent=2, sort_keys=True) + "\n"
