"""The blind-forgery experiment, classically and over chain worlds.

The classical harness runs a callback adversary against a lazily sampled
oracle and a blinded signing oracle that answers at most once.  The quantum
harness executes a fixed :class:`AdversaryProgram` over a
:class:`~qromlab.qworlds.ChainWorld` and evaluates the winning probability
exactly by enumerating the joint outcome space of message and signature
registers.  The run has a fixed shape: it starts from the world's initial
state (chain registers uniform, the rest |0>), applies the program's
unitaries and queries, and ends by measuring the message and then the
signature, so a program carries no measurement steps and every outcome
tensor reads the game layout's fixed axis order.  One pass over the final
state (:func:`probability_tensor`) gives the plain tensor and every outcome
tensor under the blocking rule of :func:`qromlab.qsim.blocks`: the state
splits over its leading registers into blocks of at most
``qsim.BLOCK_AMPS`` amplitudes, the chain registers whole, and each
block's weights add into the tensors in the order numpy's full reduction
adds them, so no state-sized temporary is made and the sums keep its
bits.  Every world that fits the statevector cap has at most 2^16
(message, signature) outcomes.  The analysis reads the blinded messages
from the blinding set's one bool mask over the message space
(:attr:`~qromlab.qworlds.BlindingSet.mask`).  This is the one quantum game
engine: every probability comes from the outcome tensors and the
acceptance table, and the one transcript a run reports is drawn from them.

Winning means: the forged message is blinded, and the scheme verifier accepts
the forged signature against the oracle reprogrammed on the chain values
sampled from the final state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import ots, qsim, rom
from .qworlds import (
    BlindingSet,
    ChainWorld,
    build_blinded_sign_unitary,
    build_query_unitary,
    build_qtilde,
    query_unitary_as_function,
    to_frame,
)


# ---------------------------------------------------------------------------
# Blinding


def _check_blinding(epsilon: float, message_space_bits: int) -> None:
    if message_space_bits > 20:
        raise ValueError("message space capped at 2^20 for explicit blinding sets")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be a probability")


def sample_blinding_set(
    epsilon: float, message_space_bits: int, rng: np.random.Generator
) -> BlindingSet:
    """Include every message independently with probability epsilon:
    message m when draw m of one ``rng.random(2^bits)`` falls below it.
    That comparison is the set's mask."""
    _check_blinding(epsilon, message_space_bits)
    return BlindingSet(epsilon, rng.random(1 << message_space_bits) < epsilon)


@dataclass(frozen=True)
class BlindedSignature:
    """Extra-bit encoding of the blinded signer's answer: zero payload with
    flag 1 when the message is blinded, the signature with flag 0 otherwise."""

    payload: tuple[int, ...]
    flag: int

    @property
    def blinded(self) -> bool:
        return self.flag == 1


def blinded_sign(
    blinding: BlindingSet, keypair: ots.KeyPair, m: int, oracle: rom.Oracle
) -> BlindedSignature:
    params = keypair.params
    if m in blinding:
        return BlindedSignature(payload=(0,) * params.l, flag=1)
    return BlindedSignature(payload=ots.sign(params, keypair.sk, m, oracle).sigma, flag=0)


# ---------------------------------------------------------------------------
# Classical harness


class SecondSignQuery(Exception):
    pass


class ClassicalHandles:
    """Oracle handles passed to a classical adversary callback."""

    def __init__(self, keypair: ots.KeyPair, blinding: BlindingSet, oracle: rom.Oracle):
        self.params = keypair.params
        self.pk = keypair.pk
        self._keypair = keypair
        self._blinding = blinding
        self._oracle = oracle
        self.hash_queries = 0
        self.sign_queries = 0

    def hash_query(self, x: int) -> int:
        self.hash_queries += 1
        return self._oracle(x)

    def sign_query(self, m: int) -> BlindedSignature:
        if self.sign_queries >= 1:
            raise SecondSignQuery
        self.sign_queries += 1
        return blinded_sign(self._blinding, self._keypair, m, self._oracle)


@dataclass
class GameTranscript:
    scheme: str
    seed: int
    epsilon: float
    blinding: tuple[int, ...]
    m_star: int | None = None
    sigma_star: tuple[int, ...] | None = None
    verdict: str = "lose"
    aborted: bool = False
    q_outcome: int | None = None
    p_success: float | None = None
    mode: str = "classical"
    hash_queries: int = 0
    sign_queries: int = 0
    step_probs: tuple[tuple[str, float], ...] = ()

    def to_json(self) -> str:
        doc = {
            "scheme": self.scheme,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "B": list(self.blinding),
            "mode": self.mode,
            "m_star": self.m_star,
            "sigma_star": list(self.sigma_star) if self.sigma_star is not None else None,
            "verdict": self.verdict,
            "aborted": self.aborted,
            "q_outcome": self.q_outcome,
            "p_success": self.p_success,
            "hash_queries": self.hash_queries,
            "sign_queries": self.sign_queries,
            "steps": [[name, prob] for name, prob in self.step_probs],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


Adversary = Callable[[ClassicalHandles], tuple[int, Sequence[int]]]


def run_classical_game(
    adversary: Adversary, params, epsilon: float, seed: int
) -> GameTranscript:
    """One blind-forgery run: keygen, blinding-set sampling, adversary, verdict.

    The scheme is the one ``params`` names.  A second signing query
    aborts the run with a losing transcript; an adversary may concede by
    returning None instead of a forgery.
    """
    oracle, keypair, blinding = next(ClassicalWorlds(params, epsilon, [seed]))
    return run_with_world_classical(adversary, oracle, keypair, blinding, seed)


class ClassicalWorlds:
    """(oracle, keypair, blinding) of one run at each of ``seeds``, in order:
    the lazily sampled oracle, a key pair for the scheme of ``params``, and a
    blinding set that holds each message with probability ``epsilon``.

    The sub-seeds of all the seeds are hashed, and their key and blinding
    draws taken as PCG64 words (:func:`rom.pcg64_words`), in one batch: the
    same draws as ``ots.keygen`` and :func:`sample_blinding_set` make from
    ``default_rng`` at those sub-seeds.  ``sk`` holds every run's secret
    chain starts and ``blinded`` its blinding mask, one row per seed; each
    world is built from its rows when the iterator reaches it.  ``images``,
    a uint64 array of one row of 2^n per seed, receives every oracle's whole
    table in one pass (:func:`rom.oracle_images`), and each oracle then
    starts with its memo full, so no query of the run hashes.
    """

    def __init__(self, params, epsilon: float, seeds: Sequence[int], images=None):
        _check_blinding(epsilon, params.message_bits)
        sub_seeds = rom.derive_seeds(seeds, ("oracle", "keygen", "blinding"))
        oracle_seeds = sub_seeds[:, 0].tolist()
        if images is not None:
            images[...] = rom.oracle_images(params.n, oracle_seeds)
        self.sk = rom.pcg64_integers(sub_seeds[:, 1], params.chains, params.n).astype(np.int64)
        self.blinded = rom.pcg64_random(sub_seeds[:, 2], 1 << params.message_bits) < epsilon
        # The generator holds the rows, not ``self``: no cycle keeps a block alive.
        self._worlds = _build_worlds(params, epsilon, oracle_seeds, images, self.sk, self.blinded)

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._worlds)


def _build_worlds(params, epsilon, oracle_seeds, images, sk, blinded):
    for k, (oracle_seed, starts) in enumerate(zip(oracle_seeds, sk.tolist())):
        oracle = rom.RandomOracleTable(params.n, seed=oracle_seed)
        if images is not None:  # the memo the oracle's own queries would fill
            oracle._table.update(enumerate(images[k].tolist()))
        yield oracle, ots.keypair(params, oracle, starts), BlindingSet(epsilon, blinded[k])


def run_with_world_classical(
    adversary: Adversary, oracle, keypair: ots.KeyPair, blinding: BlindingSet, seed: int
) -> GameTranscript:
    """The blind-forgery run against pre-built world pieces, so an exact
    reference computation can share the identical keys, oracle, and blinding."""
    handles = ClassicalHandles(keypair, blinding, oracle)
    transcript = GameTranscript(
        scheme=keypair.scheme, seed=seed, epsilon=blinding.epsilon, blinding=blinding.sorted_members()
    )
    try:
        forgery = adversary(handles)
    except SecondSignQuery:
        transcript.aborted = True
        transcript.verdict = "abort"
        forgery = None
    transcript.hash_queries = handles.hash_queries
    transcript.sign_queries = handles.sign_queries
    if forgery is None:  # an abort, or the adversary conceded instead of guessing
        return transcript
    m_star, sigma_star = forgery
    transcript.m_star = int(m_star)
    transcript.sigma_star = tuple(int(s) for s in sigma_star)
    ok = ots.verify(keypair.params, keypair.pk, transcript.m_star, transcript.sigma_star, oracle)
    transcript.verdict = "win" if (ok and transcript.m_star in blinding) else "lose"
    return transcript


# ---------------------------------------------------------------------------
# Adversary programs


@dataclass(frozen=True, eq=False)
class ApplyUnitary:
    registers: tuple[str, ...]
    matrix: np.ndarray


@dataclass(frozen=True)
class HashQuery:
    pass


@dataclass(frozen=True)
class SignQuery:
    pass


@dataclass(frozen=True, eq=False)
class AdversaryProgram:
    """Unitaries, hash queries and at most one signing query, in order.  A
    run ends by measuring the message and then the signature; ``q0`` and
    ``q1`` count the hash queries before and after the signing query."""

    steps: tuple
    q0: int = field(init=False)
    q1: int = field(init=False)

    def __post_init__(self):
        counts = [0]
        for s in self.steps:
            if isinstance(s, SignQuery):
                counts.append(0)
            elif isinstance(s, HashQuery):
                counts[-1] += 1
        if len(counts) > 2:
            raise ValueError("at most one signing query per program")
        object.__setattr__(self, "q0", counts[0])
        object.__setattr__(self, "q1", counts[1] if len(counts) == 2 else 0)


def random_local_unitary(
    layout: qsim.RegisterLayout, candidates: Sequence[str], rng: np.random.Generator
) -> ApplyUnitary:
    """A Haar unitary on up to three of ``candidates``, 6 qubits at most."""
    names = list(candidates)
    rng.shuffle(names)
    chosen: list[str] = []
    width = 0
    for name in names:
        w = layout.width(name)
        if width + w <= 6 and len(chosen) < 3:
            chosen.append(name)
            width += w
        if len(chosen) == 3:
            break
    if not chosen:
        raise ValueError("no registers available for a local unitary")
    return ApplyUnitary(tuple(chosen), qsim.haar_unitary(1 << width, rng))


def random_program(world: ChainWorld, q0: int, q1: int, seed: int) -> AdversaryProgram:
    """Random adversary: local Haar unitaries interleaved with q0 hash queries,
    one signing query, q1 more hash queries and a last unitary.  The
    unitaries act on x and y only when the program makes hash queries."""
    layout = world.game_layout(include_xy=q0 + q1 > 0)
    chain_regs = set(world.chain_registers())
    candidates = [name for name in layout.names if name not in chain_regs]
    rng = np.random.default_rng(rom.derive_seed(seed, "program"))
    steps: list = [random_local_unitary(layout, candidates, rng)]
    for _ in range(q0):
        steps.append(HashQuery())
        steps.append(random_local_unitary(layout, candidates, rng))
    steps.append(SignQuery())
    for _ in range(q1):
        steps.append(random_local_unitary(layout, candidates, rng))
        steps.append(HashQuery())
    steps.append(random_local_unitary(layout, candidates, rng))
    return AdversaryProgram(tuple(steps))


# ---------------------------------------------------------------------------
# Quantum execution


@dataclass
class EvolvedStates:
    layout: qsim.RegisterLayout
    final: np.ndarray


def evolve_program(
    program: AdversaryProgram,
    world: ChainWorld,
    at_sign: Callable[[np.ndarray, qsim.RegisterLayout], None] | None = None,
) -> EvolvedStates:
    """Run all unitary steps on one live state and return it as the final
    state.  The layout carries x and y exactly when the program makes hash
    queries.  ``at_sign(state, layout)``, when given, observes the live,
    full-size state just before the signing query applies; it must neither
    change that state nor keep it.

    Every step applies in place (:meth:`qsim.LinearMap.apply_in_place`): a
    gate and the query and signing maps run block by block and write each
    block back into the block they read, so a run holds one state and a few
    blocks at a time.

    The run starts as a product: until the first query, signing query or
    unitary on a chain register, the chains are still the untouched uniform
    factor, so the unitaries run on the registers before them alone, one
    chain column of dimension dim/G (:meth:`ChainWorld.initial_head`).  That
    column is repeated over the chain index only at that step, or at the end
    of a program that never reaches one; the column carries the chain
    amplitude, so every amplitude gets the bits the full-state run gives it.
    """
    needs_xy = any(isinstance(s, HashQuery) for s in program.steps)
    layout = world.game_layout(include_xy=needs_xy)
    head, state = world.initial_head(layout)
    u_h = build_query_unitary(world, layout) if needs_xy else None
    bsign = build_blinded_sign_unitary(world, layout)

    def repeated(column: np.ndarray) -> np.ndarray:
        # np.repeat(column, G)'s order, into a new state
        full = qsim.new_state(layout.dim)
        full.reshape(head.dim, -1)[...] = column[:, None]
        return full

    for step in program.steps:
        if state.size < layout.dim:  # still the one chain column
            if isinstance(step, ApplyUnitary) and set(step.registers) <= set(head.names):
                qsim.embed(step.matrix, step.registers, head).apply_in_place(state)
                continue
            state = repeated(state)
        if isinstance(step, ApplyUnitary):
            qsim.embed(step.matrix, step.registers, layout).apply_in_place(state)
        elif isinstance(step, HashQuery):
            u_h.apply_in_place(state)
        elif isinstance(step, SignQuery):
            if at_sign is not None:
                at_sign(state, layout)
            bsign.apply_in_place(state)
        else:
            raise TypeError(f"unknown step {step!r}")
    if state.size < layout.dim:
        state = repeated(state)
    return EvolvedStates(layout=layout, final=state)


def _outcome_view(amps: np.ndarray, world: ChainWorld) -> np.ndarray:
    """A game state as (x y, m, sigma, b e, chains): a game layout is [x, y,]
    m, the signature blocks, b, e, then the chain registers."""
    n = world.n
    return amps.reshape(
        -1,
        1 << world.message_bits,
        1 << (n * world.l_sem),
        1 << (1 + world.workspace_qubits),
        1 << (n * len(world.chain_registers())),
    )


def _add_outcomes(
    t: np.ndarray, amps: np.ndarray, block: tuple[slice, ...], weights: np.ndarray
) -> None:
    """Add the weights |amps|^2 of one block of an outcome view into the
    (message, signature, chains) tensor ``t``, tracing x y and b e in the
    order numpy's ``sum(axis=(0, 3))`` over the whole view adds: for each
    x y value, then each b e value.  Blocks taken in flat order keep that
    order, so the sum has the full reduction's bits.  The weights are
    written into ``weights``, a float64 array of the block's shape, with the
    bits of ``abs(amps) ** 2``."""
    np.square(np.abs(amps, out=weights), out=weights)
    dst = t[block[1:3]]
    for xy in weights:
        for be in range(weights.shape[3]):
            dst += xy[:, :, be]


def probability_tensor(final: np.ndarray, qtilde, world: ChainWorld) -> list[np.ndarray]:
    """Joint outcome weights over (message, signature, chains), tracing the
    rest: the plain tensor of the final state, then one tensor per
    message-controlled outcome map (:func:`qromlab.qworlds.build_qtilde`)
    applied to it.

    One pass, block by block (:func:`qsim.blocks`, the chain registers kept
    whole): each block adds its plain weights, changes into the maps' shared
    frame once, and every map's table product changes back and adds into
    its tensor from there.  The frame block, the product and its change
    back are block buffers borrowed from :func:`qsim.scratch`, and the
    weights take the product's while it is not in use, so the pass
    allocates no block.
    """
    view = _outcome_view(final, world)
    tables = [q.table.reshape(1, view.shape[1], 1, 1, view.shape[4]) for q in qtilde]
    tensors = [np.zeros(view.shape[1:3] + view.shape[4:]) for _ in range(len(qtilde) + 1)]
    spans = qsim.blocks(view.shape, (4,))
    shape = view[spans[0]].shape
    size = math.prod(shape)
    with qsim.scratch(size, size, size) as (h, product, back):
        weights = product.view(np.float64)[:size].reshape(shape)
        h, product, back = (b.reshape(shape) for b in (h, product, back))
        for block in spans:
            _add_outcomes(tensors[0], view[block], block, weights)
            if qtilde:
                to_frame(world, view[block], h)
                for table, t in zip(tables, tensors[1:]):
                    np.multiply(h, qsim.block_of(table, block), out=product)
                    _add_outcomes(t, to_frame(world, product, back), block, weights)
    return tensors


def acceptance_table(world: ChainWorld) -> np.ndarray:
    """accept[m, sigma, gamma]: does the verifier, run against the oracle
    reprogrammed on the sampled chain values, accept that signature?

    Block i of a signature on m must walk from its revealed position (c, j)
    to the endpoint p[c] in w-1-j oracle steps, under every chain value gamma
    at once; the blocks' verdicts AND together by broadcasting.
    """
    n = world.n
    h = query_unitary_as_function(world)
    walks = [np.broadcast_to(np.arange(1 << n)[:, None], h.shape)]
    for _ in range(world.w - 1):
        walks.append(np.take_along_axis(h, walks[-1], axis=0))
    table = np.empty((1 << world.message_bits, 1 << (n * world.l_sem), h.shape[1]), dtype=bool)
    for m in world.messages():
        acc = np.ones(h.shape[1], dtype=bool)
        for c, j in world.revealed(m):
            acc = acc[..., None, :] & (walks[world.w - 1 - j] == world.p[c])
        table[m] = acc.reshape(-1, h.shape[1])
    return table


@dataclass
class GameAnalysis:
    """Exact winning probabilities of one program, and the mass of the
    none-uniform outcome on blinded forgery messages."""

    p_win_plain: float
    p_win_modified: float
    p_forced_outcome_blinded: float


def analyze_game(
    program: AdversaryProgram, world: ChainWorld
) -> tuple[EvolvedStates, np.ndarray, list[np.ndarray], np.ndarray, GameAnalysis]:
    """Exact outcome analysis of one program.

    Returns the evolved states, the plain joint tensor, the per-outcome joint
    tensors (measurement-controlled, endpoint weights folded in), the
    acceptance table, and the summary.
    """
    states = evolve_program(program, world)
    t_plain, *t_outcomes = probability_tensor(
        states.final, build_qtilde(world, states.layout), world
    )
    accept = acceptance_table(world)
    blinded = world.blinding.mask
    p_plain = float((t_plain[blinded] * accept[blinded]).sum())
    p_mod = float(sum((t[blinded] * accept[blinded]).sum() for t in t_outcomes))
    p_forced = float(t_outcomes[-1][blinded].sum())
    summary = GameAnalysis(
        p_win_plain=p_plain,
        p_win_modified=p_mod,
        p_forced_outcome_blinded=p_forced,
    )
    return states, t_plain, t_outcomes, accept, summary


def sample_index(probs: np.ndarray, u: float) -> int:
    """The index that the uniform draw ``u`` picks with probabilities
    ``probs``, as numpy's ``rng.choice(len(probs), p=probs)`` picks it from
    its one ``rng.random()`` (searched in the normalised CDF) but without its
    checks.  Raises ValueError when ``probs`` has no mass (a zero or NaN
    total)."""
    cdf = probs.cumsum()
    if not cdf[-1] > 0:
        raise ValueError("cannot sample from zero mass")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def run_quantum_game(
    program: AdversaryProgram,
    world: ChainWorld,
    mode: str = "plain",
    seed: int = 0,
) -> tuple[GameTranscript, GameAnalysis]:
    """Execute a program, sample one transcript, and report probabilities.

    Probabilities are computed exactly by outcome enumeration (see
    :func:`analyze_game`).  ``mode="modified"`` inserts the
    first-uniform-register measurement between the forgery output and the
    chain sampling; the transcript then carries the sampled outcome index
    (l+1 meaning "none uniform").
    """
    if mode not in ("plain", "modified"):
        raise ValueError(f"unknown mode {mode!r}")
    if world.blinding is None:
        raise ValueError("world has no blinding set")
    states, t_plain, t_outcomes, accept, summary = analyze_game(program, world)
    rng = np.random.default_rng(rom.derive_seed(seed, "game-sampling"))
    transcript = GameTranscript(
        scheme=world.scheme,
        seed=seed,
        epsilon=world.blinding.epsilon,
        blinding=world.blinding.sorted_members(),
        mode=mode,
        hash_queries=program.q0 + program.q1,
        sign_queries=sum(isinstance(s, SignQuery) for s in program.steps),
    )
    joint_ms = t_plain.sum(axis=2)
    flat = joint_ms.reshape(-1)
    pick = sample_index(flat / flat.sum(), rng.random())
    m_star, sigma_star_idx = divmod(pick, joint_ms.shape[1])
    step_probs = [("measure_m", float(joint_ms[m_star].sum() / flat.sum()))]
    step_probs.append(("measure_sigma", float(flat[pick] / max(joint_ms[m_star].sum(), 1e-300))))
    if mode == "modified":
        outcome_w = np.array([t[m_star, sigma_star_idx].sum() for t in t_outcomes])
        q_outcome = sample_index(outcome_w / outcome_w.sum(), rng.random()) + 1
        transcript.q_outcome = q_outcome
        step_probs.append(("q_outcome", float(outcome_w[q_outcome - 1] / outcome_w.sum())))
        gamma_w = t_outcomes[q_outcome - 1][m_star, sigma_star_idx]
    else:
        gamma_w = t_plain[m_star, sigma_star_idx]
    g = sample_index(gamma_w / gamma_w.sum(), rng.random())
    win = bool(accept[m_star, sigma_star_idx, g]) and (m_star in world.blinding)
    n, l = world.n, world.l_sem
    transcript.m_star = int(m_star)
    transcript.sigma_star = tuple(
        (sigma_star_idx >> ((l - 1 - i) * n)) & ((1 << n) - 1) for i in range(l)
    )
    transcript.verdict = "win" if win else "lose"
    transcript.p_success = summary.p_win_modified if mode == "modified" else summary.p_win_plain
    transcript.step_probs = tuple(step_probs)
    return transcript, summary


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """The 3-sigma Wilson score interval of a success rate."""
    if trials == 0:
        return 0.0, 1.0
    z = 3.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)
