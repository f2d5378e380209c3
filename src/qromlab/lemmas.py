"""Numerical verification of the quantitative claims behind the two schemes.

Every check measures a quantity on a concrete small world and compares it to
its closed-form bound, written once below.  At desk scale most bounds are
vacuous (above the trivial cap of what they bound), so the checks record the
measured value; the falsifiable content is the exact-zero and exact-equality
cases and the inequality direction everywhere else.  A report line never asserts
anything the formulas do not claim.

The operator-norm checks (equality/uniform overlap, uniform-register and
invariant commutators) measure exact norms: the maps split into blocks of one
Hadamard-frame projector, read from the query unitary's answer table
f(x, gamma) and the projectors' frame tables, and :func:`qsim.operator_norm`
solves every distinct block densely.  No check here compiles the query
unitary; only an evolved game state (:func:`game.evolve_program`) needs it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import game, ots, qsim, rom
from .qworlds import (
    BlindingSet,
    ChainWorld,
    FrameDiagonal,
    build_invariant_projector,
    build_q_projectors,
    build_query_unitary,  # noqa: F401  (bench/test_bench.py reads lemmas.build_query_unitary)
    build_qtilde,
    chain_world,
    frame_product_norm,
    invariant_projector_from_thresholds,
    lamport_world,
    query_phase_splits,
    query_unitary_as_function,
    winternitz_world,
)

PASS_SLACK = 1e-8
ORTHOGONALITY_BOUND = 1e-10


# ---------------------------------------------------------------------------
# Bound formulas
#
# The paper's bounds, each once, over ``chains`` hash chains of length ``w``:
# Lamport is w = 2 with 2l chains, read from the world or the check.  Each
# docstring names the quantity bounded and its trivial cap, its largest value.


def eps(n: int, w: int) -> float:
    """||[U_h, Phi]|| for a uniform projector Phi on one chain prefix; cap 1."""
    return 6.0 * (w - 1) * 2.0 ** (-n / 2)


def delta(scheme: str, n: int, chains: int, w: int) -> float:
    """||[U_h, P]|| for the invariant projector P; cap 1."""
    if scheme == "lamport":
        return 16.0 * chains * 2.0 ** (-n / 2)
    return 8.0 * chains * (w + 1) * (w - 1) * 2.0 ** (-n / 2)


def presign_drift_bound(n: int, chains: int, w: int, q0: int) -> float:
    """A unit state's distance from chain uniformity after q0 queries; cap 1."""
    return chains * q0 * eps(n, w)


def invariant_drift_bound(scheme: str, n: int, chains: int, w: int, q0: int, q1: int) -> float:
    """A unit state's distance from the invariant subspace after signing, and
    the blinded none-uniform outcome's mass; cap 1 for both.

    The commutator term scales with the queries after signing; the state
    entering the signing query contributes twice the pre-sign drift.  The
    published per-query coefficients exist in several variants, so the looser
    of all of them is asserted and the composite stays zero exactly when no
    query was made at all.
    """
    if scheme == "lamport":
        per_query = 2 * chains * max(q0, q1)
    else:
        per_query = max(2 * chains * q0, 4 * chains * q1, 2 * chains * (w - 1) * q1)
    return q1 * delta(scheme, n, chains, w) + per_query * eps(n, w)


def forgery_bound(scheme: str, q: int, n: int, chains: int, w: int) -> tuple[float, float]:
    """(full, simplified) bounds on a q-query blind forger's success
    probability, clamped at its cap 1; the simplified form applies for q > 0."""
    if scheme == "lamport":
        l = chains // 2  # message bits
        full = l * l * 2.0 ** (-n) * (3137.0 * q * q * (l + 1) + 12.0)
        simple = 6286.0 * q * q * l ** 3 * 2.0 ** (-n)
    else:
        l = chains
        full = 2.0 ** (-n) * (
            (1.0 + q * q * l * l * (w - 1) ** 2 * (20.0 * w - 4.0) ** 2) * (l + 1)
            + 3.0 * w * w * l * l
        )
        simple = 800.0 * w ** 4 * q * q * l ** 3 * 2.0 ** (-n)
    return min(1.0, full), min(1.0, simple)


def security_bounds(scheme: str, q: int, n: int, l: int, w: int | None = None) -> dict:
    """The forgery bounds of the ``bounds`` command: ``l`` message bits for
    Lamport (whose ``w`` is only echoed), or ``l`` chains of length ``w``."""
    if q < 0:
        raise ValueError("query count must be nonnegative")
    if scheme == "lamport":
        params = ots.LamportParams(n=n, l=l)  # the scheme's guard: n >= 1 and l >= 1
        chains, length = params.chains, params.w
    elif scheme == "winternitz":
        if w is None:
            raise ValueError("w required for the chain scheme")
        if n < 1:
            raise ValueError("security parameter n must be positive")
        if w < 2:
            raise ValueError("Winternitz parameter w must be at least 2")
        if l < 1:
            raise ValueError("chain count l must be positive")
        chains, length = l, w
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    full, simple = forgery_bound(scheme, q, n, chains, length)
    return {"scheme": scheme, "q": q, "n": n, "l": l, "w": w, "full": full, "simplified": simple}


def overlap_commutator_bound(n: int) -> float:
    """||[E, Phi]|| for the equality projector E and the uniform projector
    Phi on n-bit registers; cap 1/2, as for any two projectors."""
    return 2.0 * 2.0 ** (-n / 2)


def chain_distance_bound(n: int, chains: int, w: int) -> float:
    """The L1 distance between iterated-oracle and uniform chain tuples;
    cap 2 (the row is named for TV, whose cap is 1)."""
    return 3.0 * (w * chains) ** 2 / 2 ** n


def chain_collision_bound(n: int, chains: int, w: int) -> float:
    """Either distribution's mass on tuples with a repeated entry; cap 1."""
    return (w * chains) ** 2 / 2 ** n


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class CheckReport:
    lemma: str
    scheme: str
    n: int
    l: int
    w: int
    q0: int
    q1: int
    measured: float
    bound: float
    passed: bool
    runtime_ms: float
    note: str = ""


def _report(lemma, scheme, n, l, w, q0, q1, measured, bound, t0, note="") -> CheckReport:
    return CheckReport(
        lemma=lemma,
        scheme=scheme,
        n=n,
        l=l,
        w=w,
        q0=q0,
        q1=q1,
        measured=float(measured),
        bound=float(bound),
        passed=bool(measured <= bound + PASS_SLACK),
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
        note=note,
    )


CSV_HEADER = "lemma,scheme,n,l,w,q0,q1,measured,bound,pass,runtime_ms"


def reports_to_csv(reports) -> str:
    """CSV per the report schema.  Wall-clock timing is volatile, so report
    files carry it as 0; same seed then means byte-identical files."""
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.lemma},{r.scheme},{r.n},{r.l},{r.w},{r.q0},{r.q1},"
            f"{r.measured!r},{r.bound!r},{str(r.passed).lower()},0"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Individual checks


def check_equality_uniform_overlap(n: int) -> list[CheckReport]:
    """Norm of (equality projector) x (uniform projector) is exactly 2^-n/2,
    and their commutator norm is at most twice that.

    On the (x, y) layout both maps are block-diagonal over x.  Block x of the
    equality projector keeps B = {y = x}, and the uniform projector on y is
    the frame projector Phi with table 1 at 0 only, so the product's norm is
    max_x ||Phi[B, all]|| and the commutator's max_x ||Phi[A, B]|| (A = not B).
    """
    t0 = time.perf_counter()
    qsim.check_norm_dim(4 ** n)  # before the 2^n x 2^n masks are built
    values = np.arange(1 << n)
    uniform = values == 0
    eq = values[:, None] == values[None, :]  # one row per x, one column per y
    overlap = qsim.operator_norm(uniform, eq, np.ones_like(eq))
    expected = 2.0 ** (-n / 2)
    rep1 = _report(
        "uniform-overlap-norm", "", n, 0, 0, 0, 0, abs(overlap.value - expected), 1e-8, t0,
        note=f"norm={overlap.value!r}",
    )
    t1 = time.perf_counter()
    comm = qsim.operator_norm(uniform, ~eq, eq)
    rep2 = _report(
        "uniform-overlap-commutator", "", n, 0, 0, 0, 0, comm.value,
        overlap_commutator_bound(n), t1,
    )
    return [rep1, rep2]


def _query_commutator_norms(world: ChainWorld, projectors: list[FrameDiagonal]) -> list[float]:
    """Exact ||[U_h, P]|| on the norm layout for each frame projector P on the
    chain registers.

    In the Hadamard frame of y, U_h is block-diagonal over (x, k), block
    D = 1 - 2 1_B with B from :func:`query_phase_splits`, and P acts on every
    block as its frame projector Pi.  So ||[U_h, P]|| is the largest
    ||[D, Pi]|| = 2 ||Pi[A, B]||, A the complement of B.  Callers check the
    rows' size 4^n G, the norm layout's dimension, first (:func:`qsim.check_norm_dim`).
    """
    splits = query_phase_splits(query_unitary_as_function(world))
    splits = splits.reshape(-1, splits.shape[-1])
    return [2.0 * qsim.operator_norm(p.table, ~splits, splits).value for p in projectors]


def check_uniform_register_commutator(
    scheme: str, n: int, l: int, w: int = 2, seed: int = 0
) -> list[CheckReport]:
    """Oracle-query unitary vs the projector keeping chain prefixes uniform.

    The targets are the per-chain prefix products up to every position j' of
    a quantum register, on l chains of length w, or on 2l chains of length 2
    for Lamport, whose targets are then its single secret-string registers.
    The prefix (c, 0..j') is the invariant projector of the one threshold
    vector with j'+1 at chain c and 0 elsewhere.  The worst norm over all
    targets is reported against one bound.
    """
    t0 = time.perf_counter()
    chains, length = (2 * l, 2) if scheme == "lamport" else (l, w)
    world = chain_world(n, chains, length, seed=rom.derive_seed(seed, "eps-world"))
    qsim.check_norm_dim(world.norm_layout().dim)
    projectors = []
    for c in range(chains):
        for jp in range(length - 1):
            t = [0] * chains
            t[c] = jp + 1
            projectors.append(invariant_projector_from_thresholds(world, [t], world.chain_layout()))
    worst = max(_query_commutator_norms(world, projectors))
    return [_report("uniform-commutator", scheme, n, l, w, 0, 0, worst, eps(n, length), t0)]


def _message_bits(scheme: str, l: int, w: int) -> int | None:
    """l for Lamport; for Winternitz the message length that encodes to l
    blocks at w, or None when none does."""
    if scheme == "lamport":
        return l
    for a in range(1, 17):
        if ots.derive_wots_params(a, w, 2, require_power_of_two=False).l == l:
            return a
    return None


def require_message_length(scheme: str, l: int, w: int) -> None:
    """ValueError when the checks that play a game on the scheme's world
    (drift, orthogonality) have none: no message length encodes to l blocks
    at w."""
    if _message_bits(scheme, l, w) is None:
        raise ValueError(f"no message length encodes to {l} blocks at w={w}")


def refuse_worldless_point(scheme: str, n: int, l: int, w: int) -> None:
    """ValueError before any row of a single-point ``lemmas`` run when its
    drift check would refuse for want of a world (:func:`require_message_length`).
    The overlap and commutator rows run before it and refuse a size their
    norms cannot take, so their guards run here first, in their order, and
    a shape they refuse (n or l below 1, w below 2) is left to them."""
    if scheme == "lamport" or min(n, l) < 1 or w < 2 or _message_bits(scheme, l, w) is not None:
        return
    qsim.check_norm_dim(4 ** n)
    qsim.check_norm_dim(chain_world(n, l, w).norm_layout().dim)
    require_message_length(scheme, l, w)


def _scheme_world(scheme: str, n: int, l: int, w: int, seed: int, blinding=None):
    """The Lamport world on l message bits, or the Winternitz world whose
    message length encodes to l blocks at w; None when no length does.
    ``blinding`` maps the world's message width to its blinding set."""
    a = _message_bits(scheme, l, w)
    if a is None:
        return None
    if scheme == "lamport":
        return lamport_world(n, a, blinding=blinding and blinding(a), seed=seed)
    return winternitz_world(n, a, w, blinding=blinding and blinding(a), seed=seed)


def _blinding_for(world_bits: int, seed: int, require_unblinded: bool = True) -> BlindingSet:
    rng = np.random.default_rng(rom.derive_seed(seed, "blinding"))
    for _ in range(64):
        b = game.sample_blinding_set(0.5, world_bits, rng)
        if not require_unblinded or len(b) < (1 << world_bits):
            return b
    raise RuntimeError("could not sample a blinding set with unblinded messages")


def _delta_world(scheme: str, n: int, l: int, w: int, seed: int):
    """A world plus the threshold vectors its invariant projector is built from."""
    world_seed = rom.derive_seed(seed, "delta-world")
    world = _scheme_world(scheme, n, l, w, world_seed, lambda bits: _blinding_for(bits, seed))
    if world is not None:
        return world, [world.thresholds(m) for m in world.unblinded()]
    # No message length encodes to l blocks; exercise the projector on explicit
    # per-chain reveal thresholds instead (the commutator bound only needs the
    # threshold-union structure, not the checksum).
    world = chain_world(n, l, w, seed=world_seed)
    rng = np.random.default_rng(rom.derive_seed(seed, "delta-thresholds"))
    count = 1 + int(rng.integers(0, 3))
    thresholds = [tuple(int(rng.integers(0, w)) for _ in range(l)) for _ in range(count)]
    return world, thresholds


def check_invariant_commutator(
    scheme: str, n: int, l: int, w: int = 2, seed: int = 0
) -> list[CheckReport]:
    """Oracle-query unitary vs the signed-at-most-one-unblinded-message projector."""
    t0 = time.perf_counter()
    world, thresholds = _delta_world(scheme, n, l, w, seed)
    qsim.check_norm_dim(world.norm_layout().dim)
    p = invariant_projector_from_thresholds(world, thresholds, world.chain_layout())
    (norm,) = _query_commutator_norms(world, [p])
    bound = delta(scheme, n, world.chain_count, world.w)
    note = "everything blinded: projector is zero" if p.is_zero else f"support={p.term_count}"
    return [_report("invariant-commutator", scheme, n, l, w, 0, 0, norm, bound, t0, note=note)]


def orthogonality_report(world: ChainWorld, m_star: int) -> CheckReport:
    """Exact norm of Q_{l+1} P on a blinded forgery message, decided by
    comparing the two Hadamard-frame tables.  The claim covers blinded
    messages only, so an unblinded ``m_star`` raises ValueError."""
    t0 = time.perf_counter()
    scheme, n, l, w = world.scheme, world.n, world.l_sem, world.w
    if world.blinding is None or m_star not in world.blinding:
        raise ValueError(f"forgery message {m_star} is not blinded; the claim covers blinded ones")
    layout = world.chain_layout()
    p = build_invariant_projector(world, layout)
    q_last = build_q_projectors(world, m_star, layout)[-1]
    measured = frame_product_norm(q_last, p)
    return _report("orthogonality", scheme, n, l, w, 0, 0, measured, ORTHOGONALITY_BOUND, t0)


def check_orthogonality(
    scheme: str, n: int, l: int, w: int, blinding: BlindingSet, m_star: int, seed: int = 0
) -> list[CheckReport]:
    """The none-uniform forgery outcome annihilates the invariant subspace."""
    require_message_length(scheme, l, w)
    world = _scheme_world(scheme, n, l, w, rom.derive_seed(seed, "orth-world"), lambda _: blinding)
    return [orthogonality_report(world, m_star)]


def _sum_squares(out: np.ndarray) -> np.float64:
    """||out||^2, squaring ``out``, an apply's output, in place.  numpy's own
    pairwise sum adds the squares, so the value's bits do not depend on the
    BLAS thread count, as a BLAS dot product's do."""
    parts = out.view(np.float64)
    return np.add.reduce(np.square(parts, out=parts))


def _norm(out: np.ndarray) -> float:
    return float(np.sqrt(_sum_squares(out)))


# numpy's pairwise sum adds leaves of 128 floats, 64 amplitudes, with eight
# accumulators; a run at least that long is a whole subtree of that sum.
_PAIRWISE_LEAF_AMPS = 64


def _run_distance(v: np.ndarray, world: ChainWorld, build) -> float:
    """||A v - v|| for the map A = ``build(layout)``, which acts on the chain
    registers alone, taken run by run over ``v``, a state on any layout the
    chain registers trail.

    A run is whole chain columns, on which A acts on its own: max(G,
    BLOCK_AMPS) amplitudes, G the chain registers' dimension, and at least
    one leaf of numpy's pairwise sum, but never more than the state.  A is
    built once on a run's layout, a ``rows`` register (none when a run is
    one column) and the chain registers, and applied in place to a copy of
    each run in one borrowed buffer (:func:`qsim.scratch`), so the distance
    holds a run beside the state, not a second state.  The runs' sums of
    squares are added in the pairwise tree numpy's sum walks over the whole
    vector (every length is a power of two), so the value has the bits of
    ``_norm(A.apply(v) - v)``.
    """
    chains = [(name, world.n) for name in world.chain_registers()]
    g = 1 << world.n * len(chains)
    run = min(v.size, max(g, qsim.BLOCK_AMPS, _PAIRWISE_LEAF_AMPS))
    rows = (run // g).bit_length() - 1
    a = build(qsim.RegisterLayout([("rows", rows)] * (rows > 0) + chains))
    sums = []
    with qsim.scratch(run) as (out,):
        for part in v.reshape(-1, run):
            np.copyto(out, part)
            a.apply_in_place(out)
            out -= part
            sums.append(_sum_squares(out))
    while len(sums) > 1:
        sums = [s + t for s, t in zip(sums[::2], sums[1::2])]
    return float(np.sqrt(sums[0]))


def check_state_drift(
    scheme: str, n: int, l: int, w: int, q0: int, q1: int, program_seed: int = 0
) -> list[CheckReport]:
    """Three state-distance measurements on one random interleaved program:

    (a) pre-sign distance of the chain registers from full uniformity,
    (b) final-state distance from the invariant subspace,
    (c) mass of the none-uniform outcome on blinded forgery messages.

    Rows (a) and (b) take their distances run by run (:func:`_run_distance`)
    and row (c) applies its map to the final state in place, so a drift
    check holds the live state and a few runs, one state in all.
    """
    t0 = time.perf_counter()
    require_message_length(scheme, l, w)
    world = _scheme_world(
        scheme, n, l, w, rom.derive_seed(program_seed, "drift-world"),
        lambda bits: _blinding_for(bits, program_seed),
    )
    program = game.random_program(world, q0, q1, seed=rom.derive_seed(program_seed, "drift-prog"))
    presign = []

    def at_sign(psi0: np.ndarray, layout: qsim.RegisterLayout) -> None:
        # (a) reads the live state just before signing, run by run, uncopied
        chains = world.chain_registers()
        presign.append(
            _run_distance(psi0, world, lambda runs: qsim.uniform_projector_map(runs, chains))
        )

    states = game.evolve_program(program, world, at_sign=at_sign)
    layout = states.layout
    (a_meas,) = presign
    a_bound = presign_drift_bound(n, world.chain_count, world.w, q0)
    rep_a = _report("drift-presign", scheme, n, l, w, q0, q1, a_meas, a_bound, t0)

    t1 = time.perf_counter()
    psi1 = states.final
    b_meas = _run_distance(psi1, world, lambda runs: build_invariant_projector(world, runs))
    bc_bound = invariant_drift_bound(scheme, n, world.chain_count, world.w, q0, q1)
    # the per-query coefficient has inconsistent published variants for the
    # chain scheme; the composite asserts the loosest of them (see the bound)
    bc_note = "loosest published per-query form" if scheme == "winternitz" else ""
    rep_b = _report("drift-invariant", scheme, n, l, w, q0, q1, b_meas, bc_bound, t1, note=bc_note)

    t2 = time.perf_counter()
    # The final state is not read after this row: zero its unblinded
    # messages and apply the outcome map to it in place.
    np.copyto(psi1.reshape(layout.dims), 0.0, where=~world.blinding.mask[layout.values("m")])
    q_last = build_qtilde(world, layout)[-1]
    c_meas = _norm(q_last.apply_in_place(psi1))
    rep_c = _report("drift-forced-outcome", scheme, n, l, w, q0, q1, c_meas, bc_bound, t2, note=bc_note)
    return [rep_a, rep_b, rep_c]


def check_pinching(k: int, trials: int = 100, seed: int = 0) -> list[CheckReport]:
    """Inserting a k-outcome projective measurement costs at most a factor k
    on any output probability; verified exactly on random instances."""
    t0 = time.perf_counter()
    if k > 8:
        raise ValueError("pinching check capped at k <= 8")
    rng = np.random.default_rng(rom.derive_seed(seed, "pinching", k))
    dim = 4
    worst = -1.0
    for _ in range(trials):
        psi = qsim.random_state_vector(dim, rng)
        basis_change = qsim.haar_unitary(dim, rng)
        groups = [[] for _ in range(k)]
        for i in range(dim):
            groups[int(rng.integers(0, k))].append(i)
        v = qsim.haar_unitary(dim, rng)
        out = v @ psi
        p_direct = np.abs(out) ** 2
        p_paused = np.zeros(dim)
        for members in groups:
            sel = np.zeros(dim)
            sel[members] = 1.0
            proj = basis_change @ np.diag(sel) @ basis_change.conj().T
            p_paused += np.abs(v @ (proj @ psi)) ** 2
        worst = max(worst, float(np.max(p_direct / k - p_paused)))
    return [_report("pinching", "", 0, 0, 0, 0, 0, worst, 0.0, t0, note=f"k={k} trials={trials}")]


def check_world_closeness(
    n: int, l: int, w: int, distributions: tuple[np.ndarray, np.ndarray] | None = None
) -> list[CheckReport]:
    """Exact chain-tuple distributions: iterated-oracle vs independent-uniform.

    ``distributions`` is the ``(p, q)`` pair of
    :func:`rom.enumerate_chain_distributions` for (n, l, w), when the caller
    has built it already; it is built here otherwise.
    """
    t0 = time.perf_counter()
    if distributions is None:
        distributions = rom.enumerate_chain_distributions(n, l, w)
    p, q = distributions
    stats = rom.tv_and_collision_stats(p, q, n, l, w)
    rep_tv = _report(
        "chain-distribution-tv", "", n, l, w, 0, 0,
        stats.tv, chain_distance_bound(n, l, w), t0,
        note=f"p_coll={stats.p_collision!r} q_coll={stats.q_collision!r}",
    )
    t1 = time.perf_counter()
    rep_cond = _report(
        "chain-distribution-conditional", "", n, l, w, 0, 0,
        0.0 if stats.conditional_equal else 1.0, 0.0, t1,
        note="entrywise equality on collision-free tuples",
    )
    t2 = time.perf_counter()
    rep_coll = _report(
        "chain-distribution-collisions", "", n, l, w, 0, 0,
        max(stats.p_collision, stats.q_collision), chain_collision_bound(n, l, w), t2,
    )
    return [rep_tv, rep_cond, rep_coll]


def check_oracle_reprogramming_consistency(
    scheme: str, n: int, l: int, w: int = 2, seed: int = 0
) -> list[CheckReport]:
    """The query unitary on basis chain states reproduces the classical
    reprogrammed oracle exactly, for every chain assignment and input.

    The quantum side is the answer table f[x, gamma] that the query unitary
    is compiled from (:func:`query_unitary_as_function`); that the query
    map's ``delta`` XORs exactly f into ``y`` is pinned by a structural
    test, not here.  The classical side is the reprogrammed oracle of each chain
    assignment, queried input by input."""
    t0 = time.perf_counter()
    world_seed = rom.derive_seed(seed, "iw-world")
    world = _scheme_world(scheme, n, l, w, world_seed) or chain_world(n, l, w, seed=world_seed)
    regs = world.chain_registers()
    if len(regs) * n > 10:
        raise ValueError("chain assignment space too large for exhaustive comparison")
    quantum = query_unitary_as_function(world)
    mismatches = 0
    total = 0
    for bits in range(1 << (len(regs) * n)):
        assignment = {
            name: (bits >> ((len(regs) - 1 - k) * n)) & ((1 << n) - 1)
            for k, name in enumerate(regs)
        }
        classical = world.overlay_oracle(assignment)
        for x in range(1 << n):
            total += 1
            if quantum[x, bits] != classical(x):
                mismatches += 1
    return [
        _report(
            "oracle-consistency", world.scheme, n, l, w, 0, 0, float(mismatches), 0.0, t0,
            note=f"checked {total} (assignment, input) pairs",
        )
    ]


# ---------------------------------------------------------------------------
# Sweep


SWEEP_NS = (1, 2)
SWEEP_LS = (1, 2)
SWEEP_WS = (2, 3)
SWEEP_DRIFT_QS = (0, 1)


def run_sweep(seed: int = 0) -> list[CheckReport]:
    """The verification grid over SWEEP_NS x SWEEP_LS x SWEEP_WS (drift
    programs with SWEEP_DRIFT_QS queries before and after signing).  Lamport
    points ignore w; chain-scheme points with no message encoding of the
    requested block count fall back to explicit thresholds where the claim
    permits it and are skipped where the checksum structure is essential."""
    reports: list[CheckReport] = []
    for n in (1, 2, 3, 4):
        reports += check_equality_uniform_overlap(n)
    reports += check_pinching(1, trials=20, seed=seed)
    reports += check_pinching(2, trials=50, seed=seed)
    for n in SWEEP_NS:
        for l in SWEEP_LS:
            reports += check_uniform_register_commutator("lamport", n, l, seed=seed)
            reports += check_invariant_commutator("lamport", n, l, seed=seed)
            for w in SWEEP_WS:
                reports += check_uniform_register_commutator("winternitz", n, l, w, seed=seed)
                reports += check_invariant_commutator("winternitz", n, l, w, seed=seed)
    rng = np.random.default_rng(rom.derive_seed(seed, "sweep-orth"))
    idx = 0
    for n in SWEEP_NS:
        for l in SWEEP_LS:
            for _ in range(4):
                blinding = _blinding_for(l, rom.derive_seed(seed, "orth-b", idx), False)
                if len(blinding) == 0:
                    idx += 1
                    continue
                m_star = int(rng.choice(blinding.sorted_members()))
                reports += check_orthogonality("lamport", n, l, 2, blinding, m_star, seed=idx)
                idx += 1
        for w in SWEEP_WS:
            a = 1
            for _ in range(3):
                blinding = _blinding_for(a, rom.derive_seed(seed, "orth-bw", idx), False)
                if len(blinding) == 0:
                    idx += 1
                    continue
                m_star = int(rng.choice(blinding.sorted_members()))
                l = ots.derive_wots_params(a, w, n, require_power_of_two=False).l
                reports += check_orthogonality("winternitz", n, l, w, blinding, m_star, seed=idx)
                idx += 1
    for n in SWEEP_NS:
        for l in SWEEP_LS:
            for q0 in SWEEP_DRIFT_QS:
                for q1 in SWEEP_DRIFT_QS:
                    reports += check_state_drift(
                        "lamport", n, l, 2, q0, q1,
                        program_seed=rom.derive_seed(seed, "drift", n, l, q0, q1),
                    )
        for w in SWEEP_WS:
            l = ots.derive_wots_params(1, w, n, require_power_of_two=False).l
            for q0 in SWEEP_DRIFT_QS:
                for q1 in SWEEP_DRIFT_QS:
                    reports += check_state_drift(
                        "winternitz", n, l, w, q0, q1,
                        program_seed=rom.derive_seed(seed, "driftw", n, w, q0, q1),
                    )
    reports += check_world_closeness(4, 1, 2)
    for n in SWEEP_NS:
        for l in SWEEP_LS:
            reports += check_oracle_reprogramming_consistency("lamport", n, l, seed=seed)
        for w in SWEEP_WS:
            reports += check_oracle_reprogramming_consistency("winternitz", n, 2, w, seed=seed)
    reports += monotonicity_notes(reports)
    return reports


def monotonicity_notes(reports) -> list[CheckReport]:
    """Soft sanity: measured commutator norms should not grow with n at fixed
    (scheme, l, w).  Recorded as always-passing notes, not assertions."""
    t0 = time.perf_counter()
    keyed: dict = {}
    for r in reports:
        if r.lemma in ("uniform-commutator", "invariant-commutator"):
            keyed.setdefault((r.lemma, r.scheme, r.l, r.w), []).append((r.n, r.measured))
    notes = []
    for (lemma, scheme, l, w), pts in sorted(keyed.items()):
        pts.sort()
        monotone = all(b[1] <= a[1] + 1e-6 for a, b in zip(pts, pts[1:]))
        notes.append(
            _report(
                f"{lemma}-monotone", scheme, 0, l, w, 0, 0, 0.0, 0.0, t0,
                note=("non-increasing in n" if monotone else "not monotone in n (recorded)"),
            )
        )
    return notes
