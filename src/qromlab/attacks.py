"""Tightness attacks: preimage search against blind unforgeability.

The classical attack searches the oracle for a preimage of one of the public
key strings, obtains a signature for a message whose relevant bit points at
the complementary key, then flips that bit and substitutes the found
preimage.  With blinding probability 1/2 the signed message is answerable and
the forged message blinded with probability 1/4 jointly, independent of the
search.

The closed-form search-success expression 1 - (1 - 2l/2^n)^q treats each
query as an independent Bernoulli trial with the nominal target density; at
the register sizes simulated here the attacker's guaranteed hits on the
secret strings themselves and public-key collisions shift the true rate
visibly, so reports carry both the formula and an exact reference computed
from first-hit combinatorics over the attacker's random query set.

An attack's trials are independent, so it plays them on every usable CPU:
forked children play contiguous shares of them, and the parent sums every
share's per-trial values in trial order, so the report has the serial bytes.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import pickle
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import game, lemmas, ots, rom
from .game import wilson_interval


def p_search_formula(q: int, l: int, n: int) -> float:
    return 1.0 - (1.0 - 2.0 * l / 2 ** n) ** q


@dataclass(frozen=True)
class AttackReport:
    kind: str
    n: int
    l: int
    q: int
    trials: int
    seed: int
    wins: int
    empirical: float
    wilson_low: float
    wilson_high: float
    p_search_formula: float
    exact_reference: float
    reference_sigma: float
    search_rate: float
    search_exact: float
    bound_full: float
    bound_simple: float

    def to_row(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def reports_to_csv(reports) -> str:
    fields = list(AttackReport.__dataclass_fields__)
    lines = [",".join(fields)]
    for r in reports:
        lines.append(",".join(repr(getattr(r, f)) if isinstance(getattr(r, f), float)
                              else str(getattr(r, f)) for f in fields))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Shared forgery assembly


def _forgery_messages(l: int, pk_index: int) -> tuple[int, int, int]:
    """(block, signed message, forged message) for a hit on ``pk[pk_index]``:
    sign the message complementary to the hit position, forge its bit flip."""
    i_star, j_star = divmod(pk_index, 2)
    m = (1 - j_star) << (l - 1 - i_star)  # zeros elsewhere
    return i_star, m, m ^ (1 << (l - 1 - i_star))


def _forge(handles: game.ClassicalHandles, y_star: int, pk_index: int):
    """Sign the message complementary to the hit position, then flip and patch."""
    i_star, m, m_prime = _forgery_messages(handles.params.l, pk_index)
    answer = handles.sign_query(m)
    if answer.blinded:
        return None
    sigma = list(answer.payload)
    sigma[i_star] = y_star
    return m_prime, tuple(sigma)


def _classical_adversary(queries):
    """Query the oracle on ``queries`` (ascending) and forge from the first hit."""

    def adversary(handles: game.ClassicalHandles):
        for y in queries:
            hy = handles.hash_query(y)
            if hy in handles.pk:  # forge from the first matching string
                return _forge(handles, y, handles.pk.index(hy))  # None when blinded
        return None  # concede: no preimage found

    return adversary


def _first_hit_weights(n: int, q: int) -> Callable[[int], float]:
    """Chance that the hit of a given rank (among the hits, ascending) is the
    smallest queried one in a uniform random q-subset of the 2^n inputs:
    C(space-1-rank, q-1) / C(space, q); call it only for q >= 1.  Each rank is
    computed on first use only, so large spaces pay for the ranks trials reach."""
    space = 1 << n
    q = min(q, space)
    total = math.comb(space, q)

    @functools.cache
    def weight(rank: int) -> float:
        return math.comb(space - 1 - rank, q - 1) / total

    return weight


def _hits(images: np.ndarray, sk: np.ndarray):
    """The hit mask, and the first public-key index each input's image
    matches, one row per Lamport world: input y hits when its image is a
    public-key string.  A Lamport chain is one hash step, so the public-key
    strings are the images of the secret strings ``sk``."""
    match = images[:, :, None] == np.take_along_axis(images, sk, axis=1)[:, None, :]
    return match.any(axis=2), match.argmax(axis=2)


# Oracle-image bytes per block of trials, whose seeds and worlds are derived together.
_BLOCK_BYTES = 1 << 17


def _block_size(n: int) -> int:
    return max(1, _BLOCK_BYTES >> (n + 3))


def _seed_blocks(seed: int, label: str, trials: range, n: int):
    """The trial seeds ``derive_seed(seed, label, t)`` for t in ``trials``,
    one list per block of trials whose oracle tables take _BLOCK_BYTES."""
    block = _block_size(n)
    for start in range(trials.start, trials.stop, block):
        labels = [f"{label}/{t}" for t in range(start, min(start + block, trials.stop))]
        yield rom.derive_seeds([seed], labels)[0].tolist()


def _play_block(params, seeds: list[int], draws, trial, chances):
    """The wins, signing queries, and exact win and search probabilities of
    a block of trials; its arrays go before the next block's are made."""
    n, l = params.n, params.l
    images = np.empty((len(seeds), 1 << n), dtype=np.uint64)
    worlds = game.ClassicalWorlds(params, 0.5, seeds, images)
    signed, forged = map(list, zip(*(_forgery_messages(l, i)[1:] for i in range(2 * l))))
    wins_if = ~worlds.blinded[:, signed] & worlds.blinded[:, forged]
    hit, first = _hits(images, worlds.sk)
    win = hit & np.take_along_axis(wins_if, first, axis=1)  # the forgery from the first index wins
    wins = searches = 0
    for trial_seed, draw, hit_row, world in zip(seeds, draws(seeds), hit, worlds):
        adversary = trial(draw, hit_row)
        transcript = game.run_with_world_classical(adversary, *world, trial_seed)
        wins += transcript.verdict == "win"
        searches += transcript.sign_queries
        del world  # one oracle memo lives at a time: the next is filled after this goes
    chance = chances(hit)
    p_wins = np.where(win, chance, 0.0).cumsum(axis=1)[:, -1].tolist()
    p_hits = np.where(hit, chance, 0.0).cumsum(axis=1)[:, -1].tolist()
    return wins, searches, p_wins, p_hits


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _shares(trials: int, n: int) -> list[range]:
    """Contiguous, near-equal shares of ``range(trials)``: one per usable CPU,
    and no more than the attack has blocks."""
    count = max(1, min(usable_cpus(), -(-trials // _block_size(n))))
    bounds = [trials * k // count for k in range(count + 1)]
    return [range(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _fork_share(play, share: range) -> tuple[int, int]:
    """Fork a child that pickles ``list(play(share))``, or the traceback it
    raised, to a pipe; returns the child's pid and the pipe's read end.  The
    child leaves through ``os._exit``: no atexit handler runs and no
    inherited stdio buffer is flushed.  An interrupt or exit in the child
    ends it without a result."""
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
        try:
            result = list(play(share)), None
        except Exception:
            import traceback

            result = None, traceback.format_exc()
        with open(write, "wb") as pipe:
            pickle.dump(result, pipe)
        status = 0
    finally:
        os._exit(status)


def _in_trial_order(play, trials: int, n: int):
    """``play(share)``'s block results for every share of the trials, in trial
    order.  The parent plays the first share itself while one forked child
    plays each other share; it then reads the children's results in share
    order.  A child whose share raised raises here, naming its trials; when
    this ends early, by the parent's own error or an interrupt, the children
    that have not delivered are killed.  Every child is reaped."""
    first, *rest = _shares(trials, n)
    children = []  # (share, pid, the read end of its pipe)
    delivered = set()
    try:
        for share in rest:
            children.append((share, *_fork_share(play, share)))
        yield from play(first)
        for share, pid, read in children:
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            delivered.add(pid)
            try:
                blocks, error = pickle.loads(data)
            except (pickle.UnpicklingError, EOFError):
                blocks, error = None, "the child process ended without a result"
            if error is not None:
                raise RuntimeError(
                    f"attack trials {share.start}..{share.stop - 1} failed in a child process:\n{error}"
                )
            yield from blocks
    finally:
        for share, pid, read in children:
            if pid not in delivered:
                os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            os.close(read)


def _run_attack(
    kind: str, label: str, draws, n: int, l: int, q: int, trials: int, seed: int, trial, chances
):
    """The trial loop both attacks share, and their report.

    Each trial builds the game's world at its own seed (blinding rate 1/2),
    its oracle's memo full.  ``draws(seeds)`` gives the attack's own draw of
    each of a block's trials, and ``trial(draw, hit)`` returns the
    adversary, whose forgery the game then judges; ``hit`` marks the inputs
    whose image is one of the world's public-key strings.  The exact
    reference is read from each block's arrays: ``chances(hit)`` gives each
    hit of each world the chance that the adversary submits it, and a
    sequential cumsum in input order (its added zeros are exact) sums those
    of the hits and of the winning hits.  An adversary makes its one signing
    query exactly when its search found a preimage, so that query counts the
    search hits.  The trials are played in shares (``_in_trial_order``), and
    the sums run in trial order whatever the number of shares.
    """
    params = ots.LamportParams(n=n, l=l)

    def play(share: range):
        for seeds in _seed_blocks(seed, label, share, n):
            yield _play_block(params, seeds, draws, trial, chances)

    wins = searches = 0
    exact_sum = exact_var = search_exact_sum = 0.0
    with contextlib.closing(_in_trial_order(play, trials, n)) as blocks:
        for won, searched, p_wins, p_hits in blocks:
            wins += won
            searches += searched
            for p_win, p_hit in zip(p_wins, p_hits):
                exact_sum += p_win
                exact_var += p_win * (1.0 - p_win)
                search_exact_sum += p_hit
    low, high = wilson_interval(wins, trials)
    full, simple = lemmas.forgery_bound_lamport(q, l, n)
    return AttackReport(
        kind=kind,
        n=n,
        l=l,
        q=q,
        trials=trials,
        seed=seed,
        wins=wins,
        empirical=wins / trials if trials else 0.0,
        wilson_low=low,
        wilson_high=high,
        p_search_formula=p_search_formula(q, l, n),
        exact_reference=exact_sum / trials if trials else 0.0,
        reference_sigma=math.sqrt(exact_var) / trials if trials else 0.0,
        search_rate=searches / trials if trials else 0.0,
        search_exact=search_exact_sum / trials if trials else 0.0,
        bound_full=full,
        bound_simple=simple,
    )


def classical_search_attack(n: int, l: int, q: int, trials: int, seed: int = 0) -> AttackReport:
    """Monte-Carlo runs of the search attack plus its exact per-world reference."""
    if q < 0:
        raise ValueError("query count must be nonnegative")
    weight = _first_hit_weights(n, q)
    space = 1 << n

    def draws(seeds):
        if not 0 < q < space:  # q = 0 or q >= 2^n: the query set is not random
            return itertools.repeat(None)
        return rom.default_rngs(rom.derive_seeds(seeds, ["queries"])[:, 0].tolist())

    def trial(rng, hit):
        if rng is None:
            return _classical_adversary(range(min(q, space)))
        return _classical_adversary(sorted(rng.choice(space, size=q, replace=False).tolist()))

    def first_hit(hit):
        # A hit is submitted when it is the first one queried: its rank's weight.
        ranks = hit.cumsum(axis=1) - 1
        table = np.array([weight(r) if q else 0.0 for r in range(ranks.max(initial=0) + 1)])
        return np.where(hit, table[ranks], 0.0)

    return _run_attack(
        "classical-search", "classical", draws, n, l, q, trials, seed, trial, first_hit
    )


# ---------------------------------------------------------------------------
# Grover variant


def _grover_iterates(n: int, marked):
    """Amplitudes after 0, 1, 2, ... standard iterates: oracle phase flip on
    the marked set, then inversion about the mean."""
    dim = 1 << n
    psi = np.full(dim, 1.0 / math.sqrt(dim))
    flip = np.ones(dim)
    for y in marked:
        flip[y] = -1.0
    while True:
        yield psi
        psi = psi * flip
        psi = 2.0 * (psi.sum() / dim) - psi  # the mean, as ndarray.mean computes it


def grover_state(n: int, marked, iterations: int) -> np.ndarray:
    """Amplitudes after ``iterations`` standard iterates."""
    return next(itertools.islice(_grover_iterates(n, marked), iterations, None))


def default_grover_iterations(n: int, l: int) -> int:
    # Schedule from the expected multi-target count 2l, not the realized one.
    return int(math.floor(math.pi / 4.0 * math.sqrt(2 ** n / (2.0 * l))))


def grover_attack(
    n: int, l: int, iterations: int | None = None, trials: int = 1000, seed: int = 0
) -> AttackReport:
    """Grover preimage search feeding the same forgery pipeline.

    A measured preimage is submitted; a miss concedes.  With zero iterations
    the search degenerates to a uniform guess.
    """
    if iterations is None:
        iterations = default_grover_iterations(n, l)
    # Measurement distribution per marked set (the hit row's bytes), which
    # worlds repeat often at these sizes.
    by_marked: dict[bytes, np.ndarray] = {}

    def draws(seeds):  # the measurement's one uniform
        return rom.pcg64_random(rom.derive_seeds(seeds, ["measure"])[:, 0], 1)[:, 0].tolist()

    def trial(u, hit):
        marked = hit.tobytes()
        if marked not in by_marked:
            probs = np.abs(grover_state(n, hit.nonzero()[0].tolist(), iterations)) ** 2
            by_marked[marked] = probs / probs.sum()
        y_star = game.sample_index(by_marked[marked], u)

        def adversary(handles: game.ClassicalHandles):
            if not hit[y_star]:
                return None
            return _forge(handles, y_star, handles.pk.index(handles.hash_query(y_star)))

        return adversary

    def probs(hit):
        return np.array([by_marked[row.tobytes()] for row in hit])

    return _run_attack("grover", "grover", draws, n, l, iterations, trials, seed, trial, probs)


def grover_schedule_sensitivity(
    n: int, l: int, max_iterations: int, trials: int = 200, seed: int = 0
) -> list[tuple[int, float]]:
    """Mean exact search success per iteration count.

    The schedule is fixed from the expected target count; the realized count
    is binomial, so this sweep reports how forgiving that choice is.
    """
    params = ots.LamportParams(n=n, l=l)
    totals = [0.0] * (max_iterations + 1)
    for seeds in _seed_blocks(seed, "sens", range(trials), n):
        images = np.empty((len(seeds), 1 << n), dtype=np.uint64)
        hits, _ = _hits(images, game.ClassicalWorlds(params, 0.5, seeds, images).sk)
        for hit in hits:
            marked = set(hit.nonzero()[0].tolist())
            states = itertools.islice(_grover_iterates(n, marked), max_iterations + 1)
            for iters, psi in enumerate(states):
                totals[iters] += float(sum(abs(psi[y]) ** 2 for y in marked))
    return [(iters, total / trials) for iters, total in enumerate(totals)]


def security_bounds(scheme: str, q: int, n: int, l: int, w: int | None = None) -> dict:
    """Closed-form success bounds (full and simplified), clamped at 1."""
    if q < 0:
        raise ValueError("query count must be nonnegative")
    if scheme == "lamport":
        ots.LamportParams(n=n, l=l)  # the scheme's guard: n >= 1 and l >= 1
        full, simple = lemmas.forgery_bound_lamport(q, l, n)
    elif scheme == "winternitz":
        if w is None:
            raise ValueError("w required for the chain scheme")
        if n < 1:
            raise ValueError("security parameter n must be positive")
        if w < 2:
            raise ValueError("Winternitz parameter w must be at least 2")
        if l < 1:
            raise ValueError("chain count l must be positive")
        full, simple = lemmas.forgery_bound_winternitz(q, l, w, n)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return {"scheme": scheme, "q": q, "n": n, "l": l, "w": w, "full": full, "simplified": simple}
