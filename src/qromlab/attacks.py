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
"""

from __future__ import annotations

import functools
import itertools
import math
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


def _hits(images: np.ndarray, pk: np.ndarray, wins_if: np.ndarray):
    """Hit and win masks, one row per world: input y hits when its image is a public-key
    string, and wins when the forgery from that string's first index does (``wins_if``)."""
    match = images[:, :, None] == pk[:, None, :]
    hit = match.any(axis=2)
    return hit, hit & np.take_along_axis(wins_if, match.argmax(axis=2), axis=1)


# Oracle-image bytes per block of trials, whose seeds and worlds are derived together.
_BLOCK_BYTES = 1 << 17


def _seed_blocks(seed: int, label: str, trials: int, n: int):
    """The trial seeds ``derive_seed(seed, label, t)`` for t < trials, one
    list per block of trials whose oracle tables take _BLOCK_BYTES."""
    block = max(1, _BLOCK_BYTES >> (n + 3))
    for start in range(0, trials, block):
        labels = [f"{label}/{t}" for t in range(start, min(start + block, trials))]
        yield rom.derive_seeds([seed], labels)[0].tolist()


def _play_block(params, seeds: list[int], draw_label: str | None, trial, chances):
    """The wins, signing queries, and exact win and search probabilities of
    a block of trials; its arrays go before the next block's are made."""
    n, l = params.n, params.l
    forgeries = [_forgery_messages(l, index)[1:] for index in range(2 * l)]
    images = np.empty((len(seeds), 1 << n), dtype=np.uint64)
    pk = np.empty((len(seeds), 2 * l), dtype=np.uint64)
    wins_if = np.empty((len(seeds), 2 * l), dtype=bool)
    rngs = itertools.repeat(None)
    if draw_label is not None:
        rngs = rom.default_rngs(rom.derive_seeds(seeds, [draw_label])[:, 0].tolist())
    wins = searches = 0
    worlds = game.classical_worlds(params, 0.5, seeds, images)
    for k, (trial_seed, rng) in enumerate(zip(seeds, rngs)):
        world = next(worlds)
        keypair, blinding = world[1:]
        pk[k] = keypair.pk
        wins_if[k] = [m not in blinding and m_prime in blinding for m, m_prime in forgeries]
        adversary = trial(rng, images[k], *world)
        transcript = game.run_with_world_classical(adversary, *world, trial_seed)
        wins += transcript.verdict == "win"
        searches += transcript.sign_queries
        del world  # one oracle memo lives at a time: the next is filled after this goes
    hit, win = _hits(images, pk, wins_if)
    chance = chances(hit)
    p_wins = np.where(win, chance, 0.0).cumsum(axis=1)[:, -1].tolist()
    p_hits = np.where(hit, chance, 0.0).cumsum(axis=1)[:, -1].tolist()
    return wins, searches, p_wins, p_hits


def _run_attack(
    kind: str, label: str, draw_label: str | None,
    n: int, l: int, q: int, trials: int, seed: int, trial, chances,
):
    """The trial loop both attacks share, and their report.

    Each trial builds the game's world at its own seed (blinding rate 1/2),
    its oracle's memo full.  ``trial(rng, images, oracle, keypair, blinding)``
    returns the adversary, whose forgery the game then judges; ``images`` is
    the oracle's whole table and ``rng`` the generator at the trial seed's
    sub-label ``draw_label``, or None when the attack draws nothing.  The
    exact reference is read from each block's arrays: ``chances(hit)`` gives
    each hit of each world the chance that the adversary submits it, and a
    sequential cumsum in input order (its added zeros are exact) sums those
    of the hits and of the winning hits.  An adversary makes its one signing
    query exactly when its search found a preimage, so that query counts the
    search hits.
    """
    params = ots.LamportParams(n=n, l=l)
    wins = searches = 0
    exact_sum = exact_var = search_exact_sum = 0.0
    for seeds in _seed_blocks(seed, label, trials, n):
        won, searched, p_wins, p_hits = _play_block(params, seeds, draw_label, trial, chances)
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

    def trial(rng, images, oracle, keypair, blinding):
        if rng is None:  # q = 0 or q >= 2^n: the query set is not random
            return _classical_adversary(range(min(q, space)))
        return _classical_adversary(sorted(rng.choice(space, size=q, replace=False).tolist()))

    def first_hit(hit):
        # A hit is submitted when it is the first one queried: its rank's weight.
        ranks = hit.cumsum(axis=1) - 1
        table = np.array([weight(r) if q else 0.0 for r in range(ranks.max(initial=0) + 1)])
        return np.where(hit, table[ranks], 0.0)

    draw_label = "queries" if 0 < q < space else None
    return _run_attack(
        "classical-search", "classical", draw_label, n, l, q, trials, seed, trial, first_hit
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
    # Measurement distribution per marked set, which worlds repeat often at these sizes.
    by_marked: dict[tuple[int, ...], np.ndarray] = {}

    def trial(rng, images, oracle, keypair, blinding):
        marked = tuple(y for y, image in enumerate(images.tolist()) if image in keypair.pk)
        if marked not in by_marked:
            probs = np.abs(grover_state(n, marked, iterations)) ** 2
            by_marked[marked] = probs / probs.sum()
        y_star = game.sample_index(by_marked[marked], rng)

        def adversary(handles: game.ClassicalHandles):
            if y_star not in marked:
                return None
            return _forge(handles, y_star, handles.pk.index(handles.hash_query(y_star)))

        return adversary

    def probs(hit):
        return np.array([by_marked[tuple(row.nonzero()[0].tolist())] for row in hit])

    return _run_attack("grover", "grover", "measure", n, l, iterations, trials, seed, trial, probs)


def grover_schedule_sensitivity(
    n: int, l: int, max_iterations: int, trials: int = 200, seed: int = 0
) -> list[tuple[int, float]]:
    """Mean exact search success per iteration count.

    The schedule is fixed from the expected target count; the realized count
    is binomial, so this sweep reports how forgiving that choice is.
    """
    params = ots.LamportParams(n=n, l=l)
    totals = [0.0] * (max_iterations + 1)
    for seeds in _seed_blocks(seed, "sens", trials, n):
        images = np.empty((len(seeds), 1 << n), dtype=np.uint64)
        for k, (_, keypair, _) in enumerate(game.classical_worlds(params, 0.5, seeds, images)):
            marked = set(y for y, image in enumerate(images[k].tolist()) if image in keypair.pk)
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
