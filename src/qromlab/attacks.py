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
        y_star = None
        pk_index = None
        for y in queries:  # scan hits in ascending order
            hy = handles.hash_query(y)
            if pk_index is None and hy in handles.pk:
                y_star, pk_index = y, handles.pk.index(hy)  # first matching string
        if pk_index is None:
            return None  # concede: no preimage found
        return _forge(handles, y_star, pk_index)  # None when the sign query was blinded

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


def _first_hit_exact(
    weight: Callable[[int], float], hits: list[tuple[int, bool]]
) -> tuple[float, float]:
    """(win probability, hit probability) over a uniform random q-subset of inputs.

    ``hits`` lists (input, wins-if-first) for every preimage of a public-key
    string, ascending; ``weight`` comes from :func:`_first_hit_weights`.
    """
    p_win = 0.0
    p_hit = 0.0
    for rank, (_, wins) in enumerate(hits):
        p_first = weight(rank)
        p_hit += p_first
        if wins:
            p_win += p_first
    return p_win, p_hit


def _hit_wins(l: int, oracle: rom.RandomOracleTable, pk, blinding) -> list[tuple[int, bool]]:
    """All oracle inputs mapping onto the public key, ascending, with the win
    verdict the forgery pipeline reaches if that input is the first hit."""
    verdict: dict[int, bool] = {}
    for idx, p in enumerate(pk):  # a string's first index is the one forged
        if p not in verdict:
            _, m, m_prime = _forgery_messages(l, idx)
            verdict[p] = (m not in blinding) and (m_prime in blinding)
    return [(y, verdict[h]) for y, h in enumerate(oracle.full_table()) if h in verdict]


# Trials whose seeds, worlds and generators are derived together.
_BLOCK = 1000


def _seed_blocks(seed: int, label: str, trials: int):
    """The trial seeds ``derive_seed(seed, label, t)`` for t < trials, one
    list of at most :data:`_BLOCK` seeds at a time."""
    for start in range(0, trials, _BLOCK):
        yield [rom.derive_seed(seed, label, t) for t in range(start, min(start + _BLOCK, trials))]


def _run_attack(
    kind: str, label: str, draw_label: str | None,
    n: int, l: int, q: int, trials: int, seed: int, trial,
):
    """The trial loop both attacks share, and their report.

    Each trial builds the game's world at its own seed (blinding rate 1/2).
    ``trial(rng, oracle, keypair, blinding)`` returns the exact (win, hit)
    probabilities on that world and the adversary, whose forgery the game
    then judges; ``rng`` is the generator at the trial seed's sub-label
    ``draw_label``, or None when the attack draws nothing.  An adversary
    makes its one signing query exactly when its search found a preimage, so
    that query counts the search hits.
    """
    params = ots.LamportParams(n=n, l=l)
    wins = searches = 0
    exact_sum = exact_var = search_exact_sum = 0.0
    for seeds in _seed_blocks(seed, label, trials):
        worlds = game.classical_worlds(params, 0.5, seeds)
        if draw_label is None:
            rngs = itertools.repeat(None)
        else:
            rngs = rom.default_rngs(rom.derive_seed(s, draw_label) for s in seeds)
        for trial_seed, world, rng in zip(seeds, worlds, rngs):
            p_win, p_hit, adversary = trial(rng, *world)
            exact_sum += p_win
            exact_var += p_win * (1.0 - p_win)
            search_exact_sum += p_hit
            transcript = game.run_with_world_classical(adversary, *world, trial_seed)
            wins += transcript.verdict == "win"
            searches += transcript.sign_queries
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

    def trial(rng, oracle, keypair, blinding):
        # Exact reference uses the same world; the sampled run must match it on average.
        hits = _hit_wins(l, oracle, keypair.pk, blinding)
        p_win, p_hit = _first_hit_exact(weight, hits) if q > 0 else (0.0, 0.0)
        if rng is None:  # q = 0 or q >= 2^n: the query set is not random
            queries = range(min(q, space))
        else:
            queries = sorted(rng.choice(space, size=q, replace=False).tolist())
        return p_win, p_hit, _classical_adversary(queries)

    draw_label = "queries" if 0 < q < space else None
    return _run_attack(
        "classical-search", "classical", draw_label, n, l, q, trials, seed, trial
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
        psi = 2.0 * psi.mean() - psi


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
    # Measurement distribution and search success per marked set; worlds
    # repeat marked sets often at these register sizes.
    by_marked: dict[tuple[int, ...], tuple[np.ndarray, float]] = {}

    def trial(rng, oracle, keypair, blinding):
        hit_wins = dict(_hit_wins(l, oracle, keypair.pk, blinding))
        marked = tuple(hit_wins)
        if marked not in by_marked:
            probs = np.abs(grover_state(n, marked, iterations)) ** 2
            probs = probs / probs.sum()
            by_marked[marked] = probs, float(sum(probs[y] for y in marked))
        probs, p_search = by_marked[marked]
        p_win = float(sum(probs[y] for y, ok in hit_wins.items() if ok))
        y_star = game.sample_index(probs, rng)

        def adversary(handles: game.ClassicalHandles):
            if y_star not in hit_wins:
                return None
            return _forge(handles, y_star, handles.pk.index(handles.hash_query(y_star)))

        return p_win, p_search, adversary

    return _run_attack("grover", "grover", "measure", n, l, iterations, trials, seed, trial)


def grover_schedule_sensitivity(
    n: int, l: int, max_iterations: int, trials: int = 200, seed: int = 0
) -> list[tuple[int, float]]:
    """Mean exact search success per iteration count.

    The schedule is fixed from the expected target count; the realized count
    is binomial, so this sweep reports how forgiving that choice is.
    """
    params = ots.LamportParams(n=n, l=l)
    totals = [0.0] * (max_iterations + 1)
    for seeds in _seed_blocks(seed, "sens", trials):
        for oracle, keypair, blinding in game.classical_worlds(params, 0.5, seeds):
            marked = set(y for y, _ in _hit_wins(l, oracle, keypair.pk, blinding))
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
