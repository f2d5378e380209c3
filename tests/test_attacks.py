import contextlib
import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import reference
from test_game import SLACK, traced_peak

from qromlab import attacks, cli, game, ots, rom
from qromlab.attacks import _first_hit_weights


class TestSearchFormula:
    def test_values(self):
        assert attacks.p_search_formula(1, 1, 2) == pytest.approx(0.5)
        assert attacks.p_search_formula(16, 1, 4) == pytest.approx(1 - (1 - 2 / 16) ** 16)
        assert attacks.p_search_formula(0, 1, 4) == 0.0


class TestClassicalAttack:
    def test_zero_queries_never_wins(self):
        rep = attacks.classical_search_attack(3, 1, 0, trials=200, seed=0)
        assert rep.wins == 0 and rep.exact_reference == 0.0

    def test_first_hit_combinatorics_match_enumeration(self):
        # the hypergeometric accounting equals brute-force averaging over
        # every query subset
        for ws in range(6):
            for q in (1, 2, 4):
                seed = rom.derive_seed(5, "xc", ws, q)
                oracle, keypair, blinding = next(
                    game.ClassicalWorlds(ots.LamportParams(n=3, l=1), 0.5, [seed])
                )
                hits = reference.hit_wins(1, oracle, keypair.pk, blinding)
                p_win, _ = reference.first_hit_exact(_first_hit_weights(3, q), hits)
                assert p_win == pytest.approx(
                    reference.exact_win_by_subset_enumeration(3, 1, q, seed), abs=1e-12
                )

    def test_first_hit_weights_equal_the_binomial_ratio(self):
        # every rank a hit can have, q past the whole space included
        for n in range(1, 7):
            space = 1 << n
            for q in range(1, space + 3):
                weight = _first_hit_weights(n, q)
                q_eff = min(q, space)
                for rank in range(space):
                    expected = math.comb(space - 1 - rank, q_eff - 1) / math.comb(space, q_eff)
                    assert weight(rank) == expected, (n, q, rank)

    def test_past_the_table_cap_refused_before_any_weight(self, monkeypatch):
        def no_weights(n, q):
            raise AssertionError("first-hit weights built before the n cap")

        monkeypatch.setattr(attacks, "_first_hit_weights", no_weights)
        with pytest.raises(ValueError, match="capped at n <= 20, got n=40"):
            attacks.classical_search_attack(40, 1, 65536, trials=1)

    @pytest.mark.parametrize("n,q", [(3, 4), (4, 8)])
    def test_empirical_matches_exact_reference(self, n, q):
        rep = attacks.classical_search_attack(n, 1, q, trials=3000, seed=7)
        sigma = max(
            math.sqrt(max(rep.exact_reference * (1 - rep.exact_reference), 1e-9) / rep.trials),
            rep.reference_sigma,
        )
        assert abs(rep.empirical - rep.exact_reference) <= 3 * sigma

    def test_full_domain_query_is_deterministic_per_world(self):
        rep = attacks.classical_search_attack(3, 1, 8, trials=500, seed=9)
        assert rep.empirical == pytest.approx(rep.exact_reference, abs=1e-12)
        assert rep.search_rate == 1.0  # the secret keys are always preimages

    def test_success_below_theorem_bound(self):
        rep = attacks.classical_search_attack(4, 1, 4, trials=2000, seed=11)
        sigma = math.sqrt(max(rep.empirical * (1 - rep.empirical), 1e-9) / rep.trials)
        assert rep.empirical <= min(1.0, rep.bound_full) + 3 * sigma


class TestGrover:
    def test_exact_single_target_quarter_space(self):
        # one marked element in a 4-element space: one iteration is exact
        psi = attacks.grover_state(2, [3], 1)
        assert abs(psi[3]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_zero_iterations_is_uniform_guess(self):
        psi = attacks.grover_state(3, [1, 5], 0)
        assert sum(abs(psi[y]) ** 2 for y in (1, 5)) == pytest.approx(2 / 8)

    def test_default_schedule(self):
        assert attacks.default_grover_iterations(2, 1) == 1
        assert attacks.default_grover_iterations(4, 1) == 2

    def test_sampling_matches_projection(self):
        rep = attacks.grover_attack(4, 1, None, trials=3000, seed=13)
        sigma = math.sqrt(max(rep.search_exact * (1 - rep.search_exact), 1e-9) / rep.trials)
        assert abs(rep.search_rate - rep.search_exact) <= 3 * sigma
        sigma_w = max(
            math.sqrt(max(rep.exact_reference * (1 - rep.exact_reference), 1e-9) / rep.trials),
            rep.reference_sigma,
        )
        assert abs(rep.empirical - rep.exact_reference) <= 3 * sigma_w

    def test_success_below_theorem_bound(self):
        rep = attacks.grover_attack(4, 1, 2, trials=2000, seed=15)
        sigma = math.sqrt(max(rep.empirical * (1 - rep.empirical), 1e-9) / rep.trials)
        assert rep.empirical <= min(1.0, rep.bound_full) + 3 * sigma


@pytest.mark.parametrize("attack", [
    lambda: attacks.classical_search_attack(3, 1, 4, trials=60, seed=2),
    lambda: attacks.grover_attack(3, 1, None, trials=60, seed=2),
], ids=["classical", "grover"])
def test_game_judges_every_trial_once(attack, monkeypatch):
    # both attacks hand each trial's forgery to the game's one verdict path
    verdicts = []
    judge = game.run_with_world_classical

    def counted(*args):
        transcript = judge(*args)
        verdicts.append(transcript.verdict)
        return transcript

    monkeypatch.setattr(game, "run_with_world_classical", counted)
    rep = attack()
    assert len(verdicts) == rep.trials == 60
    assert verdicts.count("win") == rep.wins > 0


class TestCsvReport:
    def test_round_shape(self):
        rep = attacks.classical_search_attack(3, 1, 2, trials=50, seed=1)
        text = attacks.reports_to_csv([rep])
        lines = text.splitlines()
        assert lines[0].startswith("kind,n,l,q,trials")
        assert len(lines) == 2


class TestScheduleSensitivity:
    def test_sweep_reports_schedule_sensitivity(self):
        # the schedule is derived from the nominal target count 2l, but the
        # realized count is larger (the secret strings are always preimages),
        # so at this register size the peak sits below the nominal schedule;
        # the sweep is exactly the report that makes that visible
        sweep = attacks.grover_schedule_sensitivity(4, 1, 4, trials=150, seed=3)
        by_iter = dict(sweep)
        assert all(0.0 <= v <= 1.0 for v in by_iter.values())
        assert by_iter[0] == pytest.approx(0.23, abs=0.05)  # uniform guess ~ E[t]/16
        peak_iter = max(by_iter, key=by_iter.get)
        assert 1 <= peak_iter <= attacks.default_grover_iterations(4, 1)
        assert by_iter[peak_iter] > 3 * by_iter[0]

    @pytest.mark.parametrize("n,l,max_iterations,trials,seed", [(4, 1, 4, 150, 3), (5, 2, 6, 100, 1)])
    def test_single_evolution_matches_per_count_rebuild(self, n, l, max_iterations, trials, seed):
        got = attacks.grover_schedule_sensitivity(n, l, max_iterations, trials=trials, seed=seed)
        assert got == reference_schedule_sensitivity(n, l, max_iterations, trials, seed)


def reference_schedule_sensitivity(n, l, max_iterations, trials, seed):
    """The sweep as first written: every world's state rebuilt from scratch
    for every iteration count."""
    params = ots.LamportParams(n=n, l=l)
    worlds = []
    for t in range(trials):
        world_seed = rom.derive_seed(seed, "sens", t)
        oracle, keypair, blinding = next(game.ClassicalWorlds(params, 0.5, [world_seed]))
        worlds.append(set(y for y, _ in reference.hit_wins(l, oracle, keypair.pk, blinding)))
    out = []
    for iters in range(max_iterations + 1):
        total = 0.0
        for marked in worlds:
            psi = attacks.grover_state(n, marked, iters)
            total += float(sum(abs(psi[y]) ** 2 for y in marked))
        out.append((iters, total / trials))
    return out


# `attack` reports recorded before the trial loop read whole oracle tables.
# The 3-sigma tests above cannot see a shifted RNG stream or a reordered float
# sum; byte equality can.
GOLDEN_REPORTS = {
    "attack --kind classical --n 3 --l 1 --q 4 --trials 2000 --seed 10": """\
{
  "bound_full": 1.0,
  "bound_simple": 1.0,
  "empirical": 0.218,
  "exact_reference": 0.22067857142857183,
  "kind": "classical-search",
  "l": 1,
  "n": 3,
  "p_search_formula": 0.68359375,
  "q": 4,
  "reference_sigma": 0.006471464049098596,
  "search_exact": 0.8948999999999809,
  "search_rate": 0.898,
  "seed": 10,
  "trials": 2000,
  "wilson_high": 0.24692739451791845,
  "wilson_low": 0.1915992356463424,
  "wins": 436
}
""",
    "attack --kind classical --n 4 --l 1 --q 16 --trials 2000 --seed 10": """\
{
  "bound_full": 1.0,
  "bound_simple": 1.0,
  "empirical": 0.2535,
  "exact_reference": 0.2535,
  "kind": "classical-search",
  "l": 1,
  "n": 4,
  "p_search_formula": 0.8819329129787512,
  "q": 16,
  "reference_sigma": 0.0,
  "search_exact": 1.0,
  "search_rate": 1.0,
  "seed": 10,
  "trials": 2000,
  "wilson_high": 0.2837414462396334,
  "wilson_low": 0.22546711523373644,
  "wins": 507
}
""",
    "attack --kind grover --n 4 --l 1 --trials 2000 --seed 10": """\
{
  "bound_full": 1.0,
  "bound_simple": 1.0,
  "empirical": 0.114,
  "exact_reference": 0.1150455322265625,
  "kind": "grover",
  "l": 1,
  "n": 4,
  "p_search_formula": 0.234375,
  "q": 2,
  "reference_sigma": 0.0056113697333275364,
  "search_exact": 0.4572965087890625,
  "search_rate": 0.4725,
  "seed": 10,
  "trials": 2000,
  "wilson_high": 0.13707100917340068,
  "wilson_low": 0.09438742785994927,
  "wins": 228
}
""",
    "attack --kind classical --n 4 --l 2 --q 5 --trials 2000 --seed 10": """\
{
  "bound_full": 1.0,
  "bound_simple": 1.0,
  "empirical": 0.233,
  "exact_reference": 0.2286515567765571,
  "kind": "classical-search",
  "l": 2,
  "n": 4,
  "p_search_formula": 0.7626953125,
  "q": 5,
  "reference_sigma": 0.00778347308903495,
  "search_exact": 0.9255921474358738,
  "search_rate": 0.9285,
  "seed": 10,
  "trials": 2000,
  "wilson_high": 0.26251620771383444,
  "wilson_low": 0.20587602722892326,
  "wins": 466
}
""",
    "attack --kind grover --n 5 --l 2 --trials 2000 --seed 10": """\
{
  "bound_full": 1.0,
  "bound_simple": 1.0,
  "empirical": 0.107,
  "exact_reference": 0.10793485641479492,
  "kind": "grover",
  "l": 2,
  "n": 5,
  "p_search_formula": 0.234375,
  "q": 2,
  "reference_sigma": 0.006221778571555463,
  "search_exact": 0.4438603782653809,
  "search_rate": 0.4565,
  "seed": 10,
  "trials": 2000,
  "wilson_high": 0.12952479886833715,
  "wilson_low": 0.08799635593504762,
  "wins": 214
}
""",
    "attack --kind classical --n 3 --l 1 --q 4 --trials 2000 --seed 3": """\
{
  "bound_full": 1.0,
  "bound_simple": 1.0,
  "empirical": 0.2225,
  "exact_reference": 0.2181285714285716,
  "kind": "classical-search",
  "l": 1,
  "n": 3,
  "p_search_formula": 0.68359375,
  "q": 4,
  "reference_sigma": 0.006408763133238683,
  "search_exact": 0.8937499999999804,
  "search_rate": 0.892,
  "seed": 3,
  "trials": 2000,
  "wilson_high": 0.251609441545984,
  "wilson_low": 0.19587687005182586,
  "wins": 445
}
""",
    "attack --kind classical --n 4 --l 1 --q 16 --trials 2000 --seed 3": """\
{
  "bound_full": 1.0,
  "bound_simple": 1.0,
  "empirical": 0.2345,
  "exact_reference": 0.2345,
  "kind": "classical-search",
  "l": 1,
  "n": 4,
  "p_search_formula": 0.8819329129787512,
  "q": 16,
  "reference_sigma": 0.0,
  "search_exact": 1.0,
  "search_rate": 1.0,
  "seed": 3,
  "trials": 2000,
  "wilson_high": 0.26407231077470367,
  "wilson_low": 0.20730648464590362,
  "wins": 469
}
""",
    "attack --kind grover --n 4 --l 1 --trials 2000 --seed 3": """\
{
  "bound_full": 1.0,
  "bound_simple": 1.0,
  "empirical": 0.122,
  "exact_reference": 0.118380859375,
  "kind": "grover",
  "l": 1,
  "n": 4,
  "p_search_formula": 0.234375,
  "q": 2,
  "reference_sigma": 0.005629745214390369,
  "search_exact": 0.4521932373046875,
  "search_rate": 0.452,
  "seed": 3,
  "trials": 2000,
  "wilson_high": 0.14566450068484116,
  "wilson_low": 0.1017222588970404,
  "wins": 244
}
""",
    "attack --kind classical --n 4 --l 2 --q 5 --trials 2000 --seed 3": """\
{
  "bound_full": 1.0,
  "bound_simple": 1.0,
  "empirical": 0.24,
  "exact_reference": 0.2310844780219783,
  "kind": "classical-search",
  "l": 2,
  "n": 4,
  "p_search_formula": 0.7626953125,
  "q": 5,
  "reference_sigma": 0.007844683435434227,
  "search_exact": 0.9218759157508927,
  "search_rate": 0.9175,
  "seed": 3,
  "trials": 2000,
  "wilson_high": 0.2697738412228979,
  "wilson_low": 0.21255567594982488,
  "wins": 480
}
""",
    "attack --kind grover --n 5 --l 2 --trials 2000 --seed 3": """\
{
  "bound_full": 1.0,
  "bound_simple": 1.0,
  "empirical": 0.106,
  "exact_reference": 0.11657863235473633,
  "kind": "grover",
  "l": 2,
  "n": 5,
  "p_search_formula": 0.234375,
  "q": 2,
  "reference_sigma": 0.006447091998829083,
  "search_exact": 0.4520481262207031,
  "search_rate": 0.4325,
  "seed": 3,
  "trials": 2000,
  "wilson_high": 0.12844458946036325,
  "wilson_low": 0.08708552502445507,
  "wins": 212
}
""",
}


def _golden_id(argv: str) -> str:
    return argv.replace("attack --kind ", "").replace(" --", "-").replace(" ", "")


@pytest.mark.parametrize("argv", sorted(GOLDEN_REPORTS), ids=_golden_id)
def test_attack_report_bytes_are_pinned(argv, capsys):
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == GOLDEN_REPORTS[argv]


def test_measurement_draws_what_choice_draws():
    # the one sampler, which Grover measures with, is rng.choice(len(p), p=p)
    # without its checks: same outcome, same single uniform draw consumed
    gen = np.random.default_rng(99)
    cases = [attacks.grover_state(4, (3, 9), 2) ** 2, np.eye(1, 8, 5)[0]]
    for k in range(400):
        p = gen.random(1 + k % 33) ** 4
        p[gen.random(len(p)) < 0.3] = 0.0
        p[k % len(p)] += 0.1
        cases.append(p)
    for k, p in enumerate(cases):
        p = p / p.sum()
        seed = int(gen.integers(0, 2**63))
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert game.sample_index(p, rng.random()) == ref.choice(len(p), p=p), k
        assert rng.bit_generator.state == ref.bit_generator.state


def test_sampler_rejects_zero_mass():
    rng = np.random.default_rng(0)
    for probs in (np.zeros(3), np.full(2, np.nan)):
        with pytest.raises(ValueError, match="zero mass"):
            game.sample_index(probs, rng.random())


def test_batched_worlds_equal_worlds_from_default_rng():
    # attacks build a block of worlds at once, from seeds hashed in one pass
    # and draws taken as PCG64 words; each equals the world built from
    # default_rng at its own seed, and with its whole table given up front no
    # query of keygen hashes.  The shapes cover both ways of drawing words:
    # 300 seeds draw fewer words each than there are seeds, 3 seeds more
    # (8 blinding doubles), and 40-bit strings take a word each.
    trial_seeds = next(attacks._seed_blocks(3, "batch", range(300), 5))
    assert trial_seeds == [rom.derive_seed(3, "batch", t) for t in range(300)]
    draws = rom.derive_seeds(trial_seeds, ["queries"])[:, 0].tolist()
    assert draws == [rom.derive_seed(s, "queries") for s in trial_seeds]
    shapes = [
        (ots.LamportParams(n=4, l=2), trial_seeds, True),
        (ots.derive_wots_params(3, 4, 5), trial_seeds, True),
        (ots.LamportParams(n=4, l=3), trial_seeds[:3], True),
        (ots.derive_wots_params(3, 2, 40), trial_seeds[:20], False),
    ]
    for params, seeds, tables in shapes:
        shape = (len(seeds), 1 << params.n)
        for images in [None, np.empty(shape, dtype=np.uint64)] if tables else [None]:
            worlds = game.ClassicalWorlds(params, 0.5, seeds, images)
            assert worlds.sk.shape == (len(seeds), params.chains)
            for k, seed in enumerate(seeds):
                with pytest.MonkeyPatch.context() as patch:
                    if images is not None:  # keygen must not hash
                        patch.setattr(rom.RandomOracleTable, "_image", None)
                    oracle, keypair, blinding = next(worlds)
                assert oracle.seed == rom.derive_seed(seed, "oracle")
                lazy = rom.RandomOracleTable(params.n, oracle.seed)
                if images is not None:  # the memo starts full, with the lazy oracle's images
                    table = [lazy.query(x) for x in range(1 << params.n)]
                    assert reference.known(oracle) == dict(enumerate(table))
                    assert images[k].tolist() == table
                rng = np.random.default_rng(rom.derive_seed(seed, "keygen"))
                assert keypair == ots.keygen(params, lazy, rng)
                assert worlds.sk[k].tolist() == list(keypair.sk)
                rng = np.random.default_rng(rom.derive_seed(seed, "blinding"))
                drawn = game.sample_blinding_set(0.5, params.message_bits, rng)
                assert blinding.epsilon == drawn.epsilon
                assert blinding.mask.tolist() == drawn.mask.tolist() == worlds.blinded[k].tolist()
            assert next(worlds, None) is None


# (n, l, q) of every classical attack below: q from no query to more than the
# whole domain; at n = 1 two public-key strings collide in half the worlds.
ATTACK_SHAPES = [
    (n, l, q) for n in range(1, 7) for l in range(1, 4)
    for q in sorted({0, 1, 1 << (n - 1), 1 << n, (1 << n) + 3})
]
TRIALS_PER_SHAPE = 25


def world_by_world(n, l, q, trials, seed):
    """(win, search) probabilities of every world of ``classical_search_attack``
    from the full-table reference, and how many worlds have colliding
    public-key strings."""
    weight = _first_hit_weights(n, q)
    params = ots.LamportParams(n=n, l=l)
    probs = []
    collisions = 0
    for t in range(trials):
        world_seed = rom.derive_seed(seed, "classical", t)
        oracle, keypair, blinding = next(game.ClassicalWorlds(params, 0.5, [world_seed]))
        hits = reference.hit_wins(l, oracle, keypair.pk, blinding)
        probs.append(reference.first_hit_exact(weight, hits) if q > 0 else (0.0, 0.0))
        collisions += len(set(keypair.pk)) < len(keypair.pk)
    return probs, collisions


class TestBlockReference:
    @pytest.mark.parametrize("n,l,q,trials", [
        *((n, l, q, TRIALS_PER_SHAPE) for n, l, q in ATTACK_SHAPES),
        (6, 2, 20, 300),  # two blocks: 256 trials, then 44
    ])
    def test_block_reference_equals_world_by_world_reference(self, n, l, q, trials, monkeypatch):
        # each world's probabilities read from its block's arrays have the
        # bits of the full-table reference, and so do their sums in trial
        # order; one CPU, so every block is played, and recorded, here
        monkeypatch.setattr(attacks, "usable_cpus", lambda: 1)
        read = []
        play = attacks._play_block

        def recorded(*args):
            wins, searches, p_wins, p_hits = play(*args)
            read.extend(zip(p_wins, p_hits))
            return wins, searches, p_wins, p_hits

        monkeypatch.setattr(attacks, "_play_block", recorded)
        seed = rom.derive_seed(41, n, l, q)
        rep = attacks.classical_search_attack(n, l, q, trials, seed)
        want, _ = world_by_world(n, l, q, trials, seed)
        assert read == want
        exact = var = search = 0.0
        for p_win, p_hit in want:
            exact += p_win
            var += p_win * (1.0 - p_win)
            search += p_hit
        assert (rep.exact_reference, rep.reference_sigma, rep.search_exact) == (
            exact / trials, math.sqrt(var) / trials, search / trials)

    def test_worlds_cover_colliding_public_keys(self):
        collisions = sum(world_by_world(n, l, q, TRIALS_PER_SHAPE, rom.derive_seed(41, n, l, q))[1]
                         for n, l, q in ATTACK_SHAPES if n == 1)
        assert len(ATTACK_SHAPES) * TRIALS_PER_SHAPE >= 2000
        assert collisions >= 100

    def test_first_hit_adversary_forges_what_the_scanning_adversary_forges(self):
        # same forgery and verdict from fewer oracle calls, on the attack's
        # own worlds and query sets
        fewer = 0
        for n, l, q in ATTACK_SHAPES:
            space = 1 << n
            seeds = [rom.derive_seed(43, n, l, q, t) for t in range(TRIALS_PER_SHAPE)]
            for seed, world in zip(seeds, game.ClassicalWorlds(ots.LamportParams(n, l), 0.5, seeds)):
                if 0 < q < space:
                    rng = np.random.default_rng(rom.derive_seed(seed, "queries"))
                    queries = sorted(rng.choice(space, size=q, replace=False).tolist())
                else:
                    queries = range(min(q, space))
                new = game.run_with_world_classical(attacks._classical_adversary(queries), *world, seed)
                old = game.run_with_world_classical(reference.scanning_adversary(queries), *world, seed)
                assert (new.verdict, new.m_star, new.sigma_star, new.sign_queries) == (
                    old.verdict, old.m_star, old.sigma_star, old.sign_queries)
                assert new.hash_queries <= old.hash_queries == len(queries) <= q
                fewer += new.hash_queries < old.hash_queries
        assert fewer > 1000


class TestPeakMemory:
    # A block keeps its seeds, images and reference in numpy arrays and builds
    # one world at a time, so each attack's tracemalloc peak stays within the
    # parent's plus four SLACKs (1 MiB).  Read at the parent, here, and with
    # every block's worlds held in a list: classical 0.45, 1.06 and 2.28 MiB;
    # Grover, whose per-marked-set cache is most of it, 1.97, 2.49 and 3.51 MiB;
    # the n = 12 attack 0.44, 0.89 and 1.4 MiB.  On two CPUs the parent plays
    # half the blocks and then holds the child's per-trial values.
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("attack,parent_mib", [
        (lambda: attacks.classical_search_attack(4, 1, 16, 10000, 10), 0.45),
        (lambda: attacks.grover_attack(4, 1, None, 10000, 10), 1.97),
        (lambda: attacks.classical_search_attack(12, 1, 100, 20, 10), 0.44),
    ], ids=["classical", "grover", "classical-n12"])
    def test_attack_holds_no_block_of_worlds(self, attack, parent_mib, cpus, monkeypatch):
        monkeypatch.setattr(attacks, "usable_cpus", lambda: cpus)
        attacks.classical_search_attack(3, 1, 4, 10, 1)  # imports and first-use set-up
        assert traced_peak(attack) <= int(parent_mib * (1 << 20)) + 4 * SLACK

    def test_block_size_comes_from_a_byte_cap(self):
        # a row of images is 128 B at n = 4 and 32 KiB at n = 12
        assert [max(1, attacks._BLOCK_BYTES >> (n + 3)) for n in (4, 12)] == [1024, 4]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelTrials:
    # An attack plays contiguous shares of its trials in forked children, one
    # per usable CPU and at most one per block, and sums every share's
    # per-trial values in trial order: its report keeps the serial bytes.

    def test_shares_are_contiguous_near_equal_and_capped_by_blocks(self, monkeypatch):
        assert attacks.usable_cpus() == len(os.sched_getaffinity(0))

        def shares(cpus, trials, n):
            monkeypatch.setattr(attacks, "usable_cpus", lambda: cpus)
            return [(r.start, r.stop) for r in attacks._shares(trials, n)]

        assert shares(1, 10000, 4) == [(0, 10000)]
        assert shares(2, 10000, 4) == [(0, 5000), (5000, 10000)]
        assert shares(3, 3001, 4) == [(0, 1000), (1000, 2000), (2000, 3001)]
        assert shares(4, 3001, 4) == shares(3, 3001, 4)  # three blocks of at most 1024
        assert shares(3, 1024, 4) == [(0, 1024)]  # one block stays serial
        assert shares(8, 20, 12) == [(0, 4), (4, 8), (8, 12), (12, 16), (16, 20)]
        assert shares(2, 0, 4) == [(0, 0)]

    @pytest.mark.parametrize("kind,n,l,q,trials,block_bytes", [
        # n <= 3 with blocks of 512 trials, so 3001 trials make six blocks
        *(("classical", n, 1 + n % 3, q, 3001, 1 << (n + 12)) for n, q in ((1, 1), (2, 3), (3, 4))),
        *(("classical", n, 1 + n % 3, q, trials, None)
          for n, q, trials in ((4, 16, 5001), (5, 7, 3001), (6, 20, 3001))),
        ("classical", 12, 1, 100, 20, None),  # five blocks of four trials
        ("classical", 12, 2, 100, 7, None),  # two blocks: more CPUs than blocks
        ("grover", 3, 1, None, 3001, 1 << 15),
        ("grover", 4, 1, 0, 3001, None),
        ("grover", 5, 2, None, 5001, None),
        ("grover", 6, 1, None, 3001, None),
    ])
    def test_parallel_reports_equal_serial_reports(self, kind, n, l, q, trials, block_bytes,
                                                   monkeypatch):
        if block_bytes is not None:
            monkeypatch.setattr(attacks, "_BLOCK_BYTES", block_bytes)
        seed = rom.derive_seed(47, kind, n, l, trials)
        forks = []
        fork = os.fork

        def counted():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        reports = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(attacks, "usable_cpus", lambda: cpus)
            if kind == "classical":
                reports[cpus] = attacks.classical_search_attack(n, l, q, trials, seed)
            else:
                reports[cpus] = attacks.grover_attack(n, l, q, trials, seed)
            assert len(forks) == len(attacks._shares(trials, n)) - 1
            forks.clear()
        assert reports[1].search_exact > 0
        for cpus in (2, 3):
            assert reports[cpus] == reports[1]
            assert repr(reports[cpus]) == repr(reports[1])
        _no_child_left()

    def test_bench_attack_bytes_do_not_depend_on_the_cpus(self):
        # the seven classical bench commands at two seeds, in a fresh
        # interpreter on every usable CPU and in one pinned to a single CPU
        script = (
            "import contextlib, hashlib, io, os, sys\n"
            "if sys.argv[1] == 'pinned':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from qromlab import attacks, cli\n"
            "print(attacks.usable_cpus())\n"
            "for seed in (10, 3):\n"
            "    for argv in [\n"
            "        'attack --kind classical --n 3 --l 1 --q 4',\n"
            "        'attack --kind classical --n 4 --l 1 --q 16',\n"
            "        'attack --kind grover --n 4 --l 1',\n"
            "    ]:\n"
            "        out = io.StringIO()\n"
            "        with contextlib.redirect_stdout(out):\n"
            "            code = cli.main(f'{argv} --trials 10000 --seed {seed}'.split())\n"
            "        print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
            "for argv in ['--n 8 --l 1 --w 2', '--n 4 --l 2 --w 2', '--n 4 --l 1 --w 4',\n"
            "             '--n 2 --l 4 --w 2']:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = cli.main(['worlds', *argv.split()])\n"
            "    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left')\n"
        )
        runs = {}
        for mode in ("pinned", "free"):
            runs[mode] = subprocess.run([sys.executable, "-c", script, mode], env=_cli_env(),
                                        capture_output=True, text=True, check=True, timeout=300).stdout
        pinned, free = (runs[mode].splitlines() for mode in ("pinned", "free"))
        assert pinned[0] == "1" and int(free[0]) == len(os.sched_getaffinity(0))
        assert pinned[1:] == free[1:]
        assert len(free) == 12 and free[-1] == "no child left"
        assert all(line.startswith("0 ") for line in free[1:-1])

    @pytest.mark.parametrize("where", ["child", "parent"])
    @pytest.mark.parametrize("kind", ["classical", "grover"])
    def test_a_failing_trial_surfaces_and_leaves_no_child(self, kind, where, monkeypatch):
        # 600 trials at n = 6 are three blocks; two CPUs split them at 300
        monkeypatch.setattr(attacks, "usable_cpus", lambda: 2)
        seed = 5
        failing = rom.derive_seed(seed, kind, 450 if where == "child" else 10)
        judge = game.run_with_world_classical

        def failing_judge(*args):
            if args[-1] == failing:
                raise Boom(f"trial at seed {failing}")
            return judge(*args)

        monkeypatch.setattr(game, "run_with_world_classical", failing_judge)
        attack = (lambda: attacks.classical_search_attack(6, 1, 20, 600, seed)) if kind == "classical" \
            else (lambda: attacks.grover_attack(6, 1, None, 600, seed))
        if where == "child":
            with pytest.raises(RuntimeError, match=r"attack trials 300\.\.599 failed") as info:
                attack()
            assert f"Boom: trial at seed {failing}" in str(info.value)  # the child's traceback
        else:
            with pytest.raises(Boom):
                attack()
        _no_child_left()

    def test_an_interrupt_kills_the_children(self, monkeypatch):
        # the parent's share is interrupted at its first trial, while the
        # child's would take a minute: the child is killed, not awaited
        monkeypatch.setattr(attacks, "usable_cpus", lambda: 2)
        parent = os.getpid()

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(game, "run_with_world_classical", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            attacks.classical_search_attack(4, 1, 16, 10000, 3)
        assert time.monotonic() - start < 30
        _no_child_left()

    def test_a_child_that_ends_without_a_result_is_an_error(self, monkeypatch):
        monkeypatch.setattr(attacks, "usable_cpus", lambda: 2)
        last = rom.derive_seed(5, "classical", 599)
        judge = game.run_with_world_classical

        def vanishing(*args):
            if args[-1] == last:
                os._exit(3)
            return judge(*args)

        monkeypatch.setattr(game, "run_with_world_classical", vanishing)
        with pytest.raises(RuntimeError, match=r"trials 300\.\.599 failed.*\n.*without a result"):
            attacks.classical_search_attack(6, 1, 20, 600, 5)
        _no_child_left()

    def test_cli_report_is_printed_once(self):
        # stdout to a pipe is block-buffered: a child that flushed the
        # buffer it inherited would print what is in it a second time
        argv = "attack --kind classical --n 4 --l 1 --q 16 --trials 3001 --seed 3"
        script = (
            "import sys\n"
            "print('before the attack')\n"
            "from qromlab import cli\n"
            f"sys.exit(cli.main({argv.split()!r}))\n"
        )
        env = _cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert cli.main(argv.split()) == 0
        assert out.stdout == "before the attack\n" + buffer.getvalue()
        assert out.stderr == ""


class Boom(Exception):
    pass


def _cli_env():
    src = str(Path(attacks.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
