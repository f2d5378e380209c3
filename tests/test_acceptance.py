"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured headline number and wall time.  Run with -s to see the lines."""

import math
import time

import numpy as np
import pytest

from qromlab import attacks, cli, game, lemmas, ots, rom
from qromlab.qworlds import (
    BlindingSet,
    build_blinded_sign_unitary,
    build_invariant_projector,
    lamport_world,
    winternitz_world,
)

SWEEP_N = (1, 2)
SWEEP_L = (1, 2)
SWEEP_W = (2, 3)


def report(name, elapsed, budget, detail=""):
    print(f"[PASS] {name}: {detail} ({elapsed:.1f}s < {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_01_correctness_exhaustive():
    t0 = time.time()
    checked = 0
    for n in (2, 4):
        for l in range(1, 9):
            params = ots.LamportParams(n=n, l=l)
            oracle = rom.RandomOracleTable(n, seed=rom.derive_seed(1, "c1", n, l))
            kp = ots.keygen(params, oracle, np.random.default_rng(l * n))
            for m in range(1 << l):
                sig = ots.sign(params, kp.sk, m, oracle)
                assert ots.verify(params, kp.pk, m, sig.sigma, oracle)
                checked += 1
    for w in (2, 4):
        for a in range(1, 9):
            params = ots.derive_wots_params(a, w, 4)
            oracle = rom.RandomOracleTable(4, seed=rom.derive_seed(1, "c1w", a, w))
            kp = ots.keygen(params, oracle, np.random.default_rng(a * w))
            for m in range(1 << a):
                sig = ots.sign(params, kp.sk, m, oracle)
                assert ots.verify(params, kp.pk, m, sig.sigma, oracle)
                checked += 1
    report("criterion 1 correctness", time.time() - t0, 10, f"{checked} sign/verify pairs")


def test_criterion_02_checksum_domination():
    t0 = time.time()
    pairs = 0
    for a, w in ((4, 2), (8, 4)):
        params = ots.derive_wots_params(a, w, 4)
        vectors = [ots.digit_vector(m, params) for m in range(1 << a)]
        for m, bm in enumerate(vectors):
            for mp, bmp in enumerate(vectors):
                if m != mp:
                    assert any(x < y for x, y in zip(bmp, bm))
                    pairs += 1
    report("criterion 2 checksum domination", time.time() - t0, 10, f"{pairs} ordered pairs")


def test_criterion_03_overlap_norm_exact():
    t0 = time.time()
    values = []
    for n in (1, 2, 3, 4):
        rep_norm, rep_comm = lemmas.check_equality_uniform_overlap(n)
        assert rep_norm.passed and rep_norm.measured <= 1e-8
        assert rep_comm.passed
        values.append(rep_norm.note)
    report("criterion 3 overlap norm", time.time() - t0, 5, "; ".join(values))


def test_criterion_04_orthogonality_sweep():
    t0 = time.time()
    rng = np.random.default_rng(404)
    instances = 0
    for k in range(32):  # Lamport instances
        n = int(rng.integers(1, 3))
        l = int(rng.integers(1, 3))
        members = {m for m in range(1 << l) if rng.random() < 0.5} or {0}
        m_star = int(rng.choice(sorted(members)))
        (rep,) = lemmas.check_orthogonality(
            "lamport", n, l, 2, BlindingSet.explicit(l, members), m_star, seed=k
        )
        assert rep.passed and rep.measured < 1e-10
        instances += 1
    for k in range(24):  # chain-scheme instances
        n = int(rng.integers(1, 3))
        w = int(rng.choice(SWEEP_W))
        members = {m for m in range(2) if rng.random() < 0.5} or {0}
        m_star = int(rng.choice(sorted(members)))
        l = ots.derive_wots_params(1, w, n, require_power_of_two=False).l
        (rep,) = lemmas.check_orthogonality(
            "winternitz", n, l, w, BlindingSet.explicit(1, members), m_star, seed=1000 + k
        )
        assert rep.passed and rep.measured < 1e-10
        instances += 1
    report("criterion 4 orthogonality", time.time() - t0, 60, f"{instances} instances")


def test_criterion_05_no_hash_invariance():
    t0 = time.time()
    rng = np.random.default_rng(505)
    counts = {"lamport": 0, "winternitz": 0}
    worst = 0.0
    for scheme in counts:
        for k in range(20):
            n = int(rng.integers(1, 3))
            if scheme == "lamport":
                l = int(rng.integers(1, 3))
                members = {m for m in range(1 << l) if rng.random() < 0.5}
                if len(members) == (1 << l):
                    members.pop()  # leave something unblinded
                world = lamport_world(n, l, blinding=BlindingSet.explicit(l, members), seed=k)
            else:
                w = int(rng.choice(SWEEP_W))
                members = {m for m in range(2) if rng.random() < 0.5}
                if len(members) == 2:
                    members.pop()
                world = winternitz_world(n, 1, w, blinding=BlindingSet.explicit(1, members), seed=k)
            prog = game.random_program(world, 0, 0, seed=rom.derive_seed(505, scheme, k))
            seen = []
            states = game.evolve_program(
                prog, world, at_sign=lambda state, layout: seen.append(state.copy())
            )
            p = build_invariant_projector(world, states.layout)
            post_sign = build_blinded_sign_unitary(world, states.layout).apply(seen[0])
            dist = float(np.linalg.norm(p.apply(post_sign) - post_sign))
            assert dist < 1e-9
            worst = max(worst, dist)
            counts[scheme] += 1
    report(
        "criterion 5 no-hash invariance", time.time() - t0, 60,
        f"{counts} programs, worst distance {worst:.2e}",
    )


def test_criterion_06_commutator_bounds():
    t0 = time.time()
    rows = []
    for n in SWEEP_N:
        for l in SWEEP_L:
            (rep,) = lemmas.check_uniform_register_commutator("lamport", n, l, seed=6)
            assert rep.passed
            rows.append(rep)
            (rep,) = lemmas.check_invariant_commutator("lamport", n, l, seed=6)
            assert rep.passed
            rows.append(rep)
            for w in SWEEP_W:
                (rep,) = lemmas.check_uniform_register_commutator("winternitz", n, l, w, seed=6)
                assert rep.passed
                rows.append(rep)
                (rep,) = lemmas.check_invariant_commutator("winternitz", n, l, w, seed=6)
                assert rep.passed
                rows.append(rep)
    worst_margin = min(r.bound - r.measured for r in rows)
    report(
        "criterion 6 commutator bounds", time.time() - t0, 300,
        f"{len(rows)} norms, smallest margin {worst_margin:.3f}",
    )


def test_criterion_07_drift_bounds():
    t0 = time.time()
    points = 0
    for n in SWEEP_N:
        for q0 in (0, 1, 2):
            for q1 in (0, 1, 2):
                for l in SWEEP_L:
                    reps = lemmas.check_state_drift(
                        "lamport", n, l, 2, q0, q1,
                        program_seed=rom.derive_seed(7, "L", n, l, q0, q1),
                    )
                    assert all(r.passed for r in reps)
                    points += 1
                for w in SWEEP_W:
                    l = ots.derive_wots_params(1, w, n, require_power_of_two=False).l
                    reps = lemmas.check_state_drift(
                        "winternitz", n, l, w, q0, q1,
                        program_seed=rom.derive_seed(7, "W", n, w, q0, q1),
                    )
                    assert all(r.passed for r in reps)
                    points += 1
    report("criterion 7 drift bounds", time.time() - t0, 600, f"{points} sweep points x 3 checks")


def test_criterion_08_modified_game():
    t0 = time.time()
    # forced outcome never fires without oracle queries
    rng = np.random.default_rng(808)
    for scheme in ("lamport", "winternitz"):
        for k in range(10):
            n = int(rng.integers(1, 3))
            if scheme == "lamport":
                l = int(rng.integers(1, 3))
                members = {m for m in range(1 << l) if rng.random() < 0.6} or {0}
                world = lamport_world(n, l, blinding=BlindingSet.explicit(l, members), seed=k)
            else:
                w = int(rng.choice(SWEEP_W))
                members = {m for m in range(2) if rng.random() < 0.6} or {0}
                world = winternitz_world(n, 1, w, blinding=BlindingSet.explicit(1, members), seed=k)
            prog = game.random_program(world, 0, 0, seed=rom.derive_seed(808, scheme, k))
            _, an = game.run_quantum_game(prog, world, mode="modified", seed=k)
            assert an.p_forced_outcome_blinded < 1e-10
    # pinching relation on random programs with queries, both schemes
    checked = 0
    for k in range(20):
        n = int(rng.integers(1, 3))
        if k % 2 == 0:
            l = int(rng.integers(1, 3))
            members = {m for m in range(1 << l) if rng.random() < 0.5}
            world = lamport_world(n, l, blinding=BlindingSet.explicit(l, members), seed=100 + k)
        else:
            w = int(rng.choice(SWEEP_W))
            members = {m for m in range(2) if rng.random() < 0.5}
            world = winternitz_world(n, 1, w, blinding=BlindingSet.explicit(1, members), seed=100 + k)
        q0, q1 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        prog = game.random_program(world, q0, q1, seed=rom.derive_seed(808, "pinch", k))
        _, an = game.run_quantum_game(prog, world, mode="modified", seed=100 + k)
        assert an.p_win_plain <= (world.l_sem + 1) * an.p_win_modified + 1e-9
        checked += 1
    report("criterion 8 modified game", time.time() - t0, 300, f"{checked} pinching programs")


def test_criterion_09_worlds():
    t0 = time.time()
    for n, l, w in ((4, 1, 2), (6, 1, 2), (4, 2, 2)):
        reps = lemmas.check_world_closeness(n, l, w)
        assert all(r.passed for r in reps)
    pairs = 0
    for n in SWEEP_N:
        for l in SWEEP_L:
            (rep,) = lemmas.check_oracle_reprogramming_consistency("lamport", n, l, seed=9)
            assert rep.passed and rep.measured == 0.0
            pairs += 1
        for w in SWEEP_W:
            (rep,) = lemmas.check_oracle_reprogramming_consistency("winternitz", n, 2, w, seed=9)
            assert rep.passed and rep.measured == 0.0
            pairs += 1
    report("criterion 9 worlds", time.time() - t0, 300, f"3 distribution points, {pairs} oracle grids")


def test_criterion_10_attack_tightness():
    t0 = time.time()
    details = []
    for n, q in ((3, 4), (4, 16)):
        rep = attacks.classical_search_attack(n, 1, q, trials=10_000, seed=10)
        sigma = max(
            math.sqrt(max(rep.exact_reference * (1 - rep.exact_reference), 1e-9) / rep.trials),
            rep.reference_sigma,
        )
        assert abs(rep.empirical - rep.exact_reference) <= 3 * sigma
        emp_sigma = math.sqrt(max(rep.empirical * (1 - rep.empirical), 1e-9) / rep.trials)
        assert rep.empirical <= min(1.0, rep.bound_full) + 3 * emp_sigma
        details.append(f"n={n} emp={rep.empirical:.4f} ref={rep.exact_reference:.4f}")
    # Grover search step exact at one marked element in a 4-element space
    psi = attacks.grover_state(2, [3], 1)
    assert abs(psi[3]) ** 2 == pytest.approx(1.0, abs=1e-12)
    grep = attacks.grover_attack(4, 1, None, trials=10_000, seed=10)
    gsigma = max(
        math.sqrt(max(grep.exact_reference * (1 - grep.exact_reference), 1e-9) / grep.trials),
        grep.reference_sigma,
    )
    assert abs(grep.empirical - grep.exact_reference) <= 3 * gsigma
    emp_sigma = math.sqrt(max(grep.empirical * (1 - grep.empirical), 1e-9) / grep.trials)
    assert grep.empirical <= min(1.0, grep.bound_full) + 3 * emp_sigma
    report("criterion 10 attack tightness", time.time() - t0, 300, "; ".join(details))


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.time()
    cases = [
        ["keygen", "--scheme", "winternitz", "--n", "8", "--a", "4", "--w", "4", "--seed", "2"],
        ["game", "--scheme", "lamport", "--n", "4", "--a", "2", "--seed", "2"],
        ["qgame", "--scheme", "lamport", "--n", "1", "--a", "1", "--mode", "modified", "--seed", "2"],
        ["lemmas", "--scheme", "lamport", "--n", "2", "--l", "1", "--q0", "1", "--q1", "1", "--seed", "2"],
        ["worlds", "--n", "4", "--l", "1", "--w", "2", "--seed", "2"],
        ["attack", "--kind", "classical", "--n", "3", "--l", "1", "--q", "2", "--trials", "300", "--seed", "2"],
        ["attack", "--kind", "grover", "--n", "3", "--l", "1", "--trials", "200", "--seed", "2"],
        ["bounds", "--scheme", "lamport", "--q", "1", "--l", "1", "--n", "20", "--seed", "2"],
    ]
    # sign/verify determinism rides on a key file
    key = tmp_path / "key.json"
    sig1, sig2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert cli.main(["keygen", "--scheme", "lamport", "--n", "8", "--a", "2",
                     "--seed", "2", "--out", str(key)]) == 0
    assert cli.main(["sign", "--key", str(key), "--message", "1", "--seed", "2", "--out", str(sig1)]) == 0
    assert cli.main(["sign", "--key", str(key), "--message", "1", "--seed", "2", "--out", str(sig2)]) == 0
    assert sig1.read_bytes() == sig2.read_bytes()
    for idx, argv in enumerate(cases):
        a = tmp_path / f"a{idx}.out"
        b = tmp_path / f"b{idx}.out"
        assert cli.main(argv + ["--out", str(a)]) in (0, 2)
        assert cli.main(argv + ["--out", str(b)]) in (0, 2)
        assert a.read_bytes() == b.read_bytes(), argv
    report("criterion 11 determinism", time.time() - t0, 120, f"{len(cases) + 1} subcommands")
