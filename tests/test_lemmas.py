import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference
from test_attacks import Boom, _no_child_left

from qromlab import game, lemmas, ots, qsim, qworlds, rom
from qromlab.qsim import RegisterLayout
from qromlab.qworlds import (
    build_invariant_projector,
    build_query_unitary,
    chain_world,
    invariant_projector_from_thresholds,
    lamport_world,
)


class TestBoundFormulas:
    def test_values(self):
        assert lemmas.eps(2, 2) == pytest.approx(3.0)
        assert lemmas.delta("lamport", 2, 2, 2) == pytest.approx(16.0)
        assert lemmas.eps(1, 3) == pytest.approx(12 / np.sqrt(2))
        assert lemmas.delta("winternitz", 2, 1, 3) == pytest.approx(8 * 4 * 2 / 2)

    def test_forgery_bounds(self):
        full, simple = lemmas.forgery_bound("lamport", 1, 20, 2, 2)
        assert simple == pytest.approx(6286 * 2.0 ** -20)
        assert simple == pytest.approx(5.995e-3, rel=1e-3)
        full_q0, _ = lemmas.forgery_bound("lamport", 0, 20, 2, 2)
        assert full_q0 == pytest.approx(12 * 2.0 ** -20)
        _, wsimple = lemmas.forgery_bound("winternitz", 1, 20, 1, 2)
        assert wsimple == pytest.approx(800 * 16 * 2.0 ** -20)
        assert wsimple == pytest.approx(1.22e-2, rel=1e-2)

    def test_clamped_at_one(self):
        full, simple = lemmas.forgery_bound("lamport", 10, 2, 8, 2)
        assert full == 1.0 and simple == 1.0

    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_simplified_dominates_full(self, q):
        for n in (8, 16, 32):
            for l in (1, 2, 4):
                full, simple = lemmas.forgery_bound("lamport", q, n, 2 * l, 2)
                assert simple >= full or simple == 1.0
                for w in (2, 4):
                    fullw, simplew = lemmas.forgery_bound("winternitz", q, n, l, w)
                    assert simplew >= fullw or simplew == 1.0

    def test_drift_bounds_vanish_only_without_queries(self):
        for scheme, chains, w in (("lamport", 4, 2), ("winternitz", 2, 3)):
            assert lemmas.invariant_drift_bound(scheme, 2, chains, w, 0, 0) == 0.0
            assert lemmas.invariant_drift_bound(scheme, 2, chains, w, 1, 0) > 0.0
            assert lemmas.invariant_drift_bound(scheme, 2, chains, w, 0, 1) > 0.0
            assert lemmas.presign_drift_bound(2, chains, w, 0) == 0.0

    def test_security_bounds_dispatch(self):
        doc = lemmas.security_bounds("lamport", 1, 20, 1)
        assert doc["simplified"] == pytest.approx(6286 * 2.0 ** -20)
        doc = lemmas.security_bounds("winternitz", 1, 20, 2, w=2)
        assert doc["simplified"] == pytest.approx(102400 / 2 ** 20)
        with pytest.raises(ValueError):
            lemmas.security_bounds("winternitz", 1, 20, 2)
        # l = l1 + l2: a Winternitz key has a message and a checksum chain
        with pytest.raises(ValueError, match="at least 2"):
            lemmas.security_bounds("winternitz", 1, 20, 1, w=2)
        with pytest.raises(ValueError):
            lemmas.security_bounds("lamport", -1, 20, 1)


# The grid the bounds are compared on: every n an oracle serves, l up to 32,
# chain lengths up to 16, q0 and q1 up to 8, and forgery query counts.
GRID_NS = range(1, 64)
GRID_LS = range(1, 33)
GRID_WS = range(2, 17)
GRID_QS = range(0, 9)
FORGERY_QS = (0, 1, 2, 7, 2 ** 10)


def grid(*axes):
    return list(itertools.product(*axes))


class TestBoundsMatchThePerSchemeFormulas:
    """Every bound in ``lemmas``, written once over chain count and chain
    length, against the per-scheme formulas of ``reference``, over Lamport's
    l message bits (2l chains of length 2) and Winternitz's l chains of
    length w.  Floats compare with ``==``: every value is finite and none is
    a negative zero, so equal means bit for bit."""

    def test_eps(self):
        assert [lemmas.eps(n, 2) for n in GRID_NS] == [reference.eps_lamport(n) for n in GRID_NS]
        points = grid(GRID_NS, GRID_WS)
        assert ([lemmas.eps(n, w) for n, w in points]
                == [reference.eps_winternitz(n, w) for n, w in points])

    def test_delta(self):
        points = grid(GRID_NS, GRID_LS)
        assert ([lemmas.delta("lamport", n, 2 * l, 2) for n, l in points]
                == [reference.delta_lamport(n, l) for n, l in points])
        points = grid(GRID_NS, GRID_LS, GRID_WS)
        assert ([lemmas.delta("winternitz", n, l, w) for n, l, w in points]
                == [reference.delta_winternitz(n, l, w) for n, l, w in points])

    def test_presign_drift(self):
        points = grid(GRID_NS, GRID_LS, GRID_QS)
        assert ([lemmas.presign_drift_bound(n, 2 * l, 2, q0) for n, l, q0 in points]
                == [reference.presign_drift_bound("lamport", n, l, 2, q0) for n, l, q0 in points])
        points = grid(GRID_NS, GRID_LS, GRID_WS, GRID_QS)
        assert ([lemmas.presign_drift_bound(n, l, w, q0) for n, l, w, q0 in points]
                == [reference.presign_drift_bound("winternitz", n, l, w, q0)
                    for n, l, w, q0 in points])

    def test_invariant_drift(self):
        points = grid(GRID_NS, GRID_LS, GRID_QS, GRID_QS)
        assert ([lemmas.invariant_drift_bound("lamport", n, 2 * l, 2, q0, q1)
                 for n, l, q0, q1 in points]
                == [reference.invariant_drift_bound("lamport", n, l, 2, q0, q1)
                    for n, l, q0, q1 in points])
        # Winternitz's whole product is 2.4 million points; take every (n, l,
        # w) at the extreme query counts, and every (q0, q1) at every n on a
        # spread of (l, w).
        points = (grid(GRID_NS, GRID_LS, GRID_WS, (0, 1, 8), (0, 1, 8))
                  + grid(GRID_NS, (1, 2, 3, 5, 8, 13, 21, 32), (2, 3, 4, 7, 16), GRID_QS, GRID_QS))
        assert ([lemmas.invariant_drift_bound("winternitz", n, l, w, q0, q1)
                 for n, l, w, q0, q1 in points]
                == [reference.invariant_drift_bound("winternitz", n, l, w, q0, q1)
                    for n, l, w, q0, q1 in points])

    def test_forgery_as_the_bounds_command_reads_it(self):
        points = grid(FORGERY_QS, GRID_NS, GRID_LS)
        got = [lemmas.security_bounds("lamport", q, n, l) for q, n, l in points]
        assert ([(doc["full"], doc["simplified"]) for doc in got]
                == [reference.forgery_bound_lamport(q, l, n) for q, n, l in points])
        # a Lamport key's chains have length 2 whatever --w reads
        at_w5 = lemmas.security_bounds("lamport", 7, 9, 3, 5)
        assert (at_w5["full"], at_w5["simplified"]) == reference.forgery_bound_lamport(7, 3, 9)
        points = grid(FORGERY_QS, GRID_NS, GRID_LS[1:], GRID_WS)  # a Winternitz key has l >= 2
        got = [lemmas.security_bounds("winternitz", q, n, l, w) for q, n, l, w in points]
        assert ([(doc["full"], doc["simplified"]) for doc in got]
                == [reference.forgery_bound_winternitz(q, l, w, n) for q, n, l, w in points])

    def test_overlap_and_chain_distances(self):
        assert ([lemmas.overlap_commutator_bound(n) for n in GRID_NS]
                == [reference.overlap_commutator_bound(n) for n in GRID_NS])
        points = grid(GRID_NS, GRID_LS, GRID_WS)
        assert ([lemmas.chain_distance_bound(n, l, w) for n, l, w in points]
                == [reference.chain_tv_bound(n, l, w) for n, l, w in points])
        assert ([lemmas.chain_collision_bound(n, l, w) for n, l, w in points]
                == [reference.chain_collision_bound(n, l, w) for n, l, w in points])

    @pytest.mark.parametrize("scheme,n,l,w", [
        ("lamport", 1, 1, 2), ("lamport", 1, 2, 3), ("lamport", 2, 1, 5),
        ("winternitz", 1, 2, 3), ("winternitz", 2, 2, 2), ("winternitz", 1, 3, 2),
    ])
    def test_checks_pass_the_world_chain_count(self, scheme, n, l, w):
        """Each check's bound is the per-scheme formula at its row's (n, l,
        w): a Lamport row's chain count is 2l and its chain length 2, never
        the w it was called with."""
        ref_w = 2 if scheme == "lamport" else w
        eps = (reference.eps_lamport(n) if scheme == "lamport"
               else reference.eps_winternitz(n, w))
        delta = (reference.delta_lamport(n, l) if scheme == "lamport"
                 else reference.delta_winternitz(n, l, w))
        (rep,) = lemmas.check_uniform_register_commutator(scheme, n, l, w)
        assert rep.bound == eps
        (rep,) = lemmas.check_invariant_commutator(scheme, n, l, w)
        assert rep.bound == delta
        if scheme == "winternitz":
            l = ots.derive_wots_params(1, w, n, require_power_of_two=False).l
        rows = lemmas.check_state_drift(scheme, n, l, w, 1, 1)
        assert [r.bound for r in rows] == [
            reference.presign_drift_bound(scheme, n, l, ref_w, 1),
            *[reference.invariant_drift_bound(scheme, n, l, ref_w, 1, 1)] * 2,
        ]


class TestTrivialCaps:
    """The largest value each bounded quantity can take, by brute force."""

    def test_projector_commutator_is_at_most_one_half(self):
        rng = np.random.default_rng(0)

        def projector(dim):
            basis = qsim.haar_unitary(dim, rng)[:, : int(rng.integers(1, dim))]
            return basis @ basis.conj().T

        worst = 0.0
        for _ in range(2000):
            dim = int(rng.integers(2, 9))
            p, q = projector(dim), projector(dim)
            worst = max(worst, np.linalg.norm(p @ q - q @ p, 2))
        assert 0.49 < worst <= 0.5

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_overlap_commutator_has_its_closed_form(self, n):
        """The measured value is sqrt(2^-n (1 - 2^-n)), below the cap 1/2,
        to operator_norm's stated accuracy of a small multiple of G*eps."""
        _, rep = lemmas.check_equality_uniform_overlap(n)
        closed = math.sqrt(2.0 ** -n * (1.0 - 2.0 ** -n))
        assert abs(rep.measured - closed) <= (1 << n) * np.finfo(float).eps * closed
        assert rep.measured <= 0.5

    @pytest.mark.parametrize("n,l,w", [(1, 1, 2), (2, 1, 2), (2, 2, 2), (1, 2, 3), (2, 1, 3)])
    def test_chain_distance_is_an_l1_distance_at_most_two(self, n, l, w):
        p, q = rom.enumerate_chain_distributions(n, l, w)
        rng = np.random.default_rng(n * 100 + l * 10 + w)
        far = np.zeros_like(q)
        far[rng.integers(0, len(q))] = 1.0
        for a, b in ((p, q), (far, q), (q, q)):
            tv = rom.tv_and_collision_stats(a, b, n, l, w).tv
            assert tv == np.abs(a - b).sum() and tv <= 2.0
        # a point mass against the uniform tuples is 2 - 2/|q| apart: past a
        # TV distance's cap 1
        assert rom.tv_and_collision_stats(far, q, n, l, w).tv == 2.0 - 2.0 / len(q) > 1.0
        (rep, _, _) = lemmas.check_world_closeness(n, l, w, (p, q))
        assert rep.measured == rom.tv_and_collision_stats(p, q, n, l, w).tv <= 2.0


class TestOverlap:
    @pytest.mark.parametrize("n,value", [(1, 0.70710678), (2, 0.5), (4, 0.25)])
    def test_exact_values(self, n, value):
        rep_norm, rep_comm = lemmas.check_equality_uniform_overlap(n)
        assert rep_norm.passed and rep_comm.passed
        assert float(rep_norm.note.split("=")[1]) == pytest.approx(value, abs=1e-8)

    def test_past_the_norm_cap_refused_before_any_mask(self):
        # n = 7 is the last n whose 2^n x 2^n blocks fit MAX_NORM_DIM; at
        # n = 8 each bool mask alone is 4^8 bytes
        assert 4 ** 7 <= qsim.MAX_NORM_DIM < 4 ** 8
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="capped at dimension"):
                lemmas.check_equality_uniform_overlap(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 ** 8


class TestCommutatorChecks:
    @pytest.mark.parametrize(
        "check", [lemmas.check_uniform_register_commutator, lemmas.check_invariant_commutator]
    )
    def test_past_the_norm_cap_refused_before_the_phase_splits(self, check):
        # Lamport n = 6, l = 1: 2^6 x 2^6 blocks over G = 2^12 chain values,
        # 2^24 > MAX_NORM_DIM; the (2^n, 2^n, G) bool splits alone are 16 MiB
        dim = 4 ** 6 * 2 ** 12
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as refused:
                check("lamport", 6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == f"operator norms capped at dimension {qsim.MAX_NORM_DIM}, got {dim}"
        assert peak < 4 << 20

    def test_lamport_point(self):
        (rep,) = lemmas.check_uniform_register_commutator("lamport", 2, 1)
        assert rep.passed and rep.bound == pytest.approx(3.0)
        assert rep.measured < rep.bound  # far below, recorded

    def test_winternitz_prefix_point(self):
        (rep,) = lemmas.check_uniform_register_commutator("winternitz", 1, 1, 3)
        assert rep.passed
        assert rep.bound == pytest.approx(12 / np.sqrt(2))

    @pytest.mark.parametrize(
        "scheme,n,l,w,seed",
        [
            ("winternitz", 1, 1, 3, 0),  # worst at j' = 0 (1 against 0.866)
            ("winternitz", 2, 1, 3, 0),  # worst at j' = 1 (0.968 against 0.866)
            ("lamport", 1, 1, 2, 1),  # worst at chain 0 (1 against 0)
        ],
    )
    def test_worst_over_every_chain_prefix(self, scheme, n, l, w, seed):
        # every chain c and every quantum position j' in 0..length-2 is a
        # target; the worst exact norm is the largest Lanczos estimate
        (rep,) = lemmas.check_uniform_register_commutator(scheme, n, l, w, seed=seed)
        chains, length = (2 * l, 2) if scheme == "lamport" else (l, w)
        world = chain_world(n, chains, length, seed=rom.derive_seed(seed, "eps-world"))
        layout = world.norm_layout()
        u = build_query_unitary(world, layout)
        estimates = []
        for c in range(chains):
            for jp in range(length - 1):
                t = [0] * chains
                t[c] = jp + 1
                p = invariant_projector_from_thresholds(world, [t], layout)
                estimates.append(reference.lanczos_norm(reference.commutator(u, p)).value)
        assert len(estimates) == chains * (length - 1)
        assert min(estimates) < max(estimates) - 0.1  # one target alone can fall short
        assert rep.measured == pytest.approx(max(estimates), abs=1e-9)

    def test_identity_target_commutes(self):
        world = chain_world(1, 1, 2, seed=0)
        layout = world.norm_layout()
        u = build_query_unitary(world, layout)
        comm = reference.commutator(u, reference.identity_map(layout.dim))
        assert reference.is_zero_map(comm)

    def test_invariant_commutator_lamport(self):
        (rep,) = lemmas.check_invariant_commutator("lamport", 2, 1, seed=1)
        assert rep.passed and rep.bound == pytest.approx(16.0)

    def test_invariant_commutator_all_unblinded(self):
        world = lamport_world(2, 1, blinding=reference.none_blinded(1), seed=2)
        layout = world.norm_layout()
        p = build_invariant_projector(world, layout)
        u = build_query_unitary(world, layout)
        est = reference.lanczos_norm(reference.commutator(u, p))
        assert est.value <= lemmas.delta("lamport", 2, 2, 2) + 1e-8
        (exact,) = lemmas._query_commutator_norms(world, [p])
        assert exact == pytest.approx(est.value, abs=1e-9)

    def test_zero_projector_commutes(self):
        world = lamport_world(1, 1, blinding=reference.all_blinded(1), seed=3)
        layout = world.norm_layout()
        p = build_invariant_projector(world, layout)
        u = build_query_unitary(world, layout)
        assert reference.is_zero_map(reference.commutator(u, p))

    def test_winternitz_raw_chain_fallback(self):
        # block count with no message encoding still exercises the projector
        (rep,) = lemmas.check_invariant_commutator("winternitz", 1, 1, 3, seed=4)
        assert rep.passed

    def test_norm_and_consistency_rows_compile_no_query_unitary(self, monkeypatch):
        # they read the answer table f[x, gamma]; only an evolved game state
        # needs the compiled gather index
        calls = []
        original = qworlds.build_query_unitary

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (qworlds, lemmas, game):
            monkeypatch.setattr(module, "build_query_unitary", counting)
        for scheme, w in (("lamport", 2), ("winternitz", 3)):
            lemmas.check_uniform_register_commutator(scheme, 2, 1, w, seed=6)
            lemmas.check_invariant_commutator(scheme, 2, 2, w, seed=6)
            lemmas.check_oracle_reprogramming_consistency(scheme, 2, 1, w, seed=6)
        assert calls == []
        world = lamport_world(1, 1, blinding=reference.blinding(1, {0}), seed=6)
        game.evolve_program(game.random_program(world, 1, 0, seed=6), world)
        assert len(calls) == 1


# Dense-SVD references of the four norm rows at seed 6 whose norm layout has
# dimension 4096: the largest singular value of the full 4096 x 4096 matrix of
# reference.commutator(U_h, P), built column by column from the same maps as
# dense_references (for a uniform row, the largest over its targets).  One
# such SVD takes about 20 s on a 2-vCPU machine, so the values are pinned.
DENSE_AT_4096 = {
    ("uniform-commutator", "lamport", 2, 2, 2): 0.8660254037844402,
    ("invariant-commutator", "lamport", 2, 2, 2): 0.999933088795547,
    ("uniform-commutator", "winternitz", 2, 2, 3): 0.9682458365518555,
    ("invariant-commutator", "winternitz", 2, 2, 3): 0.999968443398962,
}


def dense_references(rep, seed):
    """(norm-layout dim, reference maps) of one row: the row's norm is the
    largest norm among the maps.  Built from the definitions: the reference
    equality projector, commutator and product, the uniform projector map of
    each target's registers, and the invariant projector applied as a map."""
    n, l, w = rep.n, rep.l, rep.w
    if rep.lemma.startswith("uniform-overlap"):
        layout = RegisterLayout([("x", n), ("y", n)])
        p_eq = reference.equality_projector_map(layout, "x", "y")
        phi = qsim.uniform_projector_map(layout, ("y",))
        if rep.lemma == "uniform-overlap-norm":
            return layout.dim, [reference.compose(p_eq, phi)]
        return layout.dim, [reference.commutator(p_eq, phi)]
    if rep.lemma == "uniform-commutator":
        world_seed = rom.derive_seed(seed, "eps-world")
        if rep.scheme == "lamport":
            world = lamport_world(n, l, seed=world_seed)
            targets = [(world.chain_register(c, 0),) for c in range(world.chain_count)]
        else:
            world = chain_world(n, l, w, seed=world_seed)
            targets = [
                tuple(world.chain_register(i, j) for j in range(jp + 1))
                for i in range(l)
                for jp in range(w - 1)
            ]
        layout = world.norm_layout()
        u = build_query_unitary(world, layout)
        return layout.dim, [
            reference.commutator(u, qsim.uniform_projector_map(layout, regs)) for regs in targets
        ]
    world, thresholds = lemmas._delta_world(rep.scheme, n, l, w, seed)
    layout = world.norm_layout()
    p = invariant_projector_from_thresholds(world, thresholds, layout)
    return layout.dim, [reference.commutator(build_query_unitary(world, layout), p)]


class TestNormSolves:
    @pytest.fixture(scope="class")
    def sweep_rows(self):
        """(row, measured norm) for every row of the sweep's four norm checks at seed 6."""
        rows = []
        for n in (1, 2, 3, 4):
            norm_row, comm_row = lemmas.check_equality_uniform_overlap(n)
            rows += [(norm_row, float(norm_row.note.split("=")[1])), (comm_row, comm_row.measured)]
        for n in lemmas.SWEEP_NS:
            for l in lemmas.SWEEP_LS:
                reps = lemmas.check_uniform_register_commutator("lamport", n, l, seed=6)
                reps += lemmas.check_invariant_commutator("lamport", n, l, seed=6)
                for w in lemmas.SWEEP_WS:
                    reps += lemmas.check_uniform_register_commutator("winternitz", n, l, w, seed=6)
                    reps += lemmas.check_invariant_commutator("winternitz", n, l, w, seed=6)
                rows += [(rep, rep.measured) for rep in reps]
        return rows

    def test_small_solves_match_dense_svd(self, sweep_rows):
        """Every norm the four checks measure against a dense SVD of the full
        operator: computed here up to dimension 256, pinned at 4096."""
        live = pinned = 0
        for rep, norm in sweep_rows:
            dim, maps = dense_references(rep, seed=6)
            key = (rep.lemma, rep.scheme, rep.n, rep.l, rep.w)
            if dim <= 256:
                want = max(np.linalg.svd(reference.dense(a), compute_uv=False)[0] for a in maps)
                live += 1
            else:
                assert dim == 4096, key
                want = DENSE_AT_4096[key]
                pinned += 1
            assert norm == pytest.approx(want, abs=1e-12), key
        assert (live, pinned) == (28, 4)

    def test_lamport_invariant_commutator_at_dim_4096(self):
        # reference from a dense eigvalsh(1j * [U_h, P]) of this 4096 x 4096 map
        (rep,) = lemmas.check_invariant_commutator("lamport", 2, 2, seed=6)
        assert rep.passed
        assert rep.measured == pytest.approx(0.9999330887955475, abs=1e-12)

    def test_all_blinded_world_is_exactly_zero(self):
        world = lamport_world(2, 2, blinding=reference.all_blinded(2), seed=3)
        p = build_invariant_projector(world, world.norm_layout())
        (norm,) = lemmas._query_commutator_norms(world, [p])
        assert p.is_zero and norm <= 1e-15

    def test_rounding_bound_far_below_pass_slack(self):
        # A norm row certifies the exact norm up to a small multiple of
        # G * eps (README), G the frame size; the norm cap admits
        # G <= MAX_NORM_DIM / 4, since x and y take at least two qubits.
        g_max = qsim.MAX_NORM_DIM // 4
        assert g_max * np.finfo(np.float64).eps <= 1e-3 * lemmas.PASS_SLACK

class TestOrthogonalityCheck:
    def test_single_bit_example(self):
        (rep,) = lemmas.check_orthogonality(
            "lamport", 2, 1, 2, reference.blinding(1, {0}), 0, seed=0
        )
        assert rep.passed and rep.measured < 1e-10

    def test_unblinded_forgery_raises(self):
        # the claim covers blinded forgery messages only: no vacuous PASS row
        with pytest.raises(ValueError, match="not blinded"):
            lemmas.check_orthogonality("lamport", 2, 1, 2, reference.blinding(1, {0}), 1, seed=0)
        world = lamport_world(2, 1, seed=0)
        with pytest.raises(ValueError, match="not blinded"):
            lemmas.orthogonality_report(world, 0)

    def test_random_sweep(self):
        rng = np.random.default_rng(0)
        for k in range(10):
            l = int(rng.integers(1, 3))
            members = {m for m in range(1 << l) if rng.random() < 0.6}
            if not members:
                members = {0}
            m_star = int(rng.choice(sorted(members)))
            (rep,) = lemmas.check_orthogonality(
                "lamport", int(rng.integers(1, 3)), l, 2,
                reference.blinding(l, members), m_star, seed=k,
            )
            assert rep.passed


class TestDriftCheck:
    def test_no_queries_all_zero(self):
        reps = lemmas.check_state_drift("lamport", 2, 1, 2, 0, 0, program_seed=0)
        assert all(r.measured < 1e-9 and r.passed for r in reps)

    def test_presign_point(self):
        reps = lemmas.check_state_drift("lamport", 2, 1, 2, 1, 0, program_seed=1)
        by = {r.lemma: r for r in reps}
        assert by["drift-presign"].bound == pytest.approx(6.0)
        assert all(r.passed for r in reps)

    def test_post_sign_queries_bounded(self):
        reps = lemmas.check_state_drift("lamport", 2, 1, 2, 0, 1, program_seed=2)
        by = {r.lemma: r for r in reps}
        assert by["drift-invariant"].bound == pytest.approx(16.0 + 12.0)
        assert all(r.passed for r in reps)

    def test_sweep_drift_rows_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a dot product's sum by its thread count, so a norm
        # taken by BLAS moves in its last bits between 1 and 2 threads.  A
        # sweep split over CPUs holds BLAS at one thread, so the thread
        # counts are compared on serial sweeps, pinned to one CPU after
        # numpy has started its threads; the split sweep must agree too.
        script = (
            "import contextlib, io, os, sys\n"
            "import numpy\n"
            "if sys.argv[1] == 'serial':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from qromlab import cli, qsim\n"
            "found = qsim.blas_thread_functions()\n"
            "print(qsim.usable_cpus(), found and found[0]())\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    cli.main(['lemmas', '--sweep', '--seed', '6'])\n"
            "print(''.join(r for r in out.getvalue().splitlines(True) if r.startswith('drift-')))\n"
        )
        src = str(Path(lemmas.__file__).resolve().parents[1])
        runs = {}
        for mode, threads in (("serial", "1"), ("serial", "2"), ("split", "2")):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            head, rows = subprocess.run([sys.executable, "-c", script, mode], env=env,
                                        capture_output=True, text=True, check=True
                                        ).stdout.split("\n", 1)
            runs[mode, threads] = head.split(), rows
        assert runs["serial", "1"][0][0] == runs["serial", "2"][0][0] == "1"
        if runs["serial", "2"][0][1] != "None" and len(os.sched_getaffinity(0)) >= 2:
            assert [runs["serial", t][0][1] for t in ("1", "2")] == ["1", "2"]
        rows = runs["serial", "1"][1]
        assert rows.count("drift-") == 96
        assert runs["serial", "2"][1] == rows
        assert runs["split", "2"][1] == rows


# The sweep's drift points: (scheme, n, l, w).
DRIFT_POINTS = [("lamport", n, l, 2) for n in lemmas.SWEEP_NS for l in lemmas.SWEEP_LS] + [
    ("winternitz", n, ots.derive_wots_params(1, w, n, require_power_of_two=False).l, w)
    for n in lemmas.SWEEP_NS
    for w in lemmas.SWEEP_WS
]


class TestRunDistance:
    @pytest.mark.parametrize("block_amps", [1 << 5, qsim.BLOCK_AMPS])
    @pytest.mark.parametrize("include_xy", [True, False])
    @pytest.mark.parametrize("point", DRIFT_POINTS, ids=str)
    def test_equals_the_whole_state_distance_bit_for_bit(
        self, point, include_xy, block_amps, monkeypatch
    ):
        # At 2^5 amplitudes a run is one chain column, or 64 amplitudes when
        # a column is shorter, so the larger states split into many runs.
        monkeypatch.setattr(qsim, "BLOCK_AMPS", block_amps)
        scheme, n, l, w = point
        world = lemmas._scheme_world(
            scheme, n, l, w, 11, lambda bits: lemmas._blinding_for(bits, 11)
        )
        layout = world.game_layout(include_xy=include_xy)
        v = qsim.random_state_vector(layout.dim, np.random.default_rng(layout.total))
        for build in (
            lambda runs: qsim.uniform_projector_map(runs, world.chain_registers()),
            lambda runs: build_invariant_projector(world, runs),
        ):
            whole = build(layout).apply(v)
            whole -= v
            assert lemmas._run_distance(v, world, build) == lemmas._norm(whole)


class TestPeakMemory:
    def test_drift_check_holds_one_state(self):
        # Lamport n = 2, l = 2 with x and y: the sweep's largest drift
        # state, 21 qubits, 32 MiB.  A row that takes its distance from a
        # whole apply holds a second state.
        args = ("lamport", 2, 2, 2, 1, 1)
        state = lamport_world(2, 2).game_layout().dim * 16
        assert state == 32 << 20
        lemmas.check_state_drift(*args)  # fills the free lists, which tracemalloc counts
        tracemalloc.start()
        try:
            lemmas.check_state_drift(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= state + (4 << 20)

    @pytest.mark.parametrize("n,l,w", [(8, 1, 2), (4, 2, 2), (4, 1, 4), (2, 4, 2)])
    def test_world_closeness_peaks_below_3_mib(self, n, l, w):
        # p and q are 512 KiB each at 2^16 tuples; the tuples are decoded in
        # blocks of at most 512 KiB.  One array of every tuple's entries was
        # 1-8 MiB, with shifted, step-paired and sorted copies beside it.
        lemmas.check_world_closeness(n, l, w)
        tracemalloc.start()
        try:
            reports = lemmas.check_world_closeness(n, l, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in reports)
        assert peak < 3 << 20


class TestPinching:
    def test_k_one_is_equality(self):
        (rep,) = lemmas.check_pinching(1, trials=20, seed=0)
        assert rep.passed and rep.measured <= 1e-12

    def test_k_two_random_instances(self):
        (rep,) = lemmas.check_pinching(2, trials=100, seed=1)
        assert rep.passed

    def test_commuting_measurement_is_equality(self):
        # when the inserted projectors are diagonal in the output basis the
        # paused and direct probabilities coincide
        rng = np.random.default_rng(2)
        dim = 4
        psi = qsim.random_state_vector(dim, rng)
        v = qsim.haar_unitary(dim, rng)
        groups = [[0, 1], [2, 3]]
        p_direct = np.abs(v @ psi) ** 2
        p_paused = np.zeros(dim)
        for members in groups:
            sel = np.zeros(dim)
            sel[members] = 1.0
            proj = v.conj().T @ np.diag(sel) @ v
            p_paused += np.abs(v @ (proj @ psi)) ** 2
        assert np.allclose(p_paused, p_direct, atol=1e-12)

    def test_cap(self):
        with pytest.raises(ValueError):
            lemmas.check_pinching(9)


class TestWorldCloseness:
    @pytest.mark.parametrize("n,l,w,bound", [(4, 1, 2, 0.75), (6, 1, 2, 0.1875)])
    def test_points(self, n, l, w, bound):
        reps = lemmas.check_world_closeness(n, l, w)
        by = {r.lemma: r for r in reps}
        assert by["chain-distribution-tv"].bound == pytest.approx(bound)
        assert all(r.passed for r in reps)


class TestCsv:
    def test_schema_and_determinism(self):
        reps = lemmas.check_equality_uniform_overlap(1)
        text = lemmas.reports_to_csv(reps)
        lines = text.splitlines()
        assert lines[0] == lemmas.CSV_HEADER
        assert all(line.endswith(",0") for line in lines[1:])
        assert text == lemmas.reports_to_csv(lemmas.check_equality_uniform_overlap(1))


class TestSweep:
    def test_full_sweep_zero_failures(self):
        reports = lemmas.run_sweep(seed=3)
        failures = [r for r in reports if not r.passed]
        assert failures == []
        # monotonicity notes recorded for the commutator families
        assert any(r.lemma.endswith("-monotone") for r in reports)


def _blas_threads():
    """The loaded OpenBLAS's thread count, or None where it cannot be read."""
    found = qsim.blas_thread_functions()
    return found and found[0]()


class TestParallelSweep:
    # The sweep deals its drift points to one share per usable CPU, forks a
    # child for each share but the first and holds BLAS at one thread while
    # they run; its rows go back in grid order with the serial bits.

    @pytest.fixture
    def forks(self, monkeypatch):
        forks = []
        fork = os.fork

        def counted():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return forks

    def test_points_are_the_grid_and_their_weight_is_the_game_layout(self):
        points = lemmas.sweep_drift_points(6)
        assert len(points) == 32 and len(set(points)) == 32
        assert sorted({p[:4] for p in points}) == sorted(DRIFT_POINTS)
        for point in points:
            world = lemmas._scheme_world(*point[:4], 0, lambda bits: lemmas._blinding_for(bits, 0))
            assert point.dim() == world.game_layout(include_xy=point.q0 + point.q1 > 0).dim

    def test_points_are_dealt_largest_first_to_the_least_loaded_share(self):
        points = lemmas.sweep_drift_points(6)
        assert lemmas.deal_drift_points(points, 1) == [sorted(points, key=lambda p: -p.dim())]
        for count in (2, 3, 4):
            shares = lemmas.deal_drift_points(points, count)
            assert sorted(p for share in shares for p in share) == sorted(points)
            loads = [sum(p.dim() for p in share) for share in shares]
            assert loads == sorted(loads)  # the parent plays the lightest
            # largest first: each share's points in falling size, and each
            # share's last point went to the lightest share, so no load
            # exceeds the lightest by more than the largest point
            for share in shares:
                assert [p.dim() for p in share] == sorted((p.dim() for p in share), reverse=True)
            assert loads[-1] - loads[0] <= max(p.dim() for p in points)
        big = [p for p in points if p.dim() == 1 << 21]  # Lamport n = 2, l = 2 with queries
        two = lemmas.deal_drift_points(points, 2)
        assert len(big) == 3 and sorted(sum(p in big for p in share) for share in two) == [1, 2]

    @pytest.mark.parametrize("seed", [6, 3])
    def test_sweep_bytes_do_not_depend_on_the_cpus(self, seed, forks, monkeypatch):
        threads = _blas_threads()
        csv = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(qsim, "usable_cpus", lambda: cpus)
            csv[cpus] = lemmas.reports_to_csv(lemmas.run_sweep(seed))
            assert len(forks) == (cpus - 1 if threads is not None else 0)
            forks.clear()
            assert _blas_threads() == threads
        assert csv[1].count("\ndrift-") == 96
        assert csv[2] == csv[1] and csv[3] == csv[1]
        _no_child_left()

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_a_failing_drift_point_surfaces_and_leaves_no_child(self, where, monkeypatch):
        monkeypatch.setattr(qsim, "usable_cpus", lambda: 2)
        if qsim.blas_thread_functions() is None:
            pytest.skip("no BLAS thread count to hold: the sweep stays serial")
        threads = _blas_threads()
        parent, child = lemmas.deal_drift_points(lemmas.sweep_drift_points(6), 2)
        failing = (child if where == "child" else parent)[-1]
        check = lemmas.check_state_drift

        def failing_check(*point):
            if point == failing:
                raise Boom(f"drift at seed {failing.program_seed}")
            return check(*point)

        monkeypatch.setattr(lemmas, "check_state_drift", failing_check)
        if where == "child":
            with pytest.raises(RuntimeError, match=r"sweep drift point DriftPoint\(") as info:
                lemmas.run_sweep(6)
            message = str(info.value)
            assert message.startswith(f"sweep drift point {failing!r} failed in a child process")
            assert f"Boom: drift at seed {failing.program_seed}" in message  # the child's traceback
        else:
            with pytest.raises(Boom):
                lemmas.run_sweep(6)
        assert _blas_threads() == threads
        _no_child_left()

    def test_without_a_blas_thread_count_the_sweep_makes_no_fork(self, forks, monkeypatch):
        monkeypatch.setattr(qsim, "usable_cpus", lambda: 2)
        serial = lemmas.reports_to_csv(lemmas.run_sweep(6))
        forks.clear()
        monkeypatch.setattr(qsim, "blas_thread_functions", lambda: None)
        assert lemmas.reports_to_csv(lemmas.run_sweep(6)) == serial
        assert forks == []

    def test_the_hold_gives_back_the_thread_count_on_error(self):
        threads = _blas_threads()
        if threads is None:
            pytest.skip("no BLAS thread count to read")
        with pytest.raises(Boom):
            with qsim.one_blas_thread() as held:
                assert held and _blas_threads() == 1
                raise Boom
        assert _blas_threads() == threads
