import numpy as np
import pytest

import reference
from qromlab import game, lemmas, qsim, qworlds, rom
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
        assert lemmas.eps_lamport(2) == pytest.approx(3.0)
        assert lemmas.delta_lamport(2, 1) == pytest.approx(16.0)
        assert lemmas.eps_winternitz(1, 3) == pytest.approx(12 / np.sqrt(2))
        assert lemmas.delta_winternitz(2, 1, 3) == pytest.approx(8 * 4 * 2 / 2)

    def test_forgery_bounds(self):
        full, simple = lemmas.forgery_bound_lamport(1, 1, 20)
        assert simple == pytest.approx(6286 * 2.0 ** -20)
        assert simple == pytest.approx(5.995e-3, rel=1e-3)
        full_q0, _ = lemmas.forgery_bound_lamport(0, 1, 20)
        assert full_q0 == pytest.approx(12 * 2.0 ** -20)
        _, wsimple = lemmas.forgery_bound_winternitz(1, 1, 2, 20)
        assert wsimple == pytest.approx(800 * 16 * 2.0 ** -20)
        assert wsimple == pytest.approx(1.22e-2, rel=1e-2)

    def test_clamped_at_one(self):
        full, simple = lemmas.forgery_bound_lamport(10, 4, 2)
        assert full == 1.0 and simple == 1.0

    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_simplified_dominates_full(self, q):
        for n in (8, 16, 32):
            for l in (1, 2, 4):
                full, simple = lemmas.forgery_bound_lamport(q, l, n)
                assert simple >= full or simple == 1.0
                for w in (2, 4):
                    fullw, simplew = lemmas.forgery_bound_winternitz(q, l, w, n)
                    assert simplew >= fullw or simplew == 1.0

    def test_drift_bounds_vanish_only_without_queries(self):
        for scheme, w in (("lamport", 2), ("winternitz", 3)):
            assert lemmas.invariant_drift_bound(scheme, 2, 2, w, 0, 0) == 0.0
            assert lemmas.invariant_drift_bound(scheme, 2, 2, w, 1, 0) > 0.0
            assert lemmas.invariant_drift_bound(scheme, 2, 2, w, 0, 1) > 0.0
            assert lemmas.presign_drift_bound(scheme, 2, 2, w, 0) == 0.0


class TestOverlap:
    @pytest.mark.parametrize("n,value", [(1, 0.70710678), (2, 0.5), (4, 0.25)])
    def test_exact_values(self, n, value):
        rep_norm, rep_comm = lemmas.check_equality_uniform_overlap(n)
        assert rep_norm.passed and rep_comm.passed
        assert float(rep_norm.note.split("=")[1]) == pytest.approx(value, abs=1e-8)


class TestCommutatorChecks:
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
        assert est.value <= lemmas.delta_lamport(2, 1) + 1e-8
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
