import itertools
import sys
import tracemalloc

import numpy as np
import pytest

import reference
from qromlab import game, lemmas, ots, qsim, rom, qworlds
from qromlab.game import (
    AdversaryProgram,
    HashQuery,
    SignQuery,
    sample_blinding_set,
)
from qromlab.qworlds import build_invariant_projector, lamport_world, winternitz_world


class TestBlindingSet:
    def test_epsilon_zero_and_one(self):
        rng = np.random.default_rng(0)
        assert len(sample_blinding_set(0.0, 8, rng)) == 0
        assert len(sample_blinding_set(1.0, 8, rng)) == 256

    def test_binomial_size(self):
        rng = np.random.default_rng(1)
        sizes = [len(sample_blinding_set(0.5, 8, rng)) for _ in range(10_000)]
        mean = float(np.mean(sizes))
        # binomial(256, 0.5): sigma = 8; gate the mean at 4 sigma of the mean
        assert abs(mean - 128) < 4 * 8 / np.sqrt(len(sizes))

    def test_membership(self):
        b = reference.blinding(2, {1, 3})
        assert 1 in b and 0 not in b
        assert b.mask.tolist() == [False, True, False, True]
        assert b.sorted_members() == (1, 3) and len(b) == 2
        assert lamport_world(1, 2, blinding=b).unblinded() == (0, 2)

    @pytest.mark.parametrize("m", [-1, 4])
    def test_nothing_outside_the_message_space_is_blinded(self, m):
        # a bare mask[m] reads -1 as the last message and raises IndexError at 4
        assert m not in reference.all_blinded(2)

    @pytest.mark.parametrize(
        "mask", [np.ones((2, 2), dtype=bool), np.ones(3, dtype=bool), np.ones(0, dtype=bool)],
        ids=["2-D", "length-3", "empty"],
    )
    def test_mask_of_no_message_space_rejected(self, mask):
        with pytest.raises(ValueError, match="one bool per message of a 2.bits message space"):
            qworlds.BlindingSet(0.5, mask)

    def test_mask_is_a_read_only_copy(self):
        drawn = np.array([False, True])
        b = qworlds.BlindingSet(0.5, drawn)
        drawn[0] = True
        assert 0 not in b and b.mask.dtype == bool
        with pytest.raises(ValueError, match="read-only"):
            b.mask[0] = True
        with pytest.raises(AttributeError):
            b.mask = drawn


class TestBlindedSign:
    def setup_method(self):
        self.params = ots.LamportParams(n=4, l=2)
        self.oracle = rom.RandomOracleTable(4, seed=2)
        self.kp = ots.keygen(self.params, self.oracle, np.random.default_rng(2))

    def test_blinded_gets_flagged_zeros(self):
        b = reference.blinding(2, {3})
        out = game.blinded_sign(b, self.kp, 3, self.oracle)
        assert out.blinded and out.payload == (0, 0)

    def test_unblinded_gets_signature_with_zero_flag(self):
        b = reference.blinding(2, {3})
        out = game.blinded_sign(b, self.kp, 1, self.oracle)
        assert not out.blinded
        assert out.payload == ots.sign(self.params, self.kp.sk, 1, self.oracle).sigma

    def test_sign_query_outside_the_message_space_is_refused_not_blinded(self):
        # the last message is blinded, and -1 is no message at all
        def adversary(handles):
            handles.sign_query(-1)

        blinding = reference.blinding(2, {3})
        with pytest.raises(ValueError, match="message -1 is not"):
            game.run_with_world_classical(adversary, self.oracle, self.kp, blinding, 0)

    def test_empty_blinding_is_plain_signing(self):
        b = reference.none_blinded(2)
        for m in range(4):
            out = game.blinded_sign(b, self.kp, m, self.oracle)
            assert out.flag == 0
            assert out.payload == ots.sign(self.params, self.kp.sk, m, self.oracle).sigma


class TestClassicalGame:
    def test_replay_loses(self):
        def replay(handles):
            answer = handles.sign_query(0)
            return None if answer.blinded else (0, answer.payload)

        params = ots.LamportParams(n=4, l=2)
        losses = 0
        for seed in range(30):
            tr = game.run_classical_game(replay, params, 0.5, seed)
            assert tr.verdict in ("lose",)
            losses += 1
        assert losses == 30

    def test_second_sign_query_aborts(self):
        def greedy(handles):
            handles.sign_query(0)
            handles.sign_query(1)
            return 0, (0, 0)

        params = ots.LamportParams(n=4, l=2)
        tr = game.run_classical_game(greedy, params, 0.5, 1)
        assert tr.aborted and tr.verdict == "abort"

    def test_random_forgery_rate_matches_preimage_count(self):
        # win chance of a blind random signature equals the preimage-counting
        # probability, computable exactly per world
        params = ots.LamportParams(n=2, l=1)
        trials = 4000
        wins = 0
        exact = 0.0
        for t in range(trials):
            seed = rom.derive_seed(77, "forge", t)
            oracle = rom.RandomOracleTable(2, seed=rom.derive_seed(seed, "oracle"))
            kp = ots.keygen(params, oracle, np.random.default_rng(rom.derive_seed(seed, "keygen")))
            blinding = sample_blinding_set(
                0.5, 1, np.random.default_rng(rom.derive_seed(seed, "blinding"))
            )
            rng = np.random.default_rng(rom.derive_seed(seed, "adv"))
            m = int(rng.integers(0, 2))
            sigma = (int(rng.integers(0, 4)),)
            if m in blinding:
                bit = m & 1
                count = sum(oracle(y) == kp.pk[bit] for y in range(4))
                exact += count / 4.0
            tr = game.run_with_world_classical(
                lambda h: (m, sigma), oracle, kp, blinding, seed
            )
            wins += tr.verdict == "win"
        rate = wins / trials
        ref = exact / trials
        assert abs(rate - ref) < 4 * np.sqrt(max(ref * (1 - ref), 1e-4) / trials)

    def test_transcript_json_fields(self):
        params = ots.LamportParams(n=3, l=1)
        tr = game.run_classical_game(lambda h: (0, (0,)), params, 0.5, 3)
        import json

        doc = json.loads(tr.to_json())
        assert {"seed", "epsilon", "B", "m_star", "sigma_star", "verdict", "p_success"} <= set(doc)


class TestPrograms:
    def test_program_validation(self):
        with pytest.raises(ValueError):
            AdversaryProgram((SignQuery(), SignQuery()))
        prog = AdversaryProgram((HashQuery(), SignQuery(), HashQuery(), HashQuery()))
        assert prog.q0 == 1 and prog.q1 == 2
        unsigned = AdversaryProgram((HashQuery(), HashQuery()))
        assert unsigned.q0 == 2 and unsigned.q1 == 0

    def test_random_program_counts(self):
        world = lamport_world(1, 1, blinding=reference.none_blinded(1), seed=4)
        prog = game.random_program(world, 2, 1, seed=4)
        assert prog.q0 == 2 and prog.q1 == 1
        assert sum(isinstance(s, SignQuery) for s in prog.steps) == 1


class TestQuantumGame:
    def test_no_query_game_win_probability_enumerated(self):
        # every outcome enumerated exactly; the bound (l+1)/2^n is vacuous at
        # this point but the probability must be a genuine probability
        blinding = reference.blinding(1, {0})
        world = lamport_world(1, 1, blinding=blinding, seed=5)
        prog = game.random_program(world, 0, 0, seed=5)
        tr, an = game.run_quantum_game(prog, world, mode="plain", seed=5)
        assert 0.0 <= an.p_win_plain <= 1.0
        low, high = reference.estimate_success_sampling(prog, world, "plain", 3000, seed=6)
        assert low - 1e-9 <= an.p_win_plain <= high + 1e-9

    def test_forced_outcome_never_fires_without_queries(self):
        for seed in range(6):
            blinding = reference.blinding(1, {1})
            world = lamport_world(2, 1, blinding=blinding, seed=seed)
            prog = game.random_program(world, 0, 0, seed=seed)
            _, an = game.run_quantum_game(prog, world, mode="modified", seed=seed)
            assert an.p_forced_outcome_blinded < 1e-10

    def test_pinching_relation_on_random_programs(self):
        rng = np.random.default_rng(9)
        for seed in range(10):
            n = int(rng.integers(1, 3))
            l = int(rng.integers(1, 3))
            blinding = reference.blinding(l, {m for m in range(1 << l) if rng.random() < 0.5})
            world = lamport_world(n, l, blinding=blinding, seed=seed)
            q0, q1 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            prog = game.random_program(world, q0, q1, seed=seed)
            _, an = game.run_quantum_game(prog, world, mode="modified", seed=seed)
            assert an.p_win_plain <= (l + 1) * an.p_win_modified + 1e-9

    def test_outcome_tensors_preserve_forgery_marginal(self):
        # the outcome measurement happens after the forgery is fixed, so the
        # joint (message, signature) weights are untouched by it
        world = lamport_world(1, 2, blinding=reference.blinding(2, {1}), seed=10)
        prog = game.random_program(world, 0, 1, seed=10)
        states, t_plain, t_out, accept, an = game.analyze_game(prog, world)
        assert np.allclose(
            sum(t.sum(axis=2) for t in t_out), t_plain.sum(axis=2), atol=1e-12
        )
        assert sum(t.sum() for t in t_out) == pytest.approx(t_plain.sum(), abs=1e-12)

    @pytest.mark.parametrize(
        "world",
        [
            lamport_world(2, 1, blinding=reference.blinding(1, {1}), seed=12),
            winternitz_world(1, 1, 3, blinding=reference.blinding(1, {0}), seed=13),
        ],
        ids=["lamport", "winternitz"],
    )
    @pytest.mark.parametrize("q", [0, 1])
    def test_outcome_tensors_match_two_sided_applies(self, world, q):
        # analyze_game changes the final state into the frame once; each map's
        # own apply changes into it and back per map
        assert world.game_layout().total <= 14
        prog = game.random_program(world, q, q, seed=14 + q)
        states, _, t_out, _, _ = game.analyze_game(prog, world)
        qtilde = qworlds.build_qtilde(world, states.layout)
        assert len(t_out) == len(qtilde) == world.l_sem + 1
        for t, q_map in zip(t_out, qtilde):
            [want] = game.probability_tensor(q_map.apply(states.final), [], world)
            assert np.allclose(t, want, rtol=0, atol=1e-12)

    def test_modified_game_sampled_transcript(self):
        world = lamport_world(1, 1, blinding=reference.blinding(1, {0, 1}, 1.0), seed=11)
        prog = game.random_program(world, 0, 0, seed=11)
        tr, an = game.run_quantum_game(prog, world, mode="modified", seed=11)
        assert tr.q_outcome in (1, 2)
        assert tr.verdict in ("win", "lose")
        assert tr.p_success == an.p_win_modified
        assert an.p_forced_outcome_blinded < 1e-10  # no queries
        assert an.p_win_plain <= 2 * an.p_win_modified + 1e-9

    def test_no_hash_final_state_in_invariant_range(self):
        # with no oracle queries the signed state lies exactly in the range of
        # the invariant projector
        for scheme in ("lamport", "winternitz"):
            for seed in range(10):
                rng = np.random.default_rng((seed + 1) * 13)
                if scheme == "lamport":
                    l = int(rng.integers(1, 3))
                    n = int(rng.integers(1, 3))
                    members = {m for m in range(1 << l) if rng.random() < 0.5}
                    if len(members) == 1 << l:
                        members.pop()
                    world = lamport_world(
                        n, l, blinding=reference.blinding(l, members), seed=seed
                    )
                else:
                    n = int(rng.integers(1, 3))
                    w = int(rng.integers(2, 4))
                    members = {m for m in range(2) if rng.random() < 0.5}
                    if len(members) == 2:
                        members.pop()
                    world = winternitz_world(
                        n, 1, w, blinding=reference.blinding(1, members), seed=seed
                    )
                prog = game.random_program(world, 0, 0, seed=seed)
                states, pre_sign = evolve_keeping_pre_sign(prog, world)
                p = build_invariant_projector(world, states.layout)
                psi1 = qworlds.build_blinded_sign_unitary(world, states.layout).apply(pre_sign)
                assert np.linalg.norm(p.apply(psi1) - psi1) < 1e-9

    def test_sign_query_cardinality_enforced(self):
        with pytest.raises(ValueError):
            AdversaryProgram((SignQuery(), HashQuery(), SignQuery()))


def reference_acceptance_table(world):
    """The verifier's verdict per (m, sigma, gamma), one reprogrammed oracle
    per chain assignment gamma, walking every signature value step by step."""
    n, l = world.n, world.l_sem
    regs = world.chain_registers()
    gamma_dim = 1 << (n * len(regs))
    table = np.zeros((1 << world.message_bits, 1 << (n * l), gamma_dim), dtype=bool)
    for m in world.messages():
        if world.scheme == "lamport":
            bits = [(m >> (l - 1 - i)) & 1 for i in range(l)]
            steps = [1] * l
            targets = [world.p[2 * i + bits[i]] for i in range(l)]
        else:
            b = ots.digit_vector(m, world.params)
            steps = [world.w - 1 - b[i] for i in range(l)]
            targets = [world.p[i] for i in range(l)]
        for g in range(gamma_dim):
            # the first chain register holds the most significant n bits
            assignment = {
                name: (g >> ((len(regs) - 1 - k) * n)) & ((1 << n) - 1)
                for k, name in enumerate(regs)
            }
            oracle = world.overlay_oracle(assignment)
            htab = [oracle(x) for x in range(1 << n)]
            acc = np.array(True)
            for i in range(l):
                vals = np.arange(1 << n)
                for _ in range(steps[i]):
                    vals = np.array([htab[v] for v in vals])
                acc = np.logical_and.outer(acc, vals == targets[i])
            table[m, :, g] = acc.reshape(-1)
    return table


class TestAcceptanceTable:
    # n=1 worlds have chain collisions; the w=4 worlds have digits that
    # reveal the pinned endpoint
    WORLDS = [(lamport_world, args) for args in ((1, 1), (2, 1), (1, 2), (2, 2), (1, 4))] + [
        (winternitz_world, args) for args in ((1, 1, 2), (2, 1, 3), (1, 2, 3), (2, 2, 4), (1, 1, 4))
    ]

    @pytest.mark.parametrize(
        "make, args", WORLDS, ids=[f"{make.__name__}{args}" for make, args in WORLDS]
    )
    def test_matches_per_gamma_oracle_loop(self, make, args):
        for seed in range(6):
            world = make(*args, seed=seed)
            assert np.array_equal(game.acceptance_table(world), reference_acceptance_table(world))

    @pytest.mark.parametrize(
        "world",
        [
            lamport_world(1, 2, seed=3),
            winternitz_world(1, 1, 3, seed=3),
            winternitz_world(1, 1, 4, seed=3),
        ],
    )
    def test_every_entry_is_the_verifier_verdict(self, world):
        n, l = world.n, world.l_sem
        table = game.acceptance_table(world)
        regs = world.chain_registers()
        for m in world.messages():
            for s, sigma in enumerate(itertools.product(range(1 << n), repeat=l)):
                for g, values in enumerate(itertools.product(range(1 << n), repeat=len(regs))):
                    assignment = dict(zip(regs, values))
                    assert table[m, s, g] == reference.verify(world, m, sigma, assignment)


QGAME_WORLDS = pytest.mark.parametrize(
    "world",
    [
        lamport_world(2, 2, blinding=reference.blinding(2, {0, 3}), seed=7),
        lamport_world(1, 4, blinding=reference.blinding(4, {1, 6, 12}), seed=7),
        winternitz_world(2, 1, 3, blinding=reference.blinding(1, {0}), seed=7),
        winternitz_world(1, 2, 3, blinding=reference.blinding(2, {1, 2}), seed=7),
    ],
    ids=["lamport-2-2", "lamport-1-4", "winternitz-2-1-3", "winternitz-1-2-3"],
)


def assert_same_states(prog, world):
    """The engine's final state and the state its ``at_sign`` observer sees
    have the bytes of the full-state loop's."""
    got, got_pre_sign = evolve_keeping_pre_sign(prog, world)
    want, want_pre_sign = reference.evolve_program_full(prog, world)
    assert got.layout == want.layout
    assert got.final.dtype == want.final.dtype and got.final.tobytes() == want.final.tobytes()
    if want_pre_sign is None:
        assert got_pre_sign is None
    else:
        assert got_pre_sign.tobytes() == want_pre_sign.tobytes()


def evolve_keeping_pre_sign(prog, world):
    """``game.evolve_program``'s states, and a copy of the state its
    ``at_sign`` observer sees (None when the program does not sign)."""
    seen = []

    def at_sign(state, layout):
        assert layout == world.game_layout(include_xy=prog.q0 + prog.q1 > 0)
        seen.append(state.copy())

    states = game.evolve_program(prog, world, at_sign=at_sign)
    assert len(seen) <= 1
    return states, (seen[0] if seen else None)


def off_chain_unitary(world, layout, rng):
    chains = set(world.chain_registers())
    return game.random_local_unitary(layout, [r for r in layout.names if r not in chains], rng)


class TestProductStart:
    @QGAME_WORLDS
    @pytest.mark.parametrize("q", [0, 1])
    def test_random_programs_bit_identical_to_the_full_state_loop(self, world, q):
        prog = game.random_program(world, q, q, seed=50 + q)
        assert_same_states(prog, world)

    def test_programs_of_every_start(self):
        world = lamport_world(1, 4, blinding=reference.blinding(4, {1, 6, 12}), seed=7)
        rng = np.random.default_rng(51)
        xy, noxy = world.game_layout(), world.game_layout(include_xy=False)
        on_chain = game.ApplyUnitary(("m", "g0_0"), qsim.haar_unitary(1 << 5, rng))
        programs = {
            "no signing query": [off_chain_unitary(world, xy, rng), HashQuery(),
                                 off_chain_unitary(world, xy, rng)],
            "hash query first": [HashQuery(), off_chain_unitary(world, xy, rng), SignQuery(),
                                 off_chain_unitary(world, xy, rng)],
            "no query": [off_chain_unitary(world, noxy, rng), off_chain_unitary(world, noxy, rng)],
            "chain unitary first": [off_chain_unitary(world, noxy, rng), on_chain, SignQuery()],
        }
        for name, steps in programs.items():
            prog = AdversaryProgram(tuple(steps))
            assert_same_states(prog, world)

    def test_at_sign_sees_the_live_state_once(self):
        world = lamport_world(1, 4, blinding=reference.blinding(4, {1, 6, 12}), seed=7)
        prog = game.random_program(world, 1, 1, seed=52)
        seen = []
        states = game.evolve_program(prog, world, at_sign=lambda *args: seen.append(args))
        ((state, layout),) = seen
        # the run's one buffer, not a copy: the signing query and every later
        # step apply in place into it
        assert state is states.final and layout is states.layout
        assert states.final.tobytes() == game.evolve_program(prog, world).final.tobytes()


# Room for allocations that do not grow with the state: numpy's ufunc buffer
# of 8192 complex elements (128 KiB), which the frame table's broadcast
# multiply allocates, and small Python objects.  A quarter of a 16-qubit state.
SLACK = 1 << 18


def traced_peak(fn) -> int:
    """Bytes allocated at the peak of ``fn()`` beyond what was live before."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    WORLD = lamport_world(1, 3, blinding=reference.blinding(3, {1, 4}), seed=3, workspace_qubits=1)
    # A 20-qubit game layout with x and y, 16 qubits without.
    QGAME_WORLD = lamport_world(2, 2, blinding=reference.blinding(2, {0, 3}), seed=7,
                                workspace_qubits=1)

    def test_frame_apply_allocates_at_most_two_states(self):
        world = self.WORLD
        layout = world.game_layout()
        assert layout.total == 16 and len(qworlds._hadamard_frame(world)) == 2
        p = build_invariant_projector(world, layout)
        v = qsim.random_state_vector(layout.dim, np.random.default_rng(52))
        # The frame changes and the table multiply each free the array the
        # step before made once they rebind their parameter.  From CPython
        # 3.11 a call's arguments belong to the callee's frame; on 3.10 the
        # caller holds the outer frame change's argument until it returns.
        states = 2 if sys.version_info >= (3, 11) else 3
        assert traced_peak(lambda: p.apply(v)) <= states * v.nbytes + SLACK

    @pytest.mark.parametrize("q", [0, 1])
    def test_evolve_program_allocates_no_more_than_the_full_state_loop(self, q):
        world = self.WORLD
        prog = game.random_program(world, q, q, seed=53)
        size = world.game_layout(include_xy=q > 0).dim * 16
        want = traced_peak(lambda: reference.evolve_program_full(prog, world))
        assert traced_peak(lambda: game.evolve_program(prog, world)) <= want + size // 16

    @pytest.mark.parametrize(
        "targets", [("e", "sig0", "x"), ("x", "m"), ("m", "g0_0"), ("sig0", "sig1"), ("x",)]
    )
    def test_gate_apply_allocates_one_state_plus_blocks(self, targets, monkeypatch):
        monkeypatch.setattr(qsim, "BLOCK_AMPS", 1 << 10)
        layout = self.WORLD.game_layout()
        rng = np.random.default_rng(54)
        gate = qsim.embed(
            qsim.haar_unitary(1 << sum(layout.width(t) for t in targets), rng), targets, layout
        )
        v = qsim.random_state_vector(layout.dim, rng)
        block = qsim.BLOCK_AMPS * v.itemsize
        gate.apply_in_place(v)  # fills the tuple free lists, which tracemalloc counts
        # The output state, and one block's moveaxis copy and gemm product.
        assert traced_peak(lambda: gate.apply(v)) <= v.nbytes + 2 * block + SLACK
        # In place: no output state, only the two blocks.
        assert traced_peak(lambda: gate.apply_in_place(v)) <= 2 * block + SLACK

    @pytest.mark.parametrize("include_xy", [True, False])
    def test_xor_apply_in_place_allocates_blocks_not_registers(self, include_xy, monkeypatch):
        monkeypatch.setattr(qsim, "BLOCK_AMPS", 1 << 11)
        world = self.QGAME_WORLD
        layout = world.game_layout(include_xy=include_xy)
        maps = {"sig0": qworlds.build_blinded_sign_unitary(world, layout)}
        if include_xy:
            maps["y"] = qworlds.build_query_unitary(world, layout)
        v = qsim.random_state_vector(layout.dim, np.random.default_rng(57))
        # A block keeps only the flipped registers whole: the block's
        # contiguous copy, take's output and the int64 local index, two and
        # a half blocks.  A run that holds every register from the first
        # flipped one on is eight blocks or more.
        bound = 5 * qsim.BLOCK_AMPS * v.itemsize // 2 + SLACK
        for first, u in maps.items():
            assert 1 << (layout.shift(first) + layout.width(first)) >= 8 * qsim.BLOCK_AMPS
            u.apply_in_place(v)  # fills the tuple free lists, which tracemalloc counts
            assert traced_peak(lambda: u.apply_in_place(v)) <= bound

    @pytest.mark.parametrize("block_amps", [1 << 10, qsim.BLOCK_AMPS])
    def test_warm_kernels_allocate_no_block(self, block_amps, monkeypatch):
        # Block buffers are borrowed from qsim.scratch: once a first call has
        # filled the pool, an in-place apply of every map kind and a run
        # distance nesting the frame apply in a run's copy allocate none,
        # only what does not grow with a block (the ufunc buffer, delta's
        # block-local bits, small objects).
        monkeypatch.setattr(qsim, "BLOCK_AMPS", block_amps)
        world = self.QGAME_WORLD
        layout = world.game_layout()
        chains = world.chain_registers()
        v = qsim.random_state_vector(layout.dim, np.random.default_rng(59))
        gate = qsim.embed(qsim.haar_unitary(8, np.random.default_rng(59)), ("e", "m"), layout)
        maps = [
            gate,
            qworlds.build_query_unitary(world, layout),
            qworlds.build_blinded_sign_unitary(world, layout),
            build_invariant_projector(world, layout),
            qworlds.build_qtilde(world, layout)[-1],
            qsim.uniform_projector_map(layout, chains),
        ]
        builds = [lambda runs: build_invariant_projector(world, runs),
                  lambda runs: qsim.uniform_projector_map(runs, chains)]
        calls = [lambda m=m: m.apply_in_place(v) for m in maps]
        calls += [lambda b=b: lemmas._run_distance(v, world, b) for b in builds]
        assert len(qsim.blocks(layout.dims, ())) > 1
        for call in calls:
            call()  # fills the pool and the free lists, which tracemalloc counts
            assert traced_peak(call) <= SLACK

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("q", [0, 1])
    def test_evolve_program_holds_one_state_plus_blocks(self, q, observed, monkeypatch):
        monkeypatch.setattr(qsim, "BLOCK_AMPS", 1 << 11)
        world = self.QGAME_WORLD
        layout = world.game_layout(include_xy=q > 0)
        prog = game.random_program(world, q, q, seed=58)
        state = layout.dim * 16
        # One state, the chain column it is repeated from, and at most an
        # XOR map's two and a half blocks of scratch at a time.
        column = state >> (world.n * len(world.chain_registers()))
        bound = state + column + 3 * qsim.BLOCK_AMPS * 16 + SLACK
        game.evolve_program(prog, world)  # fills the tuple free lists, which tracemalloc counts
        norms = []

        def at_sign(v, layout):  # reads the live state, allocating no state
            norms.append(float(np.vdot(v, v).real))

        at_sign = at_sign if observed else None
        assert traced_peak(lambda: game.evolve_program(prog, world, at_sign=at_sign)) <= bound
        assert norms == ([pytest.approx(1.0)] if observed else [])

    def test_drift_point_holds_two_states_plus_blocks(self):
        # The sweep's 21-qubit drift point: a 32 MiB state.  Each row holds
        # the live state and at most one apply's copy, the frame apply a few
        # blocks besides; a pre-sign copy would be a third state.
        state = (1 << 21) * 16
        bound = 2 * state + 4 * qsim.BLOCK_AMPS * 16 + SLACK
        assert bound < 3 * state
        seed = rom.derive_seed(6, "drift", 2, 2, 1, 1)
        reports = []
        peak = traced_peak(
            lambda: reports.extend(lemmas.check_state_drift("lamport", 2, 2, 2, 1, 1, seed))
        )
        assert [r.lemma for r in reports] == \
            ["drift-presign", "drift-invariant", "drift-forced-outcome"]
        assert peak <= bound

    def test_outcome_loop_makes_no_state_sized_temporary(self, monkeypatch):
        monkeypatch.setattr(qsim, "BLOCK_AMPS", 1 << 10)
        world = self.WORLD
        prog = game.random_program(world, 1, 1, seed=55)
        states = game.evolve_program(prog, world)
        assert states.layout.total == 16
        # analyze_game from the evolved state on: the outcome loop
        monkeypatch.setattr(game, "evolve_program", lambda program, w, at_sign=None: states)
        final = states.final
        tensor = final.nbytes // 2 // (1 << (2 * world.n + 1 + world.workspace_qubits))
        # Beyond the final state: the plain and l+1 outcome tensors (float64,
        # no x, y, b or e), a few blocks and the slack; less than one state.
        bound = (world.l_sem + 2) * tensor + 8 * qsim.BLOCK_AMPS * final.itemsize + SLACK
        assert bound < final.nbytes
        game.analyze_game(prog, world)  # fills the tuple free lists, which tracemalloc counts
        assert traced_peak(lambda: game.analyze_game(prog, world)) <= bound


class TestWilson:
    def test_interval_contains_rate(self):
        low, high = game.wilson_interval(50, 100)
        assert low < 0.5 < high

    def test_degenerate(self):
        assert game.wilson_interval(0, 0) == (0.0, 1.0)


class TestSamplingEstimator:
    def test_modified_mode_agrees_with_exact(self):
        world = lamport_world(1, 1, blinding=reference.blinding(1, {0}), seed=31)
        prog = game.random_program(world, 0, 1, seed=31)
        _, an = game.run_quantum_game(prog, world, mode="modified", seed=31)
        low, high = reference.estimate_success_sampling(prog, world, "modified", 3000, seed=32)
        assert low - 1e-9 <= an.p_win_modified <= high + 1e-9


class TestExactOutcomeCap:
    @staticmethod
    def min_game_qubits(n, message_bits, l_sem, chains, w):
        # smallest game layout: no x/y, m, the signature blocks, the blinded
        # flag, one workspace qubit, and w-1 quantum positions per chain
        return message_bits + n * l_sem + 1 + 1 + n * chains * (w - 1)

    def test_layout_arithmetic_matches_worlds(self):
        world = lamport_world(1, 2, workspace_qubits=1, seed=0)
        assert world.game_layout(include_xy=False).total == self.min_game_qubits(1, 2, 2, 4, 2)
        world = winternitz_world(2, 1, 3, workspace_qubits=1, seed=0)
        assert world.game_layout(include_xy=False).total == self.min_game_qubits(2, 1, 2, 2, 3)

    def test_no_world_within_the_qubit_cap_exceeds_the_outcome_cap(self):
        # parameter arithmetic only: no world or state is allocated
        worst_bits = 0
        for n in range(1, qsim.MAX_STATE_QUBITS + 1):
            for l in range(1, qsim.MAX_STATE_QUBITS + 1):
                if self.min_game_qubits(n, l, l, 2 * l, 2) <= qsim.MAX_STATE_QUBITS:
                    worst_bits = max(worst_bits, l + n * l)
            for a in range(1, qsim.MAX_STATE_QUBITS + 1):
                for w in range(2, 17):
                    l = ots.derive_wots_params(a, w, n, require_power_of_two=False).l
                    if self.min_game_qubits(n, a, l, l, w) <= qsim.MAX_STATE_QUBITS:
                        worst_bits = max(worst_bits, a + n * l)
        assert worst_bits > 0
        # the (message, signature) outcome space the game enumerates
        assert 1 << worst_bits <= 2 ** 16
