import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

import reference
from qromlab import lemmas, ots, qsim, rom, qworlds
from qromlab.qworlds import (
    build_blinded_sign_unitary,
    build_invariant_projector,
    build_q_projectors,
    build_query_unitary,
    build_qtilde,
    chain_world,
    frame_product_norm,
    lamport_world,
    query_unitary_as_function,
    winternitz_world,
)


def random_probe(layout, seed=0):
    return qsim.random_state_vector(layout.dim, np.random.default_rng(seed))


def is_permutation(perm):
    return np.array_equal(np.sort(perm), np.arange(len(perm)))


def is_involution(perm):
    return np.array_equal(perm[perm], np.arange(len(perm)))


def is_frame_projector(fd):
    """A frame diagonal is an orthogonal projector iff its table is 0/1: the
    frame change is a real orthogonal involution."""
    return bool(np.all((fd.table == 0.0) | (fd.table == 1.0)))


# ---------------------------------------------------------------------------
# References built straight from the definitions, independent of the compiled
# XOR and Hadamard-frame tables


def reference_query_factors(world, layout):
    """The mismatch factor and one compare-and-copy factor per chain register
    (c, j): identity unless x equals register (c, j), in which case the
    successor (next register or pinned endpoint) is XORed into y."""
    x = reference.field(layout, "x")
    y_shift = layout.shift("y")

    def factor(mask, values):
        perm = np.arange(layout.dim) ^ (values << y_shift)
        return lambda v: np.where(mask, v[perm], v)

    masks = {}
    factors = []
    for c in range(world.chain_count):
        for j in range(world.w - 1):
            masks[(c, j)] = x == reference.field(layout, world.chain_register(c, j))
            if j + 1 <= world.w - 2:
                succ = reference.field(layout, world.chain_register(c, j + 1))
            else:
                succ = np.full(layout.dim, world.p[c], dtype=np.int64)
            factors.append((c, j, factor(masks[(c, j)], succ)))
    none_match = ~np.logical_or.reduce(list(masks.values()))
    neq = factor(none_match, np.asarray(world.h_table, dtype=np.int64)[x])
    return neq, factors


def reference_query_unitary(world, layout, v):
    """Mismatch factor first, then the factors right to left in (chain asc,
    position asc) written order."""
    neq, factors = reference_query_factors(world, layout)
    v = neq(v)
    for _, _, f in reversed(factors):
        v = f(v)
    return v


def phi_pattern(v, layout, pattern):
    """Product of uniform (bit 0) and complement (bit 1) projectors."""
    for name, bit in pattern.items():
        proj = qsim.uniform_projector_apply(v, layout, (name,))
        v = proj if bit == 0 else v - proj
    return v


def reference_invariant_projector(world, layout, thresholds, v):
    """Alpha enumeration: the sum of every uniform/complement pattern on the
    chain registers that keeps some threshold vector's prefix uniform."""
    positions = [(c, j) for c in range(world.chain_count) for j in range(world.w - 1)]
    out = np.zeros_like(v)
    for bits in itertools.product((0, 1), repeat=len(positions)):
        alpha = dict(zip(positions, bits))
        if any(
            all(alpha[(c, j)] == 0 for c in range(world.chain_count) for j in range(t[c]))
            for t in thresholds
        ):
            out += phi_pattern(
                v, layout, {world.chain_register(c, j): b for (c, j), b in alpha.items()}
            )
    return out


def reference_q_projector(world, m_star, i_star, layout, v):
    """Outcome i_star as a pattern on the revealed chain registers, scaled by
    its endpoint weight (a revealed position j = w-1 is the pinned endpoint)."""
    pattern, weight = {}, 1.0
    for k, (c, j) in enumerate(world.revealed(m_star)[: min(i_star, world.l_sem)]):
        bit = 0 if k == i_star - 1 else 1
        if j <= world.w - 2:
            pattern[world.chain_register(c, j)] = bit
        else:
            weight *= 2.0 ** -world.n if bit == 0 else 1.0 - 2.0 ** -world.n
    return weight * phi_pattern(v, layout, pattern)


def assert_matches_references(world, layout, probes=3):
    thresholds = [world.thresholds(m) for m in world.unblinded()]
    p = build_invariant_projector(world, layout)
    u = build_query_unitary(world, layout) if "x" in layout.names else None
    for s in range(probes):
        v = random_probe(layout, 1000 + s)
        assert np.linalg.norm(p.apply(v) - reference_invariant_projector(world, layout, thresholds, v)) < 1e-12
        if u is not None:
            assert np.linalg.norm(u.apply(v) - reference_query_unitary(world, layout, v)) < 1e-12
        for m in world.messages():
            for q in build_q_projectors(world, m, layout):
                want = reference_q_projector(world, m, q.outcome, layout, v)
                assert np.linalg.norm(q.weight * q.apply(v) - want) < 1e-12


class TestWorldConstruction:
    def test_lamport_registers(self):
        world = lamport_world(2, 2, seed=0)
        assert world.chain_count == 4 and world.w == 2
        assert world.chain_registers() == ("g0_0", "g1_0", "g2_0", "g3_0")
        assert world.norm_layout().total == 2 + 2 + 4 * 2

    def test_winternitz_registers(self):
        world = winternitz_world(2, 1, 3, seed=0)
        assert world.chain_count == 2  # one message block, one checksum block
        assert world.chain_registers() == ("g0_0", "g0_1", "g1_0", "g1_1")

    def test_lamport_thresholds(self):
        world = lamport_world(1, 2, seed=0)
        # signing m reveals chain (i, m_i); the complementary chains stay below
        assert world.thresholds(0b00) == (0, 1, 0, 1)
        assert world.thresholds(0b10) == (1, 0, 0, 1)

    def test_winternitz_thresholds_are_digit_vectors(self):
        world = winternitz_world(1, 1, 3, seed=0)
        assert world.thresholds(0) == (0, 2)
        assert world.thresholds(1) == (1, 1)

    @pytest.mark.parametrize(
        "world",
        [
            lamport_world(3, 2, seed=0),
            winternitz_world(3, 2, 3, seed=0),
            winternitz_world(3, 2, 4, seed=0),
        ],
    )
    def test_revealed_positions_are_the_classical_signature(self, world):
        # signing m with the scheme publishes exactly chain position (c, j) of
        # every block; j = w-1 is the public key entry
        oracle = rom.RandomOracleTable(world.n, seed=5)
        rng = np.random.default_rng(5)
        kp = ots.keygen(world.params, oracle, rng)
        for m in world.messages():
            revealed = world.revealed(m)
            assert len(revealed) == world.l_sem
            for s, (c, j) in zip(ots.sign(world.params, kp.sk, m, oracle).sigma, revealed):
                assert s == ots.chain_eval(kp.sk[c], 0, j, oracle)

    def test_descriptor_round_trip(self):
        world = winternitz_world(2, 1, 2, blinding=reference.blinding(1, {0}), seed=4)
        import json

        doc = json.loads(reference.world_descriptor_json(world))
        assert doc["scheme"] == "winternitz" and doc["blinding_set"] == [0]
        assert len(doc["p"]) == world.chain_count

    # (seed, public endpoints, oracle table) recorded from the worlds as built
    # before ChainWorld drew them itself; a Lamport and a Winternitz world on
    # two message bits share the first four endpoints of their seed.
    PINNED = [(0, [3, 1, 1, 2], (3, 1, 2, 2)), (5, [2, 3, 0, 2], (0, 2, 3, 3))]

    @pytest.mark.parametrize("seed,p,h_table", PINNED)
    def test_descriptors_are_pinned(self, seed, p, h_table):
        import json

        blinding = reference.blinding(2, {1, 2}, 0.5)
        marks = {"blinding_set": [1, 2], "epsilon": 0.5, "message_bits": 2, "n": 2, "seed": seed}
        cases = [
            (lamport_world(2, 2, blinding=blinding, seed=seed),
             dict(marks, scheme="lamport", chains=4, l=2, w=2, p=p)),
            (winternitz_world(2, 2, 3, blinding=blinding, seed=seed),
             dict(marks, scheme="winternitz", chains=4, l=4, w=3, p=p)),
            (qworlds.chain_world(2, 2, 3, seed=seed),
             dict(scheme="winternitz", chains=2, l=2, n=2, w=3, seed=seed, p=p[:2])),
        ]
        for world, doc in cases:
            assert reference.world_descriptor_json(world) == (
                json.dumps(doc, indent=2, sort_keys=True) + "\n"
            )
            assert world.h_table == h_table


# The four worlds of the qgame benchmark (19-21 qubit game layouts) and a
# bare chain world; tests run them on every layout kind each has.
BENCH_WORLDS = pytest.mark.parametrize(
    "world",
    [
        lamport_world(2, 2, seed=7),
        lamport_world(1, 4, seed=7),
        winternitz_world(2, 1, 3, seed=7),
        winternitz_world(1, 2, 3, seed=7),
        chain_world(2, 2, 3, seed=7),
    ],
    ids=["lamport-2-2", "lamport-1-4", "winternitz-2-1-3", "winternitz-1-2-3", "chains"],
)


def every_layout(world):
    layouts = [world.norm_layout(), world.chain_layout()]
    if world.message_bits is not None:
        layouts += [world.game_layout(), world.game_layout(include_xy=False)]
    return layouts


class TestInitialState:
    @BENCH_WORLDS
    def test_matches_the_kron_product_state_bit_for_bit(self, world):
        chains = set(world.chain_registers())
        for layout in every_layout(world):
            basis = {name: 0 for name in layout.names if name not in chains}
            want = reference.uniform_state(layout, chains, basis).amplitudes
            got = reference.initial_state(world, layout)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_chain_registers_must_trail_the_layout(self):
        world = lamport_world(1, 1, seed=0)
        g0, g1 = ((name, 1) for name in world.chain_registers())
        for regs in ([g0, ("m", 1), g1], [("x", 1), g1, g0], [("x", 1), g0]):
            with pytest.raises(ValueError, match="do not trail"):
                world.initial_head(qsim.RegisterLayout(regs))


class TestQueryUnitary:
    @pytest.mark.parametrize(
        "maker", [lambda: lamport_world(2, 1, seed=1), lambda: winternitz_world(2, 1, 3, seed=1)]
    )
    def test_unitarity_on_probes(self, maker):
        world = maker()
        layout = world.norm_layout()
        u = build_query_unitary(world, layout)
        perm = reference.xor_index(u)
        assert is_permutation(perm) and is_involution(perm)

    def test_matching_input_copies_successor(self):
        world = winternitz_world(2, 1, 3, seed=2)
        layout = world.norm_layout()
        u = build_query_unitary(world, layout)
        assignment = {"g0_0": 1, "g0_1": 2, "g1_0": 3, "g1_1": 0}
        state = reference.basis_state(layout, {"x": 1, "y": 0, **assignment})
        out = u.apply(state.amplitudes)
        expect = reference.basis_index(layout, {"x": 1, "y": 2, **assignment})
        assert out[expect] == pytest.approx(1.0)

    def test_fresh_input_falls_back_to_base_function(self):
        world = winternitz_world(2, 1, 2, seed=3)
        layout = world.norm_layout()
        u = build_query_unitary(world, layout)
        assignment = {"g0_0": 0, "g1_0": 1}
        x = 2
        state = reference.basis_state(layout, {"x": x, "y": 0, **assignment})
        out = u.apply(state.amplitudes)
        expect = reference.basis_index(layout, {"x": x, "y": world.h_table[x], **assignment})
        assert out[expect] == pytest.approx(1.0)

    def test_collision_xors_both_successors(self):
        world = winternitz_world(1, 1, 2, seed=5)
        fn = query_unitary_as_function(world)
        assert fn.shape == (2, 4)
        assert fn[1, 0b11] == world.p[0] ^ world.p[1]  # g0_0 = g1_0 = 1

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: lamport_world(1, 1, seed=6),
            lambda: lamport_world(2, 2, seed=6),
            lambda: winternitz_world(1, 1, 2, seed=6),
            lambda: winternitz_world(2, 1, 3, seed=6),
        ],
    )
    def test_exhaustive_equivalence_with_reprogrammed_oracle(self, maker):
        world = maker()
        regs = world.chain_registers()
        n = world.n
        quantum = query_unitary_as_function(world)
        assert quantum.shape == (1 << n, 1 << (len(regs) * n))
        for bits in range(1 << (len(regs) * n)):
            assignment = {
                name: (bits >> ((len(regs) - 1 - k) * n)) & ((1 << n) - 1)
                for k, name in enumerate(regs)
            }
            classical = world.overlay_oracle(assignment)
            for x in range(1 << n):
                assert quantum[x, bits] == classical(x)

    @BENCH_WORLDS
    def test_compiles_exactly_the_answer_table(self, world):
        # delta is f[x, gamma] shifted into y: it reads exactly x and the
        # chain registers and flips no bit outside y, on the norm layout and
        # the game layout
        f = query_unitary_as_function(world)
        chains = set(world.chain_registers())
        layouts = [world.norm_layout()]
        if world.message_bits is not None:
            layouts.append(world.game_layout())
        for layout in layouts:
            read = tuple(
                d if name == "x" or name in chains else 1
                for name, d in zip(layout.names, layout.dims)
            )
            delta = build_query_unitary(world, layout).delta
            assert delta.shape == read
            assert np.array_equal(delta, f.reshape(read) << layout.shift("y"))

    @pytest.mark.parametrize(
        "maker", [lambda: lamport_world(1, 2, seed=6), lambda: winternitz_world(2, 1, 3, seed=6)]
    )
    def test_function_table_matches_basis_state_applies(self, maker):
        # U_h applied to every |x, 0, gamma> moves it to exactly one basis
        # state, |x, f[x, gamma], gamma>
        world = maker()
        layout = world.norm_layout()
        u = build_query_unitary(world, layout)
        f = query_unitary_as_function(world)
        regs = world.chain_registers()
        n = world.n
        for x in range(1 << n):
            for bits in range(1 << (len(regs) * n)):
                gamma = {
                    name: (bits >> ((len(regs) - 1 - k) * n)) & ((1 << n) - 1)
                    for k, name in enumerate(regs)
                }
                out = u.apply(reference.basis_state(layout, {"x": x, "y": 0, **gamma}).amplitudes)
                want = np.zeros(layout.dim)
                want[reference.basis_index(layout, {"x": x, "y": int(f[x, bits]), **gamma})] = 1.0
                assert np.array_equal(out, want)

    def test_exactly_one_factor_acts_without_collisions(self):
        world = winternitz_world(2, 1, 3, seed=7)
        layout = world.norm_layout()
        neq, factors = reference_query_factors(world, layout)
        u = build_query_unitary(world, layout)
        assignment = {"g0_0": 0, "g0_1": 1, "g1_0": 2, "g1_1": 3}  # no collisions
        for x in range(4):
            state = reference.basis_state(layout, {"x": x, "y": 0, **assignment}).amplitudes
            changing = [
                (c, j)
                for c, j, f in factors
                if np.linalg.norm(f(state) - state) > 1e-12
            ]
            matches = [(c, j) for c in range(2) for j in range(2) if assignment[f"g{c}_{j}"] == x]
            # only the matching comparison can move the state, and the
            # compiled unitary acts exactly like that single factor (or the
            # fallback)
            assert set(changing) <= set(matches) and len(changing) <= 1
            if matches:
                lone = [f for c, j, f in factors if (c, j) == matches[0]][0]
                assert np.allclose(u.apply(state), lone(state))
            else:
                assert np.allclose(u.apply(state), neq(state))

    @pytest.mark.parametrize(
        "maker", [lambda: lamport_world(1, 1, seed=9), lambda: winternitz_world(2, 1, 3, seed=9)]
    )
    def test_phase_splits_match_reprogrammed_oracle(self, maker):
        # B[x, k, gamma] is the parity of k & f(x, gamma), f the classical
        # reprogrammed oracle on the chain values gamma
        world = maker()
        splits = qworlds.query_phase_splits(query_unitary_as_function(world))
        regs = world.chain_registers()
        n = world.n
        assert splits.shape == (1 << n, 1 << n, 1 << (len(regs) * n))
        for bits in range(1 << (len(regs) * n)):
            assignment = {
                name: (bits >> ((len(regs) - 1 - k) * n)) & ((1 << n) - 1)
                for k, name in enumerate(regs)
            }
            oracle = world.overlay_oracle(assignment)
            for x in range(1 << n):
                for k in range(1 << n):
                    assert splits[x, k, bits] == (bin(k & oracle(x)).count("1") % 2 == 1)

    def test_norm_needs_a_projector_table(self):
        # m = 0 signs its checksum digit at the chain end, so Qtilde carries
        # sqrt endpoint weights and is not a projector
        world = winternitz_world(1, 1, 3, blinding=reference.blinding(1, {0}), seed=9)
        tables = [qt.table for qt in build_qtilde(world, world.game_layout(include_xy=False))]
        weighted = [t for t in tables if not np.all((t == 0.0) | (t == 1.0))]
        assert weighted
        for table in weighted:
            masks = np.ones((1, table.size), dtype=bool)
            with pytest.raises(ValueError, match="0/1"):
                qsim.operator_norm(table, masks, masks)

    def test_self_adjoint_involution(self):
        world = winternitz_world(2, 1, 3, seed=8)
        layout = world.norm_layout()
        u = build_query_unitary(world, layout)
        v = random_probe(layout, 8)
        assert np.array_equal(u.apply(u.apply(v)), v)


class TestBlindedSign:
    def test_all_blinded_is_identity(self):
        world = lamport_world(1, 1, blinding=reference.all_blinded(1), seed=8)
        layout = world.game_layout(include_xy=False)
        bsign = build_blinded_sign_unitary(world, layout)
        v = random_probe(layout, 8)
        assert np.allclose(bsign.apply(v), v)

    def test_unblinded_lamport_xors_secret_into_sigma(self):
        world = lamport_world(2, 1, blinding=reference.none_blinded(1), seed=9)
        layout = world.game_layout(include_xy=False)
        bsign = build_blinded_sign_unitary(world, layout)
        state = reference.basis_state(
            layout, {"m": 0, "sig0": 0, "b": 0, "e": 0, "g0_0": 3, "g1_0": 1}
        )
        out = bsign.apply(state.amplitudes)
        expect = reference.basis_index(
            layout, {"m": 0, "sig0": 3, "b": 0, "e": 0, "g0_0": 3, "g1_0": 1}
        )
        assert out[expect] == pytest.approx(1.0)

    def test_winternitz_endpoint_digit_signs_public_string(self):
        # at w=2, a=1: message 0 has digit vector (0, 1); block 1 signs with
        # the public endpoint itself
        world = winternitz_world(2, 1, 2, blinding=reference.none_blinded(1), seed=10)
        layout = world.game_layout(include_xy=False)
        bsign = build_blinded_sign_unitary(world, layout)
        state = reference.basis_state(
            layout, {"m": 0, "sig0": 0, "sig1": 0, "b": 0, "e": 0, "g0_0": 1, "g1_0": 2}
        )
        out = bsign.apply(state.amplitudes)
        expect = reference.basis_index(
            layout, {"m": 0, "sig0": 1, "sig1": world.p[1], "b": 0, "e": 0, "g0_0": 1, "g1_0": 2}
        )
        assert out[expect] == pytest.approx(1.0)

    def test_involution(self):
        world = lamport_world(1, 2, blinding=reference.blinding(2, {1, 2}), seed=11)
        layout = world.game_layout(include_xy=False)
        bsign = build_blinded_sign_unitary(world, layout)
        v = random_probe(layout, 11)
        assert np.linalg.norm(bsign.apply(bsign.apply(v)) - v) < 1e-9

    def test_blinded_branch_leaves_chain_registers_alone(self):
        world = lamport_world(1, 1, blinding=reference.blinding(1, {1}), seed=12)
        layout = world.game_layout(include_xy=False)
        bsign = build_blinded_sign_unitary(world, layout)
        # blinded message basis state: nothing moves
        s = reference.uniform_state(
            layout, set(world.chain_registers()), {"m": 1, "sig0": 1, "b": 0, "e": 0}
        )
        assert np.allclose(bsign.apply(s.amplitudes), s.amplitudes)


class TestPermutationGuards:
    def test_delta_that_reads_a_register_it_flips_is_refused(self):
        # y ^= y is no involution: |y> -> |0> for every y
        layout = lamport_world(2, 1, seed=13).norm_layout()
        with pytest.raises(ValueError, match=r"varies along \['y'\]"):
            qworlds.Permutation(layout, layout.values("y") << layout.shift("y"), "bad")

    def test_delta_outside_the_index_is_refused(self):
        layout = lamport_world(2, 1, seed=13).norm_layout()
        with pytest.raises(ValueError, match="outside"):
            qworlds.Permutation(layout, layout.values("x") << layout.total, "bad")
        with pytest.raises(ValueError):
            qworlds.Permutation(layout, np.zeros((3, 1), dtype=np.int64), "bad")

    def test_zero_delta_is_the_identity_and_allocates_nothing(self):
        # every message blinded: the signing map flips nothing
        world = lamport_world(1, 3, blinding=reference.all_blinded(3), seed=14)
        layout = world.game_layout()
        bsign = build_blinded_sign_unitary(world, layout)
        assert not bsign.delta.any()
        v = random_probe(layout, 14)
        want = v.tobytes()
        got = []
        tracemalloc.start()
        try:
            got.append(bsign.apply_in_place(v))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[0] is v and v.tobytes() == want
        assert peak < qsim.BLOCK_AMPS * v.itemsize
        copy = bsign.apply(v)
        assert copy is not v and copy.tobytes() == want


class TestQProjectors:
    def test_completeness_on_probes_lamport(self):
        world = lamport_world(2, 2, seed=13)
        layout = world.chain_layout()
        qs = build_q_projectors(world, 0b01, layout)
        v = random_probe(layout, 13)
        total = sum(q.apply(v) for q in qs)
        assert np.linalg.norm(total - v) < 1e-9
        assert all(q.weight == 1.0 for q in qs)

    def test_completeness_quantum_digits_winternitz(self):
        # at w=3, a=1: message 1 encodes to (1, 1): all digits interior
        world = winternitz_world(1, 1, 3, seed=14)
        layout = world.chain_layout()
        qs = build_q_projectors(world, 1, layout)
        assert all(q.weight == 1.0 for q in qs)
        v = random_probe(layout, 14)
        total = sum(q.apply(v) for q in qs)
        assert np.linalg.norm(total - v) < 1e-9

    def test_endpoint_weights(self):
        # at w=2, a=1: message 0 encodes to (0, 1): block 1 sits on the endpoint
        world = winternitz_world(2, 1, 2, seed=15)
        layout = world.chain_layout()
        qs = build_q_projectors(world, 0, layout)
        assert qs[0].weight == 1.0
        assert qs[1].weight == pytest.approx(0.25)
        assert qs[2].weight == pytest.approx(0.75)

    def test_first_outcome_fires_on_fresh_state(self):
        world = lamport_world(1, 2, seed=16)
        layout = world.chain_layout()
        qs = build_q_projectors(world, 0b00, layout)
        fresh = reference.initial_state(world, layout)
        assert np.linalg.norm(qs[0].apply(fresh) - fresh) < 1e-12
        for q in qs[1:]:
            assert np.linalg.norm(q.apply(fresh)) < 1e-12

    def test_projector_laws(self):
        world = lamport_world(1, 2, seed=17)
        layout = world.chain_layout()
        for q in build_q_projectors(world, 0b10, layout):
            assert is_frame_projector(q)


class TestInvariantProjector:
    def test_no_blinding_fixes_fresh_state(self):
        world = lamport_world(1, 1, blinding=reference.none_blinded(1), seed=18)
        layout = world.chain_layout()
        p = build_invariant_projector(world, layout)
        fresh = reference.initial_state(world, layout)
        assert np.linalg.norm(p.apply(fresh) - fresh) < 1e-12

    def test_all_blinded_gives_zero_map(self):
        world = lamport_world(1, 1, blinding=reference.all_blinded(1), seed=19)
        p = build_invariant_projector(world)
        assert p.is_zero and not p.table.any()

    def test_projector_laws(self):
        world = lamport_world(1, 2, blinding=reference.blinding(2, {0, 3}), seed=20)
        p = build_invariant_projector(world)
        assert is_frame_projector(p) and not p.is_zero

    @pytest.mark.parametrize(
        "maker",
        [
            lambda b: lamport_world(1, 2, blinding=b(2), seed=21),
            lambda b: winternitz_world(1, 1, 3, blinding=b(1), seed=21),
            lambda b: winternitz_world(2, 1, 2, blinding=b(1), seed=21),
        ],
    )
    def test_union_equals_alpha_enumeration(self, maker):
        rng = np.random.default_rng(21)
        for trial in range(4):

            def blinding(nbits):
                members = {m for m in range(1 << nbits) if rng.random() < 0.5}
                return reference.blinding(nbits, members)

            world = maker(blinding)
            layout = world.chain_layout()
            thresholds = [world.thresholds(m) for m in world.unblinded()]
            p = build_invariant_projector(world, layout)
            for s in range(4):
                v = random_probe(layout, 100 * trial + s)
                want = reference_invariant_projector(world, layout, thresholds, v)
                assert np.linalg.norm(p.apply(v) - want) < 1e-12
            assert_matches_references(world, world.norm_layout(), probes=1)

    def test_orthogonality_to_forced_outcome(self):
        world = lamport_world(1, 1, blinding=reference.blinding(1, {0}), seed=22)
        layout = world.chain_layout()
        p = build_invariant_projector(world, layout)
        q_last = build_q_projectors(world, 0, layout)[-1]
        assert frame_product_norm(q_last, p) == 0.0
        assert qsim.probe_max_ratio(reference.compose(q_last, p)) < 1e-10

    def test_exact_check_detects_overlap_on_unblinded_message(self):
        # message 1 is unblinded: its forced outcome and P share support
        world = lamport_world(1, 1, blinding=reference.blinding(1, {0}), seed=22)
        layout = world.chain_layout()
        p = build_invariant_projector(world, layout)
        q_last = build_q_projectors(world, 1, layout)[-1]
        assert frame_product_norm(q_last, p) == 1.0
        est = reference.lanczos_norm(reference.compose(q_last, p))
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_layout_without_chain_registers_rejected(self):
        world = lamport_world(1, 1, blinding=reference.blinding(1, {0}), seed=22)
        partial = qsim.RegisterLayout([("m", 1), ("g0_0", 1)])
        builders = (
            lambda: build_invariant_projector(world, partial),
            lambda: build_q_projectors(world, 0, partial),
            lambda: build_qtilde(world, partial),
        )
        for build in builders:
            with pytest.raises(ValueError, match="chain registers"):
                build()


class TestQtilde:
    def test_matches_per_message_projectors(self):
        world = lamport_world(1, 1, blinding=reference.blinding(1, {1}), seed=23)
        layout = world.game_layout(include_xy=False)
        qts = build_qtilde(world, layout)
        mfield = reference.field(layout, "m")
        v = random_probe(layout, 23)
        for i, qt in enumerate(qts):
            manual = np.zeros_like(v)
            for m in world.messages():
                q = build_q_projectors(world, m, layout)[i]
                manual += np.sqrt(q.weight) * q.apply(np.where(mfield == m, v, 0.0))
            assert np.allclose(qt.apply(v), manual)


FRAME_WORLDS = [
    lambda: lamport_world(2, 1, blinding=reference.blinding(1, {1}), seed=25),
    lambda: winternitz_world(1, 1, 3, blinding=reference.blinding(1, {0}), seed=26),
]


class TestFrameSplit:
    @pytest.mark.parametrize("maker", FRAME_WORLDS)
    def test_to_frame_is_an_involution(self, maker):
        world = maker()
        v = random_probe(world.game_layout(), 27)
        hv = qworlds.to_frame(world, v)
        assert np.allclose(qworlds.to_frame(world, hv), v, rtol=0, atol=1e-12)
        assert np.linalg.norm(hv) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("maker", FRAME_WORLDS)
    def test_apply_is_frame_table_frame(self, maker):
        world = maker()
        layout = world.game_layout()
        v = random_probe(layout, 28)
        for fd in [build_invariant_projector(world, layout), *build_qtilde(world, layout)]:
            assert np.array_equal(fd.apply(v), reference.frame_apply(world, fd, v))

    def test_dropped_map_is_freed_without_the_cycle_collector(self):
        world = FRAME_WORLDS[0]()
        fd = build_invariant_projector(world, world.game_layout())
        ref = weakref.ref(fd)
        gc.disable()
        try:
            del fd
            assert ref() is None
        finally:
            gc.enable()


def counting_sylvester(monkeypatch):
    """Record the qubit count of every Sylvester factor a frame build makes."""
    built = []
    sylvester = qworlds._sylvester

    def counting(qubits):
        built.append(qubits)
        return sylvester(qubits)

    monkeypatch.setattr(qworlds, "_sylvester", counting)
    return built


class TestHadamardFrame:
    @BENCH_WORLDS
    def test_matches_the_dense_sylvester_frame(self, world):
        for layout in every_layout(world):
            v = random_probe(layout, 31)
            hv = qworlds.to_frame(world, v)
            assert hv.dtype == np.complex128 and hv.shape == v.shape
            assert np.max(np.abs(hv - reference.chain_frame(world, layout, v))) <= 1e-14
            # the float64 view's dgemms against complex Sylvester gates
            # lifted by qsim.embed: the same sums, rounded alike or nearly
            assert np.max(np.abs(hv - reference.embed_frame(world, layout, v))) <= 1e-15
            assert np.max(np.abs(qworlds.to_frame(world, hv) - v)) <= 1e-14

    def test_wide_registers_match_the_embedded_complex_frame(self):
        world = chain_world(5, 2, 2, seed=7)  # two 32-wide factors
        for layout in every_layout(world):
            v = random_probe(layout, 41)
            got = qworlds.to_frame(world, v)
            assert np.max(np.abs(got - reference.embed_frame(world, layout, v))) <= 1e-15

    @pytest.mark.parametrize(
        "registers",
        [
            lambda g0, g1: [g0, ("m", 1), g1],  # a register between the chains
            lambda g0, g1: [g1, g0],  # the chains out of order
            lambda g0, g1: [g0, (g1[0], 2)],  # a chain register wider than n
        ],
        ids=["interleaved", "reordered", "wide"],
    )
    def test_chain_registers_must_trail_the_layout(self, registers):
        world = lamport_world(1, 1, seed=0)
        g0, g1 = ((name, 1) for name in world.chain_registers())
        layout = qsim.RegisterLayout(registers(g0, g1))
        with pytest.raises(ValueError, match="do not trail"):
            qworlds.invariant_projector_from_thresholds(world, [(0, 0)], layout)

    @pytest.mark.parametrize(
        "world,shapes",
        [
            (lamport_world(1, 3, seed=0), [16, 4]),
            (chain_world(2, 3, 2, seed=0), [16, 4]),
            (chain_world(3, 2, 2, seed=0), [8, 8]),
            (chain_world(5, 2, 2, seed=0), [32, 32]),
        ],
        ids=["six-1-qubit", "three-2-qubit", "two-3-qubit", "two-5-qubit"],
    )
    def test_factors_are_whole_registers_of_at_most_four_qubits(self, world, shapes):
        frame = qworlds._hadamard_frame(world)
        assert [d for d, _, _ in frame] == shapes
        # post is the dimension of the chain registers after each block; the
        # trailing factor acts on (re, im) pairs as kron(M, 1_2)
        posts = [int(np.prod(shapes[k + 1:])) for k in range(len(shapes))]
        assert [post for _, post, _ in frame] == posts
        for d, post, h in frame:
            m = qworlds._sylvester(d.bit_length() - 1)
            assert np.array_equal(h, m if post > 1 else np.kron(m, np.eye(2)))
            assert h.dtype == np.float64

    def test_every_layout_shares_one_frame_built_on_first_use(self, monkeypatch):
        built = counting_sylvester(monkeypatch)
        world = lamport_world(1, 3, blinding=reference.blinding(3, {1}), seed=7)
        layouts = every_layout(world)  # norm, chain, game and sign-only
        assert len(set(layouts)) == 4
        maps = [build_invariant_projector(world, layout) for layout in layouts]
        assert built == []
        frames = []
        for i, (layout, p) in enumerate(zip(layouts, maps)):
            v = random_probe(layout, 32 + i)
            hv = qworlds.to_frame(world, v)
            assert np.max(np.abs(hv - reference.chain_frame(world, layout, v))) <= 1e-14
            assert np.array_equal(p.apply(v), reference.frame_apply(world, p, v))
            frames.append(qworlds._hadamard_frame(world))
        assert built == [4, 2] and len(frames[0]) == 2
        assert all(frame is frames[0] for frame in frames)

    def test_norm_rows_build_no_frame_gate(self, monkeypatch):
        built = counting_sylvester(monkeypatch)
        (report,) = lemmas.check_invariant_commutator("lamport", 2, 2, seed=3)
        assert report.passed and built == []


class TestGameLayoutReferences:
    def test_compiled_maps_match_references_with_xy(self):
        world = winternitz_world(1, 1, 3, blinding=reference.blinding(1, {0}), seed=24)
        layout = world.game_layout(include_xy=True)
        assert_matches_references(world, layout, probes=2)


class TestUnitarityProbes:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_query_and_sign_unitaries_preserve_norm(self, seed):
        world = winternitz_world(1, 1, 3, blinding=reference.blinding(1, {0}), seed=seed)
        layout = world.game_layout(include_xy=True)
        for u in (qworlds.build_query_unitary(world, layout),
                  qworlds.build_blinded_sign_unitary(world, layout)):
            perm = reference.xor_index(u)
            assert is_permutation(perm) and is_involution(perm)


class TestProjectorMethodSwitch:
    def test_sixteen_threshold_vectors_compile_to_one_table(self):
        # sixteen pairwise-incomparable reveal threshold vectors; the table
        # holds the alpha patterns of their union: at every message position
        # at least one of the two chains stays uniform, 3^4 patterns
        world = lamport_world(1, 4, blinding=reference.none_blinded(4), seed=30)
        layout = world.chain_layout()
        p = qworlds.build_invariant_projector(world, layout)
        assert np.count_nonzero(p.table) == 3 ** 4
        assert is_frame_projector(p)
        fresh = reference.initial_state(world, layout)
        assert np.allclose(p.apply(fresh), fresh)
        assert_matches_references(world, layout, probes=2)
        # and the forced outcome stays orthogonal on a blinded forgery
        world2 = lamport_world(
            1, 4, blinding=reference.blinding(4, {0b1111}), seed=30
        )
        p2 = qworlds.build_invariant_projector(world2, layout)
        q_last = qworlds.build_q_projectors(world2, 0b1111, layout)[-1]
        assert frame_product_norm(q_last, p2) == 0.0
        assert qsim.probe_max_ratio(reference.compose(q_last, p2), probes=8) < 1e-10

    def test_degenerate_chain_length_rejected(self):
        with pytest.raises(ValueError):
            qworlds.chain_world(2, 1, 1, seed=0)

    def test_world_without_chains_or_bits_rejected(self):
        with pytest.raises(ValueError, match="at least one chain, got 0"):
            qworlds.chain_world(2, 0, 2, seed=0)
        with pytest.raises(ValueError, match="at least one bit, got n=0"):
            qworlds.chain_world(0, 1, 2, seed=0)
