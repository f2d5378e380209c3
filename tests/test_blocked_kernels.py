"""The blocked full-state kernels (``qsim.blocks``) against the unblocked
ones kept in ``tests/reference.py``, bit for bit.

``qsim.BLOCK_AMPS`` is set small, so layouts of at most 16 qubits run many
blocks; at the default value they run one or two.
"""

import itertools

import numpy as np
import pytest
import reference

from qromlab import game, lemmas, qsim, qworlds
from qromlab.qworlds import build_invariant_projector, build_qtilde, lamport_world

# 16-qubit game layout (x, y, m: 3, sig0-2, b, e: 1, six 1-qubit chain
# registers), frame factors [16, 4].
WORLD = lamport_world(1, 3, blinding=reference.blinding(3, {1, 4}), seed=3, workspace_qubits=1)
# 14-qubit game layout whose two 2-qubit chain registers are one frame factor.
ONE_FACTOR = lamport_world(2, 1, blinding=reference.blinding(1, {1}), seed=25)

# Many blocks, fewer blocks, and the default.
BLOCK_SIZES = pytest.mark.parametrize("block_amps", [1 << 8, 1 << 11, qsim.BLOCK_AMPS])


def probe(dim, seed):
    return qsim.random_state_vector(dim, np.random.default_rng(seed))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBlocks:
    @pytest.mark.parametrize(
        "dims,keep",
        [
            ((4, 8, 2, 16), ()),
            ((4, 8, 2, 16), (3,)),
            ((4, 8, 2, 16), (0,)),
            ((4, 2, 8, 8), (1, 3)),
            ((2, 2, 2, 2, 2, 2, 2, 2), (1, 6)),
        ],
    )
    def test_blocks_tile_the_array_in_flat_order(self, dims, keep, monkeypatch):
        monkeypatch.setattr(qsim, "BLOCK_AMPS", 1 << 5)
        index = np.arange(int(np.prod(dims))).reshape(dims)
        spans = qsim.blocks(dims, keep)
        assert len(spans) > 1
        parts = [index[block] for block in spans]
        assert np.array_equal(np.sort(np.concatenate([p.reshape(-1) for p in parts])),
                              index.reshape(-1))
        assert all(p.size <= qsim.BLOCK_AMPS for p in parts)
        assert all(p.shape[a] == dims[a] for p in parts for a in keep)
        assert [p.min() for p in parts] == sorted(p.min() for p in parts)
        if all(a >= len(spans[0]) for a in keep):  # kept axes trail the split
            assert all(p.flags.c_contiguous for p in parts)

    def test_small_array_is_one_block(self):
        assert qsim.blocks((4, 8), ()) == [()]

    def test_kept_axes_larger_than_a_block(self, monkeypatch):
        monkeypatch.setattr(qsim, "BLOCK_AMPS", 1 << 5)
        spans = qsim.blocks((2, 4, 128), (2,))
        assert len(spans) == 8
        assert all(np.ones((2, 4, 128))[block].shape == (1, 1, 128) for block in spans)

    def test_block_of_reads_only_axes_of_size_above_one(self):
        table = np.arange(8.0).reshape(1, 8, 1)
        block = (slice(1, 2), slice(4, 8), slice(0, 2))
        assert np.array_equal(qsim.block_of(table, block), table[:, 4:8, :])


# Axis 0 (x) and the last head register (e), reversed and three-register
# targets, a chain register, and adjacent targets in layout order.
GATE_TARGETS = [("e", "x"), ("x", "m"), ("y", "x"), ("e", "sig0", "x"), ("m", "g0_0"),
                ("sig2", "b"), ("x",)]


class TestEmbed:
    @BLOCK_SIZES
    @pytest.mark.parametrize("targets", GATE_TARGETS)
    def test_gate_equals_the_unblocked_transpose_gemm(self, targets, block_amps, monkeypatch):
        monkeypatch.setattr(qsim, "BLOCK_AMPS", block_amps)
        layout = WORLD.game_layout()
        assert layout.total == 16
        rng = np.random.default_rng(len(targets) + block_amps)
        op = qsim.haar_unitary(1 << sum(layout.width(t) for t in targets), rng)
        v = probe(layout.dim, 60)
        axes = [layout.axis(t) for t in targets]
        if block_amps < layout.dim:
            assert len(qsim.blocks(layout.dims, axes)) > 1
        gate = qsim.embed(op, targets, layout)
        assert same_bits(gate.apply(v), reference.embed_moveaxis(op, targets, layout).apply(v))


def frame_maps(world, layout):
    # P reads the chain registers only; every Qtilde table reads m as well
    return [build_invariant_projector(world, layout), *build_qtilde(world, layout)]


class TestFrameApply:
    @BLOCK_SIZES
    @pytest.mark.parametrize("world", [WORLD, ONE_FACTOR], ids=["two-factor", "one-factor"])
    @pytest.mark.parametrize("include_xy", [True, False])
    def test_apply_and_frame_change_equal_the_unblocked_ones(self, world, include_xy,
                                                            block_amps, monkeypatch):
        monkeypatch.setattr(qsim, "BLOCK_AMPS", block_amps)
        layout = world.game_layout(include_xy=include_xy)
        assert len(qworlds._hadamard_frame(world)) == (2 if world is WORLD else 1)
        v = probe(layout.dim, 61)
        for fd in frame_maps(world, layout):
            assert same_bits(fd.apply(v), reference.frame_apply(world, fd, v))
        assert same_bits(qworlds.to_frame(world, v), reference.frame_change(world, v))

    @pytest.mark.parametrize("include_xy", [True, False])
    def test_chain_columns_wider_than_a_block(self, include_xy, monkeypatch):
        # 2^4 amplitudes hold a quarter of one 2^6-wide chain column: each
        # block is one column, and the trailing factor still has 16 rows
        monkeypatch.setattr(qsim, "BLOCK_AMPS", 1 << 4)
        layout = WORLD.game_layout(include_xy=include_xy)
        assert len(qsim.blocks(layout.dims, range(len(layout.names) - 6, len(layout.names)))) \
            == layout.dim >> 6
        v = probe(layout.dim, 62)
        for fd in frame_maps(WORLD, layout):
            assert same_bits(fd.apply(v), reference.frame_apply(WORLD, fd, v))
        assert same_bits(qworlds.to_frame(WORLD, v), reference.frame_change(WORLD, v))

    @BLOCK_SIZES
    @pytest.mark.parametrize("include_xy", [True, False])
    def test_to_frame_of_a_strided_block_is_that_block_changed(self, include_xy, block_amps,
                                                                monkeypatch):
        # game.probability_tensor's call: one block of whole chain columns,
        # a strided view, into a new C-contiguous array of the block's shape
        monkeypatch.setattr(qsim, "BLOCK_AMPS", block_amps)
        layout = WORLD.game_layout(include_xy=include_xy)
        chain = WORLD.chain_dim(layout)
        v = probe(layout.dim, 63)
        rows = v.reshape(2, -1, chain).transpose(1, 0, 2)
        want = reference.frame_change(WORLD, v).reshape(2, -1, chain).transpose(1, 0, 2)
        for block in qsim.blocks(rows.shape, (2,)):
            assert not rows[block].flags.c_contiguous
            got = qworlds.to_frame(WORLD, rows[block])
            assert got.flags.c_contiguous
            assert same_bits(got, np.ascontiguousarray(want[block]))


class TestOutcomeTensors:
    @BLOCK_SIZES
    @pytest.mark.parametrize("world", [WORLD, ONE_FACTOR], ids=["two-factor", "one-factor"])
    @pytest.mark.parametrize("q", [0, 1], ids=["no-xy", "xy"])
    def test_tensors_equal_the_full_sums(self, world, q, block_amps, monkeypatch):
        monkeypatch.setattr(qsim, "BLOCK_AMPS", block_amps)
        prog = game.random_program(world, q, q, seed=62 + q)
        states, t_plain, t_outcomes, _, _ = game.analyze_game(prog, world)
        assert ("x" in states.layout.names) == (q > 0)
        assert same_bits(t_plain, reference.probability_tensor(states.final, world))
        want = reference.outcome_tensors(world, states.final, build_qtilde(world, states.layout))
        assert len(t_outcomes) == len(want) == world.l_sem + 1
        for got, ref in zip(t_outcomes, want):
            assert same_bits(got, ref)

    @pytest.mark.parametrize(
        "world",
        [
            lamport_world(2, 2, blinding=reference.blinding(2, {0, 3}), seed=7),
            qworlds.winternitz_world(1, 2, 3, blinding=reference.blinding(2, {1, 2}), seed=7),
        ],
        ids=["lamport-2-2", "winternitz-1-2-3"],
    )
    def test_benchmark_worlds_at_the_default_block(self, world):
        # 21 and 19 qubits: several blocks of the default size
        prog = game.random_program(world, 1, 1, seed=7)
        states, t_plain, t_outcomes, _, _ = game.analyze_game(prog, world)
        assert len(qsim.blocks(states.layout.dims, ())) > 1
        assert same_bits(t_plain, reference.probability_tensor(states.final, world))
        want = reference.outcome_tensors(world, states.final, build_qtilde(world, states.layout))
        assert all(same_bits(got, ref) for got, ref in zip(t_outcomes, want))


def test_every_gate_of_random_programs_equals_the_unblocked_one(monkeypatch):
    # the gates a game runs, through the product start and the full state
    monkeypatch.setattr(qsim, "BLOCK_AMPS", 1 << 9)
    for seed, q in itertools.product(range(3), (0, 1)):
        prog = game.random_program(WORLD, q, q, seed=70 + seed)
        layout = WORLD.game_layout(include_xy=q > 0)
        v = probe(layout.dim, seed)
        for step in prog.steps:
            if isinstance(step, game.ApplyUnitary):
                got = qsim.embed(step.matrix, step.registers, layout).apply(v)
                want = reference.embed_moveaxis(step.matrix, step.registers, layout).apply(v)
                assert same_bits(got, want)


# The four qgame benchmark worlds (19-21 qubits with x and y) and the 16-qubit
# n = 1 world above.
IN_PLACE_WORLDS = pytest.mark.parametrize(
    "world",
    [
        lamport_world(2, 2, blinding=reference.blinding(2, {0, 3}), seed=7),
        lamport_world(1, 4, blinding=reference.blinding(4, {1, 6, 12}), seed=7),
        qworlds.winternitz_world(2, 1, 3, blinding=reference.blinding(1, {0}), seed=7),
        qworlds.winternitz_world(1, 2, 3, blinding=reference.blinding(2, {1, 2}), seed=7),
        WORLD,
    ],
    ids=["lamport-2-2", "lamport-1-4", "winternitz-2-1-3", "winternitz-1-2-3", "n1-16q"],
)


class TestInPlaceKernels:
    @BLOCK_SIZES
    @IN_PLACE_WORLDS
    @pytest.mark.parametrize("include_xy", [True, False], ids=["xy", "no-xy"])
    def test_xor_maps_equal_the_gather_index(self, world, include_xy, block_amps, monkeypatch):
        monkeypatch.setattr(qsim, "BLOCK_AMPS", block_amps)
        layout = world.game_layout(include_xy=include_xy)
        maps = [qworlds.build_blinded_sign_unitary(world, layout)]
        if include_xy:
            maps.append(qworlds.build_query_unitary(world, layout))
        v = probe(layout.dim, 63)
        flipped = {"BSign": world.sigma_registers(), "U_h": ["y"]}
        for u in maps:
            if block_amps == 1 << 8:  # the blocks gathered are strided views
                spans = qsim.blocks(layout.dims, [layout.axis(r) for r in flipped[u.label]])
                assert len(spans) > 1
                assert not all(v.reshape(layout.dims)[b].flags.c_contiguous for b in spans)
            want = v[reference.xor_index(u)]
            state = v.copy()
            assert u.apply_in_place(state) is state
            assert same_bits(state, want)
            assert same_bits(u.apply(v), want)

    @BLOCK_SIZES
    @IN_PLACE_WORLDS
    @pytest.mark.parametrize("include_xy", [True, False], ids=["xy", "no-xy"])
    def test_gates_equal_the_unblocked_transpose_gemm(self, world, include_xy, block_amps,
                                                     monkeypatch):
        monkeypatch.setattr(qsim, "BLOCK_AMPS", block_amps)
        layout = world.game_layout(include_xy=include_xy)
        head = [name for name in layout.names if name not in world.chain_registers()]
        targets = [(head[-1], head[0]), (head[1], world.chain_registers()[0])]
        rng = np.random.default_rng(64 + block_amps)
        v = probe(layout.dim, 64)
        for t in targets:
            op = qsim.haar_unitary(1 << sum(layout.width(name) for name in t), rng)
            want = reference.embed_moveaxis(op, t, layout)
            gate = qsim.embed(op, t, layout)
            state = v.copy()
            assert gate.apply_in_place(state) is state
            assert same_bits(state, want.apply(v))

    @BLOCK_SIZES
    def test_apply_leaves_its_input_alone_and_equals_the_in_place_apply(self, block_amps,
                                                                       monkeypatch):
        monkeypatch.setattr(qsim, "BLOCK_AMPS", block_amps)
        layout = WORLD.game_layout()
        v = probe(layout.dim, 65)
        before = v.tobytes()
        for m in every_map_kind(WORLD, layout):
            got = m.apply(v)
            assert v.tobytes() == before, m.label
            state = v.copy()
            assert m.apply_in_place(state) is state
            assert same_bits(state, got), m.label

    def test_in_place_entry_refuses_what_it_cannot_overwrite(self):
        # each of these would reach the kernel as a converted copy, and the
        # caller's state would stay as it was
        layout = WORLD.game_layout()
        v = probe(layout.dim, 66)
        read_only = v.copy()
        read_only.flags.writeable = False
        bad = [
            v.astype(np.complex64),
            v.real.copy(),
            np.concatenate([v, v])[::2],
            v[:-1].copy(),
            v.reshape(layout.dims),
            read_only,
            list(v[:4]),
        ]
        for m in every_map_kind(WORLD, layout):
            for arg in bad:
                with pytest.raises(ValueError, match="in place"):
                    m.apply_in_place(arg)


def every_map_kind(world, layout):
    """One map of each kind the package builds: a gate, U_h, BSign, P, every
    Qtilde and the uniform projector on the chain registers."""
    gate = qsim.embed(qsim.haar_unitary(16, np.random.default_rng(65)), ("x", "m"), layout)
    return [
        gate,
        qworlds.build_query_unitary(world, layout),
        qworlds.build_blinded_sign_unitary(world, layout),
        *frame_maps(world, layout),
        qsim.uniform_projector_map(layout, world.chain_registers()),
    ]


class TestScratchKernels:
    # The kernels borrow their block buffers (qsim.scratch) and write every
    # entry before reading it: with every idle buffer poisoned with NaN just
    # before each call, each keeps the unblocked reference's bits.

    @staticmethod
    def poison():
        for buf in qsim._SCRATCH:
            buf.fill(np.nan)

    @pytest.mark.parametrize("block_amps", [1 << 10, qsim.BLOCK_AMPS])
    @pytest.mark.parametrize("include_xy", [True, False], ids=["xy", "no-xy"])
    def test_kernels_on_poisoned_scratch_equal_the_references(self, include_xy, block_amps,
                                                             monkeypatch):
        monkeypatch.setattr(qsim, "BLOCK_AMPS", block_amps)
        monkeypatch.setattr(qsim, "_SCRATCH",
                            [np.empty(1 << 16, dtype=np.complex128) for _ in range(8)])
        world = WORLD
        layout = world.game_layout(include_xy=include_xy)
        v = probe(layout.dim, 67)
        rng = np.random.default_rng(67)
        cases = []
        for t in [("e", "m"), ("m", "g0_0")]:
            op = qsim.haar_unitary(1 << sum(layout.width(name) for name in t), rng)
            want = reference.embed_moveaxis(op, t, layout).apply(v)
            cases.append((qsim.embed(op, t, layout), want))
        xor_maps = [qworlds.build_blinded_sign_unitary(world, layout)]
        if include_xy:
            xor_maps.append(qworlds.build_query_unitary(world, layout))
        cases += [(u, v[reference.xor_index(u)]) for u in xor_maps]
        p = build_invariant_projector(world, layout)
        cases.append((p, reference.frame_apply(world, p, v)))
        chains = world.chain_registers()
        cases.append((qsim.uniform_projector_map(layout, chains),
                      reference.uniform_projector_broadcast(v, layout, chains)))
        for kernel, want in cases:
            state = v.copy()
            self.poison()
            kernel.apply_in_place(state)
            assert same_bits(state, want), kernel.label

        qtilde = build_qtilde(world, layout)
        self.poison()
        tensors = game.probability_tensor(v, qtilde, world)
        assert same_bits(tensors[0], reference.probability_tensor(v, world))
        for got, ref in zip(tensors[1:], reference.outcome_tensors(world, v, qtilde)):
            assert same_bits(got, ref)

        # nested: a run's copy, then the map's frame block and its spare
        for build, whole in [
            (lambda runs: qsim.uniform_projector_map(runs, chains),
             reference.uniform_projector_broadcast(v, layout, chains)),
            (lambda runs: build_invariant_projector(world, runs),
             reference.frame_apply(world, p, v)),
        ]:
            self.poison()
            whole = whole - v
            assert lemmas._run_distance(v, world, build) == lemmas._norm(whole)
        assert len(qsim._SCRATCH) == 8
