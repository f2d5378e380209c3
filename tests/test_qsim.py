import os
import tracemalloc

import numpy as np
import pytest

import reference
from qromlab import lemmas, ots, qsim, qworlds
from qromlab.qsim import RegisterLayout


@pytest.fixture
def xy2():
    return RegisterLayout([("x", 2), ("y", 2)])


class TestLayout:
    def test_msb_first_indexing(self):
        layout = RegisterLayout([("a", 2), ("b", 1)])
        assert layout.dim == 8
        assert reference.basis_index(layout, {"a": 0b10, "b": 1}) == 0b101

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout([("a", 1), ("a", 2)])

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            RegisterLayout([("a", 25)])

    def test_field_extraction(self, xy2):
        f = reference.field(xy2, "y")
        assert f[0b0111] == 0b11 and f[0b1100] == 0


class TestStates:
    def test_single_qubit_uniform(self):
        layout = RegisterLayout([("q", 1)])
        s = reference.uniform_state(layout, {"q"})
        assert np.allclose(s.amplitudes, [1 / np.sqrt(2)] * 2)

    def test_product_of_uniform_registers(self):
        layout = RegisterLayout([("a", 1), ("b", 1), ("c", 1)])
        s = reference.uniform_state(layout, {"a", "b", "c"})
        assert np.allclose(s.amplitudes, 1 / np.sqrt(8))

    def test_assigned_register_is_basis(self):
        layout = RegisterLayout([("a", 2), ("b", 1)])
        s = reference.uniform_state(layout, set(), {"a": 2, "b": 1})
        assert np.count_nonzero(s.amplitudes) == 1
        assert s.amplitudes[reference.basis_index(layout, {"a": 2, "b": 1})] == 1.0

    def test_unassigned_register_rejected(self):
        layout = RegisterLayout([("a", 1), ("b", 1)])
        with pytest.raises(ValueError):
            reference.uniform_state(layout, {"a"})

    def test_norm_validation(self):
        layout = RegisterLayout([("a", 1)])
        with pytest.raises(ValueError):
            reference.StateVector(layout, np.array([1.0, 1.0]))
        reference.StateVector(layout, np.array([1.0, 1.0]), normalized=False)


def mapped(address: int) -> bool:
    """Whether ``address`` lies in one of this process's mappings."""
    with open("/proc/self/maps") as maps:
        for line in maps:
            start, end = (int(a, 16) for a in line.split()[0].split("-"))
            if start <= address < end:
                return True
    return False


class TestNewState:
    def test_zeroed_writable_vector_traced_while_any_view_lives(self):
        dim = 1 << 20
        tracemalloc.start()
        try:
            state = qsim.new_state(dim)
            address = state.ctypes.data
            assert state.dtype == np.complex128 and state.shape == (dim,)
            assert state.flags.c_contiguous and state.flags.writeable
            assert not state.any()
            view = state.reshape(-1, 4)[:, 1]
            del state
            current, peak = tracemalloc.get_traced_memory()
            assert current >= 16 << 20 and peak >= 16 << 20
            view[:] = 1.0
            del view
            assert tracemalloc.get_traced_memory()[0] < 1 << 16
        finally:
            tracemalloc.stop()
        if os.path.exists("/proc/self/maps"):
            assert not mapped(address)

    def test_each_state_is_its_own_mapping(self):
        a, b = qsim.new_state(1 << 10), qsim.new_state(1 << 10)
        a[:] = 1.0
        assert not b.any() and not np.shares_memory(a, b)


class TestScratch:
    def test_loans_are_distinct_and_come_back(self, monkeypatch):
        monkeypatch.setattr(qsim, "_SCRATCH", [])
        with qsim.scratch(8, 16) as (a, b):
            assert (a.shape, b.shape) == ((8,), (16,))
            assert a.dtype == b.dtype == np.complex128 and a.flags.writeable
            with qsim.scratch(4) as (c,):
                assert not np.shares_memory(c, a) and not np.shares_memory(c, b)
            assert [buf.size for buf in qsim._SCRATCH] == [4]
        assert sorted(buf.size for buf in qsim._SCRATCH) == [4, 8, 16]
        with pytest.raises(RuntimeError):
            with qsim.scratch(12):
                assert sorted(buf.size for buf in qsim._SCRATCH) == [4, 8]
                raise RuntimeError
        assert sorted(buf.size for buf in qsim._SCRATCH) == [4, 8, 16]

    def test_a_loan_is_the_smallest_fit_given_back_last(self, monkeypatch):
        monkeypatch.setattr(qsim, "_SCRATCH", [])
        with qsim.scratch(8, 8, 16) as (a, b, c):
            pass
        with qsim.scratch(4) as (d,):
            assert np.shares_memory(d, a) and not np.shares_memory(d, b)
        with qsim.scratch(8, 8, 16) as (e, f, g):
            # the same roles get the same buffers back
            assert np.shares_memory(e, a) and np.shares_memory(f, b) and np.shares_memory(g, c)

    def test_pool_holds_no_more_buffers_than_were_lent_at_once(self, monkeypatch):
        monkeypatch.setattr(qsim, "_SCRATCH", [])
        with qsim.scratch(4, 8, 16):
            pass
        with qsim.scratch(12) as (a,):
            # the smallest idle buffer that fits
            assert a.base.size == 16
        with qsim.scratch(32, 32):
            pass
        assert sorted(buf.size for buf in qsim._SCRATCH) == [16, 32, 32]
        with qsim.scratch(64, 64, 64, 64):
            pass
        assert [buf.size for buf in qsim._SCRATCH] == [64] * 4


class TestEmbed:
    def test_identity_embeds_to_identity(self, xy2):
        m = qsim.embed(np.eye(4), ("x",), xy2)
        rng = np.random.default_rng(0)
        v = qsim.random_state_vector(xy2.dim, rng)
        assert np.allclose(m.apply(v), v)

    def test_uniform_projector_fixes_eigenvector(self):
        layout = RegisterLayout([("x", 1), ("y", 2)])
        s = reference.uniform_state(layout, {"y"}, {"x": 1})
        phi = qsim.uniform_projector_map(layout, ("y",))
        assert np.allclose(phi.apply(s.amplitudes), s.amplitudes)

    def test_xor_register_on_basis_states(self):
        layout = RegisterLayout([("g", 2), ("y", 2)])
        mv = reference.xor_register_map(layout, "g", "y")
        s = reference.basis_state(layout, {"g": 0b10, "y": 0b01})
        out = mv.apply(s.amplitudes)
        assert out[reference.basis_index(layout, {"g": 0b10, "y": 0b11})] == 1.0

    def test_embedded_dense_matches_structured_xor(self):
        layout = RegisterLayout([("g", 2), ("y", 2)])
        dense = np.zeros((16, 16))
        for g in range(4):
            for y in range(4):
                dense[(g << 2) | (y ^ g), (g << 2) | y] = 1.0
        via_embed = qsim.embed(dense, ("g", "y"), layout)
        structured = reference.xor_register_map(layout, "g", "y")
        rng = np.random.default_rng(1)
        v = qsim.random_state_vector(16, rng)
        assert np.allclose(via_embed.apply(v), structured.apply(v))

    def test_target_order_respected(self):
        layout = RegisterLayout([("a", 1), ("b", 1)])
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
        ab = qsim.embed(cnot, ("a", "b"), layout)  # a controls b
        ba = qsim.embed(cnot, ("b", "a"), layout)  # b controls a
        s = reference.basis_state(layout, {"a": 1, "b": 0})
        assert ab.apply(s.amplitudes)[reference.basis_index(layout, {"a": 1, "b": 1})] == 1.0
        assert ba.apply(s.amplitudes)[reference.basis_index(layout, {"a": 1, "b": 0})] == 1.0


# (layout, targets): targets adjacent and in layout order, with nothing, or
# a 2-wide register, before or after them; d = 2 and a 2-wide pre or post are
# the narrowest gemm sides.
FAST_CASES = {
    "post=1": ([("a", 2), ("b", 3), ("c", 1)], ("b", "c")),
    "post=1,d=2": ([("a", 3), ("c", 1)], ("c",)),
    "pre=1": ([("a", 2), ("b", 3), ("c", 1)], ("a", "b")),
    "pre=1,d=2": ([("a", 1), ("c", 3)], ("a",)),
    "batched": ([("a", 2), ("b", 3), ("c", 2)], ("b",)),
    "batched,2-wide": ([("a", 1), ("b", 2), ("c", 1)], ("b",)),
}


def _operator(kind: str, dim: int, rng) -> np.ndarray:
    if kind == "sylvester":  # the Hadamard-frame change itself
        return qworlds._sylvester(dim.bit_length() - 1)
    if kind == "real":
        return rng.standard_normal((dim, dim))
    return qsim.haar_unitary(dim, rng)


class TestEmbedFastPath:
    @pytest.mark.parametrize("kind", ["sylvester", "real"])
    @pytest.mark.parametrize("case", sorted(FAST_CASES))
    def test_real_operators_bit_identical_to_moveaxis(self, case, kind):
        registers, targets = FAST_CASES[case]
        layout = RegisterLayout(registers)
        rng = np.random.default_rng(len(case))
        op = _operator(kind, 1 << sum(layout.width(t) for t in targets), rng)
        v = qsim.random_state_vector(layout.dim, rng)
        want = reference.embed_moveaxis(op, targets, layout).apply(v)
        assert np.array_equal(qsim.embed(op, targets, layout).apply(v), want)

    @pytest.mark.parametrize("case", sorted(FAST_CASES))
    def test_complex_operators_match_moveaxis_to_rounding(self, case):
        # Bit-identical wherever both paths reach the same BLAS kernel; at a
        # 2-wide gemm side OpenBLAS may pick another and the sums round apart.
        registers, targets = FAST_CASES[case]
        layout = RegisterLayout(registers)
        rng = np.random.default_rng(len(case))
        op = _operator("haar", 1 << sum(layout.width(t) for t in targets), rng)
        v = qsim.random_state_vector(layout.dim, rng)
        ref = reference.embed_moveaxis(op, targets, layout)
        fast = qsim.embed(op, targets, layout)
        assert np.allclose(fast.apply(v), ref.apply(v), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("case", sorted(FAST_CASES) + ["general"])
    def test_wrong_length_vector_rejected(self, case):
        registers, targets = FAST_CASES.get(case, ([("a", 1), ("b", 2), ("c", 1)], ("c", "a")))
        layout = RegisterLayout(registers)
        d = 1 << sum(layout.width(t) for t in targets)
        m = qsim.embed(np.eye(d), targets, layout)
        # dim + d is a multiple of d, which an open reshape(-1, d) would take.
        for length in (layout.dim - 1, layout.dim + d, 2 * layout.dim):
            with pytest.raises(ValueError):
                m.apply(np.ones(length))

    @pytest.mark.parametrize(
        "targets", [("c", "a"), ("a", "c"), ("b", "a"), ("c", "b"), ("c", "a", "b")]
    )
    def test_shuffled_targets_match_dense_kron(self, targets):
        layout = RegisterLayout([("a", 1), ("b", 2), ("c", 1)])
        rng = np.random.default_rng(7)
        op = _operator("haar", 1 << sum(layout.width(t) for t in targets), rng)
        full = reference.embed_dense(op, targets, layout)
        m = qsim.embed(op, targets, layout)
        for v in (qsim.random_state_vector(layout.dim, rng) for _ in range(3)):
            assert np.allclose(m.apply(v), full @ v, rtol=0, atol=1e-14)

    def test_dense_kron_reference_on_adjacent_targets(self):
        layout = RegisterLayout([("a", 1), ("b", 2), ("c", 1)])
        op = _operator("haar", 4, np.random.default_rng(8))
        full = reference.embed_dense(op, ("b",), layout)
        assert np.allclose(full, np.kron(np.kron(np.eye(2), op), np.eye(2)), rtol=0, atol=1e-15)
        assert np.allclose(reference.dense(qsim.embed(op, ("b",), layout)), full, rtol=0, atol=1e-14)


class TestOperatorNorm:
    """The reference Lanczos solver of tests/reference.py."""

    def test_identity_is_one(self, xy2):
        est = reference.lanczos_norm(reference.identity_map(xy2.dim))
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_zero_map(self, xy2):
        assert reference.lanczos_norm(reference.zero_map(xy2.dim)).value == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equality_times_uniform(self, n):
        layout = RegisterLayout([("x", n), ("y", n)])
        p_eq = reference.equality_projector_map(layout, "x", "y")
        phi = qsim.uniform_projector_map(layout, ("y",))
        est = reference.lanczos_norm(reference.compose(p_eq, phi))
        assert est.converged
        assert est.value == pytest.approx(2 ** (-n / 2), abs=1e-8)

    def test_separated_top_value_converges_in_few_steps(self):
        # the residual must certify the top singular value 2 long before the
        # Krylov space of 1023 further distinct values in [0, 1) is used up
        sv = np.concatenate([[2.0], np.linspace(0.0, 1.0, 1023, endpoint=False)])
        est = reference.lanczos_norm(qsim.LinearMap(1024, lambda v: np.multiply(sv, v, out=v)))
        assert est.converged and est.value == pytest.approx(2.0, rel=1e-12)
        assert est.residual <= 1e-10 * est.value ** 2
        assert est.iterations < 32

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            reference.lanczos_norm(reference.identity_map(2 ** 15))

    def test_submultiplicative_on_random_contractions(self):
        rng = np.random.default_rng(5)
        layout = RegisterLayout([("x", 3)])
        for _ in range(5):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            a /= np.linalg.norm(a, 2)
            b /= np.linalg.norm(b, 2)
            ma = reference.embed_with_adjoint(a, ("x",), layout)
            mb = reference.embed_with_adjoint(b, ("x",), layout)
            nab = reference.lanczos_norm(reference.compose(ma, mb)).value
            na = reference.lanczos_norm(ma).value
            nb = reference.lanczos_norm(mb).value
            assert nab <= na * nb + 1e-8

    def test_matches_dense_singular_value(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        layout = RegisterLayout([("x", 4)])
        est = reference.lanczos_norm(reference.embed_with_adjoint(m, ("x",), layout))
        assert est.value == pytest.approx(np.linalg.norm(m, 2), rel=1e-8)


class TestCommutator:
    """The reference commutator and product maps."""

    def test_self_commutator_vanishes(self, xy2):
        p = qsim.uniform_projector_map(xy2, ("x",))
        assert reference.is_zero_map(reference.commutator(p, p))

    def test_disjoint_supports_commute(self, xy2):
        a = qsim.uniform_projector_map(xy2, ("x",))
        b = qsim.uniform_projector_map(xy2, ("y",))
        assert reference.is_zero_map(reference.commutator(a, b))

    @pytest.mark.parametrize("n", [1, 2])
    def test_equality_vs_uniform_commutator_bound(self, n):
        layout = RegisterLayout([("x", n), ("y", n)])
        p_eq = reference.equality_projector_map(layout, "x", "y")
        phi = qsim.uniform_projector_map(layout, ("y",))
        est = reference.lanczos_norm(reference.commutator(p_eq, phi))
        assert est.value <= 2 * 2 ** (-n / 2) + 1e-10

    def test_product_rule_inequality(self):
        # ||[A, B1 B2 B3]|| <= sum ||[A, Bi]|| for contractions
        rng = np.random.default_rng(7)
        layout = RegisterLayout([("x", 3)])

        def contraction():
            m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            return reference.embed_with_adjoint(m / np.linalg.norm(m, 2), ("x",), layout)

        for _ in range(4):
            a = contraction()
            bs = [contraction() for _ in range(3)]
            lhs = reference.lanczos_norm(reference.commutator(a, reference.compose(*bs))).value
            rhs = sum(reference.lanczos_norm(reference.commutator(a, b)).value for b in bs)
            assert lhs <= rhs + 1e-8


class TestProbes:
    def test_unitarity_probe_on_structured_maps(self, xy2):
        u = reference.xor_register_map(xy2, "x", "y")
        assert qsim.unitarity_defect(u) < 1e-9

    def test_projector_probe(self, xy2):
        p = qsim.uniform_projector_map(xy2, ("x", "y"))
        assert qsim.projector_defect(p) < 1e-9

    def test_haar_unitary_probe(self):
        layout = RegisterLayout([("x", 3)])
        u = qsim.embed(qsim.haar_unitary(8, np.random.default_rng(8)), ("x",), layout)
        assert qsim.unitarity_defect(u) < 1e-9


class TestProjectAndMeasure:
    def test_measure_basis_state(self):
        layout = RegisterLayout([("a", 2), ("b", 1)])
        s = reference.basis_state(layout, {"a": 3, "b": 0})
        outcome, after = reference.measure("a", s, np.random.default_rng(0))
        assert outcome == 3
        assert np.allclose(after.amplitudes, s.amplitudes)

    def test_measure_uniform_qubit_frequencies(self):
        layout = RegisterLayout([("q", 1)])
        s = reference.uniform_state(layout, {"q"})
        rng = np.random.default_rng(3)
        draws = sum(reference.measure("q", s, rng)[0] for _ in range(10_000))
        # chi-square with 1 dof, 4 sigma gate
        chi2 = (draws - 5000) ** 2 / 2500 * 2 / 2
        assert abs(draws - 5000) < 4 * 50

    def test_measure_leaves_product_registers_alone(self):
        layout = RegisterLayout([("a", 1), ("b", 2)])
        s = reference.uniform_state(layout, {"b"}, {"a": 0})
        _, after = reference.measure("a", s, np.random.default_rng(0))
        assert np.allclose(after.amplitudes, s.amplitudes)
        b_dist = reference.register_distribution(after, "b")
        assert np.allclose(b_dist, 0.25)


    def test_measure_collapse_matches_slice_loop(self):
        layout = RegisterLayout([("a", 1), ("b", 2), ("c", 1)])
        amps = qsim.random_state_vector(layout.dim, np.random.default_rng(4))
        s = reference.StateVector(layout, amps)
        for seed in range(8):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            outcome, after = reference.measure("b", s, rng)
            # reference: the same draw, then zero every other value slice by slice
            probs = reference.register_distribution(s, "b")
            ref_outcome = int(ref_rng.choice(4, p=probs / probs.sum()))
            t = s.amplitudes.reshape(layout.dims).copy()
            for v in range(4):
                if v != ref_outcome:
                    t[:, v, :] = 0.0
            ref = t.reshape(-1)
            assert outcome == ref_outcome
            assert np.array_equal(after.amplitudes, ref / np.linalg.norm(ref))
            assert rng.random() == ref_rng.random()


def dense_frame_projector(table):
    """H diag(table) H for the Walsh-Hadamard H on log2(len(table)) qubits."""
    h = np.ones((1, 1))
    for _ in range(int(np.log2(len(table)))):
        h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    return h @ np.diag(np.asarray(table, dtype=float)) @ h


class TestExactNorm:
    def test_parity(self):
        a = np.arange(1 << 12, dtype=np.int64) * 40503
        want = np.array([bin(int(v)).count("1") % 2 == 1 for v in a])
        assert np.array_equal(qsim.parity(a), want)

    @pytest.mark.parametrize("qubits", [1, 3, 5])
    def test_matches_dense_blocks(self, qubits):
        # random tables with small and large support, disjoint and overlapping
        # row/column sets; every block against a dense SVD of Pi[R, C]
        g = 1 << qubits
        rng = np.random.default_rng(qubits)
        tables = [rng.random(g) < density for density in (0.2, 0.5, 0.8)]
        # and tables that read only some qubits (here the second and the last)
        bits = np.arange(g)
        read = ((bits >> (qubits - 2)) & 1) * 2 + (bits & 1) if qubits > 1 else bits
        tables += [(rng.random(4) < density)[read] for density in (0.3, 0.7)]
        for table in tables:
            pi = dense_frame_projector(table)
            b = rng.random((6, g)) < 0.5
            for rows, cols in ((~b, b), (b, np.ones_like(b)), (rng.random((6, g)) < 0.5, b)):
                est = qsim.operator_norm(table, rows, cols)
                want = max(
                    (np.linalg.svd(pi[np.ix_(r, c)], compute_uv=False)[0]
                     for r, c in zip(rows, cols) if r.any() and c.any()),
                    default=0.0,
                )
                assert est.value == pytest.approx(want, abs=1e-13)

    def test_blocks_solved_once(self):
        table = np.array([1, 0, 0, 1, 0, 0, 0, 0], dtype=bool)
        b = np.array([[0, 1, 1, 0, 1, 0, 0, 1]], dtype=bool)
        empty = np.zeros_like(b)
        rows = np.concatenate([~b, b, ~b, empty, ~empty])
        cols = np.concatenate([b, ~b, b, ~empty, empty])
        est = qsim.operator_norm(table, rows, cols)
        assert est.iterations == 1
        assert est.value == qsim.operator_norm(table, ~b, b).value

    @pytest.mark.parametrize("qubits", [3, 4, 6, 8])
    def test_exact_zeros(self, qubits):
        # D = 1 - 2 1_B commutes with Pi when B is a union of classes of the
        # two parities gamma.u1, gamma.u2 and the table is constant on the
        # cosets of {0, u1, u2, u1^u2}; most such tables read every qubit
        g = 1 << qubits
        gamma = np.arange(g)
        rng = np.random.default_rng(qubits)
        for _ in range(8):
            u1, u2 = rng.choice(np.arange(1, g), 2, replace=False)
            classes = 2 * qsim.parity(gamma & u1) + qsim.parity(gamma & u2)
            split = np.isin(classes, rng.permutation(4)[: rng.integers(1, 4)])[None, :]
            coset = np.minimum.reduce([gamma, gamma ^ u1, gamma ^ u2, gamma ^ u1 ^ u2])
            table = (rng.random(g) < 0.5)[coset]
            assert qsim.operator_norm(table, ~split, split).value <= 1e-15
            assert qsim.operator_norm(np.ones(g), ~split, split).value <= 1e-15
        # the frame projector on the top qubit, split by the low qubit
        top, low = (gamma >> (qubits - 1)) == 0, ((gamma & 1) == 1)[None, :]
        assert qsim.operator_norm(top, ~low, low).value <= 1e-15
        assert qsim.operator_norm(np.zeros(g), low, np.ones_like(low)).value == 0.0

    def test_guards(self):
        with pytest.raises(ValueError, match="0/1"):
            qsim.operator_norm(np.array([1.0, 0.5]), np.ones((1, 2), bool), np.ones((1, 2), bool))
        with pytest.raises(ValueError, match="do not fit"):
            qsim.operator_norm(np.ones(4), np.ones((1, 2), bool), np.ones((1, 2), bool))
        with pytest.raises(ValueError, match="do not fit"):
            qsim.operator_norm(np.ones(3), np.ones((1, 3), bool), np.ones((1, 3), bool))
        # the map the masks describe has dimension K * G
        g = 1 << 10
        rows = np.zeros((qsim.MAX_NORM_DIM // g + 1, g), dtype=bool)
        with pytest.raises(ValueError, match="capped at dimension"):
            qsim.operator_norm(np.ones(g), rows, rows)
        assert qsim.operator_norm(np.ones(g), rows[:-1], rows[:-1]).value == 0.0


class TestDistinctRows:
    def test_matches_unique_rows_in_order(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            rows, width = int(rng.integers(0, 40)), int(rng.integers(1, 30))
            a = rng.random((rows, width)) < rng.random()
            a = np.concatenate([a, a[rng.permutation(rows)[: rows // 2]]])
            assert np.array_equal(qsim._distinct_rows(a), np.unique(a, axis=0))

    @pytest.mark.parametrize("qubits", [2, 4, 6])
    def test_norm_value_and_block_count_match_unique_rows(self, qubits, monkeypatch):
        g = 1 << qubits
        rng = np.random.default_rng(qubits + 20)
        cases = []
        for density in (0.1, 0.5, 0.9):
            table = rng.random(g) < density
            b = rng.random((48, g)) < density
            b = np.concatenate([b, b[:16], ~b[16:24]])
            cases += [(table, ~b, b), (table, b, rng.random(b.shape) < 0.5)]
        got = [qsim.operator_norm(*case) for case in cases]
        monkeypatch.setattr(qsim, "_distinct_rows", lambda a: np.unique(a, axis=0))
        want = [qsim.operator_norm(*case) for case in cases]
        assert [(e.value, e.iterations) for e in got] == [(e.value, e.iterations) for e in want]


class TestUniformProjector:
    @pytest.mark.parametrize("block_amps", [1 << 5, qsim.BLOCK_AMPS])
    def test_reduced_means_match_broadcast_means(self, block_amps, monkeypatch):
        monkeypatch.setattr(qsim, "BLOCK_AMPS", block_amps)
        rng = np.random.default_rng(16)
        for _ in range(200):
            count = int(rng.integers(1, 6))
            widths = rng.integers(1, 4, size=count)
            while widths.sum() > 12:
                widths[rng.integers(count)] = 1
            layout = RegisterLayout([(f"r{k}", int(w)) for k, w in enumerate(widths)])
            names = list(layout.names)
            regs = [names[k] for k in rng.permutation(count)[: rng.integers(1, count + 1)]]
            v = qsim.random_state_vector(layout.dim, rng)
            before = v.copy()
            got = qsim.uniform_projector_map(layout, regs).apply(v)
            # the reference reads the input the map was handed, untouched
            assert v.tobytes() == before.tobytes()
            want = reference.uniform_projector_broadcast(before, layout, regs)
            assert got.shape == v.shape and got.flags.c_contiguous
            assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize(
        "scheme,n,l,w",
        [("lamport", n, l, 2) for n in lemmas.SWEEP_NS for l in lemmas.SWEEP_LS]
        + [("winternitz", n, ots.derive_wots_params(1, w, n, require_power_of_two=False).l, w)
           for n in lemmas.SWEEP_NS for w in lemmas.SWEEP_WS],
    )
    def test_blocked_means_on_the_drift_layouts_keep_the_broadcast_bits(
        self, scheme, n, l, w, monkeypatch
    ):
        # row (a) of the sweep's drift points: every chain register averaged
        monkeypatch.setattr(qsim, "BLOCK_AMPS", 1 << 10)
        world = lemmas._scheme_world(scheme, n, l, w, 0)
        regs = world.chain_registers()
        for include_xy in (False, True):
            layout = world.game_layout(include_xy=include_xy)
            v = qsim.random_state_vector(layout.dim, np.random.default_rng(layout.total))
            want = reference.uniform_projector_broadcast(v, layout, regs)
            got = qsim.uniform_projector_map(layout, regs).apply_in_place(v)
            assert got.tobytes() == want.tobytes()


class TestClosedFormCommutator:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equality_uniform_commutator_exact_value(self, n):
        # principal-angle value: the overlap operator has a single nonzero
        # eigenvalue 2^-n, so the commutator norm is sqrt(2^-n (1 - 2^-n)).
        # Block x of [P_eq, Phi_y] is Phi[A, B] with B = {y = x}.
        values = np.arange(1 << n)
        eq = values[:, None] == values[None, :]
        est = qsim.operator_norm(values == 0, ~eq, eq)
        predicted = 2 ** (-n / 2) * np.sqrt(1 - 2.0 ** -n)
        assert est.value == pytest.approx(predicted, abs=1e-15)
        # and the reference maps agree
        layout = RegisterLayout([("x", n), ("y", n)])
        p_eq = reference.equality_projector_map(layout, "x", "y")
        phi = qsim.uniform_projector_map(layout, ("y",))
        dense = reference.dense(reference.commutator(p_eq, phi))
        assert np.linalg.svd(dense, compute_uv=False)[0] == pytest.approx(predicted, abs=1e-12)
