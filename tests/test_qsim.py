import numpy as np
import pytest

from qromlab import qsim
from qromlab.qsim import RegisterLayout


@pytest.fixture
def xy2():
    return RegisterLayout([("x", 2), ("y", 2)])


class TestLayout:
    def test_msb_first_indexing(self):
        layout = RegisterLayout([("a", 2), ("b", 1)])
        assert layout.dim == 8
        assert layout.basis_index({"a": 0b10, "b": 1}) == 0b101

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout([("a", 1), ("a", 2)])

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            RegisterLayout([("a", 25)])

    def test_field_extraction(self, xy2):
        f = xy2.field("y")
        assert f[0b0111] == 0b11 and f[0b1100] == 0


class TestStates:
    def test_single_qubit_uniform(self):
        layout = RegisterLayout([("q", 1)])
        s = qsim.uniform_state(layout, {"q"})
        assert np.allclose(s.amplitudes, [1 / np.sqrt(2)] * 2)

    def test_product_of_uniform_registers(self):
        layout = RegisterLayout([("a", 1), ("b", 1), ("c", 1)])
        s = qsim.uniform_state(layout, {"a", "b", "c"})
        assert np.allclose(s.amplitudes, 1 / np.sqrt(8))

    def test_assigned_register_is_basis(self):
        layout = RegisterLayout([("a", 2), ("b", 1)])
        s = qsim.uniform_state(layout, set(), {"a": 2, "b": 1})
        assert np.count_nonzero(s.amplitudes) == 1
        assert s.amplitudes[layout.basis_index({"a": 2, "b": 1})] == 1.0

    def test_unassigned_register_rejected(self):
        layout = RegisterLayout([("a", 1), ("b", 1)])
        with pytest.raises(ValueError):
            qsim.uniform_state(layout, {"a"})

    def test_norm_validation(self):
        layout = RegisterLayout([("a", 1)])
        with pytest.raises(ValueError):
            qsim.StateVector(layout, np.array([1.0, 1.0]))
        qsim.StateVector(layout, np.array([1.0, 1.0]), normalized=False)


class TestEmbed:
    def test_identity_embeds_to_identity(self, xy2):
        m = qsim.embed(np.eye(4), ("x",), xy2)
        rng = np.random.default_rng(0)
        v = qsim.random_state_vector(xy2.dim, rng)
        assert np.allclose(m.apply(v), v)

    def test_uniform_projector_fixes_eigenvector(self):
        layout = RegisterLayout([("x", 1), ("y", 2)])
        s = qsim.uniform_state(layout, {"y"}, {"x": 1})
        phi = qsim.uniform_projector_map(layout, ("y",))
        assert np.allclose(phi.apply(s.amplitudes), s.amplitudes)

    def test_xor_register_on_basis_states(self):
        layout = RegisterLayout([("g", 2), ("y", 2)])
        mv = qsim.xor_register_map(layout, "g", "y")
        s = qsim.basis_state(layout, {"g": 0b10, "y": 0b01})
        out = mv.apply(s.amplitudes)
        assert out[layout.basis_index({"g": 0b10, "y": 0b11})] == 1.0

    def test_embedded_dense_matches_structured_xor(self):
        layout = RegisterLayout([("g", 2), ("y", 2)])
        dense = np.zeros((16, 16))
        for g in range(4):
            for y in range(4):
                dense[(g << 2) | (y ^ g), (g << 2) | y] = 1.0
        via_embed = qsim.embed(dense, ("g", "y"), layout)
        structured = qsim.xor_register_map(layout, "g", "y")
        rng = np.random.default_rng(1)
        v = qsim.random_state_vector(16, rng)
        assert np.allclose(via_embed.apply(v), structured.apply(v))

    def test_target_order_respected(self):
        layout = RegisterLayout([("a", 1), ("b", 1)])
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
        ab = qsim.embed(cnot, ("a", "b"), layout)  # a controls b
        ba = qsim.embed(cnot, ("b", "a"), layout)  # b controls a
        s = qsim.basis_state(layout, {"a": 1, "b": 0})
        assert ab.apply(s.amplitudes)[layout.basis_index({"a": 1, "b": 1})] == 1.0
        assert ba.apply(s.amplitudes)[layout.basis_index({"a": 1, "b": 0})] == 1.0


class TestOperatorNorm:
    def test_identity_is_one(self, xy2):
        assert qsim.operator_norm(qsim.identity_map(xy2.dim)).value == pytest.approx(1.0, abs=1e-10)

    def test_zero_map(self, xy2):
        assert qsim.operator_norm(qsim.zero_map(xy2.dim)).value == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equality_times_uniform(self, n):
        layout = RegisterLayout([("x", n), ("y", n)])
        p_eq = qsim.equality_projector_map(layout, "x", "y")
        phi = qsim.uniform_projector_map(layout, ("y",))
        est = qsim.operator_norm(p_eq @ phi)
        assert est.converged
        assert est.value == pytest.approx(2 ** (-n / 2), abs=1e-8)

    def test_separated_top_value_converges_in_few_steps(self):
        # the residual must certify the top singular value 2 long before the
        # Krylov space of 1023 further distinct values in [0, 1) is used up
        sv = np.concatenate([[2.0], np.linspace(0.0, 1.0, 1023, endpoint=False)])
        est = qsim.operator_norm(qsim.LinearMap(1024, lambda v: sv * v, self_adjoint=True))
        assert est.converged and est.value == pytest.approx(2.0, rel=1e-12)
        assert est.residual <= 1e-10 * est.value ** 2
        assert est.iterations < 32

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            qsim.operator_norm(qsim.identity_map(2 ** 15))

    def test_submultiplicative_on_random_contractions(self):
        rng = np.random.default_rng(5)
        layout = RegisterLayout([("x", 3)])
        for _ in range(5):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            a /= np.linalg.norm(a, 2)
            b /= np.linalg.norm(b, 2)
            ma = qsim.embed(a, ("x",), layout)
            mb = qsim.embed(b, ("x",), layout)
            nab = qsim.operator_norm(ma @ mb).value
            na = qsim.operator_norm(ma).value
            nb = qsim.operator_norm(mb).value
            assert nab <= na * nb + 1e-8

    def test_matches_dense_singular_value(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        layout = RegisterLayout([("x", 4)])
        est = qsim.operator_norm(qsim.embed(m, ("x",), layout))
        assert est.value == pytest.approx(np.linalg.norm(m, 2), rel=1e-8)


class TestCommutator:
    def test_self_commutator_vanishes(self, xy2):
        p = qsim.uniform_projector_map(xy2, ("x",))
        assert qsim.is_zero_map(qsim.commutator(p, p))

    def test_disjoint_supports_commute(self, xy2):
        a = qsim.uniform_projector_map(xy2, ("x",))
        b = qsim.uniform_projector_map(xy2, ("y",))
        assert qsim.is_zero_map(qsim.commutator(a, b))

    @pytest.mark.parametrize("n", [1, 2])
    def test_equality_vs_uniform_commutator_bound(self, n):
        layout = RegisterLayout([("x", n), ("y", n)])
        p_eq = qsim.equality_projector_map(layout, "x", "y")
        phi = qsim.uniform_projector_map(layout, ("y",))
        est = qsim.operator_norm(qsim.commutator(p_eq, phi))
        assert est.value <= 2 * 2 ** (-n / 2) + 1e-10

    def test_product_rule_inequality(self):
        # ||[A, B1 B2 B3]|| <= sum ||[A, Bi]|| for contractions
        rng = np.random.default_rng(7)
        layout = RegisterLayout([("x", 3)])

        def contraction():
            m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            return qsim.embed(m / np.linalg.norm(m, 2), ("x",), layout)

        for _ in range(4):
            a = contraction()
            bs = [contraction() for _ in range(3)]
            lhs = qsim.operator_norm(qsim.commutator(a, qsim.compose(*bs))).value
            rhs = sum(qsim.operator_norm(qsim.commutator(a, b)).value for b in bs)
            assert lhs <= rhs + 1e-8


class TestProbes:
    def test_unitarity_probe_on_structured_maps(self, xy2):
        u = qsim.xor_register_map(xy2, "x", "y")
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
        s = qsim.basis_state(layout, {"a": 3, "b": 0})
        outcome, after = qsim.measure("a", s, np.random.default_rng(0))
        assert outcome == 3
        assert np.allclose(after.amplitudes, s.amplitudes)

    def test_measure_uniform_qubit_frequencies(self):
        layout = RegisterLayout([("q", 1)])
        s = qsim.uniform_state(layout, {"q"})
        rng = np.random.default_rng(3)
        draws = sum(qsim.measure("q", s, rng)[0] for _ in range(10_000))
        # chi-square with 1 dof, 4 sigma gate
        chi2 = (draws - 5000) ** 2 / 2500 * 2 / 2
        assert abs(draws - 5000) < 4 * 50

    def test_measure_leaves_product_registers_alone(self):
        layout = RegisterLayout([("a", 1), ("b", 2)])
        s = qsim.uniform_state(layout, {"b"}, {"a": 0})
        _, after = qsim.measure("a", s, np.random.default_rng(0))
        assert np.allclose(after.amplitudes, s.amplitudes)
        b_dist = qsim.register_distribution(after, "b")
        assert np.allclose(b_dist, 0.25)


    def test_measure_collapse_matches_slice_loop(self):
        layout = RegisterLayout([("a", 1), ("b", 2), ("c", 1)])
        s = qsim.StateVector(layout, qsim.random_state_vector(layout.dim, np.random.default_rng(4)))
        for seed in range(8):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            outcome, after = qsim.measure("b", s, rng)
            # reference: the same draw, then zero every other value slice by slice
            probs = qsim.register_distribution(s, "b")
            ref_outcome = int(ref_rng.choice(4, p=probs / probs.sum()))
            t = s.amplitudes.reshape(layout.dims).copy()
            for v in range(4):
                if v != ref_outcome:
                    t[:, v, :] = 0.0
            ref = t.reshape(-1)
            assert outcome == ref_outcome
            assert np.array_equal(after.amplitudes, ref / np.linalg.norm(ref))
            assert rng.random() == ref_rng.random()


class TestClosedFormCommutator:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equality_uniform_commutator_exact_value(self, n):
        # principal-angle value: the overlap operator has a single nonzero
        # eigenvalue 2^-n, so the commutator norm is sqrt(2^-n (1 - 2^-n))
        layout = RegisterLayout([("x", n), ("y", n)])
        p_eq = qsim.equality_projector_map(layout, "x", "y")
        phi = qsim.uniform_projector_map(layout, ("y",))
        est = qsim.operator_norm(qsim.commutator(p_eq, phi))
        predicted = 2 ** (-n / 2) * np.sqrt(1 - 2.0 ** -n)
        assert est.value == pytest.approx(predicted, abs=1e-9)
