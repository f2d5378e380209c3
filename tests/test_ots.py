import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab import ots, rom


def fresh_oracle(n, seed=0):
    return rom.RandomOracleTable(n, seed=seed)


class TestWotsParams:
    def test_derivation_examples(self):
        assert ots.derive_wots_params(8, 4, 4) == ots.WotsParams(4, 8, 4, 4, 2, 6)
        assert ots.derive_wots_params(4, 2, 4) == ots.WotsParams(4, 4, 2, 4, 3, 7)
        assert ots.derive_wots_params(1, 2, 4) == ots.WotsParams(4, 1, 2, 1, 1, 2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ots.derive_wots_params(0, 2, 4)
        with pytest.raises(ValueError):
            ots.derive_wots_params(4, 3, 4)
        with pytest.raises(ValueError):
            ots.derive_wots_params(4, 1, 4)
        # the lab override admits any w >= 2
        assert ots.derive_wots_params(1, 3, 2, require_power_of_two=False).l == 2


class TestDigits:
    def test_base_w_examples(self):
        p44 = ots.derive_wots_params(4, 4, 4)
        assert ots.base_w_digits(0b1101, p44) == (3, 1)
        p42 = ots.derive_wots_params(4, 2, 4)
        assert ots.base_w_digits(0b0000, p42) == (0, 0, 0, 0)
        assert ots.base_w_digits(0b1010, p42) == (1, 0, 1, 0)

    def test_checksum_examples(self):
        p84 = ots.derive_wots_params(8, 4, 4)
        assert ots.append_checksum((3, 3, 3, 3), p84) == (3, 3, 3, 3, 0, 0)
        assert ots.append_checksum((0, 0, 0, 0), p84) == (0, 0, 0, 0, 3, 0)
        p42 = ots.derive_wots_params(4, 2, 4)
        assert ots.append_checksum((1, 0, 1, 0), p42) == (1, 0, 1, 0, 0, 1, 0)

    @given(a=st.integers(1, 8), wexp=st.integers(1, 3), m=st.integers(0, 255))
    def test_digit_round_trip(self, a, wexp, m):
        w = 1 << wexp
        m &= (1 << a) - 1
        params = ots.derive_wots_params(a, w, 4)
        digits = ots.base_w_digits(m, params)
        value = 0
        for d in digits:
            value = value * w + d
        assert value == m

    @pytest.mark.parametrize("a,w", [(4, 2), (8, 4)])
    def test_checksum_domination_exhaustive(self, a, w):
        # for every pair of distinct messages, the other message's digit
        # vector is strictly smaller somewhere
        params = ots.derive_wots_params(a, w, 4)
        vectors = [ots.digit_vector(m, params) for m in range(1 << a)]
        for m, bm in enumerate(vectors):
            for mp, bmp in enumerate(vectors):
                if m == mp:
                    continue
                assert any(x < y for x, y in zip(bmp, bm)), (m, mp)


class TestLamport:
    def test_keygen_structure(self):
        params = ots.LamportParams(n=1, l=1)
        oracle = fresh_oracle(1)
        kp = ots.keygen(params, oracle, np.random.default_rng(0))
        assert len(kp.sk) == 2 and len(kp.pk) == 2
        assert kp.pk == tuple(oracle(s) for s in kp.sk)

    def test_keygen_deterministic(self):
        params = ots.LamportParams(n=4, l=3)
        kp1 = ots.keygen(params, fresh_oracle(4, 7), np.random.default_rng(7))
        kp2 = ots.keygen(params, fresh_oracle(4, 7), np.random.default_rng(7))
        assert kp1 == kp2

    def test_sign_selects_by_bit(self):
        params = ots.LamportParams(n=4, l=2)
        sk = (1, 2, 3, 4)
        oracle = fresh_oracle(4)
        assert ots.sign(params, sk, 0b01, oracle).sigma == (1, 4)
        assert ots.sign(params, sk, 0b00, oracle).sigma == (1, 3)
        assert ots.sign(params, sk, 0b11, oracle).sigma == (2, 4)

    def test_verify_round_trip_exhaustive(self):
        params = ots.LamportParams(n=4, l=4)
        oracle = fresh_oracle(4, 3)
        kp = ots.keygen(params, oracle, np.random.default_rng(3))
        for m in range(1 << params.l):
            sig = ots.sign(params, kp.sk, m, oracle)
            assert ots.verify(params, kp.pk, m, sig.sigma, oracle)

    def test_verify_flipped_bit(self):
        params = ots.LamportParams(n=6, l=2)
        oracle = fresh_oracle(6, 5)
        kp = ots.keygen(params, oracle, np.random.default_rng(5))
        sig = ots.sign(params, kp.sk, 0b10, oracle)
        tampered = (sig.sigma[0] ^ 1,) + sig.sigma[1:]
        expected = oracle(tampered[0]) == kp.pk[2 * 0 + 1]
        assert ots.verify(params, kp.pk, 0b10, tampered, oracle) == expected

    def test_verify_rejects_bad_lengths(self):
        params = ots.LamportParams(n=4, l=2)
        oracle = fresh_oracle(4)
        kp = ots.keygen(params, oracle, np.random.default_rng(0))
        sig = ots.sign(params, kp.sk, 0, oracle)
        assert not ots.verify(params, kp.pk, 4, sig.sigma, oracle)  # m too wide
        assert not ots.verify(params, kp.pk, 0, sig.sigma[:1], oracle)


class TestKeygenDraws:
    @pytest.mark.parametrize("params", [
        *(ots.LamportParams(n=n, l=l) for n in (1, 4, 31, 32, 33, 40, 62) for l in (1, 3)),
        ots.derive_wots_params(3, 2, 4), ots.derive_wots_params(3, 2, 40),  # 5 chains
    ])
    def test_one_draw_call_reads_the_per_chain_stream(self, params):
        # keygen draws every chain start in one call: the starts, and the
        # generator state after them, are those of one scalar draw per chain
        oracle = fresh_oracle(params.n, 9)
        rng, ref = np.random.default_rng(params.n), np.random.default_rng(params.n)
        kp = ots.keygen(params, oracle, rng)
        sk = tuple(int(ref.integers(0, 1 << params.n)) for _ in range(params.chains))
        assert kp.sk == sk and rng.bit_generator.state == ref.bit_generator.state
        assert kp.pk == tuple(ots.chain_eval(s, 0, params.w - 1, oracle) for s in sk)
        assert ots.keypair(params, oracle, list(sk)) == kp


class TestChains:
    def test_chain_eval_basics(self):
        oracle = fresh_oracle(4, 1)
        x = 5
        assert ots.chain_eval(x, 0, 0, oracle) == x
        assert ots.chain_eval(x, 1, 3, oracle) == oracle(oracle(x))
        with pytest.raises(ValueError):
            ots.chain_eval(x, 2, 1, oracle)

    @given(x=st.integers(0, 15), i=st.integers(0, 3), j=st.integers(0, 3), k=st.integers(0, 3))
    @settings(max_examples=60)
    def test_chain_composition(self, x, i, j, k):
        i, j, k = sorted((i, j, k))
        oracle = fresh_oracle(4, 9)
        lhs = ots.chain_eval(ots.chain_eval(x, i, j, oracle), j, k, oracle)
        assert lhs == ots.chain_eval(x, i, k, oracle)


class TestWinternitz:
    @pytest.mark.parametrize("a,w", [(4, 2), (6, 4), (8, 2), (8, 4)])
    def test_round_trip_exhaustive(self, a, w):
        params = ots.derive_wots_params(a, w, 4)
        oracle = fresh_oracle(4, a * w)
        kp = ots.keygen(params, oracle, np.random.default_rng(a * w))
        for m in range(1 << a):
            sig = ots.sign(params, kp.sk, m, oracle)
            assert ots.verify(params, kp.pk, m, sig.sigma, oracle)

    def test_all_max_digits_reveal_public_prefix(self):
        # a message whose digits are all w-1 (with zero checksum) signs with
        # the chain endpoints themselves
        params = ots.derive_wots_params(4, 4, 8)
        oracle = fresh_oracle(8, 2)
        kp = ots.keygen(params, oracle, np.random.default_rng(2))
        m = (1 << params.a) - 1
        assert ots.digit_vector(m, params)[: params.l1] == (3, 3)
        sig = ots.sign(params, kp.sk, m, oracle)
        assert sig.sigma[: params.l1] == kp.pk[: params.l1]

    def test_smaller_digit_forgery_rejected_without_inversion(self):
        # pushing a revealed block one step further signs larger digits but
        # not smaller ones
        params = ots.derive_wots_params(2, 4, 4)
        oracle = fresh_oracle(4, 11)
        kp = ots.keygen(params, oracle, np.random.default_rng(11))
        m_small, m_big = 1, 2  # digit vectors (1,2) and (2,1)
        assert ots.digit_vector(m_small, params)[0] < ots.digit_vector(m_big, params)[0]
        sig = ots.sign(params, kp.sk, m_big, oracle)
        assert ots.verify(params, kp.pk, m_big, sig.sigma, oracle)
        # the same blocks cannot vouch for the message with the smaller digit
        # unless the oracle happens to be invertible there
        inverted = any(
            oracle(y) == sig.sigma[0] for y in range(1 << params.n)
        )
        if not inverted:
            assert not ots.verify(params, kp.pk, m_small, sig.sigma, oracle)


class TestSerialization:
    def test_lamport_round_trip(self):
        params = ots.LamportParams(n=8, l=2)
        oracle = fresh_oracle(8, 21)
        kp = ots.keygen(params, oracle, np.random.default_rng(21))
        assert ots.keypair_from_json(ots.keypair_to_json(kp)) == kp

    def test_wots_round_trip_and_format(self):
        params = ots.derive_wots_params(4, 4, 8)
        oracle = fresh_oracle(8, 22)
        kp = ots.keygen(params, oracle, np.random.default_rng(22))
        text = ots.keypair_to_json(kp)
        assert ots.keypair_from_json(text) == kp
        import json

        doc = json.loads(text)
        assert set(doc) == {"scheme", "n", "a", "w", "sk", "pk"}
        assert all(len(h) == 2 and h == h.lower() for h in doc["sk"])

    def test_signature_round_trip(self):
        params = ots.derive_wots_params(4, 2, 8)
        oracle = fresh_oracle(8, 23)
        kp = ots.keygen(params, oracle, np.random.default_rng(23))
        sig = ots.sign(params, kp.sk, 3, oracle)
        text = ots.signature_to_json(params, sig)
        assert ots.signature_from_json(text) == sig


class TestGoldenFixture:
    # Key and signature files as written before keygen, sign and verify were
    # one chain code: the byte format of both schemes must not drift.
    LAMPORT_KEY = (
        '{\n  "scheme": "lamport",\n  "n": 8,\n  "a": 1,\n  "w": 2,\n'
        '  "sk": [\n    "f5",\n    "81"\n  ],\n  "pk": [\n    "ef",\n    "0c"\n  ]\n}\n'
    )
    LAMPORT_SIG = '{\n  "scheme": "lamport",\n  "n": 8,\n  "a": 1,\n  "w": 2,\n  "sigma": [\n    "81"\n  ]\n}\n'
    WOTS_KEY = (
        '{\n  "scheme": "winternitz",\n  "n": 8,\n  "a": 2,\n  "w": 4,\n'
        '  "sk": [\n    "55",\n    "f1"\n  ],\n  "pk": [\n    "fc",\n    "c7"\n  ]\n}\n'
    )
    WOTS_SIG = (
        '{\n  "scheme": "winternitz",\n  "n": 8,\n  "a": 2,\n  "w": 4,\n'
        '  "sigma": [\n    "5a",\n    "2f"\n  ]\n}\n'
    )

    @staticmethod
    def _key(params, seed):
        oracle = rom.RandomOracleTable(8, seed=rom.derive_seed(seed, "golden"))
        return ots.keygen(params, oracle, np.random.default_rng(seed)), oracle

    def test_key_file_bytes_are_pinned(self):
        kp, _ = self._key(ots.LamportParams(n=8, l=1), 99)
        assert ots.keypair_to_json(kp) == self.LAMPORT_KEY
        kp, _ = self._key(ots.derive_wots_params(2, 4, 8), 98)
        assert ots.keypair_to_json(kp) == self.WOTS_KEY

    def test_signature_file_bytes_are_pinned(self):
        for params, seed, m, text in (
            (ots.LamportParams(n=8, l=1), 99, 1, self.LAMPORT_SIG),
            (ots.derive_wots_params(2, 4, 8), 98, 2, self.WOTS_SIG),
        ):
            kp, oracle = self._key(params, seed)
            sig = ots.sign(params, kp.sk, m, oracle)
            assert ots.signature_to_json(params, sig) == text
            assert ots.verify(params, kp.pk, m, ots.signature_from_json(text).sigma, oracle)


class TestRevealed:
    @pytest.mark.parametrize("params", [ots.LamportParams(n=4, l=2), ots.derive_wots_params(2, 4, 4)])
    @pytest.mark.parametrize("m", [-1, 4])
    def test_rejects_messages_outside_the_message_space(self, params, m):
        with pytest.raises(ValueError, match=f"message {m} is not in the 2-bit message space"):
            ots.revealed(params, m)

    @pytest.mark.parametrize(
        "call,text",
        [
            (lambda: ots.revealed(ots.LamportParams(n=4, l=1), 2),
             "message 2 is not in the 1-bit message space"),
            (lambda: ots.revealed(ots.derive_wots_params(8, 4, 4), 256),
             "message 256 is not in the 8-bit message space"),
            (lambda: ots.base_w_digits(-1, ots.derive_wots_params(8, 4, 4)),
             "message -1 is not in the 8-bit message space"),
        ],
        ids=["revealed-1-bit", "revealed-8-bit", "base_w_digits-8-bit"],
    )
    def test_out_of_range_message_text(self, call, text):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == text

    def test_lamport_signing_makes_no_oracle_query(self):
        calls = []

        def counting(x):
            calls.append(x)
            return x

        params = ots.LamportParams(n=4, l=3)
        sk = tuple(range(6))
        for m in range(8):
            ots.sign(params, sk, m, counting)
        assert calls == []


class TestBaseAnyW:
    @given(w=st.integers(2, 16), length=st.integers(1, 6), value=st.integers(0, 10**6))
    @settings(max_examples=80)
    def test_int_round_trip_any_base(self, w, length, value):
        value %= w ** length
        digits = ots.int_to_base_w(value, w, length)
        assert len(digits) == length and all(0 <= d < w for d in digits)
        back = 0
        for d in digits:
            back = back * w + d
        assert back == value
