import functools
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import reference
from test_rom import CLOSED_FORM_SHAPES, reference_distributions

import qromlab
from qromlab import cli, lemmas, qsim


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestKeyLifecycle:
    def test_keygen_sign_verify_accepts(self, tmp_path, capsys):
        key = tmp_path / "key.json"
        sig = tmp_path / "sig.json"
        assert cli.main(["keygen", "--scheme", "winternitz", "--n", "8", "--a", "4",
                         "--w", "4", "--seed", "5", "--out", str(key)]) == 0
        assert cli.main(["sign", "--key", str(key), "--message", "0b1011",
                         "--seed", "5", "--out", str(sig)]) == 0
        code, out, _ = run(capsys, "verify", "--key", str(key), "--message", "0b1011",
                           "--sig", str(sig), "--seed", "5")
        assert code == 0 and out.strip() == "acc"

    def test_corrupted_signature_rejects_with_exit_zero(self, tmp_path, capsys):
        key = tmp_path / "key.json"
        sig = tmp_path / "sig.json"
        cli.main(["keygen", "--scheme", "lamport", "--n", "8", "--a", "4",
                  "--seed", "6", "--out", str(key)])
        cli.main(["sign", "--key", str(key), "--message", "3", "--seed", "6",
                  "--out", str(sig)])
        doc = json.loads(sig.read_text())
        doc["sigma"][0] = format(int(doc["sigma"][0], 16) ^ 1, "02x")
        sig.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--key", str(key), "--message", "3",
                           "--sig", str(sig), "--seed", "6")
        assert code == 0 and out.strip() == "rej"


class TestReports:
    def test_lemmas_point_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        code = cli.main(["lemmas", "--scheme", "lamport", "--n", "2", "--l", "1",
                         "--q0", "0", "--q1", "0", "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("lemma,scheme,n,l,w")
        assert len(lines) > 3

    def test_bounds_value(self, capsys):
        code, out, _ = run(capsys, "bounds", "--scheme", "lamport", "--q", "1",
                           "--l", "1", "--n", "20")
        assert code == 0
        doc = json.loads(out)
        assert doc["simplified"] == pytest.approx(5.995e-3, rel=1e-3)

    def test_worlds_report(self, tmp_path):
        out = tmp_path / "w.csv"
        assert cli.main(["worlds", "--n", "4", "--l", "1", "--w", "2",
                         "--out", str(out)]) == 0
        assert "chain-distribution-tv" in out.read_text()

    @pytest.mark.parametrize("n,l,w", [(2, 1, 2), (2, 2, 2)])
    def test_worlds_dump_matches_recursive_reference(self, tmp_path, capsys, n, l, w):
        # p rows are its support in sorted tuple order, q rows every tuple;
        # the report is the same with and without the dump
        shape = ["--n", str(n), "--l", str(l), "--w", str(w)]
        prefix = str(tmp_path / "dist")
        code, report, _ = run(capsys, "worlds", *shape, "--dump-prefix", prefix)
        assert code == 0
        assert run(capsys, "worlds", *shape) == (0, report, "")
        width = (n + 3) // 4
        for dist, suffix in zip(reference_distributions(n, l, w), ("_p.csv", "_q.csv")):
            rows = ["tuple_hex,probability"] + [
                "".join(format(v, f"0{width}x") for v in key) + f",{prob!r}"
                for key, prob in sorted(dist.items())
            ]
            with open(prefix + suffix, newline="") as fh:
                assert fh.read() == "\r\n".join(rows) + "\r\n"

    @pytest.mark.parametrize("n,l,w", CLOSED_FORM_SHAPES)
    def test_worlds_dumps_match_the_whole_array_reference(self, tmp_path, capsys, n, l, w):
        # the dumps decode their tuples block by block; the reference indexes
        # one array of every tuple's entries
        prefix = str(tmp_path / "dist")
        code, _, err = run(capsys, "worlds", "--n", str(n), "--l", str(l), "--w", str(w),
                           "--dump-prefix", prefix)
        assert (code, err) == (0, "")
        dists = reference.enumerate_chain_distributions(n, l, w)
        for dist, suffix in zip(dists, ("_p.csv", "_q.csv")):
            want = tmp_path / ("want" + suffix)
            reference.dump_distribution_csv(dist, n, want)
            assert Path(prefix + suffix).read_bytes() == want.read_bytes(), suffix

    def test_attack_report(self, tmp_path):
        out = tmp_path / "a.json"
        code = cli.main(["attack", "--kind", "classical", "--n", "3", "--l", "1",
                         "--q", "2", "--trials", "200", "--seed", "9", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "classical-search" and doc["trials"] == 200

    def test_game_and_qgame_transcripts(self, tmp_path):
        g = tmp_path / "g.json"
        assert cli.main(["game", "--scheme", "lamport", "--n", "4", "--a", "2",
                         "--seed", "3", "--out", str(g)]) == 0
        doc = json.loads(g.read_text())
        assert doc["verdict"] in ("win", "lose")
        qg = tmp_path / "qg.json"
        assert cli.main(["qgame", "--scheme", "lamport", "--n", "1", "--a", "1",
                         "--mode", "modified", "--seed", "3", "--out", str(qg)]) == 0
        doc = json.loads(qg.read_text())
        assert "p_win_modified" in doc and doc["world"]["scheme"] == "lamport"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lemmas", "--scheme", "lamport", "--n", "2", "--l", "1", "--q0", "1",
             "--q1", "1", "--seed", "11"],
            ["worlds", "--n", "4", "--l", "1", "--w", "2", "--seed", "11"],
            ["attack", "--kind", "classical", "--n", "3", "--l", "1", "--q", "2",
             "--trials", "150", "--seed", "11"],
            ["attack", "--kind", "grover", "--n", "3", "--l", "1", "--trials", "100",
             "--seed", "11"],
            ["bounds", "--scheme", "winternitz", "--q", "2", "--l", "2", "--n", "16",
             "--w", "4", "--seed", "11"],
            ["keygen", "--scheme", "lamport", "--n", "8", "--a", "2", "--seed", "11"],
            ["qgame", "--scheme", "winternitz", "--n", "1", "--a", "1", "--w", "2",
             "--mode", "modified", "--seed", "11"],
            ["game", "--scheme", "lamport", "--n", "4", "--a", "2", "--seed", "11"],
        ],
    )
    def test_same_seed_byte_identical(self, tmp_path, argv):
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert cli.main(argv + ["--out", str(a)]) in (0, 2)
        assert cli.main(argv + ["--out", str(b)]) in (0, 2)
        assert a.read_bytes() == b.read_bytes()


# sha256 of the game and keygen reports, pinned before their draws were taken
# from block-drawn PCG64 words: both schemes, two seeds, two blinding rates,
# both adversaries; a 64-message blinding set (more draws than seeds), 40-bit
# key strings (one word per string) and an odd chain count (half a word left).
REPORT_SHA256 = {
    "game --scheme lamport --n 4 --a 2 --epsilon 0.5 --adversary random-forger --seed 3":
        "ccc73c2cc87169ffb2447ff0405b9e469722eb35f9dac63d40a6ba3cbcad7ec0",
    "game --scheme lamport --n 4 --a 2 --epsilon 0.5 --adversary replay --seed 3":
        "1d535ee8a7e5d58fa759129debee6876e35ec1295f937cc9790b589d440495f9",
    "game --scheme lamport --n 4 --a 2 --epsilon 0.3 --adversary random-forger --seed 3":
        "8c72954943e3f88bf6e015ad8bb92b9696f5cdd180afa6f950e19cf6cbcf7443",
    "game --scheme lamport --n 4 --a 2 --epsilon 0.3 --adversary replay --seed 3":
        "d62f6e95f2e7720b96c4116242c5e89f752d052960417aef8b32c61532ea7a4a",
    "game --scheme lamport --n 3 --a 6 --w 4 --epsilon 0.3 --seed 3":
        "b5c81ab8906b369c7f98c4c8337037585be2472ced346d3202e090251247343c",
    "game --scheme winternitz --n 4 --a 3 --w 2 --epsilon 0.5 --adversary random-forger --seed 3":
        "952ec46d2e09461e19d6609c2437ffeba1d792b427dec54681438865b2d1af62",
    "game --scheme winternitz --n 4 --a 3 --w 2 --epsilon 0.5 --adversary replay --seed 3":
        "355f5ebd16765fc6830faba17fdca847656a4ec4fea1c62df92bd07bb7e1acbe",
    "game --scheme winternitz --n 4 --a 3 --w 2 --epsilon 0.3 --adversary random-forger --seed 3":
        "d95a5e0b6c0b7dc3e153cc483473761b9b462eec2b76d55865dc754d8942c9c0",
    "game --scheme winternitz --n 4 --a 3 --w 2 --epsilon 0.3 --adversary replay --seed 3":
        "b100561a11ae0154bc51b29322ae54ace8f6f70a5394f17e12b73226dc4cb87c",
    "game --scheme winternitz --n 3 --a 6 --w 4 --epsilon 0.3 --seed 3":
        "481a53d9514772e0442791e3ed14bae2bbe0fbd60c5464f41728e4287e2fd053",
    "keygen --scheme lamport --n 8 --a 2 --seed 3":
        "af7b84bd6bb1c7335239f4c7908818fcd60cabd019109916fb0aa9f812fc004a",
    "keygen --scheme lamport --n 40 --a 3 --seed 3":
        "f8a89e0f8cf842c6c2ec41ff96400c2799fdd80c7e5e43b5ad93b092cc944dd2",
    "keygen --scheme winternitz --n 8 --a 4 --w 4 --seed 3":
        "12c61bb3ebc9f01f6a3472f21a6fc25a995873c7d8c0a22896c4c4f20101a29e",
    "keygen --scheme winternitz --n 5 --a 3 --w 2 --seed 3":
        "917efc5f911390d1e561f033928186238af2853c721da748be76788850c98988",
    "game --scheme lamport --n 4 --a 2 --epsilon 0.5 --adversary random-forger --seed 11":
        "c9f81fa28b680f58dbb2f918ff38fd077e6b2e8badc9c85b29a0363b6b258096",
    "game --scheme lamport --n 4 --a 2 --epsilon 0.5 --adversary replay --seed 11":
        "e21ee3879b56ab931933f8c580e245d045a225cc31c254c2f78dca4b92375301",
    "game --scheme lamport --n 4 --a 2 --epsilon 0.3 --adversary random-forger --seed 11":
        "ac8e7b3f300f7b392f47c2e8fd7d5b86684622029ce69f5e25b1bb80dcbed850",
    "game --scheme lamport --n 4 --a 2 --epsilon 0.3 --adversary replay --seed 11":
        "14e1ddab93b2c3512c32f0298362c4584095f6be73d855fa25f0f00aeab1e114",
    "game --scheme lamport --n 3 --a 6 --w 4 --epsilon 0.3 --seed 11":
        "81d02a672d7808e4fde75a9e8c186f552bc0697821ace14aa0ed76d910fcec4f",
    "game --scheme winternitz --n 4 --a 3 --w 2 --epsilon 0.5 --adversary random-forger --seed 11":
        "d30dea37c7da484de58e413d0399975c4d7c1a3353f500ca9c45e5fde3023c39",
    "game --scheme winternitz --n 4 --a 3 --w 2 --epsilon 0.5 --adversary replay --seed 11":
        "cd3239ddd5d1568afa7e37f5b60da8f58a215890feb0c8ba5258567a99fd8067",
    "game --scheme winternitz --n 4 --a 3 --w 2 --epsilon 0.3 --adversary random-forger --seed 11":
        "d8cd012e07f5d4c06ca7791589c3a12fbb01bd9c3ae71ceeebc04330ae6af2bc",
    "game --scheme winternitz --n 4 --a 3 --w 2 --epsilon 0.3 --adversary replay --seed 11":
        "13849772f41df656251103f8c5a8e6f9ed1649a2ab740c88353d1bf9765e983b",
    "game --scheme winternitz --n 3 --a 6 --w 4 --epsilon 0.3 --seed 11":
        "0621631aa4d363a5e666431e38085587b75edeef38f26cf39b8fd2958453eb69",
    "keygen --scheme lamport --n 8 --a 2 --seed 11":
        "5bcf1aa73e3a4cd70afd9168658a7efbf5c000b615f08f46e523738e35182455",
    "keygen --scheme lamport --n 40 --a 3 --seed 11":
        "599c9e835b27c40db3fd3d846286715b12310439975ac5e2d544f1ca54f917ba",
    "keygen --scheme winternitz --n 8 --a 4 --w 4 --seed 11":
        "91e86627bd38830a461564c1d17d5bd93c90eb3ec99be90d1e33e04fa1289fea",
    "keygen --scheme winternitz --n 5 --a 3 --w 2 --seed 11":
        "f337749cbd14833836021496ff30348aebf08c9ddc1b36cf715dc525327e652b",
}


@pytest.mark.parametrize("argv", sorted(REPORT_SHA256))
def test_game_and_keygen_report_bytes_are_pinned(argv, capsys):
    assert cli.main(argv.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REPORT_SHA256[argv]


class TestErrors:
    def test_unknown_command_usage_error(self):
        assert cli.main(["frobnicate"]) == 1

    def test_no_command_prints_help(self, capsys):
        assert cli.main([]) == 1

    def test_invalid_combo(self, capsys):
        # non-power-of-two w rejected by the scheme layer -> usage error
        assert cli.main(["keygen", "--scheme", "winternitz", "--n", "4", "--a", "4",
                         "--w", "3"]) == 1

    def test_env_seed_default(self, monkeypatch, capsys):
        monkeypatch.setenv("QROMLAB_SEED", "123")
        parser = cli.build_parser()
        args = parser.parse_args(["bounds", "--scheme", "lamport", "--q", "1",
                                  "--l", "1", "--n", "8"])
        assert args.seed == 123

    def test_non_integer_env_seed_is_an_error(self, monkeypatch, capsys):
        monkeypatch.setenv("QROMLAB_SEED", "abc")
        code, out, err = run(capsys, "bounds", "--scheme", "lamport", "--q", "1",
                             "--l", "1", "--n", "8")
        assert code == 1 and out == ""
        assert err == "error: QROMLAB_SEED must be an integer, got 'abc'\n"

    def test_parser_built_once_per_env_seed_text(self, monkeypatch, capsys):
        # the variable is read on every call, and a new text builds its own parser
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        monkeypatch.setattr(cli, "_parser", functools.lru_cache(maxsize=4)(cli._parser.__wrapped__))
        argv = ["keygen", "--scheme", "lamport", "--n", "4", "--a", "2"]
        monkeypatch.setenv("QROMLAB_SEED", "3")
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first and first[0] == 0
        assert len(built) == 1
        monkeypatch.setenv("QROMLAB_SEED", "4")
        assert run(capsys, *argv) == run(capsys, *argv, "--seed", "4") != first
        assert len(built) == 2
        monkeypatch.setenv("QROMLAB_SEED", "abc")
        for _ in range(2):
            assert run(capsys, *argv) == (1, "", "error: QROMLAB_SEED must be an integer, got 'abc'\n")
        assert len(built) == 4

    def test_negative_trials_rejected(self, capsys):
        code, out, err = run(capsys, "attack", "--n", "3", "--l", "1", "--trials", "-5")
        assert code == 1 and out == ""
        assert "argument --trials: expected a nonnegative integer, got '-5'" in err

    @pytest.mark.parametrize("value", ["-2", "-5", "x"])
    def test_iterations_other_than_minus_one_or_a_count_rejected(self, capsys, value):
        code, out, err = run(capsys, "attack", "--kind", "grover", "--n", "3", "--l", "1",
                             "--iterations", value)
        assert code == 1 and out == ""
        assert f"argument --iterations: expected -1 or a nonnegative integer, got '{value}'" in err

    def test_negative_sensitivity_rejected(self, capsys):
        code, out, err = run(capsys, "attack", "--kind", "grover", "--n", "3", "--l", "1",
                             "--sensitivity", "-2")
        assert code == 1 and out == ""
        assert "argument --sensitivity: expected a nonnegative integer, got '-2'" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--n", "2", "--l", "0"], "Lamport parameters need n >= 1 and l >= 1"),
            (["--n", "-3", "--l", "1"], "Lamport parameters need n >= 1 and l >= 1"),
            (["--scheme", "winternitz", "--n", "2", "--l", "1", "--w", "1"],
             "Winternitz parameter w must be at least 2"),
            (["--scheme", "winternitz", "--n", "0", "--l", "1", "--w", "4"],
             "security parameter n must be positive"),
            (["--scheme", "winternitz", "--n", "2", "--l", "0", "--w", "4"],
             "chain count l must be at least 2, as l = l1 + l2 with l1, l2 >= 1"),
            (["--scheme", "winternitz", "--n", "20", "--l", "1", "--w", "2"],
             "chain count l must be at least 2, as l = l1 + l2 with l1, l2 >= 1"),
        ],
        ids=["lamport-l0", "lamport-n-3", "winternitz-w1", "winternitz-n0", "winternitz-l0",
             "winternitz-l1"],
    )
    def test_bounds_of_a_scheme_that_does_not_exist_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "bounds", "--q", "1", *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("l", ["0", "-1"])
    def test_grover_attack_without_chains_rejected(self, capsys, l):
        code, out, err = run(capsys, "attack", "--kind", "grover", "--n", "3", "--l", l)
        assert code == 1 and out == ""
        assert err == "error: Lamport parameters need n >= 1 and l >= 1\n"

    @pytest.mark.parametrize("kind", ["classical", "grover"])
    def test_attack_past_the_full_table_cap_rejected_before_any_table(self, capsys, kind):
        # every trial fills its oracle's whole table: 2^21 images of 8 B at n = 21
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "attack", "--kind", kind, "--n", "21", "--l", "1",
                                 "--trials", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert err == "error: attacks fill whole oracle tables, capped at n <= 20, got n=21\n"
        assert peak < 1 << 20

    def test_lemmas_past_the_norm_cap_rejected(self, capsys):
        # the 2^25 x 2^25 overlap masks would take 2^50 bytes
        code, out, err = run(capsys, "lemmas", "--n", "25")
        assert code == 1 and out == ""
        assert err == f"error: operator norms capped at dimension {qsim.MAX_NORM_DIM}, got {4 ** 25}\n"

    @pytest.mark.parametrize("scheme", ["lamport", "winternitz"])
    def test_lemmas_on_a_world_without_chains_rejected(self, capsys, scheme):
        code, out, err = run(capsys, "lemmas", "--scheme", scheme, "--l", "0")
        assert code == 1 and out == ""
        assert err == "error: a world needs at least one chain, got 0\n"

    def test_negative_lemma_queries_rejected(self, capsys):
        code, out, err = run(capsys, "lemmas", "--q0", "-1")
        assert code == 1 and out == ""
        assert "argument --q0: expected a nonnegative integer, got '-1'" in err

    def test_negative_qgame_queries_rejected(self, capsys):
        code, out, err = run(capsys, "qgame", "--n", "1", "--a", "1", "--q0", "-3")
        assert code == 1 and out == ""
        assert "argument --q0: expected a nonnegative integer, got '-3'" in err

    @staticmethod
    def _edited_lamport_key(tmp_path, capsys, edit):
        """An n=8, a=3 Lamport key file (6 chains) with ``edit`` applied to it."""
        key = tmp_path / "key.json"
        assert cli.main(["keygen", "--scheme", "lamport", "--n", "8", "--a", "3",
                         "--seed", "5", "--out", str(key)]) == 0
        doc = json.loads(key.read_text())
        edit(doc)
        key.write_text(json.dumps(doc))
        capsys.readouterr()
        return key

    def test_key_with_too_few_secret_strings_rejected(self, tmp_path, capsys):
        key = self._edited_lamport_key(tmp_path, capsys, lambda doc: doc.update(sk=doc["sk"][:2]))
        code, out, err = run(capsys, "sign", "--key", str(key), "--message", "5")
        assert code == 1 and out == ""
        assert err == "error: key sk needs 6 strings of at most 8 bits\n"

    def test_key_string_wider_than_n_rejected(self, tmp_path, capsys):
        key = self._edited_lamport_key(
            tmp_path, capsys, lambda doc: doc["sk"].__setitem__(0, "fff")
        )
        code, out, err = run(capsys, "sign", "--key", str(key), "--message", "0")
        assert code == 1 and out == ""
        assert err == "error: key sk needs 6 strings of at most 8 bits\n"

    def test_key_past_the_oracle_width_cap_rejected(self, tmp_path, capsys):
        # a hand-written n = 64 Lamport key and signature: no oracle serves 64 bits
        strings = ["f" * 16, "0" * 16]
        key = tmp_path / "key.json"
        key.write_text(json.dumps({"scheme": "lamport", "n": 64, "a": 1, "w": 2,
                                   "sk": strings, "pk": strings}))
        sig = tmp_path / "sig.json"
        sig.write_text(json.dumps({"n": 64, "sigma": strings[:1]}))
        error = "error: oracle images are 63-bit sub-seeds, so n is capped at 63, got n=64\n"
        for argv in (
            ("keygen", "--scheme", "lamport", "--n", "64", "--a", "1"),
            ("sign", "--key", str(key), "--message", "0"),
            ("verify", "--key", str(key), "--message", "0", "--sig", str(sig)),
        ):
            assert run(capsys, *argv) == (1, "", error), argv

    @pytest.mark.parametrize("shape", [("0", "1", "2"), ("2", "0", "2"), ("2", "1", "0")])
    def test_empty_chain_shape_rejected(self, capsys, shape):
        n, l, w = shape
        code, out, err = run(capsys, "worlds", "--n", n, "--l", l, "--w", w)
        assert code == 1 and out == ""
        assert err == f"error: chain shape needs n, l, w >= 1; got n={n} l={l} w={w}\n"

    def test_chains_without_a_hash_step_rejected(self, capsys):
        code, out, err = run(capsys, "worlds", "--n", "2", "--l", "1", "--w", "1")
        assert code == 1 and out == ""
        assert err == "error: chains need at least two positions, one hash step; got w=1\n"

    def test_lemmas_point_without_a_world_refuses_before_any_row(self, capsys, monkeypatch):
        # No Winternitz message length encodes to 3 blocks at w = 3, so the
        # drift check has no world: the command refuses before the overlap
        # and commutator rows run, not after.
        ran = []
        for name in ("check_equality_uniform_overlap", "check_uniform_register_commutator",
                     "check_invariant_commutator"):
            monkeypatch.setattr(lemmas, name, lambda *a, name=name, **k: ran.append(name) or [])
        code, out, err = run(capsys, "lemmas", "--scheme", "winternitz", "--n", "1",
                             "--l", "3", "--w", "3")
        assert (code, out, err) == (1, "", "error: no message length encodes to 3 blocks at w=3\n")
        assert ran == []
        # a point with a world runs them all
        monkeypatch.setattr(lemmas, "check_state_drift", lambda *a, **k: [])
        monkeypatch.setattr(lemmas, "check_oracle_reprogramming_consistency", lambda *a, **k: [])
        assert run(capsys, "lemmas", "--scheme", "winternitz", "--n", "1", "--l", "4",
                   "--w", "3")[0] == 0
        assert ran == ["check_equality_uniform_overlap", "check_uniform_register_commutator",
                       "check_invariant_commutator"]


class TestAttackFormats:
    def test_csv_format(self, tmp_path, capsys):
        # every float column reads back as a float, equal to the JSON report's
        # (numpy >= 2 once wrote the Wilson bounds as "np.float64(...)")
        argv = ["attack", "--kind", "classical", "--n", "3", "--l", "1", "--q", "4",
                "--trials", "200", "--seed", "1"]
        out = tmp_path / "a.csv"
        assert cli.main(argv + ["--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("kind,") and len(lines) == 2
        row = dict(zip(lines[0].split(","), lines[1].split(","), strict=True))
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        floats = {key for key, value in doc.items() if isinstance(value, float)}
        assert {"wilson_low", "wilson_high", "empirical", "exact_reference"} <= floats
        for key in floats:
            assert float(row[key]) == doc[key], key


class TestStartup:
    def test_cli_import_loads_no_numpy_random_module(self):
        # Every command pays for its imports before it starts.  numpy.random
        # is the one costly numpy module; whatever plain ``import numpy``
        # loads of it (all of it on numpy 1.x, none on 2.x) is not the
        # package's own.
        script = (
            "import sys, numpy\n"
            "base = set(sys.modules)\n"
            "import qromlab.cli\n"
            "print(sorted(m for m in set(sys.modules) - base\n"
            "             if m == 'numpy.random' or m.startswith('numpy.random.')))\n"
        )
        src = str(Path(qromlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "[]\n"

    def test_cli_import_loads_only_pinned_stdlib_modules(self):
        # Beyond ``import numpy``, the package's own modules and these
        # standard-library packages are all that ``import qromlab.cli`` may
        # load.  A new start-up import fails here before it shows as
        # benchmark set-up time.  Python 3.11 has pathlib and typing loaded
        # at start-up; 3.10 loads them, with their own imports, for the
        # package.
        allowed = {"__future__", "_blake2", "_csv", "_hashlib", "_json", "argparse", "copy",
                   "csv", "dataclasses", "gettext", "hashlib", "json"}
        if sys.version_info < (3, 11):
            allowed |= {"fnmatch", "ntpath", "pathlib", "typing", "urllib", "weakref"}
        script = (
            "import sys, numpy\n"
            "base = set(sys.modules)\n"
            "import qromlab.cli\n"
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - base} - {'qromlab'}))\n"
        )
        src = str(Path(qromlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout
        loaded = set(json.loads(out.replace("'", '"')))
        assert loaded <= allowed, sorted(loaded - allowed)
