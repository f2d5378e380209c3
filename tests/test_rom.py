import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qromlab import game, lemmas, ots, rom


# ---------------------------------------------------------------------------
# References: the recursive enumeration and dict-loop statistics that the
# closed form and array reductions in ``rom`` replace.


def lazy_oracle_reference(n: int, l: int, w: int, order: list[tuple[int, int]]) -> dict:
    """Exact tuple distribution for chains grown against a lazy random oracle.

    ``order`` lists (chain, position) extension steps.  Branches over fresh
    oracle inputs only (recursive conditioning); forced steps carry no factor.
    Returns integer numerators over the common denominator 2**(n*l*w).
    """
    top = 1 << n
    denom_exp = n * l * w
    counts: dict[tuple[int, ...], int] = {}

    def rec(step: int, grid: list[list[int]], f: dict[int, int], used_exp: int):
        if step == len(order) + l:
            key = tuple(v for row in grid for v in row)
            counts[key] = counts.get(key, 0) + (1 << (denom_exp - used_exp))
            return
        if step < l:  # start values: always fresh uniform samples
            for v in range(top):
                grid[step].append(v)
                rec(step + 1, grid, f, used_exp + n)
                grid[step].pop()
            return
        i, _ = order[step - l]
        x = grid[i][-1]
        y = f.get(x)
        if y is not None:
            grid[i].append(y)
            rec(step + 1, grid, f, used_exp)
            grid[i].pop()
            return
        for v in range(top):
            f[x] = v
            grid[i].append(v)
            rec(step + 1, grid, f, used_exp + n)
            grid[i].pop()
            del f[x]

    rec(0, [[] for _ in range(l)], {}, 0)
    return counts


def chain_major(l: int, w: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(l) for j in range(1, w)]


def position_major(l: int, w: int) -> list[tuple[int, int]]:
    """The growth order of :func:`reference.sample_consistent_chains`."""
    return [(i, j) for j in range(1, w) for i in range(l)]


def reference_distributions(n: int, l: int, w: int, order=chain_major) -> tuple[dict, dict]:
    """(p, q) as tuple-keyed dicts: p over its support, q over every tuple."""
    denom = 1 << (n * l * w)
    p = {key: cnt / denom for key, cnt in lazy_oracle_reference(n, l, w, order(l, w)).items()}
    q = {key: 1.0 / denom for key in itertools.product(range(1 << n), repeat=l * w)}
    return p, q


def has_collision(flat: tuple[int, ...]) -> bool:
    return len(set(flat)) != len(flat)


def reference_stats(p: dict, q: dict, n: int, l: int, w: int) -> rom.WorldsReport:
    """The dict loop over q's tuples that ``rom.tv_and_collision_stats`` replaced."""
    if not set(p).issubset(set(q)):
        raise ValueError("support mismatch: p has tuples outside q's support")
    tv = 0.0
    p_coll = 0.0
    q_coll = 0.0
    conditional_equal = True
    for key, qv in q.items():
        pv = p.get(key, 0.0)
        tv += abs(pv - qv)
        if has_collision(key):
            p_coll += pv
            q_coll += qv
        elif pv != qv:
            conditional_equal = False
    return rom.WorldsReport(
        n=n, l=l, w=w, tv=tv, p_collision=p_coll, q_collision=q_coll,
        conditional_equal=conditional_equal,
    )


def support(dist: np.ndarray, n: int, l: int, w: int) -> dict:
    """Dense array -> {tuple: probability} over its nonzero entries."""
    keys = itertools.product(range(1 << n), repeat=l * w)
    return {key: float(v) for key, v in zip(keys, dist) if v != 0.0}


# Bench shapes at the n*l*w = 16 guard, then edges: one chain, one step,
# many chains, uneven n, and w > 2 with several chains.
CLOSED_FORM_SHAPES = [
    (8, 1, 2), (4, 2, 2), (4, 1, 4), (2, 4, 2),
    (1, 1, 2), (1, 1, 16), (1, 8, 2), (2, 2, 3), (3, 1, 5),
    (2, 1, 3), (1, 3, 3), (3, 2, 2),
]


class TestLazyTable:
    def test_repeat_queries_are_consistent(self):
        t = rom.RandomOracleTable(4, seed=0)
        assert t.query(7) == t.query(7)

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_any_interleaving_is_a_function(self, xs):
        t = rom.RandomOracleTable(4, seed=1)
        seen = {}
        for x in xs:
            y = t.query(x)
            assert seen.setdefault(x, y) == y

    def test_width_check(self):
        t = rom.RandomOracleTable(2, seed=0)
        with pytest.raises(ValueError):
            t.query(4)

    @pytest.mark.parametrize("n,x", [(4, 16), (4, -1), (8, 256), (8, 1000)])
    def test_width_check_message(self, n, x):
        t = rom.RandomOracleTable(n, seed=0)
        with pytest.raises(ValueError) as refused:
            t.query(x)
        assert str(refused.value) == f"input {x} is outside the {n}-bit value range [0, {1 << n})"

    def test_width_capped_at_the_sub_seed_bits(self):
        # an image is an n-bit cut of a 63-bit sub-seed: past 63 bits the
        # top bit would never be set
        with pytest.raises(ValueError, match="capped at 63, got n=64"):
            rom.RandomOracleTable(64, seed=0)
        assert 0 <= rom.RandomOracleTable(63, seed=0).query((1 << 63) - 1) < 1 << 63

    def test_full_table_matches_queries(self):
        t = rom.RandomOracleTable(3, seed=5)
        a = t.query(6)
        table = t.full_table()
        assert table[6] == a and len(table) == 8

    @pytest.mark.parametrize("seed", [0, None, 7, 2**62 + 3, -5])
    def test_images_are_labeled_seed_derivations(self, seed):
        # the prefix-hashed image equals derive_seed(seed, "img", x) on every input
        for n in range(1, 9):
            t = rom.RandomOracleTable(n, seed=seed)
            master = 0 if seed is None else seed
            for x in range(1 << n):
                assert t.query(x) == rom.derive_seed(master, "img", x) & ((1 << n) - 1)

    def test_full_table_after_shuffled_partial_queries(self):
        for n, seed in [(1, 3), (5, 11), (8, -2)]:
            xs = list(range(1 << n))
            random.Random(seed).shuffle(xs)
            t = rom.RandomOracleTable(n, seed=seed)
            for x in xs[: len(xs) // 2]:
                t.query(x)
            fresh = rom.RandomOracleTable(n, seed=seed).full_table()
            assert t.full_table() == fresh
            assert reference.known(t) == dict(enumerate(fresh))
            for bad in (-1, 1 << n):
                with pytest.raises(ValueError):
                    t.query(bad)


class TestBlockImages:
    def test_block_rows_equal_lazy_images(self):
        # the one-pass builder equals the lazy table's per-input image
        rng = random.Random(17)
        for n in range(1, 13):
            seeds = [rng.randrange(-(1 << 40), 1 << 63) for _ in range(3)] + [0]
            rows = rom.oracle_images(n, seeds)
            assert rows.shape == (len(seeds), 1 << n) and rows.dtype == np.uint64
            for seed, row in zip(seeds, rows.tolist()):
                lazy = rom.RandomOracleTable(n, seed)
                assert row == [lazy._image(x) for x in range(1 << n)]

    @pytest.mark.parametrize("n,seed", [(1, 0), (5, 11), (8, -2), (10, 2**62 + 3)])
    def test_full_table_is_the_labeled_hash_of_every_input(self, n, seed):
        # against one sha256 update per path piece, not the package's formula
        table = rom.RandomOracleTable(n, seed).full_table()
        assert table == tuple(
            piecewise_derive_seed(seed, "img", x) & ((1 << n) - 1) for x in range(1 << n)
        )

    def test_batched_seeds_equal_derive_seed(self):
        seeds = [0, 7, -3, 2**62 + 1, 2**63 - 1]
        labels = ["keygen", "classical/12", 5, ""]
        got = rom.derive_seeds(seeds, labels)
        assert got.shape == (5, 4)
        assert got.tolist() == [[rom.derive_seed(s, lab) for lab in labels] for s in seeds]
        assert got[0, 1] == rom.derive_seed(0, "classical", 12)
        assert rom.derive_seeds([], ["x"]).shape == (0, 1)

    @pytest.mark.parametrize("n", [1, 6, 9])
    def test_prefilled_oracle_answers_as_the_lazy_one(self, n, monkeypatch):
        # an attack world's oracle starts with its whole table: every query
        # answers as the lazy oracle's would, none hashes, and the range
        # check still rejects inputs outside the domain
        images = np.empty((2, 1 << n), dtype=np.uint64)
        worlds = game.ClassicalWorlds(ots.LamportParams(n=n, l=1), 0.5, [5, 2**40 + 9], images)
        for oracle, _, _ in worlds:
            lazy = rom.RandomOracleTable(n, oracle.seed)
            want = [lazy.query(x) for x in range(1 << n)]
            with monkeypatch.context() as patch:
                patch.setattr(rom.RandomOracleTable, "_image", None)  # a hash would raise
                assert [oracle.query(x) for x in range(1 << n)] == want
                assert [oracle(x) for x in reversed(range(1 << n))] == want[::-1]
                for bad in (-1, 1 << n):
                    with pytest.raises(ValueError, match="bit value"):
                        oracle.query(bad)


class TestReprogramming:
    def test_xor_overlay_follows_collision_free_chains(self):
        base = rom.RandomOracleTable(4, seed=2)
        chains = rom.ChainTuple(n=4, l=2, w=3, gamma=((1, 2, 3), (4, 5, 6)))
        o = rom.ReprogrammedOracle(base, chains)
        for row in chains.gamma:
            for j in range(2):
                assert o(row[j]) == row[j + 1]
        assert o(7) == base(7)

    def test_xor_overlay_adds_both_successors_on_collision(self):
        # two chains starting at the same value: the query answers with the
        # XOR of both successors
        chains = rom.ChainTuple(n=4, l=2, w=2, gamma=((5, 9), (5, 12)))
        base = rom.RandomOracleTable(4, seed=4)
        o = rom.ReprogrammedOracle(base, chains)
        assert o(5) == 9 ^ 12
        assert o(6) == base(6)


class TestSampling:
    def test_real_chains_iterate_the_oracle(self):
        table = {0b00: 0b01, 0b01: 0b11}
        oracle = lambda x: table.get(x, 0)
        rng = np.random.default_rng(12)  # first draw at n=2 is deterministic per seed
        chains = reference.sample_real_chains(2, 1, 3, oracle, rng)
        start = chains.gamma[0][0]
        assert chains.gamma[0][1] == oracle(start)
        assert chains.gamma[0][2] == oracle(oracle(start))

    def test_lamport_shape_is_two_long(self):
        oracle = rom.RandomOracleTable(3, seed=8)
        chains = reference.sample_real_chains(3, 4, 2, oracle, np.random.default_rng(8))
        for row in chains.gamma:
            assert row == (row[0], oracle(row[0]))

    def test_seed_determinism(self):
        oracle1 = rom.RandomOracleTable(3, seed=9)
        oracle2 = rom.RandomOracleTable(3, seed=9)
        c1 = reference.sample_real_chains(3, 2, 3, oracle1, np.random.default_rng(9))
        c2 = reference.sample_real_chains(3, 2, 3, oracle2, np.random.default_rng(9))
        assert c1 == c2
        i1 = reference.sample_independent_chains(3, 2, 3, np.random.default_rng(10))
        i2 = reference.sample_independent_chains(3, 2, 3, np.random.default_rng(10))
        assert i1 == i2

    def test_independent_marginals_uniform(self):
        # chi-square on each cell over many samples, 4 sigma gate
        n, l, w, trials = 1, 1, 2, 10_000
        rng = np.random.default_rng(11)
        counts = np.zeros((l * w, 2))
        for _ in range(trials):
            flat = reference.flat(reference.sample_independent_chains(n, l, w, rng))
            for k, v in enumerate(flat):
                counts[k, v] += 1
        expected = trials / 2
        for k in range(l * w):
            chi2 = ((counts[k] - expected) ** 2 / expected).sum()
            assert chi2 < 16  # 4 sigma on 1 dof

    def test_tiny_tuple_space_equiprobable(self):
        rng = np.random.default_rng(13)
        seen = {}
        trials = 8000
        for _ in range(trials):
            seen.setdefault(reference.flat(reference.sample_independent_chains(1, 1, 2, rng)), 0)
            seen[reference.flat(reference.sample_independent_chains(1, 1, 2, rng))] = 0
        # all four tuples occur
        assert len({t for t in seen}) == 4


class TestExactDistributions:
    def test_normalization(self):
        p, q = rom.enumerate_chain_distributions(2, 1, 2)
        assert abs(p.sum() - 1.0) < 1e-12
        assert abs(q.sum() - 1.0) < 1e-12

    def test_collision_free_mass_n1(self):
        # 2 * 1 * 2^-2 of the mass is collision-free at n=1, l=1, w=2
        _, q = rom.enumerate_chain_distributions(1, 1, 2)
        keys = itertools.product(range(2), repeat=2)
        mass = sum(v for k, v in zip(keys, q) if not has_collision(k))
        assert mass == pytest.approx(0.5, abs=1e-15)

    def test_stats_example_n4(self):
        p, q = rom.enumerate_chain_distributions(4, 1, 2)
        stats = rom.tv_and_collision_stats(p, q, 4, 1, 2)
        assert stats.q_collision == pytest.approx(1 - 16 * 15 / 256, abs=1e-15)
        assert stats.q_collision <= 0.25
        assert stats.tv <= lemmas.chain_distance_bound(4, 1, 2)
        assert max(stats.p_collision, stats.q_collision) <= lemmas.chain_collision_bound(4, 1, 2)

    def test_equal_distributions_have_zero_distance(self):
        p, q = rom.enumerate_chain_distributions(2, 1, 2)
        stats = rom.tv_and_collision_stats(q, q, 2, 1, 2)
        assert stats.tv == 0.0

    def test_bound_value_vacuous_point(self):
        assert lemmas.chain_distance_bound(4, 2, 2) == pytest.approx(3.0)

    def test_conditional_equality_and_collision_mass_match(self):
        for n, l, w in [(2, 1, 2), (4, 1, 2), (2, 2, 2), (2, 1, 3)]:
            p, q = rom.enumerate_chain_distributions(n, l, w)
            stats = rom.tv_and_collision_stats(p, q, n, l, w)
            assert stats.conditional_equal
            assert stats.p_collision == pytest.approx(stats.q_collision, abs=1e-14)

    def test_chain_major_and_position_major_growth_agree(self):
        # both lazily-conditioned growth orders of the recursive reference give
        # the closed form exactly, on every tuple: the sampled-then-reprogrammed
        # world is the real one
        for n, l, w in CLOSED_FORM_SHAPES:
            p, _ = rom.enumerate_chain_distributions(n, l, w)
            assert p.shape == (1 << (n * l * w),)
            for order in (chain_major, position_major):
                ref, _ = reference_distributions(n, l, w, order)
                assert support(p, n, l, w) == ref, (n, l, w, order.__name__)

    def test_array_stats_match_dict_loop(self):
        for n, l, w in CLOSED_FORM_SHAPES:
            p, q = rom.enumerate_chain_distributions(n, l, w)
            ref_p, ref_q = reference_distributions(n, l, w)
            assert rom.tv_and_collision_stats(p, q, n, l, w) == reference_stats(
                ref_p, ref_q, n, l, w
            ), (n, l, w)
            assert rom.tv_and_collision_stats(q, q, n, l, w) == reference_stats(
                ref_q, ref_q, n, l, w
            ), (n, l, w)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            rom.enumerate_chain_distributions(8, 2, 2)
        with pytest.raises(ValueError, match="enumeration guard"):
            rom.tv_and_collision_stats(np.zeros(1), np.zeros(1), 8, 2, 2)

    def test_support_mismatch_rejected(self):
        p, q = rom.enumerate_chain_distributions(2, 1, 2)
        bad = q.copy()
        bad[5] = 0.0  # p[5] > 0: p has a tuple outside q's support
        assert p[5] > 0.0
        with pytest.raises(ValueError, match="support mismatch"):
            rom.tv_and_collision_stats(p, bad, 2, 1, 2)
        with pytest.raises(ValueError, match="dense arrays"):
            rom.tv_and_collision_stats(p[:-1], q[:-1], 2, 1, 2)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBlockedEnumeration:
    """The tuple blocks of ``rom`` against one array of every tuple's entries
    (``reference``).  The four bench shapes hold 2^16 tuples, 16 blocks."""

    def test_bench_shapes_cross_block_boundaries(self):
        assert rom.ENUM_BLOCK_TUPLES < 1 << rom.MAX_ENUM_BITS

    @pytest.mark.parametrize("n,l,w", CLOSED_FORM_SHAPES)
    def test_distributions_and_stats_match_the_whole_array_bit_for_bit(self, n, l, w):
        p, q = rom.enumerate_chain_distributions(n, l, w)
        ref_p, ref_q = reference.enumerate_chain_distributions(n, l, w)
        assert same_bits(p, ref_p) and same_bits(q, ref_q)
        for a, b in ((p, q), (q, q)):
            assert rom.tv_and_collision_stats(a, b, n, l, w) == reference.tv_and_collision_stats(
                a, b, n, l, w
            )

    @pytest.mark.parametrize("n,l,w", [(8, 1, 2), (2, 4, 2), (2, 2, 3)])
    def test_stats_of_non_dyadic_distributions_keep_their_bits(self, n, l, w):
        # the sums run over whole arrays, as before, so even values that are
        # not exact in every summation order give the same bits
        rng = np.random.default_rng(5)
        p = rng.random(1 << (n * l * w))
        q = p.copy()
        q[rng.integers(0, len(q), 50)] += 1e-3
        assert rom.tv_and_collision_stats(p, q, n, l, w) == reference.tv_and_collision_stats(
            p, q, n, l, w
        )

    @pytest.mark.parametrize("block", [1, 24, 1 << 5])
    @pytest.mark.parametrize("n,l,w", [(2, 1, 3), (1, 3, 3), (3, 2, 2), (2, 2, 3)])
    def test_any_block_size_gives_the_same_bits(self, monkeypatch, tmp_path, block, n, l, w):
        # 24 does not divide the tuple count, so the last block is short
        monkeypatch.setattr(rom, "ENUM_BLOCK_TUPLES", block)
        p, q = rom.enumerate_chain_distributions(n, l, w)
        ref_p, ref_q = reference.enumerate_chain_distributions(n, l, w)
        assert same_bits(p, ref_p) and same_bits(q, ref_q)
        assert rom.tv_and_collision_stats(p, q, n, l, w) == reference.tv_and_collision_stats(
            p, q, n, l, w
        )
        rom.dump_distribution_csv(p, n, tmp_path / "got.csv")
        reference.dump_distribution_csv(p, n, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_dump_decodes_only_the_blocks_it_writes(self, monkeypatch, tmp_path):
        decoded = []
        blocks = rom._tuple_blocks

        def counted(*args):
            for start, entries in blocks(*args):
                decoded.append(start)
                yield start, entries

        monkeypatch.setattr(rom, "_tuple_blocks", counted)
        dist = np.zeros(1 << 16)
        dist[[5 * rom.ENUM_BLOCK_TUPLES + 7, 9 * rom.ENUM_BLOCK_TUPLES]] = [0.25, 0.75]
        rom.dump_distribution_csv(dist, 4, tmp_path / "d.csv")
        assert decoded == [5 * rom.ENUM_BLOCK_TUPLES, 9 * rom.ENUM_BLOCK_TUPLES]
        assert (tmp_path / "d.csv").read_text().splitlines() == [
            "tuple_hex,probability", "5007,0.25", "9000,0.75"
        ]


@pytest.mark.parametrize("n,l,w", [(0, 1, 2), (2, 0, 2), (2, 1, 0), (-1, 2, 2)])
def test_enumeration_rejects_empty_chain_shapes(n, l, w):
    with pytest.raises(ValueError, match="chain shape needs n, l, w >= 1"):
        rom.enumerate_chain_distributions(n, l, w)


@pytest.mark.parametrize("n,l", [(2, 1), (1, 3), (4, 2)])
def test_enumeration_rejects_chains_without_a_hash_step(n, l):
    # w = 1 chains have no extension input, so there is no oracle to compare
    with pytest.raises(ValueError, match="chains need at least two positions"):
        rom.enumerate_chain_distributions(n, l, 1)
    q = np.full(1 << (n * l), 2.0 ** (-n * l))
    with pytest.raises(ValueError, match="chains need at least two positions"):
        rom.tv_and_collision_stats(q, q, n, l, 1)


def piecewise_derive_seed(seed, *labels):
    """derive_seed as first written: one sha256 update per path piece."""
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1


class TestSeedDerivation:
    def test_labels_split_the_stream(self):
        a = rom.derive_seed(7, "x")
        b = rom.derive_seed(7, "y")
        c = rom.derive_seed(8, "x")
        assert len({a, b, c}) == 3
        assert rom.derive_seed(7, "x") == a

    def test_single_seed_equals_batched_seeds(self):
        # derive_seed reads its one digest as derive_seeds reads a batch
        draws = np.random.default_rng(31).integers(0, 2**63, size=500, dtype=np.uint64)
        seeds = EDGE_SEEDS + [-3, -(2**63)] + [int(s) for s in draws]
        paths = [("keygen",), ("classical", 17), ("drift", 2, 1, 0), ("", "a/b"), ("img", 2**40)]
        got = rom.derive_seeds(seeds, ["/".join(map(str, path)) for path in paths])
        assert got.tolist() == [[rom.derive_seed(s, *path) for path in paths] for s in seeds]

    def test_one_shot_hash_matches_piecewise_updates(self):
        labels = [(), ("x",), ("classical", 9999), ("drift", 2, 1, 0, 1),
                  ("dense", 1, 0, (0, 3)), ("img", 255), ("", "a/b")]
        for seed in (0, 7, -3, 2**62 + 1, np.int64(11)):
            for path in labels:
                assert rom.derive_seed(seed, *path) == piecewise_derive_seed(seed, *path)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


class TestDefaultRngs:
    def test_generators_equal_default_rng(self):
        draws = np.random.default_rng(2024).integers(0, 2**63, size=10_000, dtype=np.uint64)
        seeds = EDGE_SEEDS + [int(s) for s in draws]
        for seed, rng in zip(seeds, rom.default_rngs(seeds), strict=True):
            ref = np.random.default_rng(seed)
            assert rng.bit_generator.state == ref.bit_generator.state, seed
            assert rng.random() == ref.random(), seed
            assert rng.integers(0, 1 << 20, size=3).tolist() == ref.integers(
                0, 1 << 20, size=3
            ).tolist(), seed

    def test_one_seed_and_no_seeds(self):
        (rng,) = rom.default_rngs([5])
        assert rng.random(4).tolist() == np.random.default_rng(5).random(4).tolist()
        assert list(rom.default_rngs([])) == []

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            rom.default_rngs([3, seed])


def _raw_words(seed: int, count: int) -> list[int]:
    return np.random.default_rng(seed).bit_generator.random_raw(count).tolist()


class TestPcg64Words:
    # Edge seeds and 10k random ones: the vectorised stepping serves a block
    # with at most as many words as seeds, numpy's PCG64 a longer stream.
    SEEDS = EDGE_SEEDS + [
        int(s) for s in np.random.default_rng(2025).integers(0, 2**64 - 1, size=10_000, dtype=np.uint64)
    ]

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 64])
    def test_stepped_words_equal_random_raw(self, count):
        got = rom.pcg64_words(self.SEEDS, count)
        assert got.shape == (len(self.SEEDS), count) and got.dtype == np.uint64
        for seed, row in zip(self.SEEDS, got.tolist()):
            assert row == _raw_words(seed, count), seed

    @pytest.mark.parametrize("rows,count", [(6, 6), (6, 7), (3, 1 << 12), (1, 1 << 12), (1, 1)])
    def test_both_branches_equal_random_raw(self, rows, count):
        seeds = self.SEEDS[:rows] + self.SEEDS[-rows:]
        for chunk in (seeds[:rows], seeds[rows:]):
            got = rom.pcg64_words(chunk, count).tolist()
            assert got == [_raw_words(seed, count) for seed in chunk]

    @pytest.mark.parametrize("bits", [1, 4, 31, 32, 33, 40, 62])
    @pytest.mark.parametrize("size", [1, 2, 5, 600])
    def test_integers_equal_generator_integers(self, bits, size):
        seeds = self.SEEDS[:300]
        got = rom.pcg64_integers(seeds, size, bits)
        assert got.shape == (len(seeds), size)
        for seed, row in zip(seeds, got.tolist()):
            assert row == np.random.default_rng(seed).integers(0, 2**bits, size=size).tolist(), seed

    @pytest.mark.parametrize("bits", [0, 64])
    def test_integer_width_outside_a_word_rejected(self, bits):
        with pytest.raises(ValueError, match="1 to 63 bits"):
            rom.pcg64_integers([1, 2], 3, bits)

    @pytest.mark.parametrize("size", [1, 4, 9, 1 << 12])
    def test_doubles_equal_generator_random(self, size):
        seeds = self.SEEDS[:20]
        got = rom.pcg64_random(seeds, size)
        assert got.dtype == np.float64
        for seed, row in zip(seeds, got.tolist()):
            assert row == np.random.default_rng(seed).random(size).tolist(), seed

    def test_no_seeds(self):
        assert rom.pcg64_words([], 3).shape == (0, 3)
        assert rom.pcg64_random([], 0).shape == (0, 0)


def test_distribution_csv_dump(tmp_path):
    p, _ = rom.enumerate_chain_distributions(2, 1, 2)
    path = tmp_path / "p.csv"
    rom.dump_distribution_csv(p, 2, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tuple_hex,probability"
    assert len(lines) == np.count_nonzero(p) + 1


class TestSamplerMatchesEnumeration:
    def test_real_chain_sampler_follows_exact_distribution(self):
        # chi-square of the sampled tuple frequencies against the enumerated
        # exact probabilities; dof = support size - 1, gate at ~5 sigma
        n, l, w, trials = 1, 1, 2, 20_000
        p = support(rom.enumerate_chain_distributions(n, l, w)[0], n, l, w)
        rng = np.random.default_rng(321)
        counts = {}
        for t in range(trials):
            oracle = rom.RandomOracleTable(n, seed=rom.derive_seed(321, "s", t))
            key = reference.flat(reference.sample_real_chains(n, l, w, oracle, rng))
            counts[key] = counts.get(key, 0) + 1
        chi2 = sum(
            (counts.get(k, 0) - trials * pk) ** 2 / (trials * pk) for k, pk in p.items()
        )
        dof = len(p) - 1
        assert chi2 < dof + 5 * (2 * dof) ** 0.5

    def test_consistent_sampler_follows_exact_distribution(self):
        n, l, w, trials = 1, 2, 2, 20_000
        pc = support(rom.enumerate_chain_distributions(n, l, w)[0], n, l, w)
        rng = np.random.default_rng(654)
        counts = {}
        for _ in range(trials):
            key = reference.flat(reference.sample_consistent_chains(n, l, w, rng))
            counts[key] = counts.get(key, 0) + 1
        chi2 = sum(
            (counts.get(k, 0) - trials * pk) ** 2 / (trials * pk) for k, pk in pc.items()
        )
        dof = len(pc) - 1
        assert chi2 < dof + 5 * (2 * dof) ** 0.5
