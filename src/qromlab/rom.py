"""Random oracles, chain reprogramming overlays, and exact chain distributions.

A :class:`RandomOracleTable` lazily samples a uniformly random function on
n-bit strings: once an input has been queried its image is fixed for the
lifetime of the table.  :class:`ReprogrammedOracle` layers hash-chain
consistency on top of a base oracle: a query XORs the successors of *every*
chain entry equal to the input, so chains with collisions stay well-defined.

The exact distribution of chain tuples generated by iterating a lazily
sampled oracle is computed in closed form, never by Monte Carlo: a tuple
gamma has probability 2^{-n(l + d(gamma))} when equal extension inputs have
equal successors and 0 otherwise, where d(gamma) counts the distinct values
among the entries gamma[i][j], j < w-1, that the chains feed to the oracle.
Each start value and each distinct oracle input is one fresh uniform draw,
whatever the order the chains grow in.  Distributions are dense float64 arrays over all
2^{nlw} tuples in ``itertools.product`` order; every probability is a dyadic
rational with at most n*l*w bits, so sums over them are exact in any order.
The tuples themselves are decoded ``ENUM_BLOCK_TUPLES`` at a time, never all
at once.
"""

from __future__ import annotations

import csv
import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

Oracle = Callable[[int], int]

MAX_ENUM_BITS = 16  # guard: n*l*w for exhaustive enumeration
MAX_TABLE_BITS = 20  # guard: n for an oracle's whole table
# Tuples decoded at a time by the exact enumeration: a block of at most
# MAX_ENUM_BITS int64 entries per tuple is 512 KiB.
ENUM_BLOCK_TUPLES = 1 << 12


def _seed_values(paths) -> np.ndarray:
    """The seed of every encoded label path, as one uint64 array: the top 63
    bits of the first 8 bytes of the path's sha256, read big-endian."""
    heads = bytearray()
    for path in paths:
        heads += hashlib.sha256(path).digest()[:8]
    return np.frombuffer(heads, dtype=">u8") >> np.uint64(1)


def derive_seed(seed: int, *labels) -> int:
    """Labeled sub-seed: hash of the master seed and a label path, read as
    :func:`_seed_values` reads it."""
    path = "/".join([str(int(seed)), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(path.encode()).digest()[:8], "big") >> 1


def derive_seeds(seeds, labels) -> np.ndarray:
    """``derive_seed(s, label)`` for every one of ``seeds`` (rows) and of ``labels``
    (columns); the label ``"classical/7"`` gives ``derive_seed(s, "classical", 7)``."""
    labels = [str(label).encode() for label in labels]
    values = _seed_values(b"%d/%b" % (seed, label) for seed in seeds for label in labels)
    return values.reshape(len(seeds), len(labels))


def oracle_images(n: int, seeds) -> np.ndarray:
    """The whole table of ``RandomOracleTable(n, s)`` for every one of
    ``seeds``, one row of 2^n images each, from one sha256 per image."""
    inputs = [b"%d" % x for x in range(1 << n)]
    prefixes = [b"%d/img/" % seed for seed in seeds]
    values = _seed_values(prefix + x for prefix in prefixes for x in inputs)
    values &= np.uint64((1 << n) - 1)
    return values.reshape(len(prefixes), 1 << n)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _pcg64_seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every uint64 seed
    ``s``, one row each, by numpy's hashmix/mix algorithm on uint32 arrays.

    A seed below 2^64 is the entropy words [low, high] (numpy drops a zero
    high word, and pads the 4-word pool by hashing zeros, which reads the
    same), so every seed runs the same fixed sequence of hash constants.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(low), hashmix(high), hashmix(zero), hashmix(zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    state = np.empty((len(seeds), 8), dtype=np.uint32)
    const = _INIT_B
    for k in range(8):
        value = pool[k % 4] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        state[:, k] = value ^ (value >> np.uint32(16))
    # generate_state pairs the uint32 words little-endian into uint64 words.
    return state[:, 0::2].astype(np.uint64) | (state[:, 1::2].astype(np.uint64) << np.uint64(32))


# numpy's 128-bit PCG64 multiplier (PCG_DEFAULT_MULTIPLIER_128), high and low words.
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _mul_hi(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of every 128-bit product ``a * b`` (``b < 2^64``),
    from four 32 x 32-bit products."""
    low32 = np.uint64(_MASK32)
    a0, a1 = a & low32, a >> np.uint64(32)
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & low32) + (p10 & low32)
    return a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def pcg64_words(seeds, count: int) -> np.ndarray:
    """``np.random.default_rng(s).bit_generator.random_raw(count)`` for every
    one of ``seeds``, one row each.

    The loop runs over the shorter axis.  With no more words than seeds, the
    128-bit LCG steps on (high, low) uint64 limb arrays, one vectorised step
    per word, seeded as numpy's ``pcg_setseq_128_srandom`` seeds it from the
    :func:`_pcg64_seed_words` (w0, w1, w2, w3): the increment is
    (w2:w3) << 1 | 1, the state 0, then one step, plus (w0:w1), then one more
    step; each word is a step, then the XSL-RR output of the state.  With
    more words than seeds, each row is numpy's own ``PCG64.random_raw``.
    """
    words = _pcg64_seed_words(np.asarray(seeds, dtype=np.uint64))
    out = np.empty((len(words), count), dtype=np.uint64)
    if count > len(words):
        from numpy.random import PCG64

        seed_words = _seed_words_type()
        for k, row in enumerate(words):
            out[k] = PCG64(seed_words(row)).random_raw(count)
        return out
    one = np.uint64(1)
    inc_hi = (words[:, 2] << one) | (words[:, 3] >> np.uint64(63))
    inc_lo = (words[:, 3] << one) | one

    def step(hi, lo):
        new_lo = lo * np.uint64(_PCG_MULT_LO) + inc_lo
        carry = (new_lo < inc_lo).astype(np.uint64)
        hi = _mul_hi(lo, _PCG_MULT_LO) + hi * np.uint64(_PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI)
        return hi + inc_hi + carry, new_lo

    lo = inc_lo + words[:, 1]  # the state after the first step is the increment
    hi, lo = step(inc_hi + words[:, 0] + (lo < inc_lo).astype(np.uint64), lo)
    for j in range(count):
        hi, lo = step(hi, lo)
        mixed, rotation = hi ^ lo, hi >> np.uint64(58)
        out[:, j] = (mixed >> rotation) | (mixed << ((np.uint64(64) - rotation) & np.uint64(63)))
    return out


def pcg64_integers(seeds, size: int, bits: int) -> np.ndarray:
    """``default_rng(s).integers(0, 2**bits, size=size)`` for every one of
    ``seeds`` (1 <= bits <= 63), one row each, from :func:`pcg64_words`.

    Lemire's bounded draw never rejects on a power-of-two range: a draw of
    at most 32 bits is the top of a 32-bit half word, the low half of a
    word first and then its high half; a wider draw is the top of a word.
    """
    if not 1 <= bits <= 63:
        raise ValueError(f"integer draws take 1 to 63 bits, not {bits}")
    if bits > 32:
        return pcg64_words(seeds, size) >> np.uint64(64 - bits)
    words = pcg64_words(seeds, -(-size // 2))
    halves = np.stack([words & np.uint64(_MASK32), words >> np.uint64(32)], axis=2)
    return halves.reshape(len(words), -1)[:, :size] >> np.uint64(32 - bits)


def pcg64_random(seeds, size: int) -> np.ndarray:
    """``default_rng(s).random(size)`` for every one of ``seeds``, one row
    each: the top 53 bits of a word, times 2^-53."""
    return (pcg64_words(seeds, size) >> np.uint64(11)) * 2.0 ** -53


@functools.cache
def _seed_words_type() -> type:
    """The seed-sequence type of :func:`default_rngs` and of the long rows of
    :func:`pcg64_words`, made on first use: importing numpy.random is
    start-up time that a command drawing nothing need not pay."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """A seed sequence whose PCG64 state words were computed in advance."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
                raise ValueError("precomputed seed words serve PCG64 seeding only")
            return self.words

    return SeedWords


def default_rngs(seeds) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(s)`` for each of ``seeds``, bit for bit.

    The seed hashing that ``default_rng`` does one seed at a time runs here
    once for all seeds; each generator is then built from its precomputed
    state words when the iterator reaches it.  Seeds must lie in [0, 2^64).
    """
    seeds = list(seeds)
    if any(not 0 <= s < 1 << 64 for s in seeds):
        raise ValueError("generator seeds must lie in [0, 2^64)")
    words = _pcg64_seed_words(np.array(seeds, dtype=np.uint64))
    seed_words = _seed_words_type()
    return (np.random.Generator(np.random.PCG64(seed_words(row))) for row in words)


class RandomOracleTable:
    """Lazily sampled uniformly random function on n-bit strings, 1 <= n <= 63.

    Each image is derived from (seed, input), never from a shared stream, so
    the function is independent of query order: keygen, signing, and
    verification interrogating the same seed always see the same oracle.

    The memo table makes instances single-owner objects; share across threads
    only behind external serialization, or give each worker its own table
    (identical seeds reproduce identical functions).
    """

    def __init__(self, n: int, seed: int | None = None):
        if n < 1:
            raise ValueError("oracle width must be at least one bit")
        if n > 63:
            raise ValueError(f"oracle images are 63-bit sub-seeds, so n is capped at 63, got n={n}")
        self.n = n
        self.seed = 0 if seed is None else int(seed)
        self._table: dict[int, int] = {}

    def _image(self, x: int) -> int:
        return derive_seed(self.seed, "img", x) & ((1 << self.n) - 1)

    def query(self, x: int) -> int:
        if not 0 <= x < (1 << self.n):
            raise ValueError(
                f"input {x} is outside the {self.n}-bit value range [0, {1 << self.n})"
            )
        y = self._table.get(x)
        if y is None:
            y = self._table[x] = self._image(x)
        return y

    __call__ = query

    def full_table(self) -> tuple[int, ...]:
        """The whole domain's images, filling the memo in one pass; only
        sensible at small n."""
        if self.n > MAX_TABLE_BITS:
            raise ValueError(f"full table requested for n > {MAX_TABLE_BITS}")
        images = oracle_images(self.n, [self.seed])[0].tolist()
        self._table.update(enumerate(images))
        return tuple(images)


@dataclass(frozen=True)
class ChainTuple:
    """l hash chains of length w over n-bit strings; gamma[i][j] is entry j of chain i."""

    n: int
    l: int
    w: int
    gamma: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.gamma) != self.l or any(len(row) != self.w for row in self.gamma):
            raise ValueError("chain array shape does not match (l, w)")
        top = 1 << self.n
        if any(not 0 <= v < top for row in self.gamma for v in row):
            raise ValueError("chain entry out of n-bit range")


class ReprogrammedOracle:
    """Base oracle with a hash-chain overlay: a query XORs the successors of
    every chain entry equal to the input, and falls back to the base oracle
    when none matches."""

    def __init__(self, base: Oracle, chains: ChainTuple):
        self.base = base
        self.chains = chains
        self.overrides: tuple[tuple[int, int], ...] = tuple(
            (row[j], row[j + 1]) for row in chains.gamma for j in range(chains.w - 1)
        )

    def query(self, x: int) -> int:
        acc = 0
        hit = False
        for inp, out in self.overrides:
            if inp == x:
                acc ^= out
                hit = True
        return acc if hit else self.base(x)

    __call__ = query


# ---------------------------------------------------------------------------
# Exact distributions


def _check_enum_size(n: int, l: int, w: int) -> None:
    if min(n, l, w) < 1:
        raise ValueError(f"chain shape needs n, l, w >= 1; got n={n} l={l} w={w}")
    if w < 2:
        raise ValueError(f"chains need at least two positions, one hash step; got w={w}")
    if n * l * w > MAX_ENUM_BITS:
        raise ValueError(f"enumeration guard: n*l*w = {n * l * w} exceeds {MAX_ENUM_BITS}")


def _tuple_blocks(
    n: int, width: int, starts: Iterable[int] | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """The ``width`` n-bit entries (entry k = i*w + j of a chain tuple) of
    every block of ``ENUM_BLOCK_TUPLES`` tuples in product order, or of the
    blocks beginning at ``starts``: one (start, entries) pair per block, one
    row per tuple."""
    size = 1 << (n * width)
    shifts = n * np.arange(width - 1, -1, -1, dtype=np.int64)
    for start in range(0, size, ENUM_BLOCK_TUPLES) if starts is None else starts:
        index = np.arange(start, min(start + ENUM_BLOCK_TUPLES, size), dtype=np.int64)
        entries = index[:, None] >> shifts
        entries &= (1 << n) - 1
        yield start, entries


def enumerate_chain_distributions(n: int, l: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact (p, q): iterated-oracle chain distribution and the uniform product.

    Both are dense arrays over all 2^{nlw} flat (chain-major) tuples in
    ``itertools.product(range(2**n), repeat=l*w)`` order.  p is the closed form
    of the module docstring, exact because every value is a power of two,
    filled one block of tuples at a time.
    """
    _check_enum_size(n, l, w)
    p = np.empty(1 << (n * l * w))
    for start, entries in _tuple_blocks(n, l * w):
        entries = entries.reshape(-1, l, w)
        # One (input, successor) pair per extension step, sorted by input so
        # equal inputs sit next to each other.
        steps = ((entries[:, :, :-1] << n) | entries[:, :, 1:]).reshape(len(entries), -1)
        steps.sort(axis=1)
        same_input = (steps[:, 1:] >> n) == (steps[:, :-1] >> n)
        consistent = ~(same_input & (steps[:, 1:] != steps[:, :-1])).any(axis=1)
        distinct_inputs = steps.shape[1] - same_input.sum(axis=1)
        p[start:start + len(entries)] = np.where(
            consistent, np.ldexp(1.0, -n * (l + distinct_inputs)), 0.0
        )
    q = np.full(len(p), np.ldexp(1.0, -n * l * w))
    return p, q


@dataclass(frozen=True)
class WorldsReport:
    n: int
    l: int
    w: int
    tv: float
    p_collision: float
    q_collision: float
    conditional_equal: bool


def tv_and_collision_stats(p: np.ndarray, q: np.ndarray, n: int, l: int, w: int) -> WorldsReport:
    """l1 distance and collision-set masses of (p, q).

    Also checks the exact structural facts: p and q agree entry-by-entry on
    collision-free tuples, and put equal total mass on the collision set.
    ``p`` and ``q`` are dense arrays as returned by
    :func:`enumerate_chain_distributions`.
    """
    _check_enum_size(n, l, w)
    size = 1 << (n * l * w)
    if p.shape != (size,) or q.shape != (size,):
        raise ValueError(f"distributions must be dense arrays of {size} tuples")
    if np.any((p != 0.0) & (q == 0.0)):
        raise ValueError("support mismatch: p has tuples outside q's support")
    collision = np.empty(size, dtype=bool)
    for start, entries in _tuple_blocks(n, l * w):
        entries.sort(axis=1)
        collision[start:start + len(entries)] = (entries[:, 1:] == entries[:, :-1]).any(axis=1)
    p_coll = float(p[collision].sum())
    q_coll = float(q[collision].sum())
    conditional_equal = not np.any((p != q) & ~collision)
    gap = p - q
    tv = float(np.abs(gap, out=gap).sum())
    return WorldsReport(n, l, w, tv, p_coll, q_coll, conditional_equal)


def dump_distribution_csv(dist: np.ndarray, n: int, path: str | Path) -> None:
    """Fixture dump: one (tuple-hex, probability) row per support point, in
    tuple order; ``dist`` is a dense array as returned by
    :func:`enumerate_chain_distributions`."""
    digits = np.array([format(v, f"0{(n + 3) // 4}x") for v in range(1 << n)])
    blocks = range(0, len(dist), ENUM_BLOCK_TUPLES)
    written = (start for start in blocks if dist[start:start + ENUM_BLOCK_TUPLES].any())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tuple_hex", "probability"])
        for start, entries in _tuple_blocks(n, (len(dist).bit_length() - 1) // n, written):
            block = dist[start:start + len(entries)]
            support = np.flatnonzero(block)
            hexkeys = map("".join, digits[entries[support]].tolist())
            writer.writerows(zip(hexkeys, map(repr, block[support].tolist())))
