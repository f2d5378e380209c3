"""Lamport and Winternitz one-time signatures as one hash-chain scheme.

All strings are unsigned integers with an explicit bit width: messages carry
``a`` (or ``l``) bits, key and signature entries carry ``n`` bits.  The hash
is any callable ``int -> int`` on n-bit values, typically a
:class:`qromlab.rom.RandomOracleTable`.

A key is ``params.chains`` hash chains of length ``params.w``: Lamport has 2l
chains of length 2 (chain ``2*i + j`` signs bit value ``j`` at position
``i``), Winternitz one chain per message and checksum digit.  :func:`revealed`
is the one rule that tells the schemes apart; keygen, sign, verify and the
file format are written once over chains.  The chain key of the plain-hash
Winternitz instantiation is trivial and is not serialized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

Oracle = Callable[[int], int]
DigitVector = tuple[int, ...]


@dataclass(frozen=True)
class LamportParams:
    n: int
    l: int
    scheme = "lamport"
    w = 2

    def __post_init__(self):
        if self.n < 1 or self.l < 1:
            raise ValueError("Lamport parameters need n >= 1 and l >= 1")

    @property
    def message_bits(self) -> int:
        return self.l

    @property
    def chains(self) -> int:
        return 2 * self.l


@dataclass(frozen=True)
class WotsParams:
    n: int
    a: int
    w: int
    l1: int
    l2: int
    l: int
    scheme = "winternitz"

    @property
    def message_bits(self) -> int:
        return self.a

    @property
    def chains(self) -> int:
        return self.l


def derive_wots_params(a: int, w: int, n: int, require_power_of_two: bool = True) -> WotsParams:
    """Compute the block counts l1, l2, l from the message length and w.

    ``w`` must be a power of two unless ``require_power_of_two`` is False;
    base-w digit groups of a binary message are only contiguous bit groups in
    that case.  The relaxed form is used by the lab worlds, not by the scheme.
    """
    if a < 1:
        raise ValueError("message length a must be positive")
    if n < 1:
        raise ValueError("security parameter n must be positive")
    if w < 2:
        raise ValueError("Winternitz parameter w must be at least 2")
    if require_power_of_two and (w & (w - 1)) != 0:
        raise ValueError(f"w={w} is not a power of two")
    logw = math.log2(w)
    l1 = math.ceil(a / logw)
    l2 = math.floor(math.log2(l1 * (w - 1)) / logw) + 1
    return WotsParams(n=n, a=a, w=w, l1=l1, l2=l2, l=l1 + l2)


def int_to_base_w(value: int, w: int, length: int) -> DigitVector:
    """Big-endian base-w digits of ``value``, zero-padded to ``length``."""
    if value < 0 or value >= w ** length:
        raise ValueError(f"value {value} does not fit in {length} base-{w} digits")
    digits = []
    for _ in range(length):
        digits.append(value % w)
        value //= w
    return tuple(reversed(digits))


def base_w_digits(m: int, params: WotsParams) -> DigitVector:
    """First l1 digits: the base-w representation of the a-bit message."""
    if not 0 <= m < (1 << params.a):
        raise ValueError(f"message {m} is not in the {params.a}-bit message space")
    return int_to_base_w(m, params.w, params.l1)


def checksum(digits: Sequence[int], params: WotsParams) -> int:
    return sum(params.w - 1 - b for b in digits)


def append_checksum(digits: Sequence[int], params: WotsParams) -> DigitVector:
    """Append the checksum, rendered as l2 big-endian base-w digits."""
    digits = tuple(digits)
    if len(digits) != params.l1:
        raise ValueError(f"expected {params.l1} message digits, got {len(digits)}")
    if any(not 0 <= b < params.w for b in digits):
        raise ValueError("digit out of base-w range")
    c = checksum(digits, params)
    return digits + int_to_base_w(c, params.w, params.l2)


def digit_vector(m: int, params: WotsParams) -> DigitVector:
    """Full length-l digit vector of a message: digits plus checksum digits."""
    return append_checksum(base_w_digits(m, params), params)


def scheme_params(scheme: str, n: int, a: int, w: int):
    """Parameters of ``scheme`` for a-bit messages on n-bit strings; only
    Winternitz reads ``w``."""
    if scheme == "lamport":
        return LamportParams(n=n, l=a)
    if scheme == "winternitz":
        return derive_wots_params(a, w, n)
    raise ValueError(f"unknown scheme {scheme!r}")


def revealed(params, m: int) -> tuple[tuple[int, int], ...]:
    """The chain position (c, j) that signing ``m`` reveals, one per
    signature block in order: (2i + bit_i, 0) for Lamport, (i, b_i) for
    Winternitz digit b_i.  Raises ValueError outside the message space."""
    if not 0 <= m < (1 << params.message_bits):
        raise ValueError(f"message {m} is not in the {params.message_bits}-bit message space")
    if params.scheme == "lamport":
        l = params.l
        return tuple((2 * i + ((m >> (l - 1 - i)) & 1), 0) for i in range(l))
    return tuple(enumerate(digit_vector(m, params)))


@dataclass(frozen=True)
class KeyPair:
    params: object
    sk: tuple[int, ...]
    pk: tuple[int, ...]

    @property
    def scheme(self) -> str:
        return self.params.scheme


@dataclass(frozen=True)
class Signature:
    n: int
    sigma: tuple[int, ...]


def chain_eval(x: int, i: int, j: int, oracle: Oracle) -> int:
    """Walk the hash chain from position i to position j: h^(j-i) applied to x."""
    if i < 0 or i > j:
        raise ValueError(f"invalid chain interval [{i}, {j}]")
    for _ in range(j - i):
        x = oracle(x)
    return x


def _chain_keygen(params, oracle: Oracle, sk: Sequence[int]) -> KeyPair:
    pk = tuple(chain_eval(s, 0, params.w - 1, oracle) for s in sk)
    return KeyPair(params=params, sk=tuple(sk), pk=pk)


def _chain_verify(params, pk: Sequence[int], m: int, sigma: Sequence[int], oracle: Oracle) -> bool:
    """True iff walking each signature block from its revealed position to
    the chain end hits the public key.

    Any length or range mismatch rejects rather than raising: a malformed
    signature is data, not a caller error.
    """
    if not 0 <= m < (1 << params.message_bits):
        return False
    if len(sigma) != params.l or len(pk) != params.chains:
        return False
    if any(not 0 <= s < (1 << params.n) for s in sigma):
        return False
    return all(
        chain_eval(s, j, params.w - 1, oracle) == pk[c]
        for s, (c, j) in zip(sigma, revealed(params, m))
    )


# The benchmark's trace counts keygen and verify calls through these four
# names; each runs the shared chain code.
def lamport_keygen(params, oracle, sk):
    return _chain_keygen(params, oracle, sk)


def wots_keygen(params, oracle, sk):
    return _chain_keygen(params, oracle, sk)


def lamport_verify(params, pk, m, sigma, oracle):
    return _chain_verify(params, pk, m, sigma, oracle)


def wots_verify(params, pk, m, sigma, oracle):
    return _chain_verify(params, pk, m, sigma, oracle)


def keypair(params, oracle: Oracle, sk: Sequence[int]) -> KeyPair:
    """The key pair whose secret chain starts are ``sk``: each start walked to
    the chain end is its public-key string."""
    return (lamport_keygen if params.scheme == "lamport" else wots_keygen)(params, oracle, sk)


def keygen(params, oracle: Oracle, rng: np.random.Generator) -> KeyPair:
    """One uniform n-bit start per chain, drawn in one call, then
    :func:`keypair`."""
    return keypair(params, oracle, rng.integers(0, 1 << params.n, size=params.chains).tolist())


def sign(params, sk: Sequence[int], m: int, oracle: Oracle) -> Signature:
    """Each block is the secret chain start walked to its revealed position."""
    return Signature(
        n=params.n, sigma=tuple(chain_eval(sk[c], 0, j, oracle) for c, j in revealed(params, m))
    )


def verify(params, pk: Sequence[int], m: int, sigma: Sequence[int], oracle: Oracle) -> bool:
    """True iff ``sigma`` is a valid signature of ``m`` under ``pk``."""
    verifier = lamport_verify if params.scheme == "lamport" else wots_verify
    return verifier(params, pk, m, sigma, oracle)


# ---------------------------------------------------------------------------
# Serialization: hex, lowercase, fixed width, index order


def _to_json(params, **strings: Sequence[int]) -> str:
    """The scheme header of ``params``, then each list of n-bit strings in hex."""
    doc = {"scheme": params.scheme, "n": params.n, "a": params.message_bits, "w": params.w}
    width = (params.n + 3) // 4
    doc.update((key, [format(s, f"0{width}x") for s in values]) for key, values in strings.items())
    return json.dumps(doc, indent=2) + "\n"


def keypair_to_json(kp: KeyPair) -> str:
    return _to_json(kp.params, sk=kp.sk, pk=kp.pk)


def keypair_from_json(text: str) -> KeyPair:
    doc = json.loads(text)
    params = scheme_params(doc["scheme"], doc["n"], doc["a"], doc["w"])
    sk = tuple(int(s, 16) for s in doc["sk"])
    pk = tuple(int(s, 16) for s in doc["pk"])
    for name, strings in (("sk", sk), ("pk", pk)):
        if len(strings) != params.chains or any(s >> params.n for s in strings):
            raise ValueError(f"key {name} needs {params.chains} strings of at most {params.n} bits")
    return KeyPair(params=params, sk=sk, pk=pk)


def signature_to_json(params, sig: Signature) -> str:
    return _to_json(params, sigma=sig.sigma)


def signature_from_json(text: str) -> Signature:
    doc = json.loads(text)
    return Signature(n=doc["n"], sigma=tuple(int(s, 16) for s in doc["sigma"]))


def load_keypair(path: str | Path) -> KeyPair:
    return keypair_from_json(Path(path).read_text())
