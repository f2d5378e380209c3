"""Lamport and Winternitz (hash-chain) one-time signatures.

All strings are unsigned integers with an explicit bit width: messages carry
``a`` (or ``l``) bits, key and signature entries carry ``n`` bits.  The hash
is any callable ``int -> int`` on n-bit values, typically a
:class:`qromlab.rom.RandomOracleTable`.

Lamport secret keys are flat tuples of ``2l`` entries in index order
``(i ascending, j ascending)``, i.e. ``sk[2*i + j]`` is the string signing
bit value ``j`` of message position ``i``.  Winternitz keys hold one chain
start per block; the chain key of the plain-hash instantiation is trivial and
is not serialized.
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

    def __post_init__(self):
        if self.n < 1 or self.l < 1:
            raise ValueError("Lamport parameters need n >= 1 and l >= 1")

    @property
    def message_bits(self) -> int:
        return self.l


@dataclass(frozen=True)
class WotsParams:
    n: int
    a: int
    w: int
    l1: int
    l2: int
    l: int

    @property
    def message_bits(self) -> int:
        return self.a


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
        raise ValueError(f"message {m} is not an {params.a}-bit value")
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


@dataclass(frozen=True)
class KeyPair:
    scheme: str
    params: object
    sk: tuple[int, ...]
    pk: tuple[int, ...]


@dataclass(frozen=True)
class Signature:
    n: int
    sigma: tuple[int, ...]


def _random_string(n: int, rng: np.random.Generator) -> int:
    return int(rng.integers(0, 1 << n))


# ---------------------------------------------------------------------------
# Lamport


def lamport_keygen(params: LamportParams, oracle: Oracle, rng: np.random.Generator) -> KeyPair:
    sk = tuple(_random_string(params.n, rng) for _ in range(2 * params.l))
    pk = tuple(oracle(s) for s in sk)
    return KeyPair(scheme="lamport", params=params, sk=sk, pk=pk)


def lamport_sign(params: LamportParams, sk: Sequence[int], m: int) -> Signature:
    if not 0 <= m < (1 << params.l):
        raise ValueError(f"message {m} is not an {params.l}-bit value")
    bits = [(m >> (params.l - 1 - i)) & 1 for i in range(params.l)]
    return Signature(n=params.n, sigma=tuple(sk[2 * i + bits[i]] for i in range(params.l)))


def lamport_verify(
    params: LamportParams, pk: Sequence[int], m: int, sigma: Sequence[int], oracle: Oracle
) -> bool:
    """True iff h(sigma_i) equals the public string selected by each message bit.

    Any length or range mismatch rejects rather than raising: a malformed
    signature is data, not a caller error.
    """
    if not 0 <= m < (1 << params.l):
        return False
    if len(sigma) != params.l or len(pk) != 2 * params.l:
        return False
    if any(not 0 <= s < (1 << params.n) for s in sigma):
        return False
    for i in range(params.l):
        bit = (m >> (params.l - 1 - i)) & 1
        if oracle(sigma[i]) != pk[2 * i + bit]:
            return False
    return True


# ---------------------------------------------------------------------------
# Winternitz


def chain_eval(x: int, i: int, j: int, oracle: Oracle) -> int:
    """Walk the hash chain from position i to position j: h^(j-i) applied to x."""
    if i < 0 or i > j:
        raise ValueError(f"invalid chain interval [{i}, {j}]")
    for _ in range(j - i):
        x = oracle(x)
    return x


def wots_keygen(params: WotsParams, oracle: Oracle, rng: np.random.Generator) -> KeyPair:
    sk = tuple(_random_string(params.n, rng) for _ in range(params.l))
    pk = tuple(chain_eval(s, 0, params.w - 1, oracle) for s in sk)
    return KeyPair(scheme="winternitz", params=params, sk=sk, pk=pk)


def wots_sign(params: WotsParams, sk: Sequence[int], m: int, oracle: Oracle) -> Signature:
    b = digit_vector(m, params)
    return Signature(
        n=params.n, sigma=tuple(chain_eval(sk[i], 0, b[i], oracle) for i in range(params.l))
    )


def wots_verify(
    params: WotsParams, pk: Sequence[int], m: int, sigma: Sequence[int], oracle: Oracle
) -> bool:
    """True iff walking each signature block to the chain end hits the public key."""
    if not 0 <= m < (1 << params.a):
        return False
    if len(sigma) != params.l or len(pk) != params.l:
        return False
    if any(not 0 <= s < (1 << params.n) for s in sigma):
        return False
    b = digit_vector(m, params)
    for i in range(params.l):
        if chain_eval(sigma[i], b[i], params.w - 1, oracle) != pk[i]:
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization: hex, lowercase, fixed width, index order


def _hex_width(n: int) -> int:
    return (n + 3) // 4


def _to_hex(value: int, n: int) -> str:
    return format(value, f"0{_hex_width(n)}x")


def keypair_to_json(kp: KeyPair) -> str:
    p = kp.params
    if kp.scheme == "lamport":
        a, w = p.l, 2
    else:
        a, w = p.a, p.w
    doc = {
        "scheme": kp.scheme,
        "n": p.n,
        "a": a,
        "w": w,
        "sk": [_to_hex(s, p.n) for s in kp.sk],
        "pk": [_to_hex(s, p.n) for s in kp.pk],
    }
    return json.dumps(doc, indent=2) + "\n"


def keypair_from_json(text: str) -> KeyPair:
    doc = json.loads(text)
    scheme, n = doc["scheme"], doc["n"]
    if scheme == "lamport":
        params: object = LamportParams(n=n, l=doc["a"])
    elif scheme == "winternitz":
        params = derive_wots_params(doc["a"], doc["w"], n)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    sk = tuple(int(s, 16) for s in doc["sk"])
    pk = tuple(int(s, 16) for s in doc["pk"])
    return KeyPair(scheme=scheme, params=params, sk=sk, pk=pk)


def signature_to_json(scheme: str, params, sig: Signature) -> str:
    if scheme == "lamport":
        a, w = params.l, 2
    else:
        a, w = params.a, params.w
    doc = {
        "scheme": scheme,
        "n": params.n,
        "a": a,
        "w": w,
        "sigma": [_to_hex(s, params.n) for s in sig.sigma],
    }
    return json.dumps(doc, indent=2) + "\n"


def signature_from_json(text: str) -> Signature:
    doc = json.loads(text)
    return Signature(n=doc["n"], sigma=tuple(int(s, 16) for s in doc["sigma"]))


def load_keypair(path: str | Path) -> KeyPair:
    return keypair_from_json(Path(path).read_text())
