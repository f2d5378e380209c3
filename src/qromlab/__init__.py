"""qromlab: desk-scale verification lab for blind unforgeability of
hash-based one-time signatures against quantum-access adversaries.

Subpackages:

* :mod:`qromlab.ots` — Lamport and Winternitz signing, verification, encoding
* :mod:`qromlab.rom` — random oracle tables, chain reprogramming, exact chain
  distributions
* :mod:`qromlab.qsim` — matrix-free statevector engine over named registers
* :mod:`qromlab.qworlds` — superposition hash-chain worlds and their operators
* :mod:`qromlab.game` — the blind-forgery experiment, classical and quantum
* :mod:`qromlab.lemmas` — the paper's bounds and numerical checks of them
* :mod:`qromlab.attacks` — preimage-search tightness attacks
* :mod:`qromlab.cli` — batch front-end
"""

from . import attacks, cli, game, lemmas, ots, qsim, qworlds, rom

__all__ = ["attacks", "cli", "game", "lemmas", "ots", "qsim", "qworlds", "rom"]
__version__ = "0.1.0"
