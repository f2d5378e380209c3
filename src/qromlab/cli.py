"""Batch front-end.

Subcommands: keygen, sign, verify, game, qgame, lemmas, worlds, attack,
bounds.  All randomness flows from one --seed (default: the QROMLAB_SEED
environment variable, then 0); sub-seeds are derived by labeled hashing, so
the same invocation writes byte-identical reports.

Exit codes: 0 all checks pass, 1 usage error, 2 any lemma or bound failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import attacks, game, lemmas, ots, qworlds, rom


def _seed_text() -> str:
    return os.environ.get("QROMLAB_SEED", "0")


def _default_seed() -> int:
    text = _seed_text()
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"QROMLAB_SEED must be an integer, got {text!r}") from None


def _count(text: str) -> int:
    """argparse type: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _iterations(text: str) -> int:
    """argparse type: -1 (the schedule default) or a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -2
    if value < -1:
        raise argparse.ArgumentTypeError(f"expected -1 or a nonnegative integer, got {text!r}")
    return value


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _key_oracle(n: int, seed: int) -> rom.RandomOracleTable:
    # The lazily sampled function used at keygen is reproducible from the seed;
    # signing and verification must consult the same one.
    return rom.RandomOracleTable(n, seed=rom.derive_seed(seed, "keygen-oracle"))


def _cmd_keygen(args) -> int:
    params = ots.scheme_params(args.scheme, args.n, args.a, args.w)
    rng = np.random.default_rng(rom.derive_seed(args.seed, "keygen"))
    kp = ots.keygen(params, _key_oracle(args.n, args.seed), rng)
    _write(args.out, ots.keypair_to_json(kp))
    return 0


def _cmd_sign(args) -> int:
    kp = ots.load_keypair(args.key)
    m = int(args.message, 0)
    sig = ots.sign(kp.params, kp.sk, m, _key_oracle(kp.params.n, args.seed))
    _write(args.out, ots.signature_to_json(kp.params, sig))
    return 0


def _cmd_verify(args) -> int:
    kp = ots.load_keypair(args.key)
    sig = ots.signature_from_json(Path(args.sig).read_text())
    m = int(args.message, 0)
    ok = ots.verify(kp.params, kp.pk, m, sig.sigma, _key_oracle(kp.params.n, args.seed))
    # The verification outcome is data, not an error.
    print("acc" if ok else "rej")
    return 0


def _replay_adversary(handles: game.ClassicalHandles):
    answer = handles.sign_query(0)
    if answer.blinded:
        return None
    return 0, answer.payload


def _random_forger(seed: int):
    def adversary(handles: game.ClassicalHandles):
        rng = np.random.default_rng(rom.derive_seed(seed, "forger"))
        n, l = handles.params.n, handles.params.l
        bits = handles.params.message_bits
        m = int(rng.integers(0, 1 << bits))
        sigma = tuple(int(rng.integers(0, 1 << n)) for _ in range(l))
        return m, sigma

    return adversary


def _cmd_game(args) -> int:
    params = ots.scheme_params(args.scheme, args.n, args.a, args.w)
    adversary = _replay_adversary if args.adversary == "replay" else _random_forger(args.seed)
    transcript = game.run_classical_game(adversary, params, args.epsilon, args.seed)
    _write(args.out, transcript.to_json())
    return 0


def _cmd_qgame(args) -> int:
    blinding = game.sample_blinding_set(
        args.epsilon, args.a, np.random.default_rng(rom.derive_seed(args.seed, "blinding"))
    )
    if args.scheme == "lamport":
        world = qworlds.lamport_world(args.n, args.a, blinding=blinding, seed=args.seed)
    else:
        world = qworlds.winternitz_world(args.n, args.a, args.w, blinding=blinding, seed=args.seed)
    program = game.random_program(world, args.q0, args.q1, seed=args.seed)
    transcript, analysis = game.run_quantum_game(program, world, mode=args.mode, seed=args.seed)
    doc = json.loads(transcript.to_json())
    doc["world"] = qworlds.world_descriptor(world)
    doc["p_win_plain"] = analysis.p_win_plain
    doc["p_win_modified"] = analysis.p_win_modified
    doc["p_forced_outcome_blinded"] = analysis.p_forced_outcome_blinded
    _write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_lemmas(args) -> int:
    if args.sweep:
        reports = lemmas.run_sweep(seed=args.seed)
    else:
        lemmas.refuse_worldless_point(args.scheme, args.n, args.l, args.w)
        reports = []
        reports += lemmas.check_equality_uniform_overlap(args.n)
        reports += lemmas.check_uniform_register_commutator(
            args.scheme, args.n, args.l, args.w, seed=args.seed
        )
        reports += lemmas.check_invariant_commutator(
            args.scheme, args.n, args.l, args.w, seed=args.seed
        )
        reports += lemmas.check_state_drift(
            args.scheme, args.n, args.l, args.w, args.q0, args.q1, program_seed=args.seed
        )
        reports += lemmas.check_oracle_reprogramming_consistency(
            args.scheme, args.n, args.l, args.w, seed=args.seed
        )
    _write(args.out, lemmas.reports_to_csv(reports))
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(f"FAIL {r.lemma} scheme={r.scheme} n={r.n} l={r.l} w={r.w}: "
              f"measured={r.measured!r} bound={r.bound!r} {r.note}".rstrip(), file=sys.stderr)
    return 2 if failed else 0


def _cmd_worlds(args) -> int:
    if args.dump_prefix:
        p, q = rom.enumerate_chain_distributions(args.n, args.l, args.w)
        reports = lemmas.check_world_closeness(args.n, args.l, args.w, (p, q))
        rom.dump_distribution_csv(p, args.n, args.dump_prefix + "_p.csv")
        rom.dump_distribution_csv(q, args.n, args.dump_prefix + "_q.csv")
    else:
        reports = lemmas.check_world_closeness(args.n, args.l, args.w)
    _write(args.out, lemmas.reports_to_csv(reports))
    return 0 if all(r.passed for r in reports) else 2


def _cmd_attack(args) -> int:
    if args.kind == "classical":
        report = attacks.classical_search_attack(args.n, args.l, args.q, args.trials, seed=args.seed)
    else:
        iterations = None if args.iterations == -1 else args.iterations
        report = attacks.grover_attack(args.n, args.l, iterations, args.trials, seed=args.seed)
    if args.format == "csv":
        _write(args.out, attacks.reports_to_csv([report]))
    else:
        doc = report.to_row()
        if args.kind == "grover" and args.sensitivity > 0:
            doc["schedule_sensitivity"] = attacks.grover_schedule_sensitivity(
                args.n, args.l, args.sensitivity, trials=min(args.trials, 300), seed=args.seed
            )
        _write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    sigma = max((report.wilson_high - report.wilson_low) / 2.0, 1e-12)
    return 0 if report.empirical <= report.bound_full + sigma else 2


def _cmd_bounds(args) -> int:
    doc = lemmas.security_bounds(args.scheme, args.q, args.n, args.l, args.w)
    _write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qromlab", description=__doc__)
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command")

    default_seed = _default_seed()

    def common(p, scheme=True):
        p.add_argument("--seed", type=int, default=default_seed)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if scheme:
            p.add_argument("--scheme", choices=("lamport", "winternitz"), default="lamport")

    p = sub.add_parser("keygen", help="generate a key pair")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True, help="message bits (l for Lamport)")
    p.add_argument("--w", type=int, default=4)
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("sign", help="sign a message with a key file")
    common(p, scheme=False)
    p.add_argument("--key", required=True)
    p.add_argument("--message", required=True, help="integer, e.g. 0b1011 or 13")
    p.set_defaults(func=_cmd_sign)

    p = sub.add_parser("verify", help="verify a signature file")
    common(p, scheme=False)
    p.add_argument("--key", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--sig", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("game", help="run one classical blind-forgery experiment")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--w", type=int, default=4)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--adversary", choices=("replay", "random-forger"), default="random-forger")
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("qgame", help="run one quantum blind-forgery experiment")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--w", type=int, default=2)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--q0", type=_count, default=0)
    p.add_argument("--q1", type=_count, default=0)
    p.add_argument("--mode", choices=("plain", "modified"), default="plain")
    p.set_defaults(func=_cmd_qgame)

    p = sub.add_parser("lemmas", help="run verification checks, write a CSV report")
    common(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--w", type=int, default=2)
    p.add_argument("--q0", type=_count, default=1)
    p.add_argument("--q1", type=_count, default=1)
    p.add_argument("--sweep", action="store_true", help="run the default grid")
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("worlds", help="exact chain-distribution comparison")
    common(p, scheme=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--dump-prefix", default=None, help="also dump p/q CSV fixtures")
    p.set_defaults(func=_cmd_worlds)

    p = sub.add_parser("attack", help="run a tightness attack")
    common(p, scheme=False)
    p.add_argument("--kind", choices=("classical", "grover"), default="classical")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--q", type=_count, default=1)
    p.add_argument("--iterations", type=_iterations, default=-1, help="-1 = schedule default")
    p.add_argument("--trials", type=_count, default=1000)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--sensitivity", type=_count, default=0,
                   help="grover only: also sweep success over 0..N iterations")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("bounds", help="print the closed-form success bounds")
    common(p)
    p.add_argument("--q", type=_count, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--w", type=int, default=None)
    p.set_defaults(func=_cmd_bounds)

    return parser


@functools.lru_cache(maxsize=4)
def _parser(seed_text: str) -> argparse.ArgumentParser:
    """The parser for a ``QROMLAB_SEED`` text, built once per text: parsing
    leaves a parser as it found it.  A text that is no integer raises, and
    nothing is cached for it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        parser = _parser(_seed_text())
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 1 if exc.code not in (0, None) else 0
        if args.func is None:
            parser.print_help()
            return 1
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
