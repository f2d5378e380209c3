"""Workload definitions and output checks for the qromlab benchmark.

A workload is a list of ``qromlab`` command lines built from a seed.  The
client issues them one after another through ``qromlab.cli.main`` (a closed
loop with one client), captures each report, and checks it here.  Checks
never trust the program's own verdict alone: they recompute what they can
(pass flags, paper inequalities, statistical agreement) and compare against
reference outputs stored for each workload's default seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DEFAULT_SEEDS = {"sweep": 6, "qgame": 7, "classical": 10}

# Slack the lemma reports themselves use for a pass verdict.
PASS_SLACK = 1e-8
# Paper inequality slack and the threshold below which an outcome never fires.
PINCHING_SLACK = 1e-9
FORCED_OUTCOME_ZERO = 1e-10
# Agreement with stored game probabilities.
P_WIN_TOLERANCE = 1e-9
# Attack agreement |empirical - exact| <= k sigma: 3 sigma at the reference
# seed, as in the acceptance suite; 4 sigma at other seeds, where the same
# check runs on many seeds and a 3-sigma test would fail a correct program by
# chance about once in 370 attacks.
SIGMA_AT_REFERENCE = 3.0
SIGMA_ELSEWHERE = 4.0

# (scheme, n, a, w): the four worlds that fit 19-21 qubits with queries.
QGAME_WORLDS = (
    ("lamport", 2, 2, None),
    ("lamport", 1, 4, None),
    ("winternitz", 2, 1, 3),
    ("winternitz", 1, 2, 3),
)
ATTACKS = (("classical", 3, 4), ("classical", 4, 16), ("grover", 4, None))
ATTACK_TRIALS = 10_000
# (n, l, w) at the enumeration guard n*l*w = 16.
WORLDS = ((8, 1, 2), (4, 2, 2), (4, 1, 4), (2, 4, 2))


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The workload's command lines for one pass at ``seed``."""
    if workload == "sweep":
        return [["lemmas", "--sweep", "--seed", str(seed)]]
    if workload == "qgame":
        out = []
        for scheme, n, a, w in QGAME_WORLDS:
            for q in (1, 0):
                argv = ["qgame", "--scheme", scheme, "--n", str(n), "--a", str(a)]
                if w is not None:
                    argv += ["--w", str(w)]
                argv += ["--mode", "modified", "--q0", str(q), "--q1", str(q), "--seed", str(seed)]
                out.append(argv)
        return out
    if workload == "classical":
        out = []
        for kind, n, q in ATTACKS:
            argv = ["attack", "--kind", kind, "--n", str(n), "--l", "1"]
            if q is not None:
                argv += ["--q", str(q)]
            out.append(argv + ["--trials", str(ATTACK_TRIALS), "--seed", str(seed)])
        for n, l, w in WORLDS:
            out.append(["worlds", "--n", str(n), "--l", str(l), "--w", str(w)])
        return out
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    """One issued command line and what came back."""

    argv: list[str]
    code: int | None
    stdout: str
    stderr: str = ""
    error: str = ""
    problems: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.error) or bool(self.problems)


def _opt(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def reference_key(argv: list[str]) -> str:
    return " ".join(argv)


def parse_lemma_csv(text: str) -> tuple[str, list[dict]]:
    header, _, body = text.partition("\n")
    rows = list(csv.DictReader(io.StringIO(header + "\n" + body)))
    return header, rows


def check_lemma_rows(header: str, rows: list[dict], ref: dict | None) -> list[str]:
    """Every row passes, its pass flag agrees with measured <= bound + slack,
    and at a reference seed the rows match the stored ones."""
    problems = []
    if ref is not None and header != ref["header"]:
        problems.append(f"header {header!r} differs from the reference")
    if not rows:
        problems.append("no report rows")
    for k, row in enumerate(rows):
        try:
            measured, bound = float(row["measured"]), float(row["bound"])
        except (KeyError, TypeError, ValueError):
            problems.append(f"row {k}: unparsable {row!r}")
            continue
        verdict = row.get("pass")
        if verdict != "true":
            problems.append(f"row {k} {row.get('lemma')}: pass={verdict}")
        if (verdict == "true") != (measured <= bound + PASS_SLACK):
            problems.append(f"row {k} {row.get('lemma')}: pass flag disagrees with measured/bound")
    if ref is None:
        return problems
    want = ref["rows"]
    if len(rows) != len(want):
        problems.append(f"{len(rows)} rows, reference has {len(want)}")
        return problems
    for k, (got, exp) in enumerate(zip(rows, want)):
        got_key = [got[c] for c in ("lemma", "scheme", "n", "l", "w", "q0", "q1", "pass")]
        exp_key = [exp[c] for c in ("lemma", "scheme", "n", "l", "w", "q0", "q1", "pass")]
        if got_key != exp_key:
            problems.append(f"row {k}: key/verdict {got_key} != reference {exp_key}")
            continue
        for col in ("measured", "bound"):
            if abs(float(got[col]) - float(exp[col])) > PASS_SLACK:
                problems.append(f"row {k} {got['lemma']}: {col} {got[col]} != reference {exp[col]}")
    return problems


def _check_qgame(argv: list[str], text: str, ref: dict | None) -> list[str]:
    doc = json.loads(text)
    problems = []
    world = doc["world"]
    if world["scheme"] != _opt(argv, "--scheme") or world["n"] != int(_opt(argv, "--n")):
        problems.append(f"world {world['scheme']} n={world['n']} does not match the command")
    plain, modified = doc["p_win_plain"], doc["p_win_modified"]
    if not plain <= (world["l"] + 1) * modified + PINCHING_SLACK:
        problems.append(f"p_win_plain {plain} > (l+1) p_win_modified, l={world['l']}")
    if _opt(argv, "--q0") == "0" and _opt(argv, "--q1") == "0":
        if not doc["p_forced_outcome_blinded"] < FORCED_OUTCOME_ZERO:
            problems.append(f"forced outcome fired: {doc['p_forced_outcome_blinded']}")
    if ref is not None:
        for key in ("p_win_plain", "p_win_modified", "p_forced_outcome_blinded"):
            if abs(doc[key] - ref[key]) > P_WIN_TOLERANCE:
                problems.append(f"{key} {doc[key]!r} != reference {ref[key]!r}")
    return problems


def _check_attack(argv: list[str], text: str, ref: dict | None) -> list[str]:
    doc = json.loads(text)
    problems = []
    if doc["trials"] != int(_opt(argv, "--trials")):
        problems.append(f"ran {doc['trials']} trials")
    exact = doc["exact_reference"]
    sigma = max(math.sqrt(max(exact * (1 - exact), 1e-9) / doc["trials"]), doc["reference_sigma"])
    k = SIGMA_AT_REFERENCE if ref is not None else SIGMA_ELSEWHERE
    if abs(doc["empirical"] - exact) > k * sigma:
        problems.append(f"empirical {doc['empirical']} vs exact {exact}: beyond {k:g} sigma")
    if doc["wins"] != round(doc["empirical"] * doc["trials"]):
        problems.append("wins do not match the empirical rate")
    if ref is not None and doc["wins"] != ref["wins"]:
        problems.append(f"wins {doc['wins']} != reference {ref['wins']}")
    return problems


def check_outcome(outcome: Outcome, reference: dict | None) -> list[str]:
    """Problems with one outcome; empty when it is correct.  ``reference``
    maps command lines to stored outputs and is None away from the default seed."""
    if outcome.code is None or outcome.error:
        return []  # already a failure
    argv = outcome.argv
    ref = reference.get(reference_key(argv)) if reference is not None else None
    try:
        if argv[0] == "lemmas":
            header, rows = parse_lemma_csv(outcome.stdout)
            return check_lemma_rows(header, rows, ref)
        if argv[0] == "worlds":
            header, rows = parse_lemma_csv(outcome.stdout)
            problems = check_lemma_rows(header, rows, None)
            # Exact enumeration takes no seed: compare bytes at every seed.
            if ref is None:
                ref = load_reference("classical")["outputs"].get(reference_key(argv))
            if ref is None:
                problems.append("no stored reference for this command")
            elif outcome.stdout != ref["stdout"]:
                problems.append("report differs from the reference bytes")
            return problems
        if argv[0] == "qgame":
            return _check_qgame(argv, outcome.stdout, ref)
        if argv[0] == "attack":
            return _check_attack(argv, outcome.stdout, ref)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    return [f"no check for {argv[0]!r}"]


def reference_for(workload: str, seed: int) -> dict | None:
    """Stored outputs keyed by command line, when ``seed`` is the reference seed."""
    ref = load_reference(workload)
    return ref["outputs"] if ref["seed"] == seed else None
