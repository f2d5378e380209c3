"""The package holds only what its own code runs.

Every module-level function or class in ``src/qromlab`` must be referenced
by name somewhere in ``src/qromlab`` other than its own definition.  The
three random-vector probes are the exception: no CLI path runs them, and the
benchmark's trace wraps them by name.  Every method of a class there that is
not a dunder must be read as an attribute (``x.name``) somewhere in
``src/qromlab``, or aliased in its class body (as ``__call__ = query``
aliases ``query``); the one exception is a method numpy calls on the
seed sequence ``rom`` hands it.  Every attribute that ``src/qromlab``
assigns on ``self`` must be read as an attribute there too; the one
exception is the XOR map's ``delta``, which the structural test of the query
unitary's compile step reads.  Code that only the tests use belongs in
``tests/reference.py``.

Which of Lamport and Winternitz runs is decided in ``ots`` alone: no other
module names a per-scheme keygen or verifier or the Winternitz digit vector.
The paper's bound formulas live in ``lemmas`` alone: no other module defines
a module-level name containing ``bound``, but for the handler of the CLI's
``bounds`` command, which calls ``lemmas.security_bounds``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qromlab"
TRACED_PROBES = {"qsim.probe_max_ratio", "qsim.unitarity_defect", "qsim.projector_defect"}
# numpy's ISeedSequence interface, which numpy's PCG64 seeding calls
NUMPY_INTERFACE = {"rom.SeedWords.generate_state"}
# read by TestQueryUnitary::test_compiles_exactly_the_answer_table
STRUCTURAL = {"qworlds.Permutation.delta"}
SCHEME_PRIVATE = {"lamport_keygen", "wots_keygen", "lamport_verify", "wots_verify", "digit_vector"}
# the handler of the CLI's ``bounds`` command
BOUNDS_COMMAND = {"cli._cmd_bounds"}


def _definitions_and_references():
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_module_level_name_is_used_in_src():
    defined, referenced = _definitions_and_references()
    unused = sorted(q for q, name in defined.items() if name not in referenced)
    assert unused == sorted(TRACED_PROBES)


def test_every_method_is_read_in_src():
    methods: set[str] = set()
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not (item.name.startswith("__") and item.name.endswith("__")):
                            methods.add(f"{path.stem}.{node.name}.{item.name}")
                    elif isinstance(item, ast.Assign) and isinstance(item.value, ast.Name):
                        read.add(item.value.id)
    assert sorted(m for m in methods if m.rsplit(".", 1)[1] not in read) == sorted(NUMPY_INTERFACE)


def test_every_instance_attribute_is_read_in_src():
    assigned: set[str] = set()
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for item in ast.walk(node):
                    if (
                        isinstance(item, ast.Attribute)
                        and isinstance(item.ctx, ast.Store)
                        and isinstance(item.value, ast.Name)
                        and item.value.id == "self"
                    ):
                        assigned.add(f"{path.stem}.{node.name}.{item.attr}")
    assert sorted(a for a in assigned if a.rsplit(".", 1)[1] not in read) == sorted(STRUCTURAL)


def test_only_ots_names_the_per_scheme_code():
    named = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ots.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.alias):
                name = node.name
            else:
                name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in SCHEME_PRIVATE:
                named.add(f"{path.stem}: {name}")
    assert sorted(named) == []


def test_only_lemmas_defines_bounds():
    defined = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "lemmas.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined += [f"{path.stem}.{name}" for name in names if "bound" in name.lower()]
    assert defined == sorted(BOUNDS_COMMAND)
