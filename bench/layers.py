"""Which ``qromlab`` functions the traced run wraps, and the per-layer
metrics computed from the spans.

Span names are ``<module>.<function>``; applies of built operators are
``<module>.<operator>.apply``.  Group keys collect several span names into one
metric (``qworlds.build`` for every world and operator builder, ``ots.keygen``
for both schemes' keygen).
"""

from __future__ import annotations

from tracer import Patcher, Tracer, wrap_map

CHECKS = (
    "check_equality_uniform_overlap",
    "check_uniform_register_commutator",
    "check_invariant_commutator",
    "check_orthogonality",
    "check_state_drift",
    "check_pinching",
    "check_world_closeness",
    "check_oracle_reprogramming_consistency",
)

# Leaf functions called so often that their spans are summed per parent.
HOT = ("rom.derive_seed", "rom.oracle.query", "ots.lamport_keygen", "ots.wots_keygen",
       "ots.lamport_verify", "ots.wots_verify", "game.run_with_world_classical",
       "attacks.grover_state")

OPERATORS = ("U_h", "P", "qtilde", "bsign", "q_projector")


def install(tracer: Tracer) -> Patcher:
    """Wrap the public entry points of every layer.  Call ``restore()`` on the
    returned patcher to take the wrappers out again."""
    from qromlab import attacks, cli, game, lemmas, ots, qsim, qworlds, rom

    p = Patcher(tracer)
    c = tracer.counters

    def maps(keys, terms=False):
        def after(result, args):
            for m in result if isinstance(result, list) else [result]:
                wrap_map(tracer, m, keys, getattr(m, "term_count", 0) if terms else 0)
        return after

    def reports_seen(csv_text, args):
        reports = args[0]
        c["lemmas.reports"] += len(reports)
        c["lemmas.failed"] += sum(1 for r in reports if not r.passed)

    def norm_done(est, args):
        c["qsim.operator_norm.iterations"] += est.iterations
        c["qsim.operator_norm.unconverged"] += 0 if est.converged else 1

    def enumerated(pq, args):
        c["rom.enumerate.support"] += len(pq[0])

    def trials_done(report, args):
        c["attacks.trials"] += report.trials

    p.function(cli, "main", ("cli.main",))

    p.function(lemmas, "reports_to_csv", ("lemmas.reports_to_csv",), after=reports_seen)
    p.function(lemmas, "run_sweep", ("lemmas.run_sweep",))
    for name in CHECKS:
        p.function(lemmas, name, (f"lemmas.{name}",))

    p.function(qsim, "operator_norm", ("qsim.operator_norm",), after=norm_done)
    for name in ("probe_max_ratio", "unitarity_defect", "projector_defect"):
        p.function(qsim, name, (f"qsim.{name}", "qsim.probe"))
    p.function(qsim, "embed", ("qsim.embed",), after=maps(("qsim.embed.apply",)))
    p.function(qsim, "uniform_projector_map", ("qsim.uniform_projector_map",),
               after=maps(("qsim.uniform_projector.apply",)))

    build = "qworlds.build"
    for name in ("lamport_world", "winternitz_world", "chain_world"):
        p.function(qworlds, name, (f"qworlds.{name}", build))
    for name, op, terms in (
        ("build_query_unitary", "U_h", False),
        ("build_blinded_sign_unitary", "bsign", False),
        ("invariant_projector_from_thresholds", "P", True),
        ("build_invariant_projector", "P", True),
        ("build_q_projectors", "q_projector", False),
        ("build_qtilde", "qtilde", False),
    ):
        p.function(qworlds, name, (f"qworlds.{name}", build),
                   after=maps((f"qworlds.{op}.apply",), terms))
    p.function(qworlds, "query_unitary_as_function", ("qworlds.query_unitary_as_function",))

    for name in ("run_quantum_game", "analyze_game", "evolve_program", "probability_tensor",
                 "acceptance_table", "random_program", "run_with_world_classical"):
        p.function(game, name, (f"game.{name}",))

    p.function(rom, "derive_seed", ("rom.derive_seed",))
    query = rom.RandomOracleTable.query

    def traced_query(oracle, x):
        c["rom.oracle.queries"] += 1
        if x in oracle._table:
            c["rom.oracle.memo_hits"] += 1
        return tracer.call(("rom.oracle.query",), query, oracle, x)

    p.set(rom.RandomOracleTable, "query", traced_query)
    p.set(rom.RandomOracleTable, "__call__", traced_query)
    p.function(rom, "enumerate_chain_distributions", ("rom.enumerate",), after=enumerated)
    p.function(rom, "tv_and_collision_stats", ("rom.tv_stats",))

    for name in ("lamport_keygen", "wots_keygen"):
        p.function(ots, name, (f"ots.{name}", "ots.keygen"))
    for name in ("lamport_verify", "wots_verify"):
        p.function(ots, name, (f"ots.{name}", "ots.verify"))

    for name in ("classical_search_attack", "grover_attack"):
        p.function(attacks, name, (f"attacks.{name}",), after=trials_done)
    p.function(attacks, "grover_state", ("attacks.grover_state",))
    return p


# (name, unit) of every per-layer metric, in report order.
METRICS: tuple[tuple[str, str], ...] = (
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("lemmas.reports", "count"),
    ("lemmas.failed", "count"),
    ("lemmas.self_s", "s"),
    *((f"lemmas.{name}.s", "s") for name in CHECKS),
    ("qsim.operator_norm.calls", "count"),
    ("qsim.operator_norm.self_s", "s"),
    ("qsim.operator_norm.iterations", "count"),
    ("qsim.operator_norm.unconverged", "count"),
    ("qsim.embed.applies", "count"),
    ("qsim.embed.apply_s", "s"),
    ("qsim.uniform_projector.applies", "count"),
    ("qsim.uniform_projector.apply_s", "s"),
    ("qsim.probe.calls", "count"),
    ("qsim.probe.s", "s"),
    ("qsim.bytes_computed", "B"),
    ("qsim.self_s", "s"),
    ("qworlds.build_s", "s"),
    *(m for op in OPERATORS for m in ((f"qworlds.{op}.applies", "count"),
                                      (f"qworlds.{op}.apply_s", "s"))),
    ("qworlds.P.terms", "count"),
    ("qworlds.query_unitary_as_function.s", "s"),
    ("qworlds.self_s", "s"),
    ("game.evolve_program.calls", "count"),
    ("game.evolve_program.self_s", "s"),
    ("game.acceptance_table.s", "s"),
    ("game.probability_tensor.calls", "count"),
    ("game.probability_tensor.s", "s"),
    ("game.analyze_game.self_s", "s"),
    ("game.random_program.s", "s"),
    ("game.run_with_world_classical.calls", "count"),
    ("game.run_with_world_classical.s", "s"),
    ("game.self_s", "s"),
    ("rom.derive_seed.calls", "count"),
    ("rom.derive_seed.s", "s"),
    ("rom.oracle.queries", "count"),
    ("rom.oracle.memo_hit_ratio", "ratio"),
    ("rom.enumerate.s", "s"),
    ("rom.enumerate.support", "count"),
    ("rom.tv_stats.s", "s"),
    ("rom.self_s", "s"),
    ("ots.keygen.calls", "count"),
    ("ots.keygen.s", "s"),
    ("ots.verify.calls", "count"),
    ("ots.verify.s", "s"),
    ("attacks.trials", "count"),
    ("attacks.self_s", "s"),
    ("attacks.grover_state.calls", "count"),
    ("attacks.grover_state.s", "s"),
    ("bench.client.self_s", "s"),
    ("process.cpu_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

# Metrics that must repeat exactly across two traced runs at one seed.
COUNT_METRICS = tuple(name for name, unit in METRICS if unit in ("count", "B"))


def per_layer(tracer: Tracer, traced_wall: float, untraced_wall: float, cpu_s: float) -> dict:
    """Every metric in METRICS as a number."""
    st, c = tracer.stats, tracer.counters

    def module_self(prefix):
        return sum(v for k, v in tracer.self_by_name.items() if k.startswith(prefix + "."))

    out = {
        "cli.main.calls": st["cli.main"].calls,
        "cli.main.self_s": st["cli.main"].self_s,
        "lemmas.reports": c["lemmas.reports"],
        "lemmas.failed": c["lemmas.failed"],
        "qsim.operator_norm.calls": st["qsim.operator_norm"].calls,
        "qsim.operator_norm.self_s": st["qsim.operator_norm"].self_s,
        "qsim.operator_norm.iterations": c["qsim.operator_norm.iterations"],
        "qsim.operator_norm.unconverged": c["qsim.operator_norm.unconverged"],
        "qsim.embed.applies": st["qsim.embed.apply"].calls,
        "qsim.embed.apply_s": st["qsim.embed.apply"].outer_s,
        "qsim.uniform_projector.applies": st["qsim.uniform_projector.apply"].calls,
        "qsim.uniform_projector.apply_s": st["qsim.uniform_projector.apply"].outer_s,
        "qsim.probe.calls": st["qsim.probe"].calls,
        "qsim.probe.s": st["qsim.probe"].outer_s,
        "qsim.bytes_computed": c["qsim.bytes_computed"],
        "qworlds.build_s": st["qworlds.build"].outer_s,
        "qworlds.P.terms": c["qworlds.P.terms"],
        "qworlds.query_unitary_as_function.s": st["qworlds.query_unitary_as_function"].outer_s,
        "game.evolve_program.calls": st["game.evolve_program"].calls,
        "game.evolve_program.self_s": st["game.evolve_program"].self_s,
        "game.acceptance_table.s": st["game.acceptance_table"].outer_s,
        "game.probability_tensor.calls": st["game.probability_tensor"].calls,
        "game.probability_tensor.s": st["game.probability_tensor"].outer_s,
        "game.analyze_game.self_s": st["game.analyze_game"].self_s,
        "game.random_program.s": st["game.random_program"].outer_s,
        "game.run_with_world_classical.calls": st["game.run_with_world_classical"].calls,
        "game.run_with_world_classical.s": st["game.run_with_world_classical"].outer_s,
        "rom.derive_seed.calls": st["rom.derive_seed"].calls,
        "rom.derive_seed.s": st["rom.derive_seed"].outer_s,
        "rom.oracle.queries": c["rom.oracle.queries"],
        "rom.oracle.memo_hit_ratio": c["rom.oracle.memo_hits"] / max(c["rom.oracle.queries"], 1),
        "rom.enumerate.s": st["rom.enumerate"].outer_s,
        "rom.enumerate.support": c["rom.enumerate.support"],
        "rom.tv_stats.s": st["rom.tv_stats"].outer_s,
        "ots.keygen.calls": st["ots.keygen"].calls,
        "ots.keygen.s": st["ots.keygen"].outer_s,
        "ots.verify.calls": st["ots.verify"].calls,
        "ots.verify.s": st["ots.verify"].outer_s,
        "attacks.trials": c["attacks.trials"],
        "attacks.grover_state.calls": st["attacks.grover_state"].calls,
        "attacks.grover_state.s": st["attacks.grover_state"].outer_s,
        "bench.client.self_s": st["bench.pass"].self_s,
        "process.cpu_s": cpu_s,
        "trace.spans": tracer.span_count(),
        "trace.wall_s": traced_wall,
        "trace.self_sum_ratio": sum(tracer.self_by_name.values()) / traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    for name in CHECKS:
        out[f"lemmas.{name}.s"] = st[f"lemmas.{name}"].outer_s
    for op in OPERATORS:
        out[f"qworlds.{op}.applies"] = st[f"qworlds.{op}.apply"].calls
        out[f"qworlds.{op}.apply_s"] = st[f"qworlds.{op}.apply"].outer_s
    for mod in ("lemmas", "qsim", "qworlds", "game", "rom", "attacks"):
        out[f"{mod}.self_s"] = module_self(mod)
    missing = {name for name, _ in METRICS} ^ set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with METRICS: {sorted(missing)}")
    for name in COUNT_METRICS:
        out[name] = int(out[name])
    return out
