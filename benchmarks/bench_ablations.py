"""Ablations on the design choices DESIGN.md calls out.

* implicit vs explicit initialization (Section IV-C);
* witness-search hop limits (Section VIII-A);
* CH priority function terms (Section VIII-A);
* GPU warp ordering: level vs degree (Section VI).

The CH ablations contract with :func:`repro.ch.contract_graph_lazy`,
the paper's one-vertex-at-a-time contractor, whose neighbour-update
policy is one of the ablated choices.
"""

from __future__ import annotations

import numpy as np

from common import fmt, load_instance, print_table, time_ms
from repro.ch import CHParams, contract_graph_lazy
from repro.core import GphastEngine, PhastEngine
from repro.graph import europe_like


def ablation_init(quiet: bool = False):
    """Implicit initialization removes the per-query O(n) fill."""
    inst = load_instance()
    implicit = inst.engine(explicit_init=False)
    explicit = inst.engine(explicit_init=True)
    t_imp = time_ms(lambda: implicit.tree(0), 10)
    t_exp = time_ms(lambda: explicit.tree(0), 10)
    rows = [
        ["implicit (visit marks)", fmt(t_imp, 3)],
        ["explicit (fill with inf)", fmt(t_exp, 3)],
        ["saving", f"{(t_exp - t_imp) / t_exp * 100:.0f}%"],
    ]
    if not quiet:
        print_table(
            "Ablation: initialization (paper: ~10 ms of 172 ms saved)",
            ["variant", "ms/tree"],
            rows,
        )
        # At benchmark scale the fill stays in cache and costs nothing;
        # the paper-scale cost is a pure streaming write of n labels.
        from repro.simulator import CostModel, machine
        from common import EUROPE_COUNTS

        fill_ms = CostModel(machine("M1-4"))._stream_ms(
            EUROPE_COUNTS.n * 4
        )
        print(
            f"modeled fill cost at paper scale: {fill_ms:.1f} ms "
            "(paper: ~10 ms) — negligible at benchmark scale where the "
            "label array stays cache-resident"
        )
    return t_imp, t_exp


def ablation_witness(quiet: bool = False, scale: int = 24):
    """Hop limits trade preprocessing time against shortcut count."""
    g = europe_like(scale=scale)
    rows = []
    results = {}
    for label, schedule in [
        ("1 hop", ((None, 1),)),
        ("5 hops", ((None, 5),)),
        ("paper schedule", CHParams().hop_schedule),
        ("unlimited", ((None, None),)),
    ]:
        params = CHParams(hop_schedule=schedule)
        ch = contract_graph_lazy(g, params)
        stats = ch.preprocessing_stats
        results[label] = ch
        rows.append(
            [
                label,
                fmt(stats["seconds"], 2),
                ch.num_shortcuts,
                ch.num_levels,
                fmt(time_ms(lambda: PhastEngine(ch).tree(0), 5), 3),
            ]
        )
    if not quiet:
        print_table(
            f"Ablation: witness hop limits (n={g.n})",
            ["limit", "CH build s", "shortcuts", "levels", "PHAST ms"],
            rows,
        )
    return results


def ablation_lazy_updates(quiet: bool = False, scale: int = 32):
    """Eager neighbour updates (paper) vs pure lazy re-checks."""
    g = europe_like(scale=scale)
    rows = []
    for label, neighbor_updates in [
        ("eager (paper)", True),
        ("pure lazy", False),
    ]:
        ch = contract_graph_lazy(g, neighbor_updates=neighbor_updates)
        stats = ch.preprocessing_stats
        eng = PhastEngine(ch)
        rows.append(
            [
                label,
                fmt(stats["seconds"], 2),
                stats["priority_evaluations"],
                ch.num_shortcuts,
                fmt(time_ms(lambda: eng.tree(0), 5), 3),
            ]
        )
    if not quiet:
        print_table(
            f"Ablation: priority update policy (n={g.n})",
            ["policy", "CH build s", "priority evals", "shortcuts", "PHAST ms"],
            rows,
        )
    return rows


def ablation_priority(quiet: bool = False, scale: int = 24):
    """The paper's priority terms vs pure edge difference."""
    g = europe_like(scale=scale)
    rows = []
    for label, params in [
        ("paper: 2ED+CN+H+5L", CHParams()),
        ("pure edge difference", CHParams(cn_weight=0, h_weight=0, level_weight=0)),
        ("no level term", CHParams(level_weight=0)),
        ("heavy level term", CHParams(level_weight=20)),
    ]:
        ch = contract_graph_lazy(g, params)
        eng = PhastEngine(ch)
        rows.append(
            [
                label,
                ch.num_shortcuts,
                ch.num_levels,
                fmt(time_ms(lambda: eng.tree(0), 5), 3),
            ]
        )
    if not quiet:
        print_table(
            f"Ablation: CH priority function (n={g.n}; the paper notes "
            "any good function works)",
            ["priority", "shortcuts", "levels", "PHAST ms"],
            rows,
        )
    return rows


def ablation_gpu_order(quiet: bool = False):
    """Section VI: degree-ordered warps hurt the label gather.

    The functional SIMT simulator executes both schedules against the
    real sweep structure, so the transaction counts are measured (from
    lane addresses), not assumed.
    """
    from repro.simulator import GpuFunctionalSim

    inst = load_instance()
    sim = GpuFunctionalSim(inst.engine().sweep)
    rows = []
    for k in (1, 16, 32):
        level = sim.run(k)
        degree = sim.run(k, vertex_order="degree")
        rows.append(
            [
                k,
                f"{level.total_transactions:,}",
                f"{degree.total_transactions:,}",
                fmt(degree.total_transactions / level.total_transactions, 2),
                f"{level.mean_divergence_waste:.0%}",
            ]
        )
    if not quiet:
        print_table(
            "Ablation: GPU vertex order (functional SIMT sim, 32B "
            "transactions per sweep)",
            ["k", "level-order tx", "degree-order tx", "penalty", "divergence"],
            rows,
        )
        print(
            "paper: degree ordering 'has a strong negative effect on the "
            "locality of the distance labels' — rejected; k=32 removes "
            "divergence entirely (all lanes of a warp share a vertex)"
        )
    return rows


def run(quiet: bool = False):
    ablation_init(quiet)
    ablation_witness(quiet)
    ablation_lazy_updates(quiet)
    ablation_priority(quiet)
    ablation_gpu_order(quiet)


def test_lazy_updates_correct_and_cheaper():
    from repro.sssp import dijkstra

    g = europe_like(scale=16)
    eager = contract_graph_lazy(g)
    lazy = contract_graph_lazy(g, neighbor_updates=False)
    assert (
        lazy.preprocessing_stats["priority_evaluations"]
        < eager.preprocessing_stats["priority_evaluations"]
    )
    ref = dijkstra(g, 0, with_parents=False).dist
    assert np.array_equal(PhastEngine(lazy).tree(0).dist, ref)


# -- pytest shape checks -----------------------------------------------------


def test_implicit_init_not_slower(europe):
    implicit = europe.engine(explicit_init=False)
    explicit = europe.engine(explicit_init=True)
    t_imp = time_ms(lambda: implicit.tree(0), 10)
    t_exp = time_ms(lambda: explicit.tree(0), 10)
    assert t_imp <= t_exp * 1.15


def test_tighter_hop_limits_add_shortcuts():
    g = europe_like(scale=16)
    strict = contract_graph_lazy(g, CHParams(hop_schedule=((None, 1),)))
    loose = contract_graph_lazy(g, CHParams(hop_schedule=((None, None),)))
    assert strict.num_shortcuts >= loose.num_shortcuts
    # Per-search work shrinks with the limit (total time may not: the
    # extra shortcuts densify later contractions).
    assert strict.preprocessing_stats["witness_searches"] > 0


def test_degree_order_penalty_positive(europe):
    engine = GphastEngine(europe.ch)
    for k in (1, 16):
        level = engine.model.sweep_cost(
            engine._level_verts, engine._level_arcs, k
        ).per_tree_ms
        degree = engine.degree_ordered_report(k).per_tree_ms
        assert degree > level


def test_any_priority_function_correct():
    from repro.sssp import dijkstra

    g = europe_like(scale=12)
    ref = dijkstra(g, 0, with_parents=False).dist
    for params in (
        CHParams(cn_weight=0, h_weight=0, level_weight=0),
        CHParams(level_weight=20),
    ):
        ch = contract_graph_lazy(g, params)
        assert np.array_equal(PhastEngine(ch).tree(0).dist, ref)


if __name__ == "__main__":
    run()
