"""Acceptance suite: every exit criterion, each printing one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  All exhaustive sweeps are over one representative
per isomorphism class from the built-in generator, whose own fidelity is
criterion 10.
"""

import time

import networkx as nx

from twosc.canon import canonical_masks
from twosc.core import Graph, has_triangle, triangles
from twosc.enumeration import (
    ALL_GRAPH_COUNTS,
    CONNECTED_GRAPH_COUNTS,
    connected_classes,
    graph_classes,
)
from twosc.gcb import (
    assemble,
    build_gcb,
    decompose_triangle_free,
    expected_edge_count,
    sample_gcb_spec,
    validate_gcb_spec,
)
from twosc.graphs import (
    minimal_with_triangle,
    minimal_with_triangle_misprint,
    petersen_graph,
    capped_k33,
    CAPPED_K33_LABELS,
)
from twosc.recognition import (
    check_bipartite_proposition,
    complement_star_certificate,
    condition_verdict,
    critical_triples,
    edge_maximal_by_definition,
    greedy_edge_maximal,
    greedy_edge_minimal,
    has_critical_triple,
    is_edge_minimal,
    metric_two_self_centered,
)
from twosc.reduction import classify_edge_minimal_with_triangles, replay_trace

from conftest import GENERATOR_DIGESTS, graph6_digest


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def connected_up_to(n_max):
    for n in range(1, n_max + 1):
        yield from connected_classes(n)


def two_sc_up_to(n_max):
    for g in connected_up_to(n_max):
        if condition_verdict(g).is_2sc:
            yield g


def test_criterion_1_recognizer_equivalence():
    start = time.perf_counter()
    examined = 0
    disagreements = 0
    for g in connected_up_to(7):
        examined += 1
        if condition_verdict(g).is_2sc != metric_two_self_centered(g):
            disagreements += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: recognizer equals radius=diameter=2 on all connected graphs, n <= 7",
        disagreements == 0 and examined == sum(CONNECTED_GRAPH_COUNTS[:7]) and elapsed < 60.0,
        f"{examined} graphs, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_2_edge_maximal_characterization():
    examined = 0
    disagreements = 0
    for g in two_sc_up_to(7):
        examined += 1
        if complement_star_certificate(g).maximal != edge_maximal_by_definition(g):
            disagreements += 1
    report(
        "criterion 2: complement-star characterization equals definitional edge-maximality",
        disagreements == 0 and examined > 0,
        f"{examined} graphs, {disagreements} disagreements",
    )


def test_criterion_3_bipartite_proposition():
    examined = 0
    failures = 0
    for g in connected_up_to(7):
        examined += 1
        if not check_bipartite_proposition(g):
            failures += 1
    report(
        "criterion 3: minimal-with-disconnected-complement iff complete bipartite",
        failures == 0,
        f"{examined} graphs, {failures} failures",
    )


def test_criterion_4_triangle_free_lemma_both_directions():
    forward_bad = 0
    converse_bad = 0
    examined = 0
    for g in two_sc_up_to(7):
        examined += 1
        minimal = is_edge_minimal(g).minimal
        if not has_triangle(g) and not minimal:
            forward_bad += 1
        if minimal and not has_critical_triple(g) and has_triangle(g):
            converse_bad += 1
    report(
        "criterion 4: triangle-free implies minimal; minimal without critical triples is triangle-free",
        forward_bad == 0 and converse_bad == 0,
        f"{examined} graphs, forward {forward_bad}, converse {converse_bad}",
    )


def test_criterion_5_gcb_soundness_thousand_samples():
    budgets = (8, 10, 12, 14)
    bad = 0
    for seed in range(1000):
        spec = sample_gcb_spec(budgets[seed % len(budgets)], seed)
        g = build_gcb(spec)
        if has_triangle(g) or not condition_verdict(g).is_2sc:
            bad += 1
        elif g.edge_count != expected_edge_count(spec):
            bad += 1
    report(
        "criterion 5: 1000 sampled specs build triangle-free 2-self-centered graphs, exact edge count",
        bad == 0,
        f"{bad} exceptions",
    )


def test_criterion_6_gcb_completeness():
    targets = [g for n in range(1, 9) for g in connected_classes(n)
               if condition_verdict(g).is_2sc and not has_triangle(g)]
    targets.append(petersen_graph())
    failures = 0
    for g in targets:
        spec, roles = decompose_triangle_free(g)
        ok = (
            assemble(spec) == g.relabel(roles.order)
            and validate_gcb_spec(spec).passed
        )
        if not ok:
            failures += 1
    report(
        "criterion 6: every triangle-free 2-self-centered graph (n <= 8, plus Petersen) rebuilds labeled-equal",
        failures == 0 and len(targets) > 1,
        f"{len(targets)} graphs, {failures} failures",
    )


def test_criterion_7_triangle_classification():
    examined = 0
    disagreements = 0
    trace_violations = 0
    for g in two_sc_up_to(7):
        if not has_triangle(g):
            continue
        examined += 1
        cls = classify_edge_minimal_with_triangles(g)
        if cls.minimal != is_edge_minimal(g).minimal:
            disagreements += 1
        if cls.minimal and not (cls.trace.succeeded and replay_trace(g, cls.trace)):
            trace_violations += 1
    report(
        "criterion 7: triangle classification equals definitional minimality; each minimal graph's trace replays",
        disagreements == 0 and trace_violations == 0 and examined > 0,
        f"{examined} graphs, {disagreements} disagreements, {trace_violations} trace violations",
    )


def test_criterion_8_sandwich_existence():
    examined = 0
    failures = 0
    for g in two_sc_up_to(7):
        examined += 1
        sub = greedy_edge_minimal(g)
        sup = greedy_edge_maximal(g)
        ok = (
            all(not (sub.adj[v] & ~g.adj[v]) for v in range(g.n))
            and all(not (g.adj[v] & ~sup.adj[v]) for v in range(g.n))
            and condition_verdict(sub).is_2sc
            and condition_verdict(sup).is_2sc
            and is_edge_minimal(sub).minimal
            and edge_maximal_by_definition(sup)
        )
        if not ok:
            failures += 1
    report(
        "criterion 8: greedy edge-minimal subgraph and edge-maximal supergraph exist for every 2sc graph",
        failures == 0,
        f"{examined} graphs, {failures} failures",
    )


def test_criterion_9_fixtures():
    capped = capped_k33()
    x, y, z = CAPPED_K33_LABELS["x"], CAPPED_K33_LABELS["y"], CAPPED_K33_LABELS["z"]
    capped_ok = (
        not has_triangle(capped)
        and condition_verdict(capped).is_2sc
        and is_edge_minimal(capped).minimal
        and any((t.x, t.u, t.v) == (x, min(y, z), max(y, z)) for t in critical_triples(capped))
    )

    misprint = condition_verdict(minimal_with_triangle_misprint())
    misprint_rejected = not misprint.is_2sc and misprint.violating_vertex == 0

    fixed = minimal_with_triangle()
    fixed_ok = (
        condition_verdict(fixed).is_2sc
        and is_edge_minimal(fixed).minimal
        and any((t.x, t.u, t.v) == (6, 4, 7) for t in critical_triples(fixed))
        and (3, 6, 7) in triangles(fixed)
    )

    # the shipped correction must be found by the single-edge repair search
    base = [(0, 1), (2, 3), (1, 2), (1, 4), (1, 5), (3, 6), (3, 7), (4, 6), (5, 7), (6, 7)]
    present = {tuple(sorted(e)) for e in base}
    found = []
    for u in range(8):
        for v in range(u + 1, 8):
            if (u, v) in present:
                continue
            candidate = Graph.from_edges(8, base + [(u, v)])
            if not condition_verdict(candidate).is_2sc:
                continue
            if not is_edge_minimal(candidate).minimal:
                continue
            crits = {(t.x, t.u, t.v) for t in critical_triples(candidate)}
            if (6, 4, 7) in crits and (3, 6, 7) in triangles(candidate):
                found.append((u, v))
    correction_ok = (0, 3) in found and fixed == Graph.from_edges(8, base + [(0, 3)])

    report(
        "criterion 9: fixtures verify; misprinted edge list rejected; correction oracle-validated",
        capped_ok and misprint_rejected and fixed_ok and correction_ok,
        f"single-edge corrections found: {found}",
    )


def test_criterion_10_generator_fidelity():
    counts_ok = all(
        len(connected_classes(n)) == CONNECTED_GRAPH_COUNTS[n - 1] for n in range(1, 9)
    ) and all(len(graph_classes(n)) == ALL_GRAPH_COUNTS[n - 1] for n in range(1, 9))

    # record-for-record against an externally produced catalog (the
    # published atlas shipped with networkx, which covers n <= 7)
    atlas = nx.graph_atlas_g()
    external: dict[int, set] = {n: set() for n in range(1, 8)}
    for h in atlas:
        n = h.number_of_nodes()
        if not 1 <= n <= 7 or not nx.is_connected(h):
            continue
        relabeled = nx.convert_node_labels_to_integers(h, ordering="sorted")
        g = Graph.from_edges(n, list(relabeled.edges()))
        external[n].add(canonical_masks(g.adj))
    records_ok = all(
        external[n] == {g.adj for g in connected_classes(n)} for n in range(1, 8)
    )
    # n <= 7 is pinned in test_enumeration; n = 8 is built here anyway
    bytes_ok = (
        graph6_digest(graph_classes(8)),
        graph6_digest(connected_classes(8)),
    ) == GENERATOR_DIGESTS[8]
    report(
        "criterion 10: generator counts match the published sequence; records match the external catalog; n=8 output matches its pinned digest",
        counts_ok and records_ok and bytes_ok,
        f"n=8 connected count {len(connected_classes(8))}",
    )
