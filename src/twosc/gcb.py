"""Generalized complete bipartite graphs: build, validate, decompose, sample.

A spec is a parameter pack (k, l, core graph X, covering witness).  The
built graph consists of fully joined sides K and L, connector vertices
y_i / z_j wired to their covering sets, cross edges y_i -- z_j exactly
for disjoint set pairs, and the core X itself.  Every valid spec builds
to a triangle-free 2-self-centered graph, and every triangle-free
2-self-centered graph arises this way; both directions are exercised by
the verification harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from .core import Graph, GraphError, bits, has_triangle
from .recognition import NotTwoSelfCenteredError
from .sbic import HasTriangleError, SbicReport, SbicWitness, WitnessError, construct_sbic, verify_sbic

PRINTED = "printed"
SYMMETRIC = "symmetric"
ZERO_L_READINGS = (PRINTED, SYMMETRIC)


class InvalidGcbSpecError(GraphError):
    """build_gcb was handed a spec that fails validation."""


class SampleBudgetError(GraphError):
    """The requested vertex budget cannot hold any valid spec."""


class SampleRetryError(GraphError):
    """Random search for a valid spec exhausted its retry limit."""


@dataclass(frozen=True)
class GcbSpec:
    """Parameters of a generalized complete bipartite construction.

    The core x may be the empty graph; in that case both families must be
    empty and k, l >= 2, which builds the plain complete bipartite graph.
    """

    k: int
    l: int
    x: Graph
    witness: SbicWitness

    @property
    def r(self) -> int:
        return self.witness.r

    @property
    def s(self) -> int:
        return self.witness.s

    @property
    def total_vertices(self) -> int:
        return self.k + self.l + self.r + self.s + self.x.n

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "k": self.k,
            "l": self.l,
            "x": {"n": self.x.n, "edges": [list(e) for e in self.x.edges()]},
        }
        doc.update(self.witness.to_json())
        return doc

    @staticmethod
    def from_json(doc: dict[str, Any]) -> GcbSpec:
        x = Graph.from_edges(int(doc["x"]["n"]), [tuple(e) for e in doc["x"]["edges"]])
        witness = SbicWitness.from_families(doc.get("a_family", []), doc.get("b_family", []))
        return GcbSpec(int(doc["k"]), int(doc["l"]), x, witness)


@dataclass(frozen=True)
class RuleVerdict:
    ok: bool
    applicable: bool
    counterexample: Any = None

    def to_json(self) -> dict[str, Any]:
        return {"ok": self.ok, "applicable": self.applicable, "counterexample": self.counterexample}


@dataclass(frozen=True)
class GcbValidation:
    """Verdicts for the covering witness and each special-case constraint."""

    sbic: SbicReport | None
    sbic_error: str | None
    zero_k: RuleVerdict
    zero_l: RuleVerdict
    empty_family_sides: RuleVerdict
    empty_core_iff_no_connectors: RuleVerdict
    singleton_core_needs_side: RuleVerdict

    @property
    def passed(self) -> bool:
        if self.sbic is None or not self.sbic.passed:
            return False
        return all(
            rule.ok
            for rule in (
                self.zero_k,
                self.zero_l,
                self.empty_family_sides,
                self.empty_core_iff_no_connectors,
                self.singleton_core_needs_side,
            )
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "sbic": self.sbic.to_json() if self.sbic else {"error": self.sbic_error},
            "zero_k": self.zero_k.to_json(),
            "zero_l": self.zero_l.to_json(),
            "empty_family_sides": self.empty_family_sides.to_json(),
            "empty_core_iff_no_connectors": self.empty_core_iff_no_connectors.to_json(),
            "singleton_core_needs_side": self.singleton_core_needs_side.to_json(),
        }


def _pairwise_family_condition(firsts: tuple[int, ...], seconds: tuple[int, ...]) -> tuple[int, int] | None:
    """First index pair of `firsts` that is disjoint yet shares no common
    disjoint partner in `seconds`; None when the condition holds."""
    for i in range(len(firsts)):
        for j in range(i, len(firsts)):
            if firsts[i] & firsts[j]:
                continue
            if any(not (firsts[i] & p) and not (firsts[j] & p) for p in seconds):
                continue
            return (i, j)
    return None


def _zero_side_rule(spec: GcbSpec, side: str, reading: str) -> RuleVerdict:
    """The k = 0 rule, and the l = 0 rule in either of its two readings.

    As printed, the l = 0 rule repeats the first-family condition of the
    k = 0 rule; the `symmetric` reading swaps the roles of the families.
    """
    a, b = spec.witness.a_masks, spec.witness.b_masks
    if side == "k":
        applicable = spec.k == 0
        own, others = a, b
        pair_first, pair_second = a, b
    else:
        applicable = spec.l == 0
        own, others = b, a
        if reading == PRINTED:
            pair_first, pair_second = a, b
        else:
            pair_first, pair_second = b, a
    if not applicable:
        return RuleVerdict(True, False)
    for i, m in enumerate(own):
        if not any(not (m & other) for other in others):
            return RuleVerdict(False, True, {"connector_without_cross_neighbor": i})
    bad = _pairwise_family_condition(pair_first, pair_second)
    if bad is not None:
        return RuleVerdict(False, True, {"uncoverable_connector_pair": list(bad)})
    return RuleVerdict(True, True)


def validate_gcb_spec(spec: GcbSpec, zero_l_reading: str = PRINTED) -> GcbValidation:
    """Check the covering witness and all special-case constraints.

    Never raises on a bad spec; every failure is a reported verdict.
    """
    if zero_l_reading not in ZERO_L_READINGS:
        raise ValueError(f"reading must be one of {ZERO_L_READINGS}")
    if spec.k < 0 or spec.l < 0:
        raise ValueError("side sizes must be non-negative")
    try:
        sbic_report: SbicReport | None = verify_sbic(spec.x, spec.witness)
        sbic_error = None
    except WitnessError as exc:
        sbic_report = None
        sbic_error = str(exc)

    zero_k = _zero_side_rule(spec, "k", zero_l_reading)
    zero_l = _zero_side_rule(spec, "l", zero_l_reading)

    r, s = spec.r, spec.s
    sides_ok = (r != 0 or spec.k != 0) and (s != 0 or spec.l != 0)
    empty_family_sides = RuleVerdict(
        sides_ok, r == 0 or s == 0,
        None if sides_ok else {"r": r, "s": s, "k": spec.k, "l": spec.l},
    )

    no_connectors = r == 0 and s == 0
    plain_bipartite = spec.x.n == 0 and spec.k >= 2 and spec.l >= 2
    empty_core_iff_no_connectors = RuleVerdict(
        no_connectors == plain_bipartite, True,
        None
        if no_connectors == plain_bipartite
        else {"no_connectors": no_connectors, "empty_core_with_big_sides": plain_bipartite},
    )

    singleton_ok = spec.x.n != 1 or spec.k >= 1 or spec.l >= 1
    singleton_core_needs_side = RuleVerdict(
        singleton_ok, spec.x.n == 1, None if singleton_ok else {"k": spec.k, "l": spec.l}
    )

    return GcbValidation(
        sbic_report,
        sbic_error,
        zero_k,
        zero_l,
        empty_family_sides,
        empty_core_iff_no_connectors,
        singleton_core_needs_side,
    )


def expected_edge_count(spec: GcbSpec) -> int:
    """Closed form for the edge count of the built graph."""
    a, b = spec.witness.a_masks, spec.witness.b_masks
    cross = sum(1 for m in a for p in b if not (m & p))
    return (
        spec.k * spec.l
        + spec.k * spec.r
        + spec.l * spec.s
        + spec.x.edge_count
        + sum(m.bit_count() for m in a)
        + sum(p.bit_count() for p in b)
        + cross
    )


def assemble(spec: GcbSpec) -> Graph:
    """Wire up the graph of a spec without validating it first.

    Vertex layout: K first, then L, then the y connectors, the z
    connectors, and finally the core X.
    """
    k, l, r, s = spec.k, spec.l, spec.r, spec.s
    x = spec.x
    off_l = k
    off_y = k + l
    off_z = k + l + r
    off_x = k + l + r + s
    edges: list[tuple[int, int]] = []
    for a in range(k):
        for t in range(l):
            edges.append((a, off_l + t))
        for i in range(r):
            edges.append((a, off_y + i))
    for b in range(l):
        for j in range(s):
            edges.append((off_l + b, off_z + j))
    for i, m in enumerate(spec.witness.a_masks):
        for t in bits(m):
            edges.append((off_y + i, off_x + t))
    for j, m in enumerate(spec.witness.b_masks):
        for t in bits(m):
            edges.append((off_z + j, off_x + t))
    for i, m in enumerate(spec.witness.a_masks):
        for j, p in enumerate(spec.witness.b_masks):
            if not (m & p):
                edges.append((off_y + i, off_z + j))
    for u, v in x.edges():
        edges.append((off_x + u, off_x + v))
    return Graph.from_edges(spec.total_vertices, edges)


def build_gcb(spec: GcbSpec, zero_l_reading: str = PRINTED) -> Graph:
    """Assemble the graph of a valid spec; see `assemble` for the layout.

    Raises InvalidGcbSpecError when validation fails.  That the built
    graph is triangle-free, 2-self-centered and has the closed-form edge
    count is checked by the tests on sampled specs, not on each call.
    """
    validation = validate_gcb_spec(spec, zero_l_reading)
    if not validation.passed:
        raise InvalidGcbSpecError(f"spec fails validation: {validation.to_json()}")
    return assemble(spec)


@dataclass(frozen=True)
class GcbRoles:
    """Which original vertex plays which role in a decomposition.

    ``order`` is the full layout permutation: the original vertex placed
    at position i of the rebuilt graph.  Rebuilding the spec and
    relabeling the input by ``order`` must give equal graphs.
    """

    k_vertices: tuple[int, ...]
    l_vertices: tuple[int, ...]
    y_vertices: tuple[int, ...]
    z_vertices: tuple[int, ...]
    x_vertices: tuple[int, ...]

    @property
    def order(self) -> tuple[int, ...]:
        return self.k_vertices + self.l_vertices + self.y_vertices + self.z_vertices + self.x_vertices

    def to_json(self) -> dict[str, Any]:
        return {
            "K": list(self.k_vertices),
            "L": list(self.l_vertices),
            "Y": list(self.y_vertices),
            "Z": list(self.z_vertices),
            "X": list(self.x_vertices),
            "order": list(self.order),
        }


def greedy_max_independent(g: Graph, allowed: int) -> int:
    """Greedy maximal independent subset of `allowed`, highest degree first.

    Degree is counted inside the induced subgraph; ties break toward the
    smaller vertex id, so the choice is deterministic.
    """
    members = sorted(bits(allowed), key=lambda v: (-(g.adj[v] & allowed).bit_count(), v))
    chosen = 0
    blocked = 0
    for v in members:
        if blocked >> v & 1:
            continue
        chosen |= 1 << v
        blocked |= 1 << v | g.adj[v]
    return chosen


def decompose_triangle_free(g: Graph) -> tuple[GcbSpec, GcbRoles]:
    """Decompose a triangle-free 2-self-centered graph into a spec.

    Peels a maximal independent set, then a second one from the rest;
    what remains is the core X.  Side K (resp. L) collects the second
    (resp. first) set's vertices with no neighbor in X; the rest become
    connectors whose covering sets are their X-neighborhoods.  The
    battery's ``gcb_round_trip`` and the tests check that the witness is
    an SBIC and that the spec rebuilds the input.
    """
    if not g.two_sc:
        raise NotTwoSelfCenteredError("decomposition requires a 2-self-centered graph")
    if has_triangle(g):
        raise HasTriangleError("decomposition requires triangle-free input")

    full = g.full_mask
    y_prime = greedy_max_independent(g, full)
    z_prime = greedy_max_independent(g, full & ~y_prime)
    x_mask = full & ~(y_prime | z_prime)

    def x_neighbors(v: int) -> int:
        return g.adj[v] & x_mask

    k_vertices = tuple(v for v in bits(z_prime) if not x_neighbors(v))
    l_vertices = tuple(v for v in bits(y_prime) if not x_neighbors(v))
    y_vertices = tuple(v for v in bits(y_prime) if x_neighbors(v))
    z_vertices = tuple(v for v in bits(z_prime) if x_neighbors(v))
    x_vertices = tuple(bits(x_mask))

    pos_in_x = {v: i for i, v in enumerate(x_vertices)}

    def to_core_mask(mask: int) -> int:
        out = 0
        for v in bits(mask):
            out |= 1 << pos_in_x[v]
        return out

    core_edges = [
        (pos_in_x[u], pos_in_x[v])
        for u, v in g.edges()
        if u in pos_in_x and v in pos_in_x
    ]
    core = Graph.from_edges(len(x_vertices), core_edges)
    witness = SbicWitness(
        tuple(to_core_mask(x_neighbors(y)) for y in y_vertices),
        tuple(to_core_mask(x_neighbors(z)) for z in z_vertices),
    )
    spec = GcbSpec(len(k_vertices), len(l_vertices), core, witness)
    return spec, GcbRoles(k_vertices, l_vertices, y_vertices, z_vertices, x_vertices)


def _random_triangle_free(rng: random.Random, n: int, density: float = 0.6) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj = [0] * n
    for u, v in pairs:
        if rng.random() >= density:
            continue
        if adj[u] & adj[v]:
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj))


RETRY_LIMIT = 500


def sample_gcb_spec(budget: int, seed: int, zero_l_reading: str = PRINTED) -> GcbSpec:
    """A random valid spec with at most `budget` total vertices.

    Deterministic per (budget, seed).  Raises SampleBudgetError below the
    4-vertex floor and SampleRetryError if no valid spec is found within
    the retry limit (the empty-core fallback makes that unreachable in
    practice).
    """
    if budget < 4:
        raise SampleBudgetError("no valid spec fits fewer than 4 vertices")
    rng = random.Random(seed)
    t_cap = min(budget - 4, max(0, (budget - 2) // 3))
    for _ in range(RETRY_LIMIT):
        t = rng.randint(0, t_cap)
        if t == 0:
            k = rng.randint(2, budget - 2)
            l = rng.randint(2, budget - k)
            spec = GcbSpec(k, l, Graph(()), SbicWitness((), ()))
        else:
            core = _random_triangle_free(rng, t)
            witness = construct_sbic(core)
            remaining = budget - t - witness.r - witness.s
            if remaining < 0:
                continue
            k = rng.randint(0, remaining)
            l = rng.randint(0, remaining - k)
            spec = GcbSpec(k, l, core, witness)
        if validate_gcb_spec(spec, zero_l_reading).passed:
            return spec
    raise SampleRetryError(f"no valid spec found in {RETRY_LIMIT} attempts (budget {budget}, seed {seed})")
