"""Generalized complete bipartite graphs: build, validate, decompose, sample.

A spec is a parameter pack (k, l, core graph X, covering witness).  The
built graph consists of fully joined sides K and L, connector vertices
y_i / z_j wired to their covering sets, cross edges y_i -- z_j exactly
for disjoint set pairs, and the core X itself.  Every valid spec builds
to a triangle-free 2-self-centered graph, and every triangle-free
2-self-centered graph arises this way; both directions are exercised by
the verification harness.

Side K is what joins the y connectors to L and to each other, so an
empty K leaves both jobs to the z connectors.  The k = 0 rule asks, for
each pair that then has no common neighbour in K:

- y_i and a vertex of L (only when l >= 1): a-set A_i needs a disjoint
  b-set, whose z reaches L;
- y_i and y_j with disjoint A_i, A_j (no common neighbour in X): some
  b-set is disjoint from both.

The l = 0 rule is its mirror, with a and b swapped and k in place of l.
Together with the SBIC conditions and the three rules on side sizes, a
spec passes validation exactly when ``assemble(spec)`` is 2-self-centered
(and triangle-free), which the tests check against the definition.

The built graph's vertices lie in blocks: K, L, the y connectors, the z
connectors and the core X, from offsets 0, k, off_y, off_z and off_x.
``assemble`` writes each edge in the row of its lower block (K: L | Y;
L: Z; y_i: a_i << off_x and the z_j with b_j disjoint from a_i; z_j:
b_j << off_x; X: its core row << off_x), and one packed transpose
(``core.symmetric_masks``) mirrors them.  ``decompose_triangle_free``
relabels the input into that layout (``core.relabel_masks``) and reads
the core's rows and the covering sets from off_x up.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Any, NamedTuple

from .core import MAX_VERTICES, Graph, GraphError, VertexLimitError, _Frozen, bits, relabel_masks, symmetric_masks
from .io import FormatError
from .recognition import NotTwoSelfCenteredError
from .sbic import HasTriangleError, SbicReport, SbicWitness, WitnessError, construct_sbic, verify_sbic

# The one value build_gcb still accepts for its zero_l_reading keyword.
PRINTED = "printed"


class InvalidGcbSpecError(GraphError):
    """build_gcb was handed a spec that fails validation."""


class SampleBudgetError(GraphError):
    """The requested vertex budget cannot hold any valid spec."""


class SampleRetryError(GraphError):
    """Random search for a valid spec exhausted its retry limit."""


class GcbSpec(_Frozen):
    """Parameters of a generalized complete bipartite construction.

    The core x may be the empty graph; in that case both families must be
    empty and k, l >= 2, which builds the plain complete bipartite graph.
    A negative side size raises GraphError, and a covering set that
    reaches outside the core raises WitnessError, so every spec's sets
    hang on its core.
    """

    k: int
    l: int
    x: Graph
    witness: SbicWitness

    def __init__(self, k: int, l: int, x: Graph, witness: SbicWitness) -> None:
        if k < 0 or l < 0:
            raise GraphError(f"side sizes must be non-negative, got k = {k}, l = {l}")
        if any(m >> x.n for m in witness.a_masks + witness.b_masks):
            raise WitnessError("witness set references vertices outside the core")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "witness", witness)

    def _key(self) -> tuple[int, int, Graph, SbicWitness]:
        return (self.k, self.l, self.x, self.witness)

    def __repr__(self) -> str:
        return f"GcbSpec(k={self.k!r}, l={self.l!r}, x={self.x!r}, witness={self.witness!r})"

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
    def from_json(doc: Any) -> GcbSpec:
        """Parse a spec document; raises ``FormatError`` if its shape is wrong, ``LoopError`` for an edge (v, v)."""
        x = doc.get("x") if isinstance(doc, dict) else None
        if not isinstance(x, dict):
            raise FormatError("a spec document is an object whose 'x' is an object")
        k, l, n = doc.get("k"), doc.get("l"), x.get("n")
        if not all(type(v) is int for v in (k, l, n)):
            raise FormatError("'k', 'l' and 'x.n' must be ints")
        if k < 0 or l < 0:
            raise FormatError(f"'k' and 'l' must be non-negative, got {k} and {l}")
        if not 0 <= n <= MAX_VERTICES:
            raise FormatError(f"'x.n' must lie in 0..{MAX_VERTICES}, got {n}")
        edges = x.get("edges")
        if not _int_lists(edges, n, 2):
            raise FormatError(f"'x.edges' must be a list of pairs of ints in 0..{n - 1}")
        a_family, b_family = doc.get("a_family", []), doc.get("b_family", [])
        if not (_int_lists(a_family, n) and _int_lists(b_family, n)):
            raise FormatError(f"'a_family' and 'b_family' must be lists of lists of ints in 0..{n - 1}")
        witness = SbicWitness.from_families(a_family, b_family)
        return GcbSpec(k, l, Graph.from_edges(n, edges), witness)


def _int_lists(value: Any, n: int, width: int | None = None) -> bool:
    """Whether value is a list of lists of ints in 0..n-1, each of length ``width`` if given."""
    return isinstance(value, list) and all(
        isinstance(row, list) and width in (None, len(row)) and all(type(v) is int and 0 <= v < n for v in row)
        for row in value
    )


class RuleVerdict(NamedTuple):
    ok: bool
    applicable: bool
    counterexample: Any = None

    def to_json(self) -> dict[str, Any]:
        return {"ok": self.ok, "applicable": self.applicable, "counterexample": self.counterexample}


class GcbValidation(NamedTuple):
    """Verdicts for the covering witness and each special-case constraint."""

    sbic: SbicReport
    zero_k: RuleVerdict
    zero_l: RuleVerdict
    empty_family_sides: RuleVerdict
    empty_core_iff_no_connectors: RuleVerdict
    singleton_core_needs_side: RuleVerdict

    @property
    def passed(self) -> bool:
        return self.sbic.passed and all(rule.ok for rule in self[1:])

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"passed": self.passed}
        doc.update((name, verdict.to_json()) for name, verdict in zip(self._fields, self))
        return doc


def _zero_side_rule(own: tuple[int, ...], others: tuple[int, ...], empty: bool, far_side: int) -> RuleVerdict:
    """The k = 0 rule with own = a-sets, others = b-sets and far_side = l,
    or the l = 0 rule with the families swapped and far_side = k; see the
    module docstring for the pair each clause serves."""
    if not empty:
        return RuleVerdict(True, False)
    if far_side:
        for i, m in enumerate(own):
            if all(m & other for other in others):
                return RuleVerdict(False, True, {"connector_without_cross_neighbor": i})
    for i, j in combinations(range(len(own)), 2):
        if not own[i] & own[j] and all((own[i] | own[j]) & other for other in others):
            return RuleVerdict(False, True, {"uncoverable_connector_pair": [i, j]})
    return RuleVerdict(True, True)


def validate_gcb_spec(spec: GcbSpec) -> GcbValidation:
    """Check the covering witness and all special-case constraints.

    Never raises: a spec's sets lie in its core (``GcbSpec`` checks
    that), so every failure is a reported verdict.
    """
    a, b = spec.witness.a_masks, spec.witness.b_masks
    zero_k = _zero_side_rule(a, b, spec.k == 0, spec.l)
    zero_l = _zero_side_rule(b, a, spec.l == 0, spec.k)

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
        verify_sbic(spec.x, spec.witness),
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

    The vertices and rows are laid out as the module docstring says.
    Raises VertexLimitError when the graph would exceed MAX_VERTICES.
    """
    k, l = spec.k, spec.l
    a, b = spec.witness.a_masks, spec.witness.b_masks
    if spec.total_vertices > MAX_VERTICES:
        raise VertexLimitError(f"{spec.total_vertices} vertices exceeds the {MAX_VERTICES}-vertex bitset core")
    off_z = k + l + len(a)
    off_x = off_z + len(b)
    rows = [(1 << off_z) - (1 << k)] * k + [(1 << off_x) - (1 << off_z)] * l
    rows += [sum(1 << off_z + j for j, p in enumerate(b) if not m & p) | m << off_x for m in a]
    rows += [p << off_x for p in b]
    rows += [m << off_x for m in spec.x.adj]
    return Graph(symmetric_masks(rows))


def build_gcb(spec: GcbSpec, zero_l_reading: str = PRINTED) -> Graph:
    """Assemble the graph of a valid spec; see `assemble` for the layout.

    Raises InvalidGcbSpecError when validation fails.  That the built
    graph is triangle-free, 2-self-centered and has the closed-form edge
    count is checked by the tests on sampled specs, not on each call.

    ``zero_l_reading`` accepts only ``PRINTED`` and chooses nothing; it
    stays for the benchmark's callers, which pass it, and goes away with
    ROADMAP item 9's benchmark change.  Any other value raises ValueError.
    """
    if zero_l_reading != PRINTED:
        raise ValueError(f"zero_l_reading must be {PRINTED!r}, got {zero_l_reading!r}")
    validation = validate_gcb_spec(spec)
    if not validation.passed:
        raise InvalidGcbSpecError(f"spec fails validation: {validation.to_json()}")
    return assemble(spec)


class GcbRoles(NamedTuple):
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
    common = g.common
    # a triangle is an edge whose endpoints have a common neighbour
    if common.adjacency & common.one:
        raise HasTriangleError("decomposition requires triangle-free input")

    adj, full = g.adj, g.full_mask
    y_prime = greedy_max_independent(g, full)
    z_prime = greedy_max_independent(g, full & ~y_prime)
    x_mask = full & ~(y_prime | z_prime)
    near_x = 0
    for v, m in enumerate(adj):
        if m & x_mask:
            near_x |= 1 << v
    roles = GcbRoles(*(tuple(bits(m)) for m in (
        z_prime & ~near_x, y_prime & ~near_x, y_prime & near_x, z_prime & near_x, x_mask)))

    # g in the layout's labels: the core's rows and the connectors'
    # covering sets are the rows' bits from the core's offset up
    off_y = len(roles.k_vertices) + len(roles.l_vertices)
    off_z, off_x = off_y + len(roles.y_vertices), g.n - len(roles.x_vertices)
    rows = tuple(m >> off_x for m in relabel_masks(adj, roles.order))
    witness = SbicWitness(rows[off_y:off_z], rows[off_z:off_x])
    return GcbSpec(len(roles.k_vertices), len(roles.l_vertices), Graph(rows[off_x:]), witness), roles


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


def sample_gcb_spec(budget: int, seed: int) -> GcbSpec:
    """A random valid spec with at most `budget` total vertices, and at most MAX_VERTICES.

    Deterministic per (budget, seed).  Raises SampleBudgetError below the
    4-vertex floor and SampleRetryError if no valid spec is found within
    the retry limit (the empty-core fallback makes that unreachable in
    practice).
    """
    if budget < 4:
        raise SampleBudgetError("no valid spec fits fewer than 4 vertices")
    budget = min(budget, MAX_VERTICES)
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
        if validate_gcb_spec(spec).passed:
            return spec
    raise SampleRetryError(f"no valid spec found in {RETRY_LIMIT} attempts (budget {budget}, seed {seed})")
