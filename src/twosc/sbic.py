"""Specialized bi-independent coverings: verification and construction.

A witness is a pair of ordered families of independent vertex sets that
both cover the graph, house every pair at distance >= 3 together in some
set, and provide, for every vertex far from a set of one family, a
disjoint set of the other family containing it.  These coverings are the
certificate structure underneath generalized complete bipartite graphs.

Both conditions on distances are read from neighbor masks, without
all-pairs distances: v is at distance >= 3 from u, or unreachable,
exactly when v is not u, not adjacent to u and shares no neighbor with
u, which is the ``far`` matrix of the graph's cached common-neighbour
kernel (``core.common_neighbours``); a set m is within distance 1 of u
exactly when m meets N[u].

The escape conditions are masks per set m of a family: the vertices
*far* from m lie outside N[m], its *escapes* are the union of the other
family's sets disjoint from m, and its stranded vertices, the far ones
that no escape holds, are the condition's counterexamples.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .core import MAX_VERTICES, Graph, GraphError, _Frozen, bits, has_triangle, mask_of, triangles


class WitnessError(GraphError):
    """Malformed covering witness (empty set or vertex out of range)."""


class HasTriangleError(GraphError):
    """The operation requires triangle-free input."""


def _masks(family: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """One mask per set; WitnessError for an id outside 0..MAX_VERTICES-1, before any mask is built."""
    out = []
    for members in family:
        ids = tuple(members)
        bad = next((v for v in ids if not 0 <= v < MAX_VERTICES), None)
        if bad is not None:
            raise WitnessError(f"witness set holds the vertex id {bad}, outside 0..{MAX_VERTICES - 1}")
        out.append(mask_of(ids))
    return tuple(out)


class SbicWitness(_Frozen):
    """Two ordered families of vertex sets, stored as tuples of bitmasks.

    Each family may be any sequence of int masks.  Sets may repeat; empty
    sets are rejected (a cover never needs them and distance to an empty
    set would be undefined), and so are negative masks, which stand for
    no vertex set, and masks that are not ints.
    """

    a_masks: tuple[int, ...]
    b_masks: tuple[int, ...]

    def __init__(self, a_masks: Iterable[int], b_masks: Iterable[int]) -> None:
        try:
            a, b = tuple(a_masks), tuple(b_masks)
        except TypeError:
            raise WitnessError("each family must be a sequence of int masks") from None
        for m in a + b:
            if type(m) is not int:
                raise WitnessError(f"set mask {m!r} is not an int")
            if m <= 0:
                raise WitnessError("covering sets must be non-empty" if m == 0 else f"set mask {m} is negative")
        object.__setattr__(self, "a_masks", a)
        object.__setattr__(self, "b_masks", b)

    def _key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.a_masks, self.b_masks)

    def __repr__(self) -> str:
        return f"SbicWitness(a_masks={self.a_masks!r}, b_masks={self.b_masks!r})"

    @staticmethod
    def from_families(a_family: Iterable[Iterable[int]], b_family: Iterable[Iterable[int]]) -> SbicWitness:
        """The witness of two families of vertex-id sets; WitnessError for an id outside 0..MAX_VERTICES-1."""
        return SbicWitness(_masks(a_family), _masks(b_family))

    @property
    def r(self) -> int:
        return len(self.a_masks)

    @property
    def s(self) -> int:
        return len(self.b_masks)

    def families(self) -> tuple[list[list[int]], list[list[int]]]:
        return (
            [list(bits(m)) for m in self.a_masks],
            [list(bits(m)) for m in self.b_masks],
        )

    def to_json(self) -> dict[str, Any]:
        a, b = self.families()
        return {"a_family": a, "b_family": b}


class ConditionVerdict(NamedTuple):
    ok: bool
    counterexample: Any = None

    def to_json(self) -> dict[str, Any]:
        return {"ok": self.ok, "counterexample": self.counterexample}


class SbicReport(NamedTuple):
    """Per-condition verdicts with the first counterexample of each failure."""

    triangle_free: ConditionVerdict
    covering: ConditionVerdict
    distant_pairs_share_set: ConditionVerdict
    a_far_vertices_escape: ConditionVerdict
    b_far_vertices_escape: ConditionVerdict

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self)

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"passed": self.passed}
        doc.update((name, c.to_json()) for name, c in zip(self._fields, self))
        return doc


def _unhoused_pairs(x: Graph, masks: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Each far pair (u, v), u < v in order, that no set in ``masks`` holds."""
    common = x.common
    for u, v in common.pairs(common.far):
        pair_mask = 1 << u | 1 << v
        if not any(m & pair_mask == pair_mask for m in masks):
            yield u, v


def _stranded(x: Graph, from_masks: Sequence[int], to_masks: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Each (u, i), u then i ascending, with u stranded: far from ``from_masks[i]`` and in none of its escapes."""
    stranded, union = [], 0
    for m in from_masks:
        near = escapes = 0
        for v in bits(m):
            near |= x.adj[v]
        for other in to_masks:
            if not m & other:
                escapes |= other
        stranded.append(x.full_mask & ~(near | m | escapes))
        union |= stranded[-1]
    for u in bits(union):
        for i, mask in enumerate(stranded):
            if mask >> u & 1:
                yield u, i


def verify_sbic(x: Graph, witness: SbicWitness) -> SbicReport:
    """Check all five covering conditions; never raises on a failing witness.

    Raises WitnessError only when a set references vertices outside x.
    Pairs in different components count as distance >= 3, so disconnected
    cores are handled uniformly.
    """
    full = x.full_mask
    for m in witness.a_masks + witness.b_masks:
        if m & ~full:
            raise WitnessError("witness set references vertices outside the graph")

    tri = triangles(x)
    c_triangle = ConditionVerdict(not tri, tri[0] if tri else None)

    c_cover = ConditionVerdict(True)
    for name, masks in (("a", witness.a_masks), ("b", witness.b_masks)):
        union = 0
        for m in masks:
            union |= m
        if union != full:
            missing = next(bits(full & ~union))
            c_cover = ConditionVerdict(False, {"family": name, "uncovered_vertex": missing})
            break
        bad = None
        for i, m in enumerate(masks):
            for v in bits(m):
                inside = x.adj[v] & m
                if inside:
                    bad = {"family": name, "index": i, "edge": [v, next(bits(inside))]}
                    break
            if bad:
                break
        if bad:
            c_cover = ConditionVerdict(False, bad)
            break

    pair = next(_unhoused_pairs(x, witness.a_masks + witness.b_masks), None)
    c_pairs = ConditionVerdict(True) if pair is None else ConditionVerdict(False, {"pair": list(pair)})

    def escape(from_masks: tuple[int, ...], to_masks: tuple[int, ...], name: str) -> ConditionVerdict:
        hit = next(_stranded(x, from_masks, to_masks), None)
        if hit is None:
            return ConditionVerdict(True)
        return ConditionVerdict(False, {"vertex": hit[0], "family": name, "index": hit[1]})

    c_a = escape(witness.a_masks, witness.b_masks, "a")
    c_b = escape(witness.b_masks, witness.a_masks, "b")
    return SbicReport(c_triangle, c_cover, c_pairs, c_a, c_b)


def _grow_independent(x: Graph, seed_mask: int) -> int:
    """Extend the independent set seed_mask, in vertex order, to a maximal independent set."""
    m = closed = seed_mask
    for v in bits(m):
        closed |= x.adj[v]
    for v in range(x.n):
        if closed >> v & 1:
            continue
        m |= 1 << v
        closed |= 1 << v | x.adj[v]
    return m


def construct_sbic(x: Graph) -> SbicWitness:
    """Produce a witness passing verify_sbic for any triangle-free graph.

    Both families start with every singleton, and the first family also
    gets, once each and in pair order, the maximal independent set grown
    from every pair at distance >= 3.  That houses every far pair, and
    the escape conditions need no further set: a vertex u far from a
    set m is not in m, so the other family's singleton {u} is disjoint
    from m and holds u.  Deterministic given the vertex order.
    """
    if has_triangle(x):
        raise HasTriangleError("covering construction requires triangle-free input")
    singletons = tuple(1 << v for v in range(x.n))
    common = x.common
    grown = dict.fromkeys(_grow_independent(x, 1 << u | 1 << v) for u, v in common.pairs(common.far))
    witness = SbicWitness(singletons + tuple(grown), singletons)
    report = verify_sbic(x, witness)
    if not report.passed:
        raise RuntimeError(f"covering construction failed its own check: {report.to_json()}")
    return witness
