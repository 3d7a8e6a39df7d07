import random
from collections import deque

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from twosc.core import (
    BLOCK_MAX_N,
    MAX_VERTICES,
    EdgeAbsentError,
    EdgePresentError,
    Graph,
    GraphError,
    LoopError,
    VertexLimitError,
    _decoded,
    _lane_width,
    _remember,
    _reverse,
    columns_to_masks,
    common_neighbours,
    complement,
    connected_components,
    distance_profile,
    edit,
    has_triangle,
    is_connected,
    is_independent,
    is_star,
    kernel_block,
    lane_groups,
    pack_slots,
    symmetric_masks,
    triangles,
)
from twosc.canon import are_isomorphic
from twosc.enumeration import graph_classes
from twosc.recognition import edit_keeps_two_sc, is_edge_minimal
from twosc.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    petersen_graph,
    capped_k33,
    star_graph,
)

from conftest import assert_immutable_value, graphs
from test_recognition import ref_conditions_ok, sweep_edge_minimal


def floyd_warshall(g: Graph) -> list[list[int]]:
    """Independent all-pairs oracle; g.n doubles as the unreachable marker."""
    n = g.n
    inf = n
    dist = [[0 if i == j else (1 if g.has_edge(i, j) else inf) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik >= inf:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return [[min(d, inf) for d in row] for row in dist]


def naive_bfs(g: Graph, src: int) -> list[int]:
    """Reference single-source BFS over has_edge; g.n marks unreachable."""
    dist = [g.n] * g.n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in range(g.n):
            if g.has_edge(u, v) and dist[v] == g.n:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@st.composite
def sparse_graphs(draw, max_n: int = 16):
    """Graphs with about as many edges as vertices: long paths and many components."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n + 2))
    return Graph.from_edges(n, [(u, v) for u, v in pairs if u != v])


def reference_validate(adj: tuple[int, ...]) -> None:
    """The per-bit Graph validation the packed bit-matrix check replaced, messages included."""
    n = len(adj)
    if n > MAX_VERTICES:
        raise VertexLimitError(f"{n} vertices exceeds the {MAX_VERTICES}-vertex bitset core")
    full = (1 << n) - 1
    for v, m in enumerate(adj):
        if m & ~full:
            raise GraphError(f"neighbor mask of {v} references vertices outside 0..{n - 1}")
        if m >> v & 1:
            raise LoopError(f"self-loop at vertex {v}")
    for u, m in enumerate(adj):
        bit = 1 << u
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if not adj[v] & bit:
                raise GraphError(f"adjacency not symmetric on pair ({min(u, v)}, {max(u, v)})")
            m ^= low


def raised(make, adj):
    try:
        make(adj)
    except GraphError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def mask_tuples(draw, max_n: int = MAX_VERTICES):
    """Symmetric adjacency with a few bits flipped and masks replaced.

    A flipped bit (u, v) is one-sided, a loop when u == v, or outside the
    graph when v >= n; a replaced mask is negative or far out of range.
    """
    adj = list(draw(graphs(min_n=0, max_n=max_n)).adj)
    if adj:
        n = len(adj)
        vertex = st.integers(0, n - 1)
        for u, v in draw(st.lists(st.tuples(vertex, st.integers(0, n + 1)), max_size=3)):
            adj[u] ^= 1 << v
        for v, m in draw(st.lists(st.tuples(vertex, st.integers(-(1 << 70), -1) | st.integers(1 << n, 1 << 70)), max_size=2)):
            adj[v] = m
    return tuple(adj)


arbitrary_masks = st.lists(st.integers(0, (1 << 11) - 1), max_size=10).map(tuple)


def lane_boundary_examples(test):
    """Force each lane boundary: a valid graph, a one-sided pair, a loop and a stray bit in the last row."""
    for n in (8, 9, 16, 17, 32, 33, 64):
        full = (1 << n) - 1
        complete = tuple(full ^ 1 << v for v in range(n))
        last = (1 << n - 1) - 1
        for adj in (
            complete,
            complete[:-1] + (last ^ 1,),
            (0,) * (n - 1) + (1,),
            (0,) * (n - 1) + (1 << n - 1,),
            (0,) * (n - 1) + (1 << n,),
            (0,) * (n - 1) + (-1,),
        ):
            test = example(adj)(test)
    return test


# every lane width, at both ends
LANE_SIZES = (0, 1, 2, 3, 8, 9, 16, 17, 32, 33, 63, 64)
DENSITIES = (0.0, 0.1, 0.5, 0.9, 1.0)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(tuple(adj))


def counted_rows(adj) -> tuple[list[int], ...]:
    """Rows of one, many, far and crit, from each pair's common-neighbour count."""
    n = len(adj)
    one, many, far, crit = ([0] * n for _ in range(4))
    for u in range(n):
        for v in range(n):
            count = (adj[u] & adj[v]).bit_count()
            apart = u != v and not adj[u] >> v & 1
            one[u] |= (count >= 1) << v
            many[u] |= (count >= 2) << v
            far[u] |= (apart and count == 0) << v
            crit[u] |= (apart and count == 1) << v
    return one, many, far, crit


def assert_kernel_matches_counts(g: Graph) -> None:
    c = common_neighbours(g.adj)
    assert (c.sizes, c.rows(c.adjacency)) == ((g.n,), g.adj)
    rows = (c.rows(c.one), c.rows(c.many), c.rows(c.far), c.rows(c.crit))
    assert rows == tuple(tuple(r) for r in counted_rows(g.adj)), g
    for matrix, field in zip((c.far, c.crit), rows[2:]):
        assert list(c.pairs(matrix)) == [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if field[u] >> v & 1]
    assert g.common == c


class TestDistanceProfile:
    def test_complete_graph(self):
        p = distance_profile(complete_graph(4))
        assert p.radius == 1 and p.diameter == 1

    def test_four_cycle(self):
        g = cycle_graph(4)
        p = distance_profile(g)
        assert [row[:] for row in map(list, p.distances)] == floyd_warshall(g)
        assert p.radius == 2 and p.diameter == 2

    def test_path(self):
        g = path_graph(4)
        p = distance_profile(g)
        assert [list(row) for row in p.distances] == floyd_warshall(g)
        assert p.radius == 2 and p.diameter == 3

    def test_disconnected_carries_sentinel(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        p = distance_profile(g)
        assert p.distances[0][2] == p.infinity == 4
        assert not p.connected
        assert p.radius == p.diameter == p.infinity

    def test_exhaustive_oracle_agreement_small(self):
        for n in range(1, 8):
            for g in graph_classes(n):
                p = distance_profile(g)
                assert [list(row) for row in p.distances] == floyd_warshall(g)

    @given(graphs(max_n=7))
    def test_oracle_agreement_random(self, g):
        p = distance_profile(g)
        assert [list(row) for row in p.distances] == floyd_warshall(g)

    @given(graphs(min_n=2, max_n=8))
    def test_metric_invariants(self, g):
        p = distance_profile(g)
        n = g.n
        for u in range(n):
            assert p.distances[u][u] == 0
            for v in range(n):
                assert p.distances[u][v] == p.distances[v][u]
                for w in range(n):
                    duv, dvw, duw = p.distances[u][v], p.distances[v][w], p.distances[u][w]
                    if duv < n and dvw < n:
                        assert duw <= duv + dvw
        if p.connected:
            assert p.radius <= p.diameter <= 2 * p.radius

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            distance_profile(Graph(()))

    @given(st.one_of(graphs(max_n=12), sparse_graphs()))
    def test_naive_bfs_agreement_random(self, g):
        assert [list(row) for row in distance_profile(g).distances] == [naive_bfs(g, s) for s in range(g.n)]


class TestComplement:
    def test_complete_graph(self):
        assert complement(complete_graph(4)) == empty_graph(4)

    def test_four_cycle_is_perfect_matching(self):
        assert sorted(complement(cycle_graph(4)).edges()) == [(0, 2), (1, 3)]

    def test_five_cycle_self_complementary(self):
        g = cycle_graph(5)
        assert are_isomorphic(complement(g), g)

    @given(graphs())
    def test_involution_and_edge_count(self, g):
        c = complement(g)
        assert complement(c) == g
        assert g.edge_count + c.edge_count == g.n * (g.n - 1) // 2


class TestComponents:
    def test_connected_cycle(self):
        assert connected_components(cycle_graph(4)) == [[0, 1, 2, 3]]

    def test_complement_of_cycle(self):
        assert connected_components(complement(cycle_graph(4))) == [[0, 2], [1, 3]]

    def test_edgeless(self):
        assert connected_components(empty_graph(3)) == [[0], [1], [2]]

    def test_is_connected(self):
        assert is_connected(cycle_graph(4)) and is_connected(empty_graph(1)) and is_connected(empty_graph(0))
        assert not is_connected(empty_graph(2)) and not is_connected(complement(cycle_graph(4)))

    @given(graphs())
    def test_partition_properties(self, g):
        parts = connected_components(g)
        seen = sorted(v for part in parts for v in part)
        assert seen == list(range(g.n))
        for part in parts:
            inside = set(part)
            for v in part:
                # no edge may leave the part
                assert all(u in inside for u in g.neighbors(v))
            if len(part) > 1:
                # internally connected: every member reaches the first one
                p = distance_profile(g)
                assert all(p.distances[part[0]][v] < p.infinity for v in part)


class TestStars:
    def test_single_edge_is_star(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert is_star(g, [0, 1])

    def test_singleton_is_not(self):
        assert not is_star(empty_graph(1), [0])

    def test_triangle_is_not(self):
        assert not is_star(complete_graph(3), [0, 1, 2])

    def test_bigger_star(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert is_star(g, [0, 1, 2, 3])
        assert not is_star(edit(g, add=(1, 2)), [0, 1, 2, 3])


class TestTriangles:
    def test_bipartite_has_none(self):
        assert triangles(cycle_graph(4)) == []
        assert triangles(capped_k33()) == []

    def test_complete_four(self):
        assert triangles(complete_graph(4)) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    @given(graphs())
    def test_empty_iff_neighborhoods_disjoint_on_edges(self, g):
        empty = not triangles(g)
        disjoint = all(not (g.adj[u] & g.adj[v]) for u, v in g.edges())
        assert empty == disjoint


class TestIndependence:
    def test_empty_set(self):
        assert is_independent(cycle_graph(4), [])

    def test_bipartition_class(self):
        assert is_independent(complete_bipartite(3, 3), [0, 1, 2])

    def test_edge_endpoints(self):
        assert not is_independent(cycle_graph(4), [0, 1])


class TestEdit:
    def test_remove_gives_path(self):
        assert edit(cycle_graph(4), remove=(0, 3)) == path_graph(4)

    def test_add_diagonal_degree(self):
        g = edit(cycle_graph(4), add=(0, 2))
        assert g.degree(0) == 3 == g.n - 1

    def test_remove_then_readd(self):
        g = cycle_graph(4)
        assert edit(edit(g, remove=(0, 1)), add=(0, 1)) == g

    def test_original_unchanged(self):
        g = cycle_graph(4)
        edit(g, remove=(0, 1))
        assert g == cycle_graph(4)

    def test_errors(self):
        g = cycle_graph(4)
        with pytest.raises(EdgeAbsentError):
            edit(g, remove=(0, 2))
        with pytest.raises(EdgePresentError):
            edit(g, add=(0, 1))
        with pytest.raises(LoopError):
            edit(g, add=(2, 2))
        with pytest.raises(LoopError, match="cannot remove a loop at 1"):
            edit(g, remove=(1, 1))


class TestGraphValue:
    def test_symmetry_enforced(self):
        with pytest.raises(GraphError):
            Graph((0b10, 0b00))

    def test_loop_rejected(self):
        with pytest.raises(LoopError):
            Graph.from_edges(2, [(0, 0)])

    def test_vertex_limit(self):
        with pytest.raises(VertexLimitError):
            Graph.from_edges(65, [])

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(mask_tuples(), arbitrary_masks))
    @example((0,) * (MAX_VERTICES + 1))
    @example((0b10, 0b10))
    @example((0b10, 0b101, 0b000))
    @lane_boundary_examples
    def test_validation_matches_reference(self, adj):
        # the same exception class and message, and the first bad vertex or pair
        assert raised(Graph, adj) == raised(reference_validate, adj)

    @pytest.mark.parametrize("n", range(MAX_VERTICES + 1))
    def test_decoded_masks_need_no_validation(self, n):
        # the invariant _decoded rests on: every column stream decodes to
        # masks that Graph accepts, and to the same value
        rng = random.Random(n)
        nbits = n * (n - 1) // 2
        streams = [0, (1 << nbits) - 1, *(rng.getrandbits(nbits) for _ in range(20))]
        for masks in columns_to_masks(column_slots(streams, n), n):
            g = _decoded(masks)
            assert Graph(masks) == g and type(g.adj) is tuple and vars(g) == {"adj": masks}

    def test_immutable_value(self):
        assert_immutable_value(petersen_graph, "adj")
        g = Graph((2, 1))
        assert g != (2, 1) and (2, 1) != g and g != Graph((0, 0))

    def test_list_input_is_stored_as_a_tuple(self):
        g = Graph([2, 1])
        assert type(g.adj) is tuple
        assert g == Graph((2, 1)) and hash(g) == hash(Graph((2, 1)))

    @pytest.mark.parametrize("adj", [("a",), (1.0, 0), (None,), (0b10, 1.0), (2, "1")])
    def test_non_int_mask_raises_graph_error(self, adj):
        with pytest.raises(GraphError, match="not an int"):
            Graph(adj)

    @pytest.mark.parametrize("bad", [10, -1, -10])
    def test_vertex_outside_the_graph_raises_graph_error(self, bad):
        # n = 10: on Petersen, -1 used to read vertex 9, 10 to raise
        # IndexError, and a negative shift a plain ValueError
        g = petersen_graph()
        calls = (
            lambda: g.has_edge(bad, 4),
            lambda: g.has_edge(4, bad),
            lambda: g.degree(bad),
            lambda: g.neighbors(bad),
            lambda: is_independent(g, [bad]),
            lambda: is_star(g, [0, bad]),
            lambda: edit(g, remove=(bad, 4)),
            lambda: edit(g, add=(4, bad)),
        )
        for call in calls:
            with pytest.raises(GraphError, match=f"vertex {bad} outside 0..9"):
                call()

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError, match="vertex count must be non-negative"):
            Graph.from_edges(-1, [])

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_relabel_roundtrip(self):
        g = capped_k33()
        order = [3, 1, 4, 0, 6, 2, 5]
        h = g.relabel(order)
        assert h.edge_count == g.edge_count
        inverse = [0] * g.n
        for i, v in enumerate(order):
            inverse[v] = i
        assert h.relabel(inverse) == g

    @pytest.mark.parametrize("n", LANE_SIZES)
    def test_relabel_matches_the_definition(self, n):
        # B[j][i] = A[order[j]][order[i]], at every lane width
        rng = random.Random(n)
        for p in DENSITIES:
            g = random_graph(rng, n, p)
            order = list(range(n))
            rng.shuffle(order)
            h = g.relabel(order)
            assert h.adj == tuple(
                sum(1 << i for i in range(n) if g.adj[order[j]] >> order[i] & 1) for j in range(n)
            )

    @pytest.mark.parametrize("order", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [0, 1, 3], [-1, 0, 1]])
    def test_relabel_rejects_a_non_permutation(self, order):
        with pytest.raises(GraphError, match="permutation"):
            path_graph(3).relabel(order)


@pytest.mark.parametrize("make, args", [
    (complete_bipartite, (-1, 2)),
    (complete_bipartite, (2, -1)),
    (star_graph, (-1,)),
    (cycle_graph, (2,)),
    (cycle_graph, (-1,)),
])
def test_named_graphs_reject_impossible_sizes(make, args):
    with pytest.raises(GraphError):
        make(*args)


class TestCommonNeighbours:
    @pytest.mark.parametrize("n", LANE_SIZES)
    def test_counts_at_every_lane_width(self, n):
        rng = random.Random(n)
        for p in DENSITIES:
            assert_kernel_matches_counts(random_graph(rng, n, p))

    @settings(max_examples=300, deadline=None)
    @given(graphs(min_n=0, max_n=20))
    def test_counts_on_random_graphs(self, g):
        assert_kernel_matches_counts(g)

    def test_every_class_up_to_six(self):
        for n in range(1, 7):
            for g in graph_classes(n):
                assert_kernel_matches_counts(g)

    @pytest.mark.parametrize("n", range(17, MAX_VERTICES + 1))
    def test_runs_of_one_above_the_block_sizes(self, n):
        # a run of one at lane widths 32 and 64, which the battery reads
        # one graph at a time: its matrices against the counts, its 2SC
        # test against the pair scan, and its deletable edges against the
        # one-edge rule and the deletion sweep's first removable edge, on
        # at least one 2SC graph
        rng = random.Random(n)
        gs = [random_graph(rng, n, p) for p in (0.1, 0.5, 0.8)]
        while not any(ref_conditions_ok(g.adj, n) for g in gs):
            gs.append(random_graph(rng, n, 0.5))
        for g in gs:
            assert_kernel_matches_counts(g)
            c = common_neighbours(g.adj)
            assert c.two_sc() == [ref_conditions_ok(g.adj, n)], g
            if c.two_sc()[0]:
                deletable = c.rows(c.deletable())
                for u, v in g.edges():
                    assert bool(deletable[u] >> v & 1) == edit_keeps_two_sc(g.adj, n, u, v), (g, u, v)
                assert is_edge_minimal(g) == sweep_edge_minimal(g), g

    def test_computed_once_per_value(self):
        g = petersen_graph()
        assert g.common is g.common
        assert "common" not in vars(petersen_graph())


def assert_block_matches_each_graph(gs) -> None:
    """One run over gs, all of one lane width, against runs of one and the predicates."""
    w = _lane_width(max(g.n for g in gs))
    assert all(_lane_width(g.n) == w for g in gs) and w <= 16
    block = kernel_block(pack_slots([g.adj for g in gs], w), [g.n for g in gs], w)
    two_sc = block.two_sc()
    triangle_free = [not word for word in block.words(block.adjacency & block.one)]
    minimal = [not word for word in block.words(block.deletable())]
    slots = block.slots(range(len(gs)))
    assert len(two_sc) == len(triangle_free) == len(minimal) == len(slots) == len(gs)
    for i, g in enumerate(gs):
        assert slots[i]._asdict() == common_neighbours(g.adj)._asdict(), (i, g)
        assert two_sc[i] == ref_conditions_ok(g.adj, g.n), (i, g)
        assert triangle_free[i] == (not has_triangle(g)), (i, g)
        if two_sc[i]:
            assert minimal[i] == is_edge_minimal(g).minimal, (i, g)
    # a memo filled from the block equals the one a fresh value computes
    for i, g in enumerate(gs):
        if two_sc[i]:
            copy = _decoded(g.adj)
            _remember(copy, two_sc=True, common=slots[i])
            fresh = Graph(g.adj)
            assert (copy.two_sc, copy.common) == (fresh.two_sc, fresh.common)


class TestKernelBlock:
    @pytest.mark.parametrize("n", range(BLOCK_MAX_N + 1))
    def test_random_graphs_at_each_size(self, n):
        rng = random.Random(n)
        assert_block_matches_each_graph([random_graph(rng, n, p) for p in DENSITIES for _ in range(8)])

    def test_every_class_up_to_six(self):
        assert_block_matches_each_graph([Graph(())] + [g for n in range(1, 7) for g in graph_classes(n)])

    @pytest.mark.parametrize("count", [1, 255, 256, 257])
    @pytest.mark.parametrize("sizes", [range(0, 9), range(9, 17)], ids=["w8", "w16"])
    def test_block_lengths_with_mixed_sizes(self, count, sizes):
        rng = random.Random(count * 100 + sizes[0])
        ns = list(sizes)
        gs = [random_graph(rng, ns[i % len(ns)], rng.choice(DENSITIES[1:4])) for i in range(count)]
        assert_block_matches_each_graph(gs)

    def test_two_sc_graphs_in_one_block(self):
        # about half of G(n, 0.6) at n = 12..16 is 2SC, so the minimality
        # words are read on many slots
        rng = random.Random(7)
        gs = [random_graph(rng, rng.randint(12, 16), 0.6) for _ in range(300)]
        assert sum(g.two_sc for g in gs) > 50
        assert_block_matches_each_graph(gs)

    @pytest.mark.parametrize("sizes", [range(4, 8), range(9, 16)], ids=["w8", "w16"])
    def test_malformed_names_each_fault_in_its_slot(self, sizes):
        # a symmetric pair outside the lanes, a loop, and a one-sided
        # pair, each in its own slot of an otherwise valid block
        rng = random.Random(sizes[0])
        gs = [random_graph(rng, n, 0.5) for n in sizes for _ in range(3)]
        w = _lane_width(max(sizes))
        x = pack_slots([g.adj for g in gs], w)
        block = kernel_block(x, [g.n for g in gs], w)
        assert not any(block.words(block.malformed(x)))

        def bit(slot, u, v):
            return 1 << slot * w * w + u * w + v

        n0, n2 = gs[0].n, gs[8].n
        faults = {
            0: bit(0, 0, n0) | bit(0, n0, 0),
            4: bit(4, 1, 1),
            8: bit(8, 0, n2 - 1) if not gs[8].adj[0] >> n2 - 1 & 1 else bit(8, n2 - 1, 0),
        }
        spoiled = x
        for fault in faults.values():
            spoiled ^= fault
        words = block.words(block.malformed(spoiled))
        assert [i for i, word in enumerate(words) if word] == sorted(faults)

    def test_lane_groups_keep_positions_in_order(self):
        assert lane_groups([9, 0, 8, 17, 16, 40, 1]) == {16: [0, 4], 8: [1, 2, 6], 32: [3], 64: [5]}

    def test_pack_slots_rejects_what_a_slot_cannot_hold(self):
        import struct

        assert pack_slots([(1, 0), ()], 8) == 1 and pack_slots([(), (2, 1)], 8) == (2 | 1 << 8) << 64
        for bad in ([(256,)], [(-1,)], [("x",)], [(0,) * 9], [(0,) * 17]):
            with pytest.raises(struct.error):
                pack_slots(bad, 8)


# The one-stream decoder the run decoder replaced: the reference.
def reference_columns_to_masks(stream: int, n: int) -> tuple[int, ...]:
    low = _reverse(stream, n * (n - 1) >> 1)
    return symmetric_masks([low >> (v * (v - 1) >> 1) & (1 << v) - 1 for v in range(n)])


def column_slots(streams, n, fill=0, high=0):
    """Each stream big-endian in its own slot above ``fill`` low bits, all set, with ``high`` above it."""
    size = _lane_width(n) ** 2 >> 3
    nbits = n * (n - 1) >> 1
    return b"".join([((high << nbits | s) << fill | (1 << fill) - 1).to_bytes(size, "big") for s in streams])


class TestColumnDecoder:
    @pytest.mark.parametrize("n", range(MAX_VERTICES + 1))
    def test_runs_match_the_one_stream_reference(self, n):
        rng = random.Random(n)
        nbits = n * (n - 1) // 2
        streams = [0, (1 << nbits) - 1] + [rng.getrandbits(nbits) for _ in range(40)]
        want = {s: reference_columns_to_masks(s, n) for s in streams}
        for count in (1, 255, 256, 257):
            run = [streams[i % len(streams)] for i in range(count)]
            got = columns_to_masks(column_slots(run, n), n)
            assert got == [want[s] for s in run], (n, count)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 16, 17, 33, 63, 64])
    def test_bits_below_fill_and_above_the_stream_are_ignored(self, n):
        rng = random.Random(100 + n)
        nbits = n * (n - 1) // 2
        size = _lane_width(n) ** 2
        streams = [0, (1 << nbits) - 1] + [rng.getrandbits(nbits) for _ in range(20)]
        want = [reference_columns_to_masks(s, n) for s in streams]
        for fill in (0, 1, 5, 23):
            for high in (1, (1 << size - nbits - fill) - 1):
                assert columns_to_masks(column_slots(streams, n, fill, high), n, fill) == want, (n, fill, high)

    def test_empty_run(self):
        assert columns_to_masks(b"", 8) == columns_to_masks(b"", 64) == []
