import io
import random

import hypothesis.strategies as st
import networkx as nx
import pytest
from hypothesis import example, given, settings

import twosc.io
from twosc.core import MAX_VERTICES, Graph
from twosc.io import (
    FormatError,
    dot_encode,
    edge_list_decode,
    edge_list_encode,
    graph6_decode,
    graph6_encode,
    ingest_graph6,
    read_graph6,
    write_graph6,
)
from twosc.graphs import capped_k33, complete_bipartite, cycle_graph, empty_graph, path_graph, petersen_graph

from conftest import graphs


# The per-bit graph6 codec the packed kernel replaced: the references
# for bytes and for every FormatError message.
def reference_graph6_encode(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12 & 63) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    chunk = 0
    filled = 0
    body = []
    for v in range(1, n):
        for u in range(v):
            chunk = chunk << 1 | g.adj[v] >> u & 1
            filled += 1
            if filled == 6:
                body.append(chr(chunk + 63))
                chunk = 0
                filled = 0
    if filled:
        body.append(chr((chunk << (6 - filled)) + 63))
    return head + "".join(body)


def reference_graph6_decode(record: str) -> Graph:
    s = record.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise FormatError("empty graph6 record")
    data = [ord(c) - 63 for c in s]
    if any(x < 0 or x > 63 for x in data):
        raise FormatError("graph6 record contains bytes outside 63..126")
    if data[0] == 63:
        if len(data) < 4:
            raise FormatError("truncated graph6 size header")
        if data[1] == 63:
            raise FormatError("graph6 records beyond 258047 vertices are not supported")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if n > MAX_VERTICES:
        raise FormatError(f"{n} vertices exceeds the {MAX_VERTICES}-vertex core")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise FormatError(f"graph6 body has {len(body)} characters, expected {(nbits + 5) // 6}")
    stream = 0
    for x in body:
        stream = stream << 6 | x
    total = 6 * len(body)
    pad = total - nbits
    if pad and stream & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits in graph6 record")
    adj = [0] * n
    pos = total - 1
    for v in range(1, n):
        for u in range(v):
            if stream >> pos & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            pos -= 1
    return Graph(tuple(adj))


def decoded(decode, record):
    """The graph, or the FormatError message, that ``decode`` gives for ``record``."""
    try:
        return decode(record)
    except FormatError as exc:
        return str(exc)


# Every FormatError of the reader, each at least once: empty, byte below
# 63, byte above 126, non-ASCII, truncated long header, the long form
# beyond 258047, too many vertices, wrong body length, nonzero padding.
# A record of each kind the reader rejects: a byte outside 63..126, a
# wrong length, nonzero padding, more than 64 vertices.
BAD_RECORDS = ["G?" + chr(0x21) + "???", "G????", "Gq???@", "~?@A" + "?" * 347]

MALFORMED = [
    "", "   ", ">>graph6<<", "C>", "C ?", "C" + chr(127), "Cé", "C\u2603", "~", "~??", "~~??????",
    "~?A@", "C", "Cww", "@A", "Dw", "A`", "B~", "D~~", "I~~~~~~~~",
]


def random_graph(rng: random.Random, n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestGraph6:
    def test_cycle_roundtrip(self):
        g = cycle_graph(4)
        assert graph6_decode(graph6_encode(g)) == g

    @given(graphs(max_n=8))
    def test_roundtrip(self, g):
        assert graph6_decode(graph6_encode(g)) == g

    @given(graphs(max_n=8))
    def test_matches_networkx_encoding(self, g):
        ours = graph6_encode(g)
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert ours == theirs

    @given(graphs(max_n=8))
    def test_decodes_networkx_encoding(self, g):
        record = nx.to_graph6_bytes(to_nx(g), header=True).decode().strip()
        assert graph6_decode(record) == g

    def test_header_stripped(self):
        g = petersen_graph()
        assert graph6_decode(">>graph6<<" + graph6_encode(g)) == g

    def test_empty_and_single(self):
        assert graph6_encode(Graph(())) == "?"
        assert graph6_decode("?") == Graph(())
        assert graph6_decode(graph6_encode(Graph((0,)))) == Graph((0,))

    def test_long_size_form(self):
        g = Graph.from_edges(63, [(i, i + 1) for i in range(62)])
        record = graph6_encode(g)
        assert record.startswith("~")
        assert graph6_decode(record) == g
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert record == theirs

    def test_too_many_vertices_rejected(self):
        record = nx.to_graph6_bytes(nx.empty_graph(65), header=False).decode().strip()
        with pytest.raises(FormatError):
            graph6_decode(record)

    def test_malformed_records(self):
        with pytest.raises(FormatError):
            graph6_decode("")
        with pytest.raises(FormatError):
            graph6_decode("C")  # truncated body
        with pytest.raises(FormatError):
            graph6_decode("C" + chr(0x20))  # byte below 63
        with pytest.raises(FormatError):
            graph6_decode("@" + "A")  # n=1 needs no body


    @settings(max_examples=200, deadline=None)
    @given(graphs(min_n=0, max_n=MAX_VERTICES))
    @example(Graph.from_edges(62, [(0, 61)]))
    @example(Graph.from_edges(63, [(0, 62), (61, 62)]))
    @example(Graph.from_edges(64, [(u, v) for u in range(64) for v in range(u + 1, 64) if (u + v) % 3]))
    def test_matches_reference_codec(self, g):
        record = graph6_encode(g)
        assert record == reference_graph6_encode(g)
        assert graph6_decode(record) == reference_graph6_decode(record) == g

    @pytest.mark.parametrize("record", MALFORMED)
    def test_format_errors_match_reference(self, record):
        with pytest.raises(FormatError) as err:
            graph6_decode(record)
        assert str(err.value) == decoded(reference_graph6_decode, record)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=140), max_size=14))
    def test_arbitrary_text_decodes_like_reference(self, record):
        assert decoded(graph6_decode, record) == decoded(reference_graph6_decode, record)


class TestGraph6Streams:
    def test_file_order_and_line_numbers(self, tmp_path):
        path = tmp_path / "cat.g6"
        gs = [cycle_graph(4), capped_k33(), complete_bipartite(2, 3)]
        with open(path, "w") as handle:
            write_graph6(gs, handle)
        assert list(ingest_graph6(str(path))) == gs

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("")
        assert list(ingest_graph6(str(path))) == []

    def test_truncated_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text(graph6_encode(cycle_graph(4)) + "\nD\n")
        with pytest.raises(FormatError) as err:
            list(ingest_graph6(str(path)))
        assert err.value.line == 2

    def test_blank_lines_skipped(self):
        text = "\n" + graph6_encode(cycle_graph(4)) + "\n\n"
        assert list(read_graph6(io.StringIO(text))) == [cycle_graph(4)]

    @pytest.mark.parametrize("before, blank", [(0, 300), (1, 300), (1, 600), (256, 256)])
    def test_blocks_of_blank_lines_skipped(self, before, blank):
        # whole blocks of blank and whitespace-only lines before a record
        lines = [graph6_encode(cycle_graph(4))] * before + [("", "  ", "\t")[i % 3] for i in range(blank)]
        lines.append(graph6_encode(path_graph(5)))
        assert list(read_graph6(io.StringIO("\n".join(lines) + "\n"))) == [cycle_graph(4)] * before + [path_graph(5)]

    @pytest.mark.parametrize("count", [1, 255, 256, 257, 700])
    def test_mixed_files_read_as_record_by_record(self, count):
        # short and long size forms, headers and blank lines, with runs of
        # one n broken up inside each block
        rng = random.Random(count)
        lines = []
        for i in range(count):
            n = rng.choice([0, 1, 2, 5, 8, 8, 8, 9, 16, 17, 40, 62, 63, 64])
            record = graph6_encode(random_graph(rng, n))
            lines.append((">>graph6<<" if i % 7 == 3 else "") + record)
            if i % 11 == 5:
                lines.append("")
        text = "\n".join(lines) + "\n"
        want = [graph6_decode(line) for line in lines if line]
        assert list(read_graph6(io.StringIO(text))) == want

    @pytest.mark.parametrize("bad", BAD_RECORDS)
    @pytest.mark.parametrize("at", [0, 100, 255, 256, 300])
    def test_a_bad_record_after_every_earlier_graph(self, tmp_path, bad, at):
        # every graph before the bad record comes out in file order, then
        # the FormatError that graph6_decode raises, with the record's line
        rng = random.Random(at)
        records = [graph6_encode(random_graph(rng, rng.choice([7, 8, 8, 9, 20]))) for _ in range(400)]
        records[at] = bad
        path = tmp_path / "bad.g6"
        path.write_text("\n".join(records) + "\n")
        with pytest.raises(FormatError) as want:
            graph6_decode(bad)
        got = []
        with pytest.raises(FormatError) as err:
            for g in ingest_graph6(str(path)):
                got.append(g)
        assert got == [graph6_decode(r) for r in records[:at]]
        assert err.value.line == at + 1
        assert str(err.value) == f"line {at + 1}: {want.value}"

    def test_a_closed_reader_leaves_no_open_file(self, tmp_path, monkeypatch):
        path = tmp_path / "many.g6"
        path.write_text("\n".join([graph6_encode(cycle_graph(5))] * 600 + ["D"]) + "\n")
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(twosc.io, "open", recording_open, raising=False)
        early = ingest_graph6(str(path))
        assert next(early) == cycle_graph(5)
        early.close()
        dropped = ingest_graph6(str(path))
        next(dropped)
        del dropped
        with pytest.raises(FormatError):
            list(ingest_graph6(str(path)))
        assert len(handles) == 3 and all(handle.closed for handle in handles)


class TestEdgeList:
    def test_roundtrip(self):
        g = capped_k33()
        assert edge_list_decode(edge_list_encode(g)) == g

    def test_comments_and_blanks(self):
        text = "# a comment\n\n4\n0 1  # inline\n2 3\n"
        assert edge_list_decode(text) == Graph.from_edges(4, [(0, 1), (2, 3)])

    def test_errors_carry_line(self):
        with pytest.raises(FormatError) as err:
            edge_list_decode("4\n0 9\n")
        assert err.value.line == 2
        with pytest.raises(FormatError):
            edge_list_decode("4\n1 1\n")
        with pytest.raises(FormatError):
            edge_list_decode("")

    @pytest.mark.parametrize("text, line, message", [
        ("4 5\n", 1, "first data line must be the vertex count"),
        ("# header\nfour\n", 2, "bad vertex count 'four'"),
        ("-3\n", 1, "vertex count must be non-negative"),
        ("4\n0 1\n0 1 2\n", 3, "expected 'u v', got '0 1 2'"),
        ("4\n0 x\n", 2, "non-integer endpoint in '0 x'"),
    ])
    def test_each_error_names_its_line(self, text, line, message):
        with pytest.raises(FormatError) as err:
            edge_list_decode(text)
        assert err.value.line == line and str(err.value) == f"line {line}: {message}"


class TestDot:
    def test_exact_output(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        assert dot_encode(g) == "graph G {\n  3;\n  0 -- 1;\n  1 -- 2;\n}\n"

    def test_every_vertex_appears(self):
        out = dot_encode(empty_graph(3))
        for v in range(3):
            assert f"{v};" in out
