"""Reading and writing graphs: graph6, plain edge lists, DOT export.

graph6 packing is bit-exact: the size header N(n), then the upper
triangle in column order, six bits per printable character (byte values
63..126).  Encoding always emits the canonical byte form, so a
decode/encode round trip is byte-identical for canonical records.

The body's bit stream, before its zero padding to a multiple of six,
is the column stream of ``core.columns_to_masks`` and
``core.masks_to_columns``; ``canon.partition_code`` is the same stream
of the canonical form after a leading 1 bit.  So the body of the
record of ``canonical_graph(g)`` is the bits of ``partition_code(g)``
below its leading 1, padded, and one decoder reads both.
"""

from __future__ import annotations

import io as _io
from binascii import a2b_base64, b2a_base64
from typing import IO, Iterable, Iterator

from .core import Graph, GraphError, MAX_VERTICES, _decoded, columns_to_masks, masks_to_columns

GRAPH6_HEADER = ">>graph6<<"


class FormatError(GraphError):
    """Malformed external graph data; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# A graph6 character carries six bits, as a base64 digit does, so the
# C codec in binascii does the packing: the tables map base64 digits to
# graph6 characters (value + 63) and back.
_BASE64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_FROM_BASE64 = bytes.maketrans(_BASE64_DIGITS, bytes(range(63, 127)))
_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64_DIGITS)


def graph6_encode(g: Graph) -> str:
    """The graph6 record of g (no trailing newline, no optional header)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12 & 63) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    nbits = n * (n - 1) // 2
    # zero bits up to whole base64 groups of 24 bits
    fill = -nbits % 24
    data = (masks_to_columns(g.adj) << fill).to_bytes((nbits + fill) // 8, "big")
    return head + b2a_base64(data, newline=False)[:(nbits + 5) // 6].translate(_FROM_BASE64).decode("ascii")


def graph6_decode(record: str) -> Graph:
    """Parse one graph6 record (an optional '>>graph6<<' header is stripped)."""
    s = record.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise FormatError("empty graph6 record")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        data = None
    if data is None or min(data) < 63 or max(data) > 126:
        raise FormatError("graph6 record contains bytes outside 63..126")
    if data[0] == 126:  # '~' long-form size
        if len(data) < 4:
            raise FormatError("truncated graph6 size header")
        if data[1] == 126:
            raise FormatError("graph6 records beyond 258047 vertices are not supported")
        n = data[1] - 63 << 12 | data[2] - 63 << 6 | data[3] - 63
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n > MAX_VERTICES:
        raise FormatError(f"{n} vertices exceeds the {MAX_VERTICES}-vertex core")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise FormatError(f"graph6 body has {len(body)} characters, expected {(nbits + 5) // 6}")
    # whole base64 groups of four digits; the padding bits, and the fill
    # digits' bits, are the low ``pad`` bits
    fill = -len(body) % 4
    stream = int.from_bytes(a2b_base64(body.translate(_TO_BASE64) + b"A" * fill), "big")
    pad = 6 * (len(body) + fill) - nbits
    if stream & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits in graph6 record")
    return _decoded(columns_to_masks(stream >> pad, n))


def read_graph6(handle: IO[str]) -> Iterator[Graph]:
    """Yield graphs from newline-separated graph6 records, in file order."""
    for lineno, line in enumerate(handle, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            yield graph6_decode(text)
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno) from None


def ingest_graph6(path: str) -> Iterator[Graph]:
    """Stream graphs from a graph6 file; malformed records report their line."""
    with open(path, "r", encoding="ascii") as handle:
        yield from read_graph6(handle)


def write_graph6(graphs: Iterable[Graph], handle: IO[str]) -> None:
    for g in graphs:
        handle.write(graph6_encode(g) + "\n")


def edge_list_encode(g: Graph) -> str:
    """Plain text: first line the vertex count, then one '<u> <v>' per edge."""
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def edge_list_decode(text: str) -> Graph:
    """Parse the plain edge-list format; '#' starts a comment, blanks ignored."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise FormatError("first data line must be the vertex count", line=lineno)
            try:
                n = int(parts[0])
            except ValueError:
                raise FormatError(f"bad vertex count {parts[0]!r}", line=lineno) from None
            if n < 0:
                raise FormatError("vertex count must be non-negative", line=lineno)
            continue
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"non-integer endpoint in {line!r}", line=lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u}, {v}) outside 0..{n - 1}", line=lineno)
        if u == v:
            raise FormatError(f"self-loop at {u}", line=lineno)
        edges.append((u, v))
    if n is None:
        raise FormatError("no vertex count found")
    return Graph.from_edges(n, edges)


def dot_encode(g: Graph, name: str = "G") -> str:
    """DOT text for visualization (undirected, default styling)."""
    out = _io.StringIO()
    out.write(f"graph {name} {{\n")
    isolated = [v for v in g.vertices() if g.degree(v) == 0]
    for v in isolated:
        out.write(f"  {v};\n")
    for u, v in g.edges():
        out.write(f"  {u} -- {v};\n")
    out.write("}\n")
    return out.getvalue()
