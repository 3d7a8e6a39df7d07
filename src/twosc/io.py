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

The reader decodes a run of records per pass.  It takes a file in
blocks of ``COLUMN_RUN`` lines, checks the bytes of a block's records
together and each record's size header and length.  Each block's
records with one n form a run: their bodies, each topped up with zero
digits to whole base64 groups, go through one ``a2b_base64``, the
padding bits of the whole run are checked with one mask, and each
record's bytes go into the low end of its slot for
``columns_to_masks``.  ``graph6_decode`` checks its record the same
way and decodes it as a run of one.
"""

from __future__ import annotations

import io as _io
from binascii import a2b_base64, b2a_base64
from itertools import islice
from typing import IO, Iterable, Iterator

from .core import COLUMN_RUN, MAX_VERTICES, Graph, GraphError, _decoded, _lane_width, columns_to_masks, masks_to_columns

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


# the body length of a record on n vertices: six bits a character
_LENGTHS = tuple((n * (n - 1) // 2 + 5) // 6 for n in range(MAX_VERTICES + 1))
_GRAPH6_BYTES = bytes(range(63, 127))


def _printable(text: str) -> bool:
    """Whether every character of text is a graph6 byte, 63..126."""
    return text.isascii() and not text.encode("ascii").translate(None, _GRAPH6_BYTES)


def _runs(texts: list[str]) -> tuple[dict[int, tuple[list[int], list[str]]], int, str | None]:
    """Stripped records' bodies by n, as (positions, bodies), up to the first malformed record.

    Also the position of that record, len(texts) if there is none, and
    its ``FormatError`` message or None.  An optional '>>graph6<<'
    header is dropped from each record; the records' bytes are checked
    together, and one by one only to find the first bad one.
    """
    texts = [text.removeprefix(GRAPH6_HEADER) for text in texts]
    stop = len(texts)
    if not _printable("".join(texts)):
        stop = next(i for i, text in enumerate(texts) if not _printable(text))
    runs: dict[int, tuple[list[int], list[str]]] = {}
    for i in range(stop):
        text = texts[i]
        if not text:
            return runs, i, "empty graph6 record"
        if text[0] == "~":  # long-form size
            if len(text) < 4:
                return runs, i, "truncated graph6 size header"
            if text[1] == "~":
                return runs, i, "graph6 records beyond 258047 vertices are not supported"
            n = ord(text[1]) - 63 << 12 | ord(text[2]) - 63 << 6 | ord(text[3]) - 63
            body = text[4:]
        else:
            n = ord(text[0]) - 63
            body = text[1:]
        if n > MAX_VERTICES:
            return runs, i, f"{n} vertices exceeds the {MAX_VERTICES}-vertex core"
        if len(body) != _LENGTHS[n]:
            return runs, i, f"graph6 body has {len(body)} characters, expected {_LENGTHS[n]}"
        where, bodies = runs.setdefault(n, ([], []))
        where.append(i)
        bodies.append(body)
    return runs, stop, None if stop == len(texts) else "graph6 record contains bytes outside 63..126"


def _shape(n: int) -> tuple[str, int, int, bytes, bytes]:
    """How a body on n vertices decodes.

    That is the zero digits that top it up to whole base64 groups, the
    bytes it decodes to (its stride), the padding bits at the low end of
    those, a stride with those bits set, and the zero bytes above a
    stride in its slot.
    """
    fill = -_LENGTHS[n] % 4
    stride = (_LENGTHS[n] + fill) * 3 // 4
    pad = 8 * stride - n * (n - 1) // 2
    return "?" * fill, stride, pad, ((1 << pad) - 1).to_bytes(stride, "big"), bytes((_lane_width(n) ** 2 >> 3) - stride)


_SHAPES = tuple(_shape(n) for n in range(MAX_VERTICES + 1))
_PADDING = "nonzero padding bits in graph6 record"


def _decode_run(bodies: list[str], n: int) -> tuple[list[tuple[int, ...]], int]:
    """The masks of checked bodies with one n, and the position of the first with nonzero padding (len(bodies) if none).

    Each body is topped up with zero digits to whole base64 groups of
    four, so one ``a2b_base64`` decodes the run into equal strides of
    bytes, the column stream above its padding bits; each stride goes
    into the low end of its slot for ``columns_to_masks``.
    """
    fill, stride, pad, padding, zeros = _SHAPES[n]
    count = len(bodies)
    data = a2b_base64((fill.join(bodies) + fill).encode("ascii").translate(_TO_BASE64))
    bad = int.from_bytes(data, "big") & int.from_bytes(padding * count, "big")
    first = count - 1 - (bad.bit_length() - 1) // (8 * stride) if bad else count
    slots = zeros + zeros.join([data[i * stride:(i + 1) * stride] for i in range(count)])
    return columns_to_masks(slots, n, pad), first


def graph6_decode(record: str) -> Graph:
    """Parse one graph6 record (an optional '>>graph6<<' header is stripped)."""
    runs, _, error = _runs([record.strip()])
    if error is not None:
        raise FormatError(error)
    ((n, (_, bodies)),) = runs.items()
    (masks,), first = _decode_run(bodies, n)
    if first == 0:
        raise FormatError(_PADDING)
    return _decoded(masks)


def read_graph6(handle: IO[str]) -> Iterator[Graph]:
    """Yield graphs from newline-separated graph6 records, in file order.

    The records are read in blocks of ``COLUMN_RUN`` lines, and each
    block's records with one n are decoded in one run.  Every graph
    before a malformed record is yielded before its ``FormatError``,
    which names the record's line.
    """
    lines = enumerate(handle, start=1)
    while chunk := list(islice(lines, COLUMN_RUN)):
        block = [(lineno, text) for lineno, line in chunk if (text := line.strip())]
        runs, stop, error = _runs([text for _, text in block])
        graphs = [None] * stop
        for n, (where, bodies) in runs.items():
            run, first = _decode_run(bodies, n)
            for i, masks in zip(where, run):
                graphs[i] = _decoded(masks)
            if first < len(where) and where[first] < stop:
                stop, error = where[first], _PADDING
        yield from graphs[:stop]
        if error is not None:
            raise FormatError(error, line=block[stop][0])


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
