"""Reeb graph serialization: canonical JSON, GraphML, DOT.

JSON is the lossless interchange format: fixed key order, floats printed
with 17 significant digits, so serialize -> parse -> serialize is
byte-identical.  GraphML and DOT are write-only exports for external graph
viewers.

Each format is one generator of text formatted from the graph's columns, a
block of rows at a time, and joined into chunks of about 64 KiB.  The CLI
writes each chunk as it comes, so the whole document is never held; the
library functions join the chunks into one string or bytes.

The rules of a valid graph live in :class:`~trajreeb.reeb.ReebGraph`, which
checks them as it stores its columns, so the writers check nothing.  An
edge's interval is written from its vertices' steps, the one copy the graph
holds.  The JSON reader takes each id, step and member only as a JSON
integer and epsilon and each coordinate only as a JSON number, hands the
document to its constructor, which also refuses an interval that is not
the edge's vertices' steps, and reports a refusal as a ``FormatError``;
what it accepts is written back as strict JSON.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import FormatError
from .geometry import Point3
from .io import fmt17
from .reeb import _KINDS, ReebEdge, ReebGraph, ReebVertex, VertexKind


# characters per chunk of a writer's text, and rows of a column read into
# Python objects at a time: a writer holds one chunk and one block of rows,
# never the whole document
_CHUNK_CHARS = 1 << 16
_ROWS = 256


def _chunks(pieces):
    """The strings of `pieces`, joined into chunks of about 64 KiB."""
    held, size = [], 0
    for piece in pieces:
        held.append(piece)
        size += len(piece)
        if size >= _CHUNK_CHARS:
            chunk, held, size = "".join(held), [], 0
            yield chunk
            del chunk  # not held while the next chunk's pieces are made
    if held:
        yield "".join(held)


def _vertices(r: ReebGraph):
    """(id, step, kind, location, witness) of each vertex, in id order."""
    n = r._step.shape[0]
    for lo in range(0, n, _ROWS):
        hi = min(lo + _ROWS, n)
        kinds = [_KINDS[c].value for c in r._kind[lo:hi].tolist()]
        yield from zip(range(lo, hi), r._step[lo:hi].tolist(), kinds,
                       r._location[lo:hi].tolist(), r._witness[lo:hi].tolist())


def _edges(r: ReebGraph):
    """(id, u, v, members, k1, k2) of each edge, in id order: members is its
    run of the arena, in the order stored, and k1, k2 the steps of u and v."""
    # each member id's text is made once, and a run's text joins its ranks'
    texts = np.array([str(t) for t in r._ids.tolist()], dtype=object)
    n = r._u.shape[0]
    for lo in range(0, n, _ROWS):
        hi = min(lo + _ROWS, n)
        first = r._first[lo:hi + 1].tolist()
        members = (",".join(texts.take(r._members[i:j]).tolist()) for i, j in zip(first, first[1:]))
        u, v = r._u[lo:hi], r._v[lo:hi]
        yield from zip(range(lo, hi), u.tolist(), v.tolist(), members,
                       r._step[u].tolist(), r._step[v].tolist())


def _json(r: ReebGraph):
    metadata = ",".join(f"{json.dumps(str(k))}:{json.dumps(str(r.metadata[k]))}"
                        for k in sorted(r.metadata))
    yield f'{{"epsilon":{fmt17(r.epsilon)},"metadata":{{{metadata}}},"vertices":['
    for i, k, kind, (x, y, z), w in _vertices(r):
        yield (f'{"," if i else ""}{{"id":{i},"step":{k},"kind":"{kind}",'
               f'"location":[{fmt17(x)},{fmt17(y)},{fmt17(z)}],"witness":{w}}}')
    yield '],"edges":['
    for i, u, v, members, k1, k2 in _edges(r):
        yield (f'{"," if i else ""}{{"u":{u},"v":{v},"members":[{members}],'
               f'"interval":[{k1},{k2}]}}')
    yield "]}"


def _integer(x) -> int:
    """A JSON integer, not a float, a string or a boolean."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _number(x) -> float:
    """A JSON number, not a string or a boolean."""
    if type(x) not in (int, float):
        raise TypeError(f"expected a number, got {x!r}")
    return float(x)


def graph_from_json(text: str | bytes) -> ReebGraph:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad json or utf-8, too deep, too many digits
        raise FormatError(f"reeb json: {exc}") from None
    try:
        vertices = [ReebVertex(_integer(v["id"]), _integer(v["step"]), VertexKind(v["kind"]),
                               Point3(*map(_number, v["location"])), _integer(v["witness"]))
                    for v in obj["vertices"]]
        edges = []
        for i, e in enumerate(obj["edges"]):
            k1, k2 = map(_integer, e["interval"])
            edges.append(ReebEdge(i, _integer(e["u"]), _integer(e["v"]),
                                  frozenset(map(_integer, e["members"])), (k1, k2)))
        metadata = {str(k): str(v) for k, v in obj.get("metadata", {}).items()}
        # the constructor holds the graph to its rules; the columns are
        # int64, so a larger number raises OverflowError
        return ReebGraph(vertices, edges, _number(obj["epsilon"]), metadata)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"reeb json: malformed document ({exc})") from None


_GRAPHML_KEYS = (
    ("d0", "node", "step", "long"),
    ("d1", "node", "kind", "string"),
    ("d2", "node", "x", "double"),
    ("d3", "node", "y", "double"),
    ("d4", "node", "z", "double"),
    ("d5", "node", "witness", "long"),
    ("d6", "edge", "members", "string"),
    ("d7", "edge", "interval", "string"),
    ("d8", "graph", "epsilon", "double"),
)


def _graphml(r: ReebGraph):
    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
    for kid, domain, name, typ in _GRAPHML_KEYS:
        yield f'  <key id="{kid}" for="{domain}" attr.name="{name}" attr.type="{typ}"/>\n'
    yield '  <graph id="reeb" edgedefault="undirected">\n'
    yield f'    <data key="d8">{fmt17(r.epsilon)}</data>\n'
    for i, k, kind, (x, y, z), w in _vertices(r):
        yield (f'    <node id="n{i}">\n'
               f'      <data key="d0">{k}</data>\n'
               f'      <data key="d1">{kind}</data>\n'
               f'      <data key="d2">{fmt17(x)}</data>\n'
               f'      <data key="d3">{fmt17(y)}</data>\n'
               f'      <data key="d4">{fmt17(z)}</data>\n'
               f'      <data key="d5">{w}</data>\n'
               "    </node>\n")
    for i, u, v, members, k1, k2 in _edges(r):
        yield (f'    <edge id="e{i}" source="n{u}" target="n{v}">\n'
               f'      <data key="d6">{members}</data>\n'
               f'      <data key="d7">{k1},{k2}</data>\n'
               "    </edge>\n")
    yield "  </graph>\n</graphml>\n"


def _dot(r: ReebGraph):
    yield "graph reeb {\n"
    for i, k, kind, (x, y, z), w in _vertices(r):
        yield (f'  n{i} [step={k}, kind="{kind}", '
               f'x="{fmt17(x)}", y="{fmt17(y)}", '
               f'z="{fmt17(z)}", witness={w}];\n')
    for _, u, v, members, k1, k2 in _edges(r):
        yield f'  n{u} -- n{v} [members="{members}", interval="{k1},{k2}"];\n'
    yield "}\n"


_WRITERS = {"json": _json, "graphml": _graphml, "dot": _dot}


def _graph_chunks(r: ReebGraph, fmt: str):
    """The text of a Reeb graph in one of the supported formats, formatted
    from its columns in chunks of about 64 KiB."""
    if fmt not in _WRITERS:
        raise ValueError(f"unknown graph format {fmt!r}")
    return _chunks(_WRITERS[fmt](r))


def graph_to_json(r: ReebGraph) -> str:
    return "".join(_graph_chunks(r, "json"))


def serialize_graph(r: ReebGraph, fmt: str = "json") -> bytes:
    """Render a Reeb graph in one of the supported formats, as bytes."""
    return "".join(_graph_chunks(r, fmt)).encode("utf-8")
