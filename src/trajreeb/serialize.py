"""Reeb graph serialization: canonical JSON, GraphML, DOT.

JSON is the lossless interchange format: fixed key order, floats printed
with 17 significant digits, so serialize -> parse -> serialize is
byte-identical.  GraphML and DOT are write-only exports for external graph
viewers.

The rules of a valid graph live in :class:`~trajreeb.reeb.ReebGraph`, which
checks them as it stores its columns, so the writers check nothing.  The
JSON reader takes each id, step and member only as a JSON integer and
epsilon and each coordinate only as a JSON number, hands the document to
its constructor and reports a refusal as a ``FormatError``; what it
accepts is written back as strict JSON.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .errors import FormatError
from .geometry import Point3
from .io import fmt17
from .reeb import _KINDS, ReebEdge, ReebGraph, ReebVertex, VertexKind


def _vertices(r: ReebGraph):
    """(id, step, kind, location, witness) of each vertex, in id order."""
    kinds = [_KINDS[c].value for c in r._kind.tolist()]
    return zip(itertools.count(), r._step.tolist(), kinds, r._location.tolist(),
               r._witness.tolist())


def _edges(r: ReebGraph):
    """(id, u, v, members, k1, k2) of each edge, in id order; members are
    the edge's run of the arena, written in the order it is stored."""
    first = r._first.tolist()
    # each member id's text is made once, and a run's text joins its ranks'
    texts = np.array([str(t) for t in r._ids.tolist()], dtype=object)
    members = (",".join(texts.take(r._members[i:j]).tolist()) for i, j in zip(first, first[1:]))
    return zip(itertools.count(), r._u.tolist(), r._v.tolist(), members, r._k1.tolist(),
               r._k2.tolist())


def graph_to_json(r: ReebGraph) -> str:
    parts = ['{"epsilon":', fmt17(r.epsilon), ',"metadata":{']
    parts.append(
        ",".join(
            f"{json.dumps(str(k))}:{json.dumps(str(r.metadata[k]))}"
            for k in sorted(r.metadata)
        )
    )
    parts.append('},"vertices":[')
    parts.append(",".join(
        f'{{"id":{i},"step":{k},"kind":"{kind}",'
        f'"location":[{fmt17(x)},{fmt17(y)},{fmt17(z)}],"witness":{w}}}'
        for i, k, kind, (x, y, z), w in _vertices(r)
    ))
    parts.append('],"edges":[')
    parts.append(",".join(
        f'{{"u":{u},"v":{v},"members":[{members}],"interval":[{k1},{k2}]}}'
        for _, u, v, members, k1, k2 in _edges(r)
    ))
    parts.append("]}")
    return "".join(parts)


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


def graph_to_graphml(r: ReebGraph) -> str:
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">')
    for kid, domain, name, typ in _GRAPHML_KEYS:
        out.append(f'  <key id="{kid}" for="{domain}" attr.name="{name}" attr.type="{typ}"/>')
    out.append('  <graph id="reeb" edgedefault="undirected">')
    out.append(f'    <data key="d8">{fmt17(r.epsilon)}</data>')
    for i, k, kind, (x, y, z), w in _vertices(r):
        out.append(f'    <node id="n{i}">')
        out.append(f'      <data key="d0">{k}</data>')
        out.append(f'      <data key="d1">{kind}</data>')
        out.append(f'      <data key="d2">{fmt17(x)}</data>')
        out.append(f'      <data key="d3">{fmt17(y)}</data>')
        out.append(f'      <data key="d4">{fmt17(z)}</data>')
        out.append(f'      <data key="d5">{w}</data>')
        out.append("    </node>")
    for i, u, v, members, k1, k2 in _edges(r):
        out.append(f'    <edge id="e{i}" source="n{u}" target="n{v}">')
        out.append(f'      <data key="d6">{members}</data>')
        out.append(f'      <data key="d7">{k1},{k2}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"


def graph_to_dot(r: ReebGraph) -> str:
    out = ["graph reeb {"]
    for i, k, kind, (x, y, z), w in _vertices(r):
        out.append(
            f'  n{i} [step={k}, kind="{kind}", '
            f'x="{fmt17(x)}", y="{fmt17(y)}", '
            f'z="{fmt17(z)}", witness={w}];'
        )
    for _, u, v, members, k1, k2 in _edges(r):
        out.append(f'  n{u} -- n{v} [members="{members}", interval="{k1},{k2}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def serialize_graph(r: ReebGraph, fmt: str = "json") -> bytes:
    """Render a Reeb graph in one of the supported formats, as bytes."""
    if fmt == "json":
        return graph_to_json(r).encode("utf-8")
    if fmt == "graphml":
        return graph_to_graphml(r).encode("utf-8")
    if fmt == "dot":
        return graph_to_dot(r).encode("utf-8")
    raise ValueError(f"unknown graph format {fmt!r}")
