"""Reeb graph serialization: canonical JSON, GraphML, DOT.

JSON is the lossless interchange format: fixed key order, floats printed
with 17 significant digits, so serialize -> parse -> serialize is
byte-identical.  GraphML and DOT are write-only exports for external graph
viewers.
"""

from __future__ import annotations

import json

from .errors import ContractError, FormatError
from .geometry import Point3, _check_epsilon
from .io import fmt17
from .reeb import ReebEdge, ReebGraph, ReebVertex, VertexKind


def _check(r: ReebGraph) -> None:
    for e in r.edges:
        if not e.members:
            raise ContractError(f"edge {e.id} has empty members")
        if not (0 <= e.u < len(r.vertices) and 0 <= e.v < len(r.vertices)):
            raise ContractError(f"edge {e.id} references unknown vertex")


def graph_to_json(r: ReebGraph) -> str:
    _check(r)
    parts = ['{"epsilon":', fmt17(r.epsilon), ',"metadata":{']
    parts.append(
        ",".join(
            f"{json.dumps(str(k))}:{json.dumps(str(r.metadata[k]))}"
            for k in sorted(r.metadata)
        )
    )
    parts.append('},"vertices":[')
    vparts = []
    for v in r.vertices:
        loc = ",".join(fmt17(c) for c in v.location)
        vparts.append(
            f'{{"id":{v.id},"step":{v.step},"kind":"{v.kind.value}",'
            f'"location":[{loc}],"witness":{v.witness}}}'
        )
    parts.append(",".join(vparts))
    parts.append('],"edges":[')
    eparts = []
    for e in r.edges:
        members = ",".join(str(t) for t in sorted(e.members))
        eparts.append(
            f'{{"u":{e.u},"v":{e.v},"members":[{members}],'
            f'"interval":[{e.interval[0]},{e.interval[1]}]}}'
        )
    parts.append(",".join(eparts))
    parts.append("]}")
    return "".join(parts)


def graph_from_json(text: str | bytes) -> ReebGraph:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad json or utf-8, too deep, too many digits
        raise FormatError(f"reeb json: {exc}") from None
    try:
        epsilon = float(obj["epsilon"])
        _check_epsilon(epsilon)  # json.loads takes NaN and Infinity tokens
        metadata = {str(k): str(v) for k, v in obj.get("metadata", {}).items()}
        vertices = []
        for i, v in enumerate(obj["vertices"]):
            if int(v["id"]) != i:
                raise FormatError("reeb json: vertex ids must be sequential")
            x, y, z = (float(c) for c in v["location"])
            vertices.append(
                ReebVertex(i, int(v["step"]), VertexKind(v["kind"]),
                           Point3(x, y, z), int(v["witness"]))
            )
        edges = []
        for i, e in enumerate(obj["edges"]):
            members = frozenset(int(t) for t in e["members"])
            if not members:
                raise FormatError(f"reeb json: edge {i} has empty members")
            k1, k2 = (int(k) for k in e["interval"])
            u, v = int(e["u"]), int(e["v"])
            if not (0 <= u < len(vertices) and 0 <= v < len(vertices)):
                raise FormatError(f"reeb json: edge {i} references unknown vertex")
            edges.append(ReebEdge(i, u, v, members, (k1, k2)))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"reeb json: malformed document ({exc})") from None
    return ReebGraph(tuple(vertices), tuple(edges), epsilon, metadata)


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
    _check(r)
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">')
    for kid, domain, name, typ in _GRAPHML_KEYS:
        out.append(f'  <key id="{kid}" for="{domain}" attr.name="{name}" attr.type="{typ}"/>')
    out.append('  <graph id="reeb" edgedefault="undirected">')
    out.append(f'    <data key="d8">{fmt17(r.epsilon)}</data>')
    for v in r.vertices:
        out.append(f'    <node id="n{v.id}">')
        out.append(f'      <data key="d0">{v.step}</data>')
        out.append(f'      <data key="d1">{v.kind.value}</data>')
        out.append(f'      <data key="d2">{fmt17(v.location.x)}</data>')
        out.append(f'      <data key="d3">{fmt17(v.location.y)}</data>')
        out.append(f'      <data key="d4">{fmt17(v.location.z)}</data>')
        out.append(f'      <data key="d5">{v.witness}</data>')
        out.append("    </node>")
    for e in r.edges:
        out.append(f'    <edge id="e{e.id}" source="n{e.u}" target="n{e.v}">')
        out.append(f'      <data key="d6">{",".join(str(t) for t in sorted(e.members))}</data>')
        out.append(f'      <data key="d7">{e.interval[0]},{e.interval[1]}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"


def graph_to_dot(r: ReebGraph) -> str:
    _check(r)
    out = ["graph reeb {"]
    for v in r.vertices:
        out.append(
            f'  n{v.id} [step={v.step}, kind="{v.kind.value}", '
            f'x="{fmt17(v.location.x)}", y="{fmt17(v.location.y)}", '
            f'z="{fmt17(v.location.z)}", witness={v.witness}];'
        )
    for e in r.edges:
        members = ",".join(str(t) for t in sorted(e.members))
        out.append(
            f'  n{e.u} -- n{e.v} [members="{members}", '
            f'interval="{e.interval[0]},{e.interval[1]}"];'
        )
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
