"""``parse_dot`` as mrkit built it before one regex matched each statement
line: a node regex tried first, then an edge regex, each token unquoted
after the match.  ``test_cfg.py`` requires ``mrkit.cfg.parse_dot`` to give
the same graph, or the same DotParseError text and line, on every input.
"""

from __future__ import annotations

import re

from mrkit.cfg import AnnotatedCfg, DotParseError, NodeOp

_LABELS_BY_VALUE = {op.value: op for op in NodeOp}

_NODE_RE = re.compile(
    r'^\s*(?P<id>"[^"]*"|[A-Za-z0-9_.]+)\s*\[\s*label\s*=\s*'
    r'(?P<label>"[^"]*"|[A-Za-z0-9_.]+)\s*\]\s*;?\s*$'
)
_EDGE_RE = re.compile(
    r'^\s*(?P<src>"[^"]*"|[A-Za-z0-9_.]+)\s*->\s*'
    r'(?P<dst>"[^"]*"|[A-Za-z0-9_.]+)\s*;?\s*$'
)
_HEADER_RE = re.compile(r'^\s*digraph\s*(?P<name>"[^"]*"|[A-Za-z0-9_.]+)?\s*\{\s*$')


def _unquote(token: str) -> str:
    if token.startswith('"') and token.endswith('"'):
        return token[1:-1]
    return token


def parse_dot(text: str) -> AnnotatedCfg:
    lines = text.splitlines()
    ids: dict[str, int] = {}
    ops: list[NodeOp] = []
    node_lines: list[int] = []
    raw_edges: list[tuple[str, str, int]] = []
    name = ""
    seen_header = False
    seen_footer = False

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not seen_header:
            m = _HEADER_RE.match(raw)
            if not m:
                raise DotParseError("expected 'digraph <name> {'", lineno)
            name = _unquote(m.group("name") or "")
            seen_header = True
            continue
        if seen_footer:
            raise DotParseError("content after closing '}'", lineno)
        if line == "}":
            seen_footer = True
            continue
        m = _NODE_RE.match(raw)
        if m:
            node_id = _unquote(m.group("id"))
            if node_id in ids:
                raise DotParseError(f"duplicate node id {node_id!r}", lineno)
            label = _unquote(m.group("label"))
            op = _LABELS_BY_VALUE.get(label)
            if op is None:
                raise DotParseError(f"unknown node label {label!r}", lineno)
            ids[node_id] = len(ops)
            ops.append(op)
            node_lines.append(lineno)
            continue
        m = _EDGE_RE.match(raw)
        if m:
            raw_edges.append((_unquote(m.group("src")), _unquote(m.group("dst")), lineno))
            continue
        raise DotParseError(f"unrecognized statement {line!r}", lineno)

    if not seen_header:
        raise DotParseError("empty input, expected 'digraph <name> {'", len(lines) or 1)
    if not seen_footer:
        raise DotParseError("missing closing '}'", len(lines))

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for src, dst, lineno in raw_edges:
        if src not in ids:
            raise DotParseError(f"edge references undeclared node {src!r}", lineno)
        if dst not in ids:
            raise DotParseError(f"edge references undeclared node {dst!r}", lineno)
        edge = (ids[src], ids[dst])
        if edge in seen:
            raise DotParseError(f"duplicate edge {src!r} -> {dst!r}", lineno)
        seen.add(edge)
        edges.append(edge)

    cfg = AnnotatedCfg(name=name, ops=tuple(ops), edges=tuple(edges))
    for diag in cfg.diagnostics:
        raise DotParseError(diag.message,
                            None if diag.node is None else node_lines[diag.node])
    return cfg
