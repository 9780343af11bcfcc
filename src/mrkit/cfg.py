"""Annotated control-flow graphs and their DOT-format serialization.

A CFG here is a directed graph whose nodes carry one of twenty closed
operation labels (``NodeOp``), the one label vocabulary of both routes a
graph arrives by: the bundled mini-IR lowering emits ``NodeOp`` members
itself, and an externally produced ``.dot`` file spells each label as its
``NodeOp`` value.  Both routes meet the same structural invariants, checked
by :func:`validate` where the graph enters (``parse_program``'s lowering
and :func:`parse_dot`):

* exactly one ``start`` node with in-degree 0 and one ``exit`` node with
  out-degree 0,
* every node reachable from ``start`` and ``exit`` reachable from every
  node,
* unique node ids and no duplicated edges.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property


class NodeOp(str, Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    OR = "or"
    AND = "and"
    IF = "if"
    ASSI = "assi"
    EQL = "eql"
    GEQL = "geql"
    GT = "gt"
    LEQL = "leql"
    LT = "lt"
    NEQL = "neql"
    START = "start"
    REM = "rem"
    FCALL = "fcall"
    RETURN = "return"
    EXIT = "exit"
    GOTO = "goto"

    def __str__(self) -> str:  # "assi" rather than "NodeOp.ASSI" in messages
        return self.value


_LABELS_BY_VALUE = {op.value: op for op in NodeOp}


class CfgError(ValueError):
    """Structural problem while building or serializing a CFG."""


class DotParseError(CfgError):
    """Malformed DOT input; carries the 1-based source line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Diagnostic:
    message: str
    node: int | None = None

    def __str__(self) -> str:
        where = f" (node {self.node})" if self.node is not None else ""
        return f"{self.message}{where}"


@dataclass(frozen=True)
class AnnotatedCfg:
    """Immutable operation-labelled directed graph.

    Nodes are dense integers ``0..n-1`` in declaration order; ``ops[i]`` is
    the label of node ``i``.  Edge order follows the source (file or
    lowering emission) and is preserved by ``emit_dot``.
    """

    name: str
    ops: tuple[NodeOp, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.ops)
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n):
                raise CfgError(f"edge ({a}, {b}) references a missing node")

    @property
    def node_count(self) -> int:
        return len(self.ops)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Successor ids per node, ascending (canonical iteration order)."""
        succ: list[list[int]] = [[] for _ in self.ops]
        for a, b in self.edges:
            succ[a].append(b)
        return tuple(tuple(sorted(s)) for s in succ)

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        pred: list[list[int]] = [[] for _ in self.ops]
        for a, b in self.edges:
            pred[b].append(a)
        return tuple(tuple(sorted(p)) for p in pred)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """``ops[i].value`` per node, read once per graph."""
        return tuple(op.value for op in self.ops)

    @cached_property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        """:func:`validate`'s result, computed once per graph: the check
        where a graph enters is the one feature extraction reuses."""
        return tuple(validate(self))

    def in_degree(self, node: int) -> int:
        return len(self.predecessors[node])

    def out_degree(self, node: int) -> int:
        return len(self.successors[node])

    def label_multiset(self) -> dict[NodeOp, int]:
        counts: dict[NodeOp, int] = {}
        for op in self.ops:
            counts[op] = counts.get(op, 0) + 1
        return counts


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
    """Parse one directed graph in the dialect this toolkit emits and
    check it with :func:`validate`.

    Every node must be declared with a ``label`` attribute before (or
    after) it is used in an edge; ids are opaque strings mapped to dense
    integers in declaration order.  Duplicate node ids, duplicate edges,
    unknown labels and stray syntax are reported with their line number,
    as is the first structural diagnostic, at the line declaring its node
    (a start or exit count has no line).
    """
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


def emit_dot(cfg: AnnotatedCfg) -> str:
    """Serialize to the canonical dialect: byte-stable for a fixed graph,
    LF line endings, nodes then edges in declaration order."""
    out = [f"digraph {cfg.name or 'cfg'} {{"]
    for i, op in enumerate(cfg.ops):
        out.append(f'  n{i} [label="{op.value}"];')
    for a, b in cfg.edges:
        out.append(f"  n{a} -> n{b};")
    out.append("}")
    return "\n".join(out) + "\n"


def bfs_parents(adjacency, root: int) -> list[int]:
    """Parent per node under BFS from root, neighbors in ``adjacency``
    order (ascending id for ``successors``/``predecessors``).

    parent[root] = root; unreached nodes keep -1.
    """
    parent = [-1] * len(adjacency)
    parent[root] = root
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if parent[v] == -1:
                parent[v] = u
                queue.append(v)
    return parent


def validate(cfg: AnnotatedCfg) -> list[Diagnostic]:
    """Check every AnnotatedCfg invariant; empty result means valid."""
    diags: list[Diagnostic] = []
    seen_edges: set[tuple[int, int]] = set()
    for edge in cfg.edges:
        if edge in seen_edges:
            diags.append(Diagnostic(f"duplicate edge {edge[0]} -> {edge[1]}"))
        seen_edges.add(edge)

    starts = [i for i, op in enumerate(cfg.ops) if op is NodeOp.START]
    exits = [i for i, op in enumerate(cfg.ops) if op is NodeOp.EXIT]
    if len(starts) != 1:
        diags.append(Diagnostic(f"expected exactly one start node, found {len(starts)}"))
    if len(exits) != 1:
        diags.append(Diagnostic(f"expected exactly one exit node, found {len(exits)}"))
    for i in starts:
        if cfg.in_degree(i) != 0:
            diags.append(Diagnostic(f"start node has in-degree {cfg.in_degree(i)}", i))
    for i in exits:
        if cfg.out_degree(i) != 0:
            diags.append(Diagnostic(f"exit node has out-degree {cfg.out_degree(i)}", i))

    if len(starts) == 1:
        diags += [Diagnostic("node unreachable from start", i)
                  for i, p in enumerate(bfs_parents(cfg.successors, starts[0])) if p == -1]
    if len(exits) == 1:
        diags += [Diagnostic("exit unreachable from node", i)
                  for i, p in enumerate(bfs_parents(cfg.predecessors, exits[0])) if p == -1]

    return diags
