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
        for s in succ:
            s.sort()
        return tuple(map(tuple, succ))

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        pred: list[list[int]] = [[] for _ in self.ops]
        for a, b in self.edges:
            pred[b].append(a)
        for p in pred:
            p.sort()
        return tuple(map(tuple, pred))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """``ops[i].value`` per node, read once per graph (``_value_`` is
        the attribute behind the ``value`` property)."""
        return tuple([op._value_ for op in self.ops])

    @cached_property
    def start_parents(self) -> tuple[int, ...]:
        """BFS parents from the first start node, for validate and PF."""
        return tuple(bfs_parents(self.successors, self.ops.index(NodeOp.START)))

    @cached_property
    def exit_parents(self) -> tuple[int, ...]:
        """BFS parents back from the first exit node, for validate and PF."""
        return tuple(bfs_parents(self.predecessors, self.ops.index(NodeOp.EXIT)))

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


_ID = r'(?:"([^"]*)"|([A-Za-z0-9_.]+))'  # groups: a quoted id's inside, a bare id
_STATEMENT_RE = re.compile(  # a node ``ID [label=ID]`` or an edge ``ID -> ID``
    rf"\s*{_ID}\s*(?:\[\s*label\s*=\s*{_ID}\s*\]|->\s*{_ID})\s*;?\s*$")
_BARE_RE = re.compile(r"[A-Za-z0-9_.]+")
_HEADER_RE = re.compile(rf"\s*digraph\s*{_ID}?\s*\{{\s*$")


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
    # one pass over the numbered lines: the header, the statements up to
    # ``}``, then the blank lines that may follow it
    numbered = enumerate(lines, start=1)
    for lineno, raw in numbered:
        if raw.strip():
            m = _HEADER_RE.match(raw)
            if not m:
                raise DotParseError("expected 'digraph <name> {'", lineno)
            quoted, bare = m.groups()
            name = quoted or bare or ""
            break
    else:
        raise DotParseError("empty input, expected 'digraph <name> {'", len(lines) or 1)

    ids: dict[str, int] = {}
    ops: list[NodeOp] = []
    node_lines: list[int] = []
    raw_edges: list[tuple[str, str, int]] = []
    for lineno, raw in numbered:
        m = _STATEMENT_RE.match(raw)
        if m is None:
            line = raw.strip()
            if line == "}":
                break
            if line:
                raise DotParseError(f"unrecognized statement {line!r}", lineno)
            continue
        quoted, bare, quoted_label, label, quoted_dst, dst = m.groups()
        src = bare if quoted is None else quoted
        if dst is not None or quoted_dst is not None:
            raw_edges.append((src, dst if quoted_dst is None else quoted_dst, lineno))
            continue
        if src in ids:
            raise DotParseError(f"duplicate node id {src!r}", lineno)
        if quoted_label is not None:
            label = quoted_label
        op = _LABELS_BY_VALUE.get(label)
        if op is None:
            raise DotParseError(f"unknown node label {label!r}", lineno)
        ids[src] = len(ops)
        ops.append(op)
        node_lines.append(lineno)
    else:
        raise DotParseError("missing closing '}'", len(lines))
    for lineno, raw in numbered:
        if raw.strip():
            raise DotParseError("content after closing '}'", lineno)

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
    LF line endings, nodes then edges in declaration order.  A name that is
    not a bare ``[A-Za-z0-9_.]+`` token, the empty one too, is quoted, so
    that :func:`parse_dot` reads it back; one that no quoting could carry,
    with a ``"`` or a line break, is a ValueError."""
    name = cfg.name
    if not _BARE_RE.fullmatch(name):
        if '"' in name or len(f"{name}.".splitlines()) > 1:
            raise ValueError(f"graph name {name!r} cannot be written to DOT")
        name = f'"{name}"'
    return "\n".join([
        f"digraph {name} {{",
        *[f'  n{i} [label="{label}"];' for i, label in enumerate(cfg.labels)],
        *[f"  n{a} -> n{b};" for a, b in cfg.edges],
        "}\n"])


def bfs_parents(adjacency, root: int) -> list[int]:
    """Parent per node under BFS from root, neighbors in ``adjacency``
    order (ascending id for ``successors``/``predecessors``).

    parent[root] = root; unreached nodes keep -1.
    """
    parent = [-1] * len(adjacency)
    parent[root] = root
    order = [root]  # the BFS queue: visited in place while it grows
    for u in order:
        for v in adjacency[u]:
            if parent[v] == -1:
                parent[v] = u
                order.append(v)
    return parent


def validate(cfg: AnnotatedCfg) -> list[Diagnostic]:
    """Check every AnnotatedCfg invariant; empty result means valid."""
    diags: list[Diagnostic] = []
    if len(set(cfg.edges)) < len(cfg.edges):
        seen_edges: set[tuple[int, int]] = set()
        for edge in cfg.edges:
            if edge in seen_edges:
                diags.append(Diagnostic(f"duplicate edge {edge[0]} -> {edge[1]}"))
            seen_edges.add(edge)

    start, exit_ = NodeOp.START, NodeOp.EXIT
    starts = [i for i, op in enumerate(cfg.ops) if op is start]
    exits = [i for i, op in enumerate(cfg.ops) if op is exit_]
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

    if len(starts) == 1 and -1 in cfg.start_parents:
        diags += [Diagnostic("node unreachable from start", i)
                  for i, p in enumerate(cfg.start_parents) if p == -1]
    if len(exits) == 1 and -1 in cfg.exit_parents:
        diags += [Diagnostic("exit unreachable from node", i)
                  for i, p in enumerate(cfg.exit_parents) if p == -1]

    return diags
