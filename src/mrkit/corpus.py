"""Dataset manifests, the bundled labelled corpus, label sets, and corpus
statistics.

The package ships a 100-method reference label set, mini-IR sources for 68
of the methods (the bundled manifest has no ``dot`` rows), one
externally-shaped ``.dot`` CFG of the worked example, and an anomaly
register naming the bundled methods whose reference labels are not
reproducible by execution (with the offending relations and the reason).
File formats are documented in ``docs/formats.md``.
"""

from __future__ import annotations

import csv
import io
import os
import stat
from collections.abc import Iterable
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .cfg import AnnotatedCfg, DotParseError, parse_dot
from .mir import Function, MirError, parse_program

# the six metamorphic relations, in the column order of every labels file;
# ``oracle`` defines what each one means
MR_IDS = ("ADD", "MUL", "PER", "INC", "EXC", "INV")


class CorpusError(ValueError):
    pass


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class MrLabelSet:
    labels: dict[str, bool]

    def __post_init__(self) -> None:
        if set(self.labels) != set(MR_IDS):
            raise OracleError(f"label set must cover exactly {MR_IDS}")

    def __getitem__(self, mr: str) -> bool:
        return self.labels[mr]

    def as_bits(self) -> tuple[int, ...]:
        return tuple(1 if self.labels[mr] else 0 for mr in MR_IDS)

    @classmethod
    def from_bits(cls, bits) -> "MrLabelSet":
        bits = list(bits)
        if len(bits) != 6 or any(b not in (0, 1) for b in bits):
            raise OracleError(f"need six 0/1 cells, got {bits!r}")
        return cls({mr: bool(b) for mr, b in zip(MR_IDS, bits)})


def csv_text(rows: Iterable[Iterable]) -> str:
    """``rows`` as CSV with LF line ends and the csv module's minimal
    quoting: only a cell holding a ``,``, a ``"`` or a line feed is quoted,
    so every other cell, a method name included, keeps its bytes.  Every
    CSV mrkit writes goes through it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def json_text(obj) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it
    after ``dataclasses.asdict`` of every dataclass in it: a two-space
    indent, ``","`` and ``": "`` separators, non-ASCII escaped, and floats
    (numpy's too) as ``float.__repr__`` or ``NaN``/``Infinity``/
    ``-Infinity``.  A dataclass is read as its fields, a tuple as a list.
    A dict key that is not a str, or a value that is not a str, int, float,
    bool, None, list, tuple, dict or dataclass (a numpy int, say), is a
    TypeError.  report.json goes through it."""
    out: list[str] = []
    _json_into(obj, out, "\n")
    return "".join(out)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_JSON_INFINITIES = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def _json_into(obj, out: list[str], newline: str) -> None:
    """Append ``obj``'s JSON to ``out``; ``newline`` ends the line before
    ``obj``'s and holds its indent."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_JSON_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append("NaN" if obj != obj else _JSON_INFINITIES.get(obj) or float.__repr__(obj))
    elif is_dataclass(obj) and not isinstance(obj, type):
        _json_into({f.name: getattr(obj, f.name) for f in fields(obj)}, out, newline)
    elif isinstance(obj, (list, tuple, dict)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = newline + "  "
        if isinstance(obj, dict):
            if not all(isinstance(key, str) for key in obj):
                raise TypeError("keys must be str")
            out.append("{")
            for n, key in enumerate(sorted(obj)):
                out.append(("," if n else "") + inner + encode_basestring_ascii(key) + ": ")
                _json_into(obj[key], out, inner)
            out.append(newline + "}")
        else:
            out.append("[")
            for n, item in enumerate(obj):
                out.append(("," if n else "") + inner)
                _json_into(item, out, inner)
            out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@dataclass(frozen=True)
class DatasetEntry:
    method_id: int
    name: str
    source_kind: str  # "mir" | "dot" | "none"
    source_path: Path | None
    labels: MrLabelSet | None = None


def _parse_source(entry: DatasetEntry, parse):
    """``parse`` of the entry's source; a fault in it, or text that is not
    UTF-8, names the file."""
    try:
        return parse(entry.source_path.read_text())
    except (MirError, DotParseError, UnicodeDecodeError) as exc:
        raise CorpusError(f"{entry.source_path}: {exc}") from None


@dataclass(frozen=True)
class Dataset:
    entries: tuple[DatasetEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, name: str) -> DatasetEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def with_sources(self) -> "Dataset":
        return Dataset(tuple(e for e in self.entries if e.source_kind != "none"))

    def load_function(self, entry: DatasetEntry) -> Function:
        if entry.source_kind != "mir":
            raise CorpusError(f"{entry.name} has no mini-IR source")
        program = _parse_source(entry, parse_program)
        try:
            return program.function(entry.name)
        except KeyError:
            raise CorpusError(
                f"{entry.source_path} defines no function {entry.name!r}") from None

    def load_cfg(self, entry: DatasetEntry) -> AnnotatedCfg:
        from .mir import lower_to_cfg

        if entry.source_kind == "mir":
            return lower_to_cfg(self.load_function(entry))
        if entry.source_kind == "dot":
            return _parse_source(entry, parse_dot)
        raise CorpusError(f"{entry.name} has no source to build a CFG from")


@dataclass(frozen=True)
class CorpusStats:
    per_mr: dict[str, tuple[int, int]]  # mr -> (match, non-match)
    histogram: dict[int, int]           # matching-MR count -> methods

    def total(self) -> int:
        return sum(self.histogram.values())


def _table(text: str, origin: str | Path, header: tuple[str, ...]):
    """Yield ``(line, cells)`` for each non-blank row of a CSV table with
    ``header``; ``line`` is where the row ends in ``text``.  Another header,
    an empty text included, or a row of another width is a CorpusError."""
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != list(header):
        raise CorpusError(f"{origin}: header must be {','.join(header)}")
    for cells in reader:
        if not cells:
            continue
        if len(cells) != len(header):
            raise CorpusError(f"{origin}:{reader.line_num}: expected "
                              f"{len(header)} cells, got {len(cells)}")
        yield reader.line_num, cells


def _method_id(cell: str, where: str, seen: set[int]) -> int:
    """``cell`` as a method id, added to ``seen``.  A cell that is not the
    id's own decimal spelling (``str(int(cell)) == cell``, so ``1_0``,
    ``+3`` and ``07`` are bad) or an id already in ``seen`` is refused."""
    try:
        method_id = int(cell)
    except ValueError:
        method_id = None
    if method_id is None or str(method_id) != cell:
        raise CorpusError(f"{where}: bad method id {cell!r}")
    if method_id in seen:
        raise CorpusError(f"{where}: duplicate method id {method_id}")
    seen.add(method_id)
    return method_id


LABELS_HEADER = ("method_id", *MR_IDS)


def load_labels_csv(path: str | Path) -> dict[int, MrLabelSet]:
    """Read a ``method_id,ADD,...,INV`` file of 0/1 cells keyed by id."""
    path = Path(path)
    return parse_labels_csv(path.read_text(), str(path))


def parse_labels_csv(text: str, origin: str = "<labels>") -> dict[int, MrLabelSet]:
    out: dict[int, MrLabelSet] = {}
    seen_ids: set[int] = set()
    for line, row in _table(text, origin, LABELS_HEADER):
        method_id = _method_id(row[0], f"{origin}:{line}", seen_ids)
        for cell in row[1:]:
            if cell not in ("0", "1"):
                raise CorpusError(f"{origin}:{line}: label cells must be 0 or 1, got {cell!r}")
        out[method_id] = MrLabelSet.from_bits([int(cell) for cell in row[1:]])
    return out


def labels_to_csv(rows: list[tuple[str, MrLabelSet]]) -> str:
    """Canonical labels CSV: header then one 0/1 row per method id."""
    return csv_text([LABELS_HEADER, *((method_id, *labels.as_bits())
                                      for method_id, labels in rows)])


def _resolve_source(base: Path, raw_path: str,
                    resolved_dirs: dict[str, Path]) -> tuple[Path, bool]:
    """``Path(base, raw_path).resolve()`` and whether it is a file.  The
    directory part of ``raw_path`` is resolved once per key of
    ``resolved_dirs``; when one ``lstat`` finds a regular file at that
    directory joined with the last part (empty for ``c/x.mir/``), that is
    the resolved path.  Anything else there (a symlink, a directory, as
    ``..`` is, nothing) takes ``resolve()`` and ``is_file()``."""
    head, name = os.path.split(raw_path)
    resolved = resolved_dirs.get(head)
    if resolved is None:
        resolved = resolved_dirs[head] = Path(base, head).resolve()
    source = resolved / name
    try:
        if stat.S_ISREG(os.lstat(source).st_mode):
            return source, True
    except OSError:
        pass
    source = Path(base, raw_path).resolve()
    return source, source.is_file()


def load_manifest(path: str | Path) -> Dataset:
    """Load a dataset manifest and the ``labels.csv`` beside it, if any;
    relative source paths resolve against the manifest's directory, every
    referenced source must be a file, and method ids and names are unique."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"manifest not found: {path}")
    base = path.parent
    labels_path = base / "labels.csv"
    labels = load_labels_csv(labels_path) if labels_path.exists() else {}

    entries: list[DatasetEntry] = []
    seen_ids: set[int] = set()
    seen_names: set[str] = set()
    resolved_dirs: dict[str, Path] = {}
    rows = _table(path.read_text(), path,
                  ("method_id", "name", "source_kind", "source_path"))
    for line, (cell, name, kind, raw_path) in rows:
        method_id = _method_id(cell, f"{path}:{line}", seen_ids)
        if name in seen_names:
            raise CorpusError(f"{path}:{line}: duplicate method name {name!r}")
        seen_names.add(name)
        if kind not in ("mir", "dot", "none"):
            raise CorpusError(f"{path}:{line}: unknown source_kind {kind!r}")
        source: Path | None = None
        if kind != "none":
            source, is_file = _resolve_source(base, raw_path, resolved_dirs)
            if not is_file:
                raise CorpusError(f"{path}:{line}: source file not found: {source}")
        entries.append(DatasetEntry(
            method_id=method_id, name=name, source_kind=kind,
            source_path=source, labels=labels.get(method_id)))
    return Dataset(tuple(entries))


def corpus_stats(ds: Dataset) -> CorpusStats:
    """Per-MR match counts and the histogram of matching-MR counts."""
    per_mr = {mr: [0, 0] for mr in MR_IDS}
    histogram = {k: 0 for k in range(7)}
    for entry in ds.entries:
        if entry.labels is None:
            raise CorpusError(f"method {entry.name} ({entry.method_id}) is unlabelled")
        ones = 0
        for mr in MR_IDS:
            if entry.labels[mr]:
                per_mr[mr][0] += 1
                ones += 1
            else:
                per_mr[mr][1] += 1
        histogram[ones] += 1
    return CorpusStats(
        per_mr={mr: (m, nm) for mr, (m, nm) in per_mr.items()},
        histogram=histogram,
    )


# ---------------------------------------------------------------------------
# Bundled data access


def data_dir() -> Path:
    from importlib import resources

    return Path(resources.files("mrkit") / "data")


def bundled_dataset() -> Dataset:
    return load_manifest(data_dir() / "manifest.csv")


@dataclass(frozen=True)
class AnomalyEntry:
    method_id: int
    name: str
    mrs: tuple[str, ...]
    reason: str


def anomaly_register(path: str | Path | None = None) -> dict[str, AnomalyEntry]:
    """Bundled methods whose reference labels conflict with executable
    semantics; keyed by method name, so a name given twice is refused, and
    each ``mrs`` cell must name known relations, each once."""
    path = Path(path) if path is not None else data_dir() / "anomalies.csv"
    out: dict[str, AnomalyEntry] = {}
    seen_ids: set[int] = set()
    for line, (cell, name, mrs, reason) in _table(
            path.read_text(), path, ("method_id", "name", "mrs", "reason")):
        method_id = _method_id(cell, f"{path}:{line}", seen_ids)
        if name in out:
            raise CorpusError(f"{path}:{line}: duplicate method name {name!r}")
        relations = tuple(mrs.split(";"))
        for k, mr in enumerate(relations):
            if mr not in MR_IDS:
                raise CorpusError(f"{path}:{line}: unknown relation {mr!r} in mrs")
            if mr in relations[:k]:
                raise CorpusError(f"{path}:{line}: repeated relation {mr!r} in mrs")
        out[name] = AnomalyEntry(method_id, name, relations, reason)
    return out
