"""Dataset manifests, the bundled labelled corpus, and corpus statistics.

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
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .cfg import AnnotatedCfg, parse_dot
from .mir import Function, parse_program
from .oracle import MR_IDS, MrLabelSet, labels_to_csv


class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetEntry:
    method_id: int
    name: str
    source_kind: str  # "mir" | "dot" | "none"
    source_path: Path | None
    labels: MrLabelSet | None = None


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
        program = parse_program(entry.source_path.read_text())
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
            return parse_dot(entry.source_path.read_text())
        raise CorpusError(f"{entry.name} has no source to build a CFG from")


@dataclass(frozen=True)
class CorpusStats:
    per_mr: dict[str, tuple[int, int]]  # mr -> (match, non-match)
    histogram: dict[int, int]           # matching-MR count -> methods

    def total(self) -> int:
        return sum(self.histogram.values())


def load_labels_csv(path: str | Path) -> dict[int, MrLabelSet]:
    """Read a ``method_id,ADD,...,INV`` file of 0/1 cells keyed by id."""
    path = Path(path)
    text = path.read_text()
    return parse_labels_csv(text, str(path))


def parse_labels_csv(text: str, origin: str = "<labels>") -> dict[int, MrLabelSet]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CorpusError(f"{origin}: empty labels file") from None
    expected = ["method_id", *MR_IDS]
    if header != expected:
        raise CorpusError(f"{origin}: header must be {','.join(expected)}")
    out: dict[int, MrLabelSet] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 7:
            raise CorpusError(f"{origin}:{lineno}: expected 7 cells, got {len(row)}")
        try:
            method_id = int(row[0])
        except ValueError:
            raise CorpusError(f"{origin}:{lineno}: bad method id {row[0]!r}") from None
        if method_id in out:
            raise CorpusError(f"{origin}:{lineno}: duplicate method id {method_id}")
        bits = []
        for cell in row[1:]:
            if cell not in ("0", "1"):
                raise CorpusError(f"{origin}:{lineno}: label cells must be 0 or 1, got {cell!r}")
            bits.append(int(cell))
        out[method_id] = MrLabelSet.from_bits(bits)
    return out


def emit_labels_csv(labels: dict[int, MrLabelSet]) -> str:
    """Canonical serialization: rows ordered by method id."""
    rows = [(str(mid), labels[mid]) for mid in sorted(labels)]
    return labels_to_csv(rows)


def load_manifest(path: str | Path,
                  labels_path: str | Path | None = None) -> Dataset:
    """Load a dataset manifest; relative source paths resolve against the
    manifest's directory, and every referenced file must exist."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"manifest not found: {path}")
    base = path.parent
    labels: dict[int, MrLabelSet] = {}
    if labels_path is None:
        default = base / "labels.csv"
        if default.exists():
            labels = load_labels_csv(default)
    else:
        labels = load_labels_csv(labels_path)

    entries: list[DatasetEntry] = []
    seen_ids: set[int] = set()
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["method_id", "name", "source_kind", "source_path"]:
            raise CorpusError(
                f"{path}: header must be method_id,name,source_kind,source_path")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise CorpusError(f"{path}:{lineno}: expected 4 cells")
            try:
                method_id = int(row[0])
            except ValueError:
                raise CorpusError(f"{path}:{lineno}: bad method id {row[0]!r}") from None
            if method_id in seen_ids:
                raise CorpusError(f"{path}:{lineno}: duplicate method id {method_id}")
            seen_ids.add(method_id)
            name, kind, raw_path = row[1], row[2], row[3]
            if kind not in ("mir", "dot", "none"):
                raise CorpusError(f"{path}:{lineno}: unknown source_kind {kind!r}")
            source: Path | None = None
            if kind != "none":
                source = (base / raw_path).resolve()
                if not source.exists():
                    raise CorpusError(
                        f"{path}:{lineno}: source file not found: {source}")
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
    return Path(resources.files("mrkit") / "data")


def bundled_dataset() -> Dataset:
    return load_manifest(data_dir() / "manifest.csv")


def bundled_labels() -> dict[int, MrLabelSet]:
    return load_labels_csv(data_dir() / "labels.csv")


@dataclass(frozen=True)
class AnomalyEntry:
    method_id: int
    name: str
    mrs: tuple[str, ...]
    reason: str


def anomaly_register(path: str | Path | None = None) -> dict[str, AnomalyEntry]:
    """Bundled methods whose reference labels conflict with executable
    semantics; keyed by method name."""
    path = Path(path) if path is not None else data_dir() / "anomalies.csv"
    out: dict[str, AnomalyEntry] = {}
    with Path(path).open() as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["method_id", "name", "mrs", "reason"]:
            raise CorpusError(f"{path}: header must be method_id,name,mrs,reason")
        for row in reader:
            if not row:
                continue
            entry = AnomalyEntry(
                method_id=int(row[0]), name=row[1],
                mrs=tuple(row[2].split(";")), reason=row[3])
            out[entry.name] = entry
    return out
