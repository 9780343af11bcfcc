import json
import re

import pytest

from mrkit.cfg import validate
from mrkit.corpus import (
    CorpusError,
    anomaly_register,
    corpus_stats,
    data_dir,
    labels_to_csv,
    load_labels_csv,
    load_manifest,
    parse_labels_csv,
)
from mrkit.mir import interpret
from mrkit.oracle import MrLabelSet, check_relation


def test_bundled_manifest_has_100_entries(dataset):
    assert len(dataset) == 100
    ids = [e.method_id for e in dataset.entries]
    assert ids == list(range(1, 101))
    assert all(e.labels is not None for e in dataset.entries)


def test_bundled_sources_exist_and_lower(sourced, corpus_graphs):
    assert len(sourced) >= 60
    for cfg in corpus_graphs.values():
        assert validate(cfg) == []


def test_label_rows_from_worked_examples(dataset):
    assert dataset.entry("sum").labels.as_bits() == (1, 1, 1, 1, 1, 1)
    assert dataset.entry("average").labels.as_bits() == (1, 1, 1, 0, 0, 1)
    assert dataset.entry("find_max").labels.as_bits() == (1, 1, 1, 1, 1, 1)


def test_corpus_stats_match_published_counts(dataset):
    stats = corpus_stats(dataset)
    assert stats.per_mr == {
        "ADD": (56, 44), "MUL": (66, 34), "PER": (33, 67),
        "INC": (34, 66), "EXC": (32, 68), "INV": (63, 37),
    }
    assert stats.histogram == {0: 20, 1: 8, 2: 7, 3: 23, 4: 26, 5: 7, 6: 9}
    assert stats.total() == 100


def test_corpus_stats_single_all_match():
    from mrkit.corpus import Dataset, DatasetEntry

    entry = DatasetEntry(1, "m", "none", None,
                         MrLabelSet.from_bits((1, 1, 1, 1, 1, 1)))
    stats = corpus_stats(Dataset((entry,)))
    assert all(v == (1, 0) for v in stats.per_mr.values())
    assert stats.histogram[6] == 1 and stats.total() == 1


def test_corpus_stats_requires_labels():
    from mrkit.corpus import Dataset, DatasetEntry

    with pytest.raises(CorpusError, match="unlabelled"):
        corpus_stats(Dataset((DatasetEntry(1, "m", "none", None, None),)))


def test_labels_csv_round_trip_byte_identical():
    path = data_dir() / "labels.csv"
    labels = load_labels_csv(path)
    rows = [(str(method_id), labels[method_id]) for method_id in sorted(labels)]
    assert labels_to_csv(rows) == path.read_text()


def test_labels_csv_bad_cell():
    with pytest.raises(CorpusError, match="0 or 1"):
        parse_labels_csv("method_id,ADD,MUL,PER,INC,EXC,INV\n1,2,0,0,0,0,0\n")


def test_labels_csv_duplicate_id():
    text = ("method_id,ADD,MUL,PER,INC,EXC,INV\n"
            "1,1,0,0,0,0,0\n1,0,0,0,0,0,0\n")
    with pytest.raises(CorpusError, match="duplicate"):
        parse_labels_csv(text)


def test_labels_csv_bad_header():
    with pytest.raises(CorpusError, match="header"):
        parse_labels_csv("id,a,b,c,d,e,f\n")


def test_manifest_missing_file():
    with pytest.raises(CorpusError, match="not found"):
        load_manifest("/nonexistent/manifest.csv")


def test_manifest_empty(tmp_path):
    man = tmp_path / "manifest.csv"
    man.write_text("method_id,name,source_kind,source_path\n")
    assert len(load_manifest(man)) == 0


def test_manifest_dangling_path(tmp_path):
    man = tmp_path / "manifest.csv"
    man.write_text("method_id,name,source_kind,source_path\n"
                   "1,ghost,dot,missing.dot\n")
    with pytest.raises(CorpusError, match="missing.dot"):
        load_manifest(man)


@pytest.mark.parametrize("kind", ["mir", "dot"])
@pytest.mark.parametrize("raw_path", ["", "sub"])
def test_manifest_refuses_a_source_that_is_not_a_file(tmp_path, kind, raw_path):
    """An empty path resolves to the manifest's directory; neither it nor
    another directory is a source file."""
    (tmp_path / "sub").mkdir()
    man = tmp_path / "manifest.csv"
    man.write_text("method_id,name,source_kind,source_path\n"
                   f"1,ok,none,\n2,x,{kind},{raw_path}\n")
    with pytest.raises(CorpusError) as info:
        load_manifest(man)
    assert str(info.value) == \
        f"{man}:3: source file not found: {(tmp_path / raw_path).resolve()}"


def test_manifest_unknown_kind(tmp_path):
    man = tmp_path / "manifest.csv"
    man.write_text("method_id,name,source_kind,source_path\n"
                   "1,x,java,x.java\n")
    with pytest.raises(CorpusError, match="source_kind"):
        load_manifest(man)


def test_manifest_duplicate_id(tmp_path):
    man = tmp_path / "manifest.csv"
    man.write_text("method_id,name,source_kind,source_path\n"
                   "1,a,none,\n1,b,none,\n")
    with pytest.raises(CorpusError, match="duplicate"):
        load_manifest(man)


def test_manifest_duplicate_name(tmp_path):
    man = tmp_path / "manifest.csv"
    # a labels-only row clashes too: every command keys its rows by name
    man.write_text("method_id,name,source_kind,source_path\n"
                   "1,a,none,\n2,b,none,\n3,a,none,\n")
    with pytest.raises(CorpusError) as info:
        load_manifest(man)
    assert str(info.value) == f"{man}:4: duplicate method name 'a'"


def test_manifest_joins_external_labels(tmp_path):
    man = tmp_path / "manifest.csv"
    man.write_text("method_id,name,source_kind,source_path\n5,five,none,\n")
    lab = tmp_path / "labels.csv"
    lab.write_text("method_id,ADD,MUL,PER,INC,EXC,INV\n5,1,0,1,0,1,0\n")
    ds = load_manifest(man)
    assert ds.entry("five").labels.as_bits() == (1, 0, 1, 0, 1, 0)


def test_dot_ingestion_path(tmp_path):
    # a manifest can point at externally produced DOT files
    man = tmp_path / "manifest.csv"
    dot_src = (data_dir() / "cfg" / "average.dot").read_text()
    (tmp_path / "avg.dot").write_text(dot_src)
    man.write_text("method_id,name,source_kind,source_path\n"
                   "5,average,dot,avg.dot\n")
    ds = load_manifest(man)
    cfg = ds.load_cfg(ds.entry("average"))
    assert cfg.node_count == 14
    assert validate(cfg) == []


def test_anomaly_register_contents():
    register = anomaly_register()
    assert "cnt_zeroes" in register
    assert "MUL" in register["cnt_zeroes"].mrs
    names = set(register)
    assert len(names) == 17


# how a register reason states a witness: both inputs as lists, and both
# outputs as format(value, ".4g") spells them
WITNESS = re.compile(r"witness: source (\[[^]]*\]) gives (\S+) and its ([A-Z]+) "
                     r"follow-up (\[[^]]*\]) gives ([^\s)]+)")


def test_every_witness_the_register_states_refutes_its_relation(corpus_functions):
    stated = 0
    for entry in anomaly_register().values():
        fn = corpus_functions[entry.name]
        for source, out_source, mr, follow_up, out_follow_up in WITNESS.findall(entry.reason):
            assert mr in entry.mrs, (entry.name, mr)
            source, follow_up = json.loads(source), json.loads(follow_up)
            # a follow-up the MR builds from the source
            if mr == "INC":  # one value of the domain appended
                assert follow_up[:-1] == source and 0 <= follow_up[-1] <= 100
            else:  # one index removed
                assert mr == "EXC"
                assert follow_up in [source[:i] + source[i + 1:] for i in range(len(source))]
            outputs = interpret(fn, source), interpret(fn, follow_up)
            assert [format(v, ".4g") for v in outputs] == [out_source, out_follow_up]
            assert not check_relation(mr, *outputs)[0], (entry.name, mr)
            stated += 1
    assert stated == 7


def test_anomaly_register_duplicate_name(tmp_path):
    path = tmp_path / "anomalies.csv"
    path.write_text("method_id,name,mrs,reason\n1,a,ADD,why\n2,a,MUL,why\n")
    with pytest.raises(CorpusError) as info:
        anomaly_register(path)
    assert str(info.value) == f"{path}:3: duplicate method name 'a'"


@pytest.mark.parametrize("mrs, error", [
    ("", "unknown relation ''"),
    ("ADD;", "unknown relation ''"),
    ("ADD;;MUL", "unknown relation ''"),
    ("add", "unknown relation 'add'"),
    ("ADD;FOO", "unknown relation 'FOO'"),
    (" ADD", "unknown relation ' ADD'"),
    ("ADD;PRE;ADD", "unknown relation 'PRE'"),
    ("ADD;PER;ADD", "repeated relation 'ADD'"),
    ("INV;INV", "repeated relation 'INV'"),
])
def test_anomaly_register_refuses_a_bad_relation_list(tmp_path, mrs, error):
    path = tmp_path / "anomalies.csv"
    path.write_text(f"method_id,name,mrs,reason\n1,a,ADD,why\n2,b,{mrs},why\n")
    with pytest.raises(CorpusError) as info:
        anomaly_register(path)
    assert str(info.value) == f"{path}:3: {error} in mrs"


def test_bundled_labels_keyed_by_id():
    labels = load_labels_csv(data_dir() / "labels.csv")
    assert len(labels) == 100
    assert labels[90].as_bits() == (1, 1, 1, 1, 1, 1)
    assert labels[5].as_bits() == (1, 1, 1, 0, 0, 1)


# (reader, header, a row with {id} and a name unique by {n})
TABLES = [
    (load_manifest, "method_id,name,source_kind,source_path", "{id},m{n},none,"),
    (load_labels_csv, "method_id,ADD,MUL,PER,INC,EXC,INV", "{id},1,0,0,0,0,0"),
    (anomaly_register, "method_id,name,mrs,reason", "{id},m{n},ADD,why"),
]
TABLE_NAMES = ["manifest", "labels", "anomalies"]
BAD_IDS = ["1_0", " 7", "+3", "07", "\u0663", "x", ""]


def refused(load, path, text) -> str:
    path.write_text(text)
    with pytest.raises(CorpusError) as info:
        load(path)
    return str(info.value)


@pytest.mark.parametrize("load, header, row", TABLES, ids=TABLE_NAMES)
def test_a_table_refuses_another_header_or_an_empty_file(tmp_path, load, header, row):
    path = tmp_path / "table.csv"
    for text in ("id," + header + "\n" + row.format(id=1, n=1) + "\n", ""):
        assert refused(load, path, text) == f"{path}: header must be {header}"


@pytest.mark.parametrize("load, header, row", TABLES, ids=TABLE_NAMES)
@pytest.mark.parametrize("case", ["short row", "long row", "duplicate id", *BAD_IDS])
def test_a_table_refuses_a_row_by_its_line(tmp_path, load, header, row, case):
    """Line 3 is blank and skipped, but counted: the bad row is line 4."""
    width = header.count(",") + 1
    good = row.format(id=1, n=1)
    bad, message = {
        "short row": (good.rsplit(",", 1)[0], f"expected {width} cells, got {width - 1}"),
        "long row": (good + ",x", f"expected {width} cells, got {width + 1}"),
        "duplicate id": (row.format(id=1, n=2), "duplicate method id 1"),
    }.get(case, (row.format(id=case, n=2), f"bad method id {case!r}"))
    path = tmp_path / "table.csv"
    text = f"{header}\n{good}\n\n{bad}\n"
    assert refused(load, path, text) == f"{path}:4: {message}"


def test_an_id_spelt_two_ways_is_refused_as_spelt(tmp_path):
    man = tmp_path / "manifest.csv"
    text = "method_id,name,source_kind,source_path\n10,a,none,\n1_0,b,none,\n"
    assert refused(load_manifest, man, text) == f"{man}:3: bad method id '1_0'"


def test_a_quoted_line_break_does_not_shift_later_line_numbers(tmp_path):
    man = tmp_path / "manifest.csv"
    text = 'method_id,name,source_kind,source_path\n1,"a\nb",none,\n2,c,none\n'
    assert refused(load_manifest, man, text) == f"{man}:4: expected 4 cells, got 3"
