"""Cross-module invariants checked on the real bundled corpus."""

import json
import threading

import numpy as np
import pytest

from mrkit.cfg import parse_dot
from mrkit.corpus import data_dir
from mrkit.features import node_features
from mrkit.kernels import gram_matrix, random_walk_kernel
from mrkit.mir import interpret
from mrkit.oracle import MR_IDS
from mrkit.svm import SvmModel, SvmParams, decision_value, kkt_report, train_svm


def test_dot_node_order_follows_file_order():
    cfg = parse_dot((data_dir() / "cfg" / "average.dot").read_text())
    assert cfg.ops[0].value == "start"
    assert cfg.ops[-1].value == "exit"
    assert [op.value for op in cfg.ops[:6]] == [
        "start", "assi", "assi", "goto", "assi", "if"]


def test_nf_keys_carry_real_degrees(corpus_graphs):
    for cfg in corpus_graphs.values():
        degrees = {(cfg.ops[i].value, cfg.in_degree(i), cfg.out_degree(i))
                   for i in range(cfg.node_count)}
        for key in node_features(cfg).entries:
            op, din, dout = key.rsplit("-", 2)
            assert (op, int(din), int(dout)) in degrees


def test_normalized_kernels_stay_in_unit_interval(corpus_graphs):
    names = sorted(corpus_graphs)[:12]
    for i, a in enumerate(names):
        for b in names[i:]:
            v = random_walk_kernel(corpus_graphs[a], corpus_graphs[b])
            assert -1e-12 <= v <= 1.0 + 1e-12


def test_kkt_audit_on_corpus_models(sourced, corpus_graphs):
    graphs = [corpus_graphs[e.name] for e in sourced.entries]
    gram = gram_matrix(graphs, "rwk")
    params = SvmParams(seed=42)
    for mr in MR_IDS:
        y = [1 if e.labels[mr] else -1 for e in sourced.entries]
        model = train_svm(gram.values, y, params)
        assert kkt_report(gram.values, y, model, params) <= params.kkt_tol
        # box constraint and dual balance
        assert abs(sum(model.coef)) <= 1e-6
        assert all(0.0 < abs(c) <= params.C + 1e-9 for c in model.coef)


def test_interpreter_pure_across_threads(corpus_functions):
    fn = corpus_functions["shell_sort"]
    data = [9.0, 3.0, 7.0, 1.0, 4.0, 8.0]
    expected = interpret(fn, data)
    results = []
    errors = []

    def worker():
        try:
            for _ in range(20):
                results.append(interpret(fn, data))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(r == expected for r in results)


def test_model_json_round_trip_with_empty_support():
    model = SvmModel(coef=(), support=(), bias=0.25, n_train=3)
    restored = SvmModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert restored == model
    assert decision_value(restored, np.ones(3)) == 0.25


def test_cross_validate_report_embeds_configuration(sourced, corpus_graphs):
    from mrkit.evaluation import cross_validate, stratified_kfold

    entries = list(sourced.entries)[:20]
    graphs = [corpus_graphs[e.name] for e in entries]
    gram = gram_matrix(graphs, "rwk")
    labels = [1 if e.labels["PER"] else 0 for e in entries]
    folds = stratified_kfold(labels, 4, seed=11)
    report = cross_validate(gram, labels, folds,
                            SvmParams(seed=5), mr="PER",
                            featurization="rwk")
    payload = json.loads(report.to_json())
    assert payload["config"]["k"] == 4
    assert payload["config"]["fold_seed"] == 11
    assert payload["config"]["svm"] == {
        "C": 1.0, "kkt_tol": 1e-3, "max_passes": 100, "seed": 5}
