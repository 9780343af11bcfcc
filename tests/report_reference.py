"""Hand-written serializers of ``EvalReport``, field by field: the
reference that ``report.json`` (``corpus.json_text`` of the report
types) and ``results.csv`` (rows through ``corpus.csv_text``) are
checked against byte for byte."""

from dataclasses import asdict

METRIC_FIELDS = ("accuracy", "precision", "recall", "f_measure", "auc", "bsr")

RESULTS_CSV_HEADER = "mr,featurization,accuracy,precision,recall,f_measure,auc,bsr"


def metrics_dict(m) -> dict:
    out = {name: getattr(m, name) for name in METRIC_FIELDS}
    out["causes"] = dict(sorted(m.causes.items()))
    return out


def report_dict(r) -> dict:
    return {
        "mr": r.mr,
        "featurization": r.featurization,
        "config": r.config,
        "folds": [
            {
                "fold": fr.fold,
                "confusion": None if fr.confusion is None else asdict(fr.confusion),
                "metrics": None if fr.metrics is None else metrics_dict(fr.metrics),
                "diagnostics": list(fr.diagnostics),
            }
            for fr in r.folds
        ],
        "aggregate": metrics_dict(r.aggregate),
        "defined_counts": dict(sorted(r.defined_counts.items())),
        "diagnostics": list(r.diagnostics),
    }


def csv_row(r) -> str:
    def cell(v):
        return "" if v is None else repr(float(v))

    m = r.aggregate
    return ",".join([
        r.mr, r.featurization, cell(m.accuracy), cell(m.precision),
        cell(m.recall), cell(m.f_measure), cell(m.auc), cell(m.bsr),
    ])
