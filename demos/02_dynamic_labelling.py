#!/usr/bin/env python3
"""Dynamic labelling: which metamorphic relations does a method satisfy?

Runs the sampling oracle on a few bundled methods, shows the witness an
oracle attaches when it rejects a relation, and audits the whole bundled
corpus against its reference labels (the anomaly register explains every
discrepancy).
"""

from mrkit import OracleParams, label_method
from mrkit.oracle import MR_IDS, audit_labels
from mrkit.corpus import anomaly_register, bundled_dataset

ds = bundled_dataset().with_sources()
params = OracleParams()  # 200 trials, seed 42

print("=== three well-known methods ===")
for name in ("sum", "average", "find_max"):
    fn = ds.load_function(ds.entry(name))
    report = label_method(fn, params)
    bits = " ".join(f"{mr}={int(report.labels[mr])}" for mr in MR_IDS)
    print(f"{name:10s} {bits}")

print()
print("=== a rejected relation carries a concrete witness ===")
report = label_method(ds.load_function(ds.entry("average")), params)
w = report.outcomes["EXC"].witness
print(f"average EXC: {w.cause}")
print(f"  source    = {list(w.source)} -> {w.out_source}")
print(f"  follow-up = {list(w.follow_up)} -> {w.out_follow_up}")

print()
print("=== full-corpus audit against the reference labels ===")
dynamic = {}
reference = {}
for entry in ds.entries:
    dynamic[entry.name] = label_method(ds.load_function(entry), params)
    reference[entry.name] = entry.labels
discrepancies = audit_labels(dynamic, reference)
register = anomaly_register()
print(f"{len(ds.entries)} methods, {len(discrepancies)} discrepant "
      f"(method, mr) pairs, all on registered methods:",
      all(d.method in register for d in discrepancies))
for d in discrepancies:
    print(f"  {d.method:20s} {d.mr}: dynamic={int(d.dynamic)} "
          f"reference={int(d.reference)} [{d.category}]")
