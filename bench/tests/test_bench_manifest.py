"""BENCHMARK.json and the worker agree on workloads and metrics."""

import json
import os

from bench import ROOT
from bench.worker import END_TO_END, EXPECT_NONZERO, EXPECT_ZERO, PER_LAYER
from bench.workloads import WORKLOADS


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_units_match_the_worker():
    doc = _manifest()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER


def test_every_workload_has_a_layer_mapping_and_a_reference():
    names = [w["name"] for w in _manifest()["workloads"]]
    assert sorted(names) == sorted(WORKLOADS) == sorted(EXPECT_NONZERO) == sorted(EXPECT_ZERO)
    with open(os.path.join(ROOT, "bench", "reference.json"), "r", encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"]
    for name in names:
        wl = WORKLOADS[name]
        keys = {f"{i}:{t}" for i in range(wl.size) for t in wl.tasks}
        assert set(reference[name]) == keys
