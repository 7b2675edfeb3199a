"""BENCHMARK.json, the catalog's meanings and the README describe the
same metrics."""

from __future__ import annotations

import pathlib

from perfbench import catalog

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_every_metric_has_a_meaning():
    assert set(catalog.END_TO_END_MEANING) == set(catalog.END_TO_END)
    assert set(catalog.PER_LAYER_MEANING) == set(catalog.PER_LAYER)


def test_readme_lists_every_metric_and_workload():
    readme = (ROOT / "perfbench" / "README.md").read_text()
    for name in list(catalog.END_TO_END) + list(catalog.WORKLOAD_WHY):
        assert f"`{name}`" in readme
    for name in catalog.PER_LAYER:
        layer, _, rest = name.partition(".")
        assert f"`{name}`" in readme or (layer in catalog.LAYERS and rest in ("calls", "self_ref_s", "share"))


def test_predictions_name_known_layers_and_workloads():
    for layers, workload, share in catalog.PREDICTIONS:
        assert set(layers) <= set(catalog.LAYERS)
        assert workload == "all" or workload in catalog.WORKLOAD_WHY
        assert share is None or 0.0 <= share <= 1.0


def test_prediction_rule():
    assert catalog.prediction_holds(0.85, 0.7)
    assert not catalog.prediction_holds(0.85, 0.5)
    assert catalog.prediction_holds(0.01, 0.035)
    assert catalog.prediction_holds(None, 0.01)
    assert not catalog.prediction_holds(0.0, 0.01)
