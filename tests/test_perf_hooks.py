"""The benchmark under ``perf/`` times the program by wrapping public
functions by name (``perf/layers.py``).  A rename or signature-level
change that breaks one of those names fails the benchmark run; this test
makes it fail the test suite first."""

from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parents[1] / "perf"


@pytest.fixture()
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERF_DIR))
    import layers
    return layers


def test_every_wrapped_target_resolves_to_a_plain_function(layers):
    targets = [(layer, target) for layer, group in layers.LAYERS.items()
               for target in group]
    assert targets
    for layer, target in targets:
        layers._resolve(layer, target)  # raises LayerError naming the layer
