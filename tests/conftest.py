"""Shared fixtures."""

import pytest

from altup import alternating, models, sequence, transformer


@pytest.fixture
def layer_calls(monkeypatch):
    """Sequence length (axis -2) seen by each ``layer_forward`` call, in order.

    Patches the name in every module that looks it up, so calls made through
    the model, the AltUp block and the sequence variants are all recorded.
    """
    calls = []
    original = transformer.layer_forward

    def spy(x, params, causal=True):
        calls.append(x.data.shape[-2])
        return original(x, params, causal=causal)

    for module in (transformer, models, alternating, sequence):
        monkeypatch.setattr(module, "layer_forward", spy)
    return calls
