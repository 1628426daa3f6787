"""Shared fixtures."""

import multiprocessing

import pytest

from altup import alternating, collisions, models, sequence, transformer


@pytest.fixture(scope="session", autouse=True)
def no_worker_outlives_the_session():
    """Closes the collision worker pool when the session ends, and fails if
    any worker process is still alive after that."""
    yield
    collisions.close_pool()
    alive = multiprocessing.active_children()
    assert not alive, f"worker processes still alive after the session: {alive}"


@pytest.fixture
def layer_calls(monkeypatch):
    """Sequence length (axis -2) seen by each ``layer_forward`` call, in order.

    Patches the name in every module that looks it up, so calls made through
    the model, the AltUp block and the sequence variants are all recorded.
    """
    calls = []
    original = transformer.layer_forward

    def spy(x, params):
        calls.append(x.data.shape[-2])
        return original(x, params)

    for module in (transformer, models, alternating, sequence):
        monkeypatch.setattr(module, "layer_forward", spy)
    return calls
