import os

import pytest

from lcrrot import tensor as T


@pytest.fixture
def worker_halves(monkeypatch):
    """Count the machine's cores as two, and log the directions slice of every
    half of a Bi-LSTM sent to the worker thread; returns the log. A test sets
    ``T.SPLIT_D_H`` to choose the stacked or the two-thread path."""
    sent, submit = [], T._worker.submit
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(T._worker, "submit", lambda run, s: sent.append(s) or submit(run, s))
    return sent
