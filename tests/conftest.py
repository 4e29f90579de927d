import os

import pytest

from lcrrot import tensor as T


@pytest.fixture
def worker_halves(monkeypatch):
    """Count the machine's cores as two, and log every half that ``T.in_halves``
    sends to the worker thread (``[1]`` for a Bi-LSTM's backward direction);
    returns the log. A test sets ``T.SPLIT_D_H`` to choose the one-thread or
    the two-thread path."""
    sent, submit = [], T._worker.submit
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(T._worker, "submit", lambda run, s: sent.append(s) or submit(run, s))
    return sent
