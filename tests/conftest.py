"""Fixtures shared by the test modules."""

import time

import pytest

from lrdforecast import _pool


@pytest.fixture()
def workers(monkeypatch):
    """start(k) sets LRDFORECAST_WORKERS to k (start() keeps the
    environment's count) and returns the pool once all its workers for that
    count are ready, so the next call shards its items over them."""

    def start(k=None):
        if k is not None:
            monkeypatch.setenv("LRDFORECAST_WORKERS", str(k))
        want = _pool.worker_count() - 1
        deadline = time.monotonic() + 120
        while len(_pool.POOL.ready(want)) < want:
            assert time.monotonic() < deadline, "workers did not start"
            time.sleep(0.05)
        return _pool.POOL

    return start
