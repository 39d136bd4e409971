"""Shared test helpers."""

import sys
import threading
import time

import pytest


@pytest.fixture
def race(monkeypatch):
    """race(owner, name, call): make owner.name count its calls and sleep in
    each, so the first build stays open while four threads run call() at
    once; returns (number of owner.name calls, the four results)."""

    def run(owner, name, call, threads=4):
        calls = []
        real = getattr(owner, name)

        def slow(*args, **kwargs):
            calls.append(1)
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, slow)
        got = []
        workers = [
            threading.Thread(target=lambda: got.append(call()))
            for _ in range(threads)
        ]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in workers)
        assert len(got) == threads
        return len(calls), got

    return run
