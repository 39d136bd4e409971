"""Build-once cache shared by the lazily built objects of the package."""
from __future__ import annotations

import threading
from concurrent.futures import Future

_MISSING = object()


class BuildOnce:
    """Per-key futures: the first caller builds a key, concurrent callers wait.

    A failed build is not kept, so a later call tries again. A build may ask
    for other keys of the same cache, but never for its own.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._futures: dict = {}
        self._values: dict = {}  # finished builds, read without the lock

    def get(self, key, build):
        value = self._values.get(key, _MISSING)
        if value is not _MISSING:
            return value
        with self._lock:
            fut = self._futures.get(key)
            owner = fut is None
            if owner:
                fut = self._futures[key] = Future()
        if not owner:
            return fut.result()
        try:
            value = build()
        except BaseException as exc:
            with self._lock:
                del self._futures[key]
            fut.set_exception(exc)
            raise
        self._values[key] = value
        fut.set_result(value)
        return value
