import os

import pytest


@pytest.fixture
def inline_pool(monkeypatch):
    """Swap a module's ProcessPoolExecutor for an in-process stand-in.

    ``install(module, cpus)`` also makes ``os.cpu_count()`` report ``cpus`` and
    returns the list of ``max_workers`` each pool was opened with, so the
    worker clamp is checked without starting any process.
    """
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def install(module, cpus):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(module, "ProcessPoolExecutor", InlinePool)
        return opened

    return install
