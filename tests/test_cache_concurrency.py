"""Concurrent multi-process CapacityCache writers: no torn entries, ever.

The distributed executor makes concurrent cache mutation the *normal*
case, not a corner: many coordinator processes (and the sweep runner's
workers before them) share one warm-start directory on disk.  The cache's
contract under that load is simple — ``store`` is atomic write-then-rename,
so a reader observes each entry either absent or complete, never torn,
and same-signature writers racing with the *same* deterministic value
(the only kind a deterministic sweep produces) always converge to a
readable entry with that value.
"""

import multiprocessing
import sys
import time

from repro.runtime.capacity import CapacityCache

_KEYS = list(range(12))


def _expected(key):
    return float(100 + key)


def _hammer_writer(cache_dir, rounds):
    """Store every key, ``rounds`` times over — racing the other writers."""
    cache = CapacityCache(cache_dir)
    for _round in range(rounds):
        for key in _KEYS:
            cache.store({"shared-key": key}, _expected(key))
    sys.exit(0)


def _racing_reader(cache_dir, duration_s):
    """Read every key in a loop while the writers run.

    Exit codes: 0 clean; 1 a read returned a wrong (torn) value; 2 the
    cache counted a corrupt entry — a partially-visible write.
    """
    cache = CapacityCache(cache_dir)
    deadline = time.monotonic() + duration_s
    while time.monotonic() < deadline:
        for key in _KEYS:
            value = cache.load({"shared-key": key}, count=False)
            if value is not None and value != _expected(key):
                sys.exit(1)
    sys.exit(2 if cache.stats["corrupt_entries"] else 0)


class TestConcurrentCacheWriters:
    def test_racing_writers_and_readers_never_see_torn_entries(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_hammer_writer, args=(str(tmp_path), 15))
            for _writer in range(4)
        ]
        readers = [
            ctx.Process(target=_racing_reader, args=(str(tmp_path), 1.0))
            for _reader in range(2)
        ]
        for proc in readers + writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=60)
            assert proc.exitcode == 0, "a writer crashed mid-hammer"
        for proc in readers:
            proc.join(timeout=60)
            assert proc.exitcode == 0, (
                "a racing reader saw a torn or corrupt entry "
                f"(exit code {proc.exitcode})"
            )
        # The settled directory is fully readable with the right values.
        cache = CapacityCache(tmp_path)
        for key in _KEYS:
            assert cache.load({"shared-key": key}, count=False) == _expected(key)
        assert cache.stats["corrupt_entries"] == 0
        # Exactly one file per signature survived — renames replaced, never
        # duplicated — and no scratch files leaked.
        names = sorted(path.name for path in tmp_path.iterdir())
        assert len(names) == len(_KEYS)
        assert all(
            name.startswith("capacity-") and name.endswith(".json")
            for name in names
        )
