"""Run-cache behaviour: hit/miss layers, digest invalidation, at-most-once."""

import pickle

import pytest

from repro.errors import EvaluationError
from repro.exp import runcache
from repro.exp.runcache import DEFAULT_SIZES, ProgramKey, RunCache, resolve_key

FAST_KEY = ProgramKey("queens", 4, 4)


class TestResolveKey:
    def test_none_size_uses_default_scale(self):
        assert resolve_key("matmul") == ProgramKey(
            "matmul", DEFAULT_SIZES["matmul"], 16
        )
        assert resolve_key("gamteb", None, 8) == ProgramKey(
            "gamteb", DEFAULT_SIZES["gamteb"], 8
        )

    def test_explicit_size_survives(self):
        assert resolve_key("matmul", 24) == ProgramKey("matmul", 24, 16)

    def test_explicit_default_size_aliases_none(self):
        """figure12's implicit default and an explicit 40 share one run."""
        assert resolve_key("matmul", DEFAULT_SIZES["matmul"]) == resolve_key("matmul")

    def test_unknown_program_rejected(self):
        with pytest.raises(EvaluationError, match="unknown program"):
            resolve_key("sorting")


class TestMemoryLayer:
    def test_miss_executes_then_hits(self):
        cache = RunCache()
        stats = cache.ensure(FAST_KEY)
        assert cache.execution_log == [FAST_KEY]
        assert cache.ensure(FAST_KEY) is stats
        assert cache.execution_log == [FAST_KEY]  # second call was a hit

    def test_distinct_keys_execute_separately(self):
        cache = RunCache()
        cache.ensure(FAST_KEY)
        other = ProgramKey("queens", 4, 2)
        cache.ensure(other)
        assert cache.execution_log == [FAST_KEY, other]

    def test_log_keeps_a_re_execution(self):
        """The log is append-only, so a key executed twice shows twice —
        the at-most-once tests depend on seeing repeats."""
        cache = RunCache()
        cache.ensure(FAST_KEY)
        cache._memory.clear()  # force a second full miss
        cache.ensure(FAST_KEY)
        assert cache.execution_log == [FAST_KEY, FAST_KEY]
        assert list(cache.executed_since(1)) == [FAST_KEY]


class TestDiskLayer:
    def test_second_cache_reads_the_first_ones_run(self, tmp_path):
        first = RunCache(disk_dir=tmp_path)
        stats = first.ensure(FAST_KEY)
        assert first.execution_log == [FAST_KEY]

        second = RunCache(disk_dir=tmp_path)
        loaded = second.ensure(FAST_KEY)
        assert second.execution_log == []  # served from disk, not executed
        assert loaded.total_instructions == stats.total_instructions
        assert loaded.messages.as_dict() == stats.messages.as_dict()

    def test_digest_in_filename(self, tmp_path):
        cache = RunCache(disk_dir=tmp_path)
        cache.ensure(FAST_KEY)
        (entry,) = tmp_path.glob("*.pkl")
        assert runcache.code_digest()[:16] in entry.name
        assert "queens-n4-p4" in entry.name

    def test_code_digest_change_invalidates(self, tmp_path, monkeypatch):
        cache = RunCache(disk_dir=tmp_path)
        cache.ensure(FAST_KEY)

        monkeypatch.setattr(runcache, "_CODE_DIGEST", "0" * 64)
        stale = RunCache(disk_dir=tmp_path)
        stale.ensure(FAST_KEY)
        assert stale.execution_log == [FAST_KEY]  # old entry not trusted

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(disk_dir=tmp_path)
        cache.ensure(FAST_KEY)
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(b"not a pickle")

        recovered = RunCache(disk_dir=tmp_path)
        recovered.ensure(FAST_KEY)
        assert recovered.execution_log == [FAST_KEY]

    def test_stats_round_trip_pickle(self):
        """TamStats must cross process boundaries whole."""
        cache = RunCache()
        stats = cache.ensure(FAST_KEY)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.as_dict() == stats.as_dict()


class TestCodeDigest:
    def test_stable_within_process(self):
        assert runcache.code_digest() == runcache.code_digest()
        assert len(runcache.code_digest()) == 64


class TestGlobalCache:
    def test_run_program_uses_the_process_cache(self, monkeypatch):
        fresh = RunCache()
        monkeypatch.setattr(runcache, "_CACHE", fresh)
        runcache.run_program("queens", 4, 4)
        runcache.run_program("queens", 4, 4)
        assert fresh.execution_log == [FAST_KEY]

    def test_set_cache_swaps(self):
        before = runcache.get_cache()
        fresh = RunCache()
        try:
            assert runcache.set_cache(fresh) is fresh
            assert runcache.get_cache() is fresh
        finally:
            runcache.set_cache(before)
