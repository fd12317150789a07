"""ResultCache behaviour: keys, LRU, invalidation, persistence.

The cache holds canonical payload text; these tests compare it decoded.
"""

from __future__ import annotations

import json

import pytest

from repro.service.cache import CACHE_SCHEMA, CacheKey, ResultCache


def key(n: int = 0, *, mfp: str = "fp:machine", seed: int = 0) -> CacheKey:
    return CacheKey(f"gfp:{n:016x}", mfp, '{"scheduler":"versioning"}', seed)


def test_lookup_miss_then_hit():
    cache = ResultCache()
    assert cache.lookup(key()) is None
    cache.insert(key(), {"makespan": 1.0})
    assert json.loads(cache.lookup(key())) == {"makespan": 1.0}
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.5


def test_seed_is_part_of_the_key():
    # machine fingerprints deliberately exclude the RNG seed, so the
    # cache key must carry it explicitly
    cache = ResultCache()
    cache.insert(key(seed=1), {"seed": 1})
    assert cache.lookup(key(seed=2)) is None
    assert json.loads(cache.lookup(key(seed=1))) == {"seed": 1}


def test_lru_eviction():
    cache = ResultCache(max_entries=2)
    cache.insert(key(1), {"n": 1})
    cache.insert(key(2), {"n": 2})
    assert json.loads(cache.lookup(key(1))) == {"n": 1}  # touch 1: 2 becomes LRU
    cache.insert(key(3), {"n": 3})
    assert cache.lookup(key(2)) is None
    assert json.loads(cache.lookup(key(1))) == {"n": 1}
    assert cache.stats.evictions == 1


def test_invalidate_machine():
    cache = ResultCache()
    cache.insert(key(1, mfp="fp:aaaa"), {"n": 1})
    cache.insert(key(2, mfp="fp:aaaa"), {"n": 2})
    cache.insert(key(3, mfp="fp:bbbb"), {"n": 3})
    assert cache.invalidate_machine("fp:aaaa") == 2
    assert len(cache) == 1
    assert json.loads(cache.lookup(key(3, mfp="fp:bbbb"))) == {"n": 3}
    assert cache.stats.invalidated == 2


def test_persistence_round_trip(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path)
    cache.insert(key(1), {"n": 1})
    cache.insert(key(2, seed=9), {"n": 2})
    cache.save()

    reloaded = ResultCache(path)
    assert len(reloaded) == 2
    assert json.loads(reloaded.lookup(key(1))) == {"n": 1}
    assert json.loads(reloaded.lookup(key(2, seed=9))) == {"n": 2}


def test_corrupt_cache_file_starts_cold(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{not json")
    cache = ResultCache(path)
    assert len(cache) == 0
    path.write_text(json.dumps({"schema": "something/else", "entries": {}}))
    assert len(ResultCache(path)) == 0


def test_persisted_payload_is_versioned(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path)
    cache.insert(key(), {"n": 1})
    cache.save()
    assert json.loads(path.read_text())["schema"] == CACHE_SCHEMA


def test_bad_max_entries_rejected():
    with pytest.raises(ValueError):
        ResultCache(max_entries=0)


def test_key_encode_decode():
    k = key(7, seed=3)
    assert CacheKey.decode(k.encode()) == k
    k2 = CacheKey("g", "m", "s", 1, '{"prefetch":false}')
    assert CacheKey.decode(k2.encode()) == k2


def test_config_is_part_of_the_key():
    # runtime config changes simulation results, so two submissions
    # differing only in config must occupy distinct entries
    cache = ResultCache()
    plain = CacheKey("g", "m", "s", 0, "{}")
    ablated = CacheKey("g", "m", "s", 0, '{"overlap_transfers":false}')
    cache.insert(plain, {"overlap": True})
    assert cache.lookup(ablated) is None
    assert json.loads(cache.lookup(plain)) == {"overlap": True}


# ----------------------------------------------------------------------
# Crash safety: the append-only journal between snapshots
# ----------------------------------------------------------------------
def test_journal_recovers_inserts_never_snapshotted(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path)
    cache.insert(key(1), {"n": 1})
    cache.insert(key(2), {"n": 2})
    cache.close()  # the process dies here: save() was never called
    assert not path.exists()
    assert (tmp_path / "cache.json.journal").exists()

    reloaded = ResultCache(path)
    assert len(reloaded) == 2
    assert reloaded.stats.journal_replayed == 2
    assert json.loads(reloaded.lookup(key(1))) == {"n": 1}
    assert json.loads(reloaded.lookup(key(2))) == {"n": 2}


def test_journal_replays_on_top_of_snapshot(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path)
    cache.insert(key(1), {"n": 1})
    cache.save()
    cache.insert(key(2), {"n": 2})  # journaled only
    cache.close()

    reloaded = ResultCache(path)
    assert len(reloaded) == 2
    assert reloaded.stats.journal_replayed == 1


def test_truncated_journal_tail_keeps_complete_entries(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path)
    cache.insert(key(1), {"n": 1})
    cache.insert(key(2), {"n": 2})
    cache.close()
    journal = tmp_path / "cache.json.journal"
    # the server died mid-append: chop the last line in half
    text = journal.read_text()
    journal.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])

    reloaded = ResultCache(path)
    assert reloaded.stats.journal_replayed == 1
    assert json.loads(reloaded.lookup(key(1))) == {"n": 1}
    assert reloaded.lookup(key(2)) is None  # the mid-write entry is gone


def test_alien_schema_journal_is_quarantined(tmp_path):
    path = tmp_path / "cache.json"
    journal = tmp_path / "cache.json.journal"
    journal.write_text(json.dumps({"schema": "something/else"}) + "\n")
    cache = ResultCache(path)
    assert len(cache) == 0
    assert (tmp_path / "cache.json.journal.corrupt").exists()


def test_corrupt_snapshot_is_quarantined_not_deleted(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{not json")
    cache = ResultCache(path)
    assert len(cache) == 0
    quarantined = tmp_path / "cache.json.corrupt"
    assert quarantined.exists()
    assert quarantined.read_text() == "{not json"  # evidence preserved
    assert not path.exists()


def test_save_folds_journal_into_snapshot(tmp_path):
    path = tmp_path / "cache.json"
    journal = tmp_path / "cache.json.journal"
    cache = ResultCache(path)
    cache.insert(key(1), {"n": 1})
    assert journal.exists()
    assert cache.stats.journal_appends == 1
    cache.save()
    assert path.exists()
    assert not journal.exists()  # redundant once snapshotted


def test_journal_can_be_disabled(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path, journal=False)
    cache.insert(key(1), {"n": 1})
    assert not (tmp_path / "cache.json.journal").exists()
    assert cache.stats.journal_appends == 0


def test_persist_fault_degrades_without_raising(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path, persist_fault=lambda kind: True)
    cache.insert(key(1), {"n": 1})  # journal append fails silently
    assert cache.save() is None  # snapshot fails too
    assert cache.stats.persist_errors == 2
    assert json.loads(cache.lookup(key(1))) == {"n": 1}  # memory is untouched
    assert not path.exists()
    assert not (tmp_path / "cache.json.journal").exists()


def test_persist_fault_recovers_when_faults_stop(tmp_path):
    path = tmp_path / "cache.json"
    faulty = {"on": True}
    cache = ResultCache(path, persist_fault=lambda kind: faulty["on"])
    cache.insert(key(1), {"n": 1})  # lost to the injected fault
    faulty["on"] = False
    cache.insert(key(2), {"n": 2})  # journaled fine
    cache.close()

    reloaded = ResultCache(path)
    assert reloaded.stats.journal_replayed == 1
    assert json.loads(reloaded.lookup(key(2))) == {"n": 2}


# ----------------------------------------------------------------------
# Canonical text: encoded once at insert, persisted in the v2 format
# ----------------------------------------------------------------------
def test_insert_returns_canonical_text_and_counts_no_hit():
    cache = ResultCache()
    payload = {"b": [2, 1], "a": 0.1}
    text = cache.insert(key(), payload)
    assert text == json.dumps(payload, sort_keys=True)
    assert cache.stats.lookups == 0
    assert cache.lookup(key()) == text


def test_cache_keeps_no_reference_to_the_inserted_dict():
    cache = ResultCache()
    payload = {"n": [1, 2]}
    cache.insert(key(), payload)
    payload["n"].append(3)
    assert json.loads(cache.lookup(key())) == {"n": [1, 2]}


PINNED_ENTRIES = (
    (
        CacheKey("g", "m", "s", 3),
        {"b": [1, 2.5, 'é"\\'], "a": {"z": None, "y": True}},
        {"app": "matmul", "memo": "{}"},
    ),
    (CacheKey("g", "m", "s", 4, '{"prefetch":false}'), {"n": 1e-07}, {}),
)
#: The journal after inserting PINNED_ENTRIES, and the snapshot after one
#: more hit on the first: the repro.result-cache/2 bytes, unchanged since
#: the format was introduced.
PINNED_JOURNAL = (
    '{"schema": "repro.result-cache/2"}\n'
    '{"key": "[\\"g\\",\\"m\\",\\"s\\",3,\\"{}\\"]", "meta": {"app": "matmul", '
    '"memo": "{}"}, "result": {"a": {"y": true, "z": null}, "b": [1, 2.5, '
    '"\\u00e9\\"\\\\"]}}\n'
    '{"key": "[\\"g\\",\\"m\\",\\"s\\",4,\\"{\\\\\\"prefetch\\\\\\":false}\\"]", '
    '"meta": {}, "result": {"n": 1e-07}}\n'
)
PINNED_SNAPSHOT = (
    '{"entries": {"[\\"g\\",\\"m\\",\\"s\\",3,\\"{}\\"]": {"hits": 1, "meta": '
    '{"app": "matmul", "memo": "{}"}, "result": {"a": {"y": true, "z": null}, '
    '"b": [1, 2.5, "\\u00e9\\"\\\\"]}}, '
    '"[\\"g\\",\\"m\\",\\"s\\",4,\\"{\\\\\\"prefetch\\\\\\":false}\\"]": '
    '{"hits": 0, "meta": {}, "result": {"n": 1e-07}}}, '
    '"schema": "repro.result-cache/2"}'
)


def test_journal_and_snapshot_bytes_are_pinned(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path)
    for k, payload, meta in PINNED_ENTRIES:
        cache.insert(k, payload, meta=meta)
    assert (tmp_path / "cache.json.journal").read_text() == PINNED_JOURNAL
    cache.lookup(PINNED_ENTRIES[0][0])
    cache.save()
    assert path.read_text() == PINNED_SNAPSHOT

    empty = tmp_path / "empty.json"
    ResultCache(empty).save()
    assert empty.read_text() == json.dumps(
        {"schema": CACHE_SCHEMA, "entries": {}}, sort_keys=True
    )


@pytest.mark.parametrize("layer", ["snapshot", "journal"])
def test_loads_files_in_the_pinned_format(tmp_path, layer):
    path = tmp_path / "cache.json"
    if layer == "snapshot":
        path.write_text(PINNED_SNAPSHOT)
    else:
        (tmp_path / "cache.json.journal").write_text(PINNED_JOURNAL)
    cache = ResultCache(path)
    assert len(cache) == 2
    # what was loaded persists back byte for byte (journal records carry
    # no hit counts)
    cache.save()
    hits = '"hits": 1' if layer == "snapshot" else '"hits": 0'
    assert path.read_text() == PINNED_SNAPSHOT.replace('"hits": 1', hits)
    for k, payload, meta in PINNED_ENTRIES:
        assert cache.lookup(k) == json.dumps(payload, sort_keys=True)
    assert dict(cache.metas()) == {k: meta for k, _, meta in PINNED_ENTRIES}
