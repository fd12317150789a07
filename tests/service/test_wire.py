"""The response line: cached payload text spliced into one canonical encode."""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service.cache import CanonicalJSON, canonical
from repro.service.server import (
    ServiceConfig,
    ServiceHarness,
    decode_response,
    encode_response,
)

SPEC = {
    "app": "matmul",
    "app_args": {"n_tiles": 2, "variant": "hyb"},
    "machine_args": {"n_smp": 2, "n_gpus": 1},
    "seed": 31,
}

# ids and tenants are client-chosen: quotes, backslashes, control and
# non-ASCII characters must all come out escaped exactly as json.dumps does
names = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7fé \U0001f600'), st.characters()),
    max_size=16,
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(
    rid=st.none() | names,
    tenant=names,
    payload=json_values,
    cached=st.booleans(),
    elapsed=st.floats(min_value=0.0, max_value=10.0),
)
def test_spliced_line_equals_json_dumps(rid, tenant, payload, cached, elapsed):
    response = {
        "ok": True,
        "id": rid,
        "tenant": tenant,
        "cached": cached,
        "graph_fp": "sha256:g",
        "machine_fp": "fp:m",
        "result": CanonicalJSON(canonical(payload)),
        "elapsed": elapsed,
    }
    plain = dict(response, result=payload)
    assert encode_response(response) == (json.dumps(plain, sort_keys=True) + "\n").encode()
    assert decode_response(response) == plain


@given(rid=st.none() | names, tenant=names, message=names)
def test_error_line_equals_json_dumps(rid, tenant, message):
    response = {
        "ok": False,
        "id": rid,
        "error": {"code": "bad-spec", "message": message},
        "tenant": tenant,
        "retry_after": 1.5,
    }
    assert encode_response(response) == (json.dumps(response, sort_keys=True) + "\n").encode()


@pytest.fixture(scope="module")
def harness():
    with ServiceHarness(ServiceConfig(workers=1), tcp=True) as h:
        yield h


def exchange(harness, request: dict) -> bytes:
    with socket.create_connection(harness.address, timeout=120) as sock:
        sock.sendall(json.dumps(request).encode() + b"\n")
        return sock.makefile("rb").readline()


def result_bytes(line: bytes) -> bytes:
    """The raw ``result`` value of a success line (``tenant`` sorts last)."""
    start = line.index(b'"result": ') + len(b'"result": ')
    return line[start : line.rindex(b', "tenant": ')]


def test_cold_and_cached_answers_carry_the_same_result_bytes(harness):
    cold = exchange(harness, {"op": "submit", "id": "cold", "spec": SPEC})
    hit = exchange(harness, {"op": "submit", "id": "hit", "spec": SPEC})
    cold_resp, hit_resp = json.loads(cold), json.loads(hit)
    assert cold_resp["ok"] and not cold_resp["cached"]
    assert hit_resp["ok"] and hit_resp["cached"]
    assert result_bytes(cold) == result_bytes(hit)
    assert result_bytes(hit) == canonical(hit_resp["result"]).encode()
    # the whole line is the canonical encode of what it decodes to
    for line, resp in ((cold, cold_resp), (hit, hit_resp)):
        assert line == (json.dumps(resp, sort_keys=True) + "\n").encode()


def test_cache_hits_encode_no_payload(harness, monkeypatch):
    spec = dict(SPEC, seed=32)
    first = json.loads(exchange(harness, {"op": "submit", "id": "warm", "spec": spec}))
    payload_len = len(canonical(first["result"]))
    hits_before = harness.service.cache.stats.hits

    big_encodes = []
    encode = json.JSONEncoder.encode

    def counting(self, obj):
        out = encode(self, obj)
        if len(out) >= payload_len:
            big_encodes.append(len(out))
        return out

    monkeypatch.setattr(json.JSONEncoder, "encode", counting)
    n = 5
    for k in range(n):
        resp = json.loads(exchange(harness, {"op": "submit", "id": f"h{k}", "spec": spec}))
        assert resp["cached"] and resp["result"] == first["result"]
    assert harness.request({"op": "submit", "spec": spec})["cached"]
    assert big_encodes == []
    assert harness.service.cache.stats.hits == hits_before + n + 1
