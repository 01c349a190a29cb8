"""Unit tests for the pluggable lease transports.

The HTTP lease service's three wire-safety properties — fencing tokens,
idempotent request ids, server-owned clocks — are each pinned here
against a real in-process :class:`~repro.farm.server.FarmServer`, plus
the filesystem backend's behavior behind the same interface and the
``make_transport`` factory that picks between them.
"""

import json
import os
import time
import urllib.error
import urllib.request

import pytest

from repro.farm.inject import NetPlan, NetworkChaos
from repro.farm.lease import (
    CellResult,
    CellSpec,
    FarmPaths,
    LeaseLost,
    cid_of,
    read_lease,
)
from repro.farm.server import FarmServer
from repro.farm.transport import (
    Fenced,
    RpcError,
    TransportUnavailable,
    make_transport,
)
from repro.farm.transport.fs import FsTransport
from repro.farm.transport.http import HttpTransport


class _FastHttp(HttpTransport):
    """The production transport with a test-tight retry schedule."""

    retry_base = 0.01
    retry_cap = 0.05


def _cell(key="gcc|base|w4|n300|u600|s2|c0|a0|deadbeef", **kw):
    return CellSpec(
        cid=cid_of(key), key=key, benchmark="gcc", scheme="base",
        width=4, spec={"length": 300, "warmup": 600, "seed": 2}, **kw,
    )


def _ok(cell, worker, attempt=1):
    return CellResult(cid=cell.cid, key=cell.key, worker=worker,
                      attempt=attempt, status="ok",
                      stats={"committed": 7})


@pytest.fixture
def server(tmp_path):
    srv = FarmServer(str(tmp_path / "root")).start()
    yield srv
    srv.stop()


def _client(server, name="w0", deadline=2.0, plans=()):
    chaos = NetworkChaos(tuple(plans)) if plans else None
    return _FastHttp(server.url, client_id=name, timeout=5.0,
                     deadline=deadline, chaos=chaos)


# ============================================================== factory


def test_make_transport_dispatch(tmp_path, server):
    assert isinstance(make_transport(root=str(tmp_path / "fs")), FsTransport)
    http = make_transport(endpoint=server.url, client_id="t")
    assert isinstance(http, HttpTransport)
    assert http.client_id == "t"
    with pytest.raises(ValueError):
        make_transport()


def test_make_transport_builds_chaos_from_plans(server):
    plan = NetPlan(fault="net-drop", op="claim", seq=0, count=1)
    http = make_transport(endpoint=server.url, net_plans=(plan,))
    assert http.chaos is not None
    assert http.chaos.plans == (plan,)


# =============================================== fencing (HTTP service)


def test_claim_issues_monotonic_fencing_tokens(server):
    client = _client(server)
    a, b = _cell("ka"), _cell("kb")
    for cell in (a, b):
        client.publish(cell)
    lease_a = client.claim(a, "w0", ttl=30.0)
    lease_b = client.claim(b, "w0", ttl=30.0)
    assert lease_a.token >= 1
    assert lease_b.token > lease_a.token


def test_claim_is_exclusive_until_released(server):
    client = _client(server, "w0")
    rival = _client(server, "w1")
    cell = _cell()
    client.publish(cell)
    lease = client.claim(cell, "w0", ttl=30.0)
    assert lease is not None
    assert rival.claim(cell, "w1", ttl=30.0) is None  # taken
    assert client.release(lease)
    assert rival.claim(cell, "w1", ttl=30.0) is not None


def test_reclaim_fences_every_write_of_the_old_holder(server):
    """The zombie scenario, rejected server-side: after the broker
    reclaims, the old holder's heartbeat, checkpoint upload, and
    completion must all bounce off the stale token — no matter how
    delayed its packets are."""
    worker = _client(server, "w0")
    broker = _client(server, "broker")
    cell = _cell()
    broker.publish(cell)
    lease = worker.claim(cell, "w0", ttl=30.0)

    reclaimed = CellSpec.from_dict(cell.to_dict())
    reclaimed.attempt = 2
    assert broker.reclaim(reclaimed, lease)

    with pytest.raises(LeaseLost):
        worker.heartbeat(lease, cycle=100)
    with pytest.raises(Fenced):
        worker.write_result(_ok(cell, "w0"), lease=lease)
    snap = os.path.join(worker.checkpoint_dir, "zombie.snap")
    with open(snap, "wb") as fh:
        fh.write(b"stale snapshot")
    with pytest.raises(Fenced):
        worker.store_checkpoint(cell, lease, snap)
    # And the fenced completion left nothing behind.
    assert worker.done_cids() == set()


def test_stale_attempt_claim_is_refused(server):
    """A claimer whose scan predates a reclaim carries a stale attempt
    number; granting it would undo the fence."""
    worker = _client(server, "w0")
    broker = _client(server, "broker")
    cell = _cell()
    broker.publish(cell)
    lease = worker.claim(cell, "w0", ttl=30.0)
    bumped = CellSpec.from_dict(cell.to_dict())
    bumped.attempt = 2
    broker.reclaim(bumped, lease)
    # Old snapshot of the spec (attempt 1): refused.
    assert worker.claim(cell, "w0", ttl=30.0) is None
    # A fresh scan sees attempt 2 and claims fine.
    fresh = worker.read_cell(cell.cid)
    assert fresh.attempt == 2
    assert worker.claim(fresh, "w0", ttl=30.0) is not None


def test_broker_reclaim_with_stale_token_is_refused(server):
    """The broker's own view can go stale too: if the lease changed
    hands since its last scan, reclaim must refuse rather than fence
    out the *new* (live) holder."""
    broker = _client(server, "broker")
    w0, w1 = _client(server, "w0"), _client(server, "w1")
    cell = _cell()
    broker.publish(cell)
    old = w0.claim(cell, "w0", ttl=30.0)
    assert w0.release(old)
    new = w1.claim(cell, "w1", ttl=30.0)
    bumped = CellSpec.from_dict(cell.to_dict())
    bumped.attempt = 2
    assert not broker.reclaim(bumped, old)   # stale token: refused
    w1.heartbeat(new)                        # the live holder is untouched


# ====================================== idempotency (HTTP service rids)


def test_disconnect_mid_complete_applies_exactly_once(server, tmp_path):
    """The classic torn-connection fault: the completion executes
    server-side but the response is lost.  The retry re-sends the same
    rid and must be answered from the replay cache — one result file,
    no duplicate, no error surfaced to the caller."""
    plans = (NetPlan(fault="net-disconnect", op="complete", seq=0, count=1),)
    worker = _client(server, "w0", plans=plans)
    cell = _cell()
    worker.publish(cell)
    lease = worker.claim(cell, "w0", ttl=30.0)
    worker.write_result(_ok(cell, "w0"), lease=lease)  # must not raise
    results = os.listdir(FarmPaths(server.state.paths.root).results)
    assert len(results) == 1
    assert worker.done_cids() == {cell.cid}


def test_duplicate_delivery_applies_exactly_once(server):
    plans = (NetPlan(fault="net-duplicate", op="claim", seq=0, count=1),)
    worker = _client(server, "w0", plans=plans)
    cell = _cell()
    worker.publish(cell)
    lease = worker.claim(cell, "w0", ttl=30.0)
    # The duplicated claim executed twice on the wire but once in
    # effect: exactly one lease exists, with one token.
    assert lease is not None
    assert len(server.state.leases) == 1
    assert server.state.leases[cell.cid].token == lease.token


def test_stale_response_is_unmasked_by_rid_verification(server):
    """A misbehaving proxy replaying yesterday's response must not be
    mistaken for the answer: the echoed rid gives it away and the
    client retries until the real response arrives."""
    a, b = _cell("ka"), _cell("kb")
    # claim #0 real (primes the stale cache), claim #1 replayed stale,
    # the retry (claim #2) goes through.
    plans = (NetPlan(fault="net-stale", op="claim", seq=1, count=1),)
    worker = _client(server, "w0", plans=plans)
    worker.publish(a)
    worker.publish(b)
    lease_a = worker.claim(a, "w0", ttl=30.0)
    lease_b = worker.claim(b, "w0", ttl=30.0)
    assert lease_a is not None and lease_b is not None
    assert lease_b.cid == b.cid              # not A's replayed lease
    assert lease_b.token != lease_a.token


def test_reclaiming_own_live_lease_is_idempotent(server):
    """Semantic idempotency behind the rid cache: re-claiming a lease
    you already hold (a retry whose rid the cache lost, e.g. across a
    service restart) returns the same grant, not ``taken``."""
    worker = _client(server, "w0")
    cell = _cell()
    worker.publish(cell)
    first = worker.claim(cell, "w0", ttl=30.0)
    again = worker.claim(cell, "w0", ttl=30.0)
    assert again is not None
    assert again.token == first.token


def test_replayed_completion_is_ok_not_fenced(server):
    """Re-completing an applied result (lease already dropped) must be
    ``ok``, not ``fenced`` — a service restart that lost the rid cache
    cannot turn a worker's retry into a spurious zombie verdict."""
    worker = _client(server, "w0")
    cell = _cell()
    worker.publish(cell)
    lease = worker.claim(cell, "w0", ttl=30.0)
    worker.write_result(_ok(cell, "w0"), lease=lease)
    server.rid_cache.clear()  # simulate a cache wipe
    worker.write_result(_ok(cell, "w0"), lease=lease)  # must not raise


# ================================================= malformed requests


def _raw(server, path, body=None):
    """One HTTP request, no retries: ``(status, decoded JSON body)``."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        server.url + path, data=data,
        headers={"Content-Type": "application/json"},
        method="GET" if body is None else "POST")
    try:
        with urllib.request.urlopen(request, timeout=5) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_malformed_lease_rpcs_are_400_not_a_dropped_connection(server):
    cell = _cell()
    assert _raw(server, "/publish", {"cell": cell.to_dict()})[0] == 200
    bad = [
        ("/claim", {"cid": cell.cid, "worker": "w0", "ttl": "abc",
                    "attempt": 1}),
        ("/heartbeat", {"cid": cell.cid, "token": "zz"}),
        ("/publish", {"cell": {**cell.to_dict(), "bogus": 1}}),
        ("/prune", {"keep": None}),
    ]
    for path, body in bad:
        status, payload = _raw(server, path, {**body, "rid": "r" + path})
        assert status == 400, (path, payload)
        assert "error" in payload
    # Nothing was applied, and a 400 is not remembered for replay.
    assert server.rid_cache == {}
    assert server.state.leases == {}
    assert set(server.state.cells) == {cell.cid}
    assert _raw(server, "/ping")[0] == 200


def test_malformed_rpc_raises_rpc_error_without_retrying(server):
    """A request that can never succeed must fail at once with a
    verdict, not be retried as transient until the deadline and then
    reported as an unreachable service."""
    client = HttpTransport(server.url, client_id="w0", timeout=5.0,
                           deadline=60.0)
    cell = _cell()
    client.publish(cell)
    started = time.monotonic()
    with pytest.raises(RpcError, match="HTTP 400"):
        client.claim(cell, "w0", ttl="abc")
    assert time.monotonic() - started < 5.0
    assert client._rid_counter == 2  # one publish, one claim: no retry


# ====================================================== path traversal


def test_publish_refuses_a_cid_that_is_not_its_keys(server, tmp_path):
    forged = {**_cell().to_dict(), "cid": "../../escaped"}
    status, _ = _raw(server, "/publish", {"cell": forged})
    assert status == 400
    assert not os.path.exists(tmp_path / "escaped.json")
    assert server.state.cells == {}


def test_checkpoint_reads_only_published_cells(server, tmp_path):
    outside = tmp_path / "outside.snap"
    outside.write_bytes(b"not the service's to serve")
    for cid in ("../../outside", "nope"):
        assert _raw(server, f"/checkpoint?cid={cid}") == (200, {"missing": 1})
        assert _raw(server, f"/has-checkpoint?cid={cid}") == (
            200, {"exists": False})
    # A published cell's checkpoint still round-trips:
    # test_checkpoint_roundtrip_and_cleanup.


def test_reclaim_refuses_a_terminal_result_for_another_cell(server,
                                                            tmp_path):
    broker = _client(server, "broker")
    cell = _cell()
    broker.publish(cell)
    forged = _ok(cell, "broker").to_dict()
    forged["cid"] = "../../escaped"
    status, _ = _raw(server, "/reclaim", {
        "cid": cell.cid, "token": 0, "attempt": 1, "terminal": forged})
    assert status == 400
    assert os.listdir(FarmPaths(server.state.paths.root).results) == []
    assert not list(tmp_path.glob("escaped*"))
    # The cell's own terminal result is still accepted.
    assert broker.reclaim(cell, None, terminal=_ok(cell, "broker"))
    assert broker.done_cids() == {cell.cid}


# ============================================= restart + clock ownership


def test_server_restart_recovers_state_and_fence(server, tmp_path):
    root = server.state.paths.root
    client = _client(server, "w0")
    a, b, c = _cell("ka"), _cell("kb"), _cell("kc")
    for cell in (a, b, c):
        client.publish(cell)
    lease_a = client.claim(a, "w0", ttl=30.0)
    client.write_result(_ok(a, "w0"), lease=lease_a)
    lease_b = client.claim(b, "w0", ttl=30.0)
    server.stop()

    revived = FarmServer(root).start()
    try:
        client2 = _client(revived, "w0")
        # Results, cells, and live leases all came back from disk.
        assert client2.done_cids() == {a.cid}
        assert set(client2.list_cells()) == {a.cid, b.cid, c.cid}
        client2.heartbeat(lease_b, cycle=42)       # still owns B
        # The fence counter survived (fence.json): a new claim's token
        # is strictly above every token issued before the restart.
        lease_c = client2.claim(c, "w0", ttl=30.0)
        assert lease_c.token > lease_b.token
    finally:
        revived.stop()


def test_backoff_fence_travels_as_delta_not_timestamp(server):
    """Retry backoff crosses the wire as "not claimable for N seconds",
    re-anchored on each host's own clock — never as a unix time that
    clock skew could stretch or collapse."""
    broker = _client(server, "broker")
    worker = _client(server, "w0")
    cell = _cell()
    broker.publish(cell)
    lease = worker.claim(cell, "w0", ttl=30.0)
    bumped = CellSpec.from_dict(cell.to_dict())
    bumped.attempt = 2
    bumped.not_before = time.time() + 5.0
    broker.reclaim(bumped, lease)

    seen = worker.read_cell(cell.cid)
    assert 2.0 < seen.not_before - time.time() <= 5.0
    # And the service itself refuses a claim inside the backoff window.
    assert worker.claim(seen, "w0", ttl=30.0) is None


def test_lease_ages_are_computed_on_the_server_clock(server):
    worker = _client(server, "w0")
    broker = _client(server, "broker")
    cell = _cell()
    broker.publish(cell)
    worker.claim(cell, "w0", ttl=30.0)
    (view,) = broker.lease_views()
    assert view.cid == cell.cid
    assert 0.0 <= view.age < 5.0
    assert view.held >= view.age - 1e-6


# ========================================== checkpoints over the service


def test_checkpoint_roundtrip_and_cleanup(server):
    worker = _client(server, "w0")
    cell = _cell()
    worker.publish(cell)
    lease = worker.claim(cell, "w0", ttl=30.0)

    local = os.path.join(worker.checkpoint_dir, "cell.snap")
    payload = b"\x00machine snapshot bytes\xff" * 64
    with open(local, "wb") as fh:
        fh.write(payload)
    worker.store_checkpoint(cell, lease, local)
    assert worker.has_checkpoint(cell, local)

    # A different worker (fresh spool: nothing local) fetches it back.
    other = _client(server, "w1")
    fetched = os.path.join(other.checkpoint_dir, "cell.snap")
    assert other.fetch_checkpoint(cell, fetched)
    with open(fetched, "rb") as fh:
        assert fh.read() == payload

    # Completion retires the checkpoint with the cell.
    worker.write_result(_ok(cell, "w0"), lease=lease)
    assert not worker.has_checkpoint(cell, local)
    assert not other.fetch_checkpoint(cell, fetched)


# ============================================ results cursor + liveness


def test_new_results_is_a_cursor(server):
    worker = _client(server, "w0")
    broker = _client(server, "broker")
    a, b = _cell("ka"), _cell("kb")
    for cell in (a, b):
        broker.publish(cell)
    for cell in (a, b):
        lease = worker.claim(cell, "w0", ttl=30.0)
        worker.write_result(_ok(cell, "w0"), lease=lease)
    first = broker.new_results()
    assert {r.cid for r in first} == {a.cid, b.cid}
    assert broker.new_results() == []        # already folded


def test_unreachable_endpoint_raises_typed_error():
    dead = _FastHttp("http://127.0.0.1:1", client_id="w0",
                     timeout=0.2, deadline=0.3)
    with pytest.raises(TransportUnavailable) as info:
        dead.list_cells()
    exc = info.value
    assert exc.endpoint == "http://127.0.0.1:1"
    assert exc.attempts >= 1
    assert exc.last is not None
    assert "unreachable" in str(exc)


# ===================================================== filesystem parity


def test_fs_publish_preserves_attempt_fence(tmp_path):
    transport = FsTransport(str(tmp_path / "farm"))
    cell = _cell()
    transport.publish(cell)
    lease = transport.claim(cell, "w0", ttl=30.0)
    bumped = CellSpec.from_dict(cell.to_dict())
    bumped.attempt = 2
    transport.reclaim(bumped, lease)
    # A resumed broker republishing the original (attempt-1) spec must
    # not rewind the fence.
    republished = transport.publish(_cell())
    assert republished.attempt == 2


def test_fs_read_cell_raises_keyerror_when_pruned(tmp_path):
    transport = FsTransport(str(tmp_path / "farm"))
    with pytest.raises(KeyError):
        transport.read_cell("nope")


def test_fs_scrub_fenced_never_deletes_a_successor_lease(tmp_path):
    """scrub_fenced is ownership-checked like release(): it removes the
    exact stale lease the broker observed, never one a new claim just
    created in the gap."""
    transport = FsTransport(str(tmp_path / "farm"))
    cell = _cell()
    transport.publish(cell)
    stale = transport.claim(cell, "ghost", ttl=30.0)
    bumped = CellSpec.from_dict(cell.to_dict())
    bumped.attempt = 2
    transport.reclaim(bumped, stale)          # unlinks ghost's lease
    fresh = transport.claim(bumped, "w1", ttl=30.0)
    assert fresh is not None

    (view,) = transport.lease_views()
    view = type(view)(cid=view.cid, lease=stale, age=view.age,
                      held=view.held)         # the broker's stale view
    transport.scrub_fenced(view)
    current = read_lease(transport.paths.lease(cell.cid))
    assert current.worker == "w1"             # survivor untouched


def test_fs_and_http_resume_commands_name_their_backend(tmp_path, server):
    fs = FsTransport(str(tmp_path / "farm"))
    assert fs.paths.root in fs.resume_command("w0")
    assert "--name w0" in fs.resume_command("w0")
    http = _client(server)
    assert f"--endpoint {server.url}" in http.resume_command("w0")
