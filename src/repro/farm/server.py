"""The HTTP/JSON lease service: one farm root behind a socket.

``python -m repro.farm serve <root>`` turns the lease protocol's
arbiter from "a directory the hosts all mount" into "a port the hosts
can reach": the broker and any number of workers (local or remote)
speak :mod:`repro.farm.transport.http` to this process, and hosts need
share nothing but a network.  The HTTP side is :mod:`repro.rpc`, the
stdlib JSON-RPC server the job server shares; this module adds routes.

Three properties make the service safe to talk to over an unreliable
network:

**Idempotent RPCs.**  Every mutating request carries a client-generated
request id (``rid``).  The service remembers the response it gave each
rid; a retry of a half-completed call — the classic "the request
executed but the connection died before the response" — is answered
from that cache instead of executing twice.  The mutations are also
*semantically* idempotent (re-claiming a lease you hold returns the
same lease; re-completing a stored result is ``ok``), so even a service
restart that loses the cache cannot double-apply a retry.

**Fencing tokens.**  Each claim is stamped with a globally monotonic
token (persisted in ``fence.json``, so restarts never reuse one).
Every subsequent write on the lease — heartbeat, checkpoint upload,
completion, release, broker reclaim — must present the token, and a
stale one is rejected with ``fenced`` *server-side*: a zombie worker
waking up after its cell was reclaimed cannot heartbeat, upload, or
complete anything, no matter how delayed its packets are.

**Server-owned clocks.**  Lease ages (for TTL expiry and wall-clock
timeouts) are computed on the service's own clock and shipped to the
broker as *ages*, never as timestamps — clock skew between hosts
cannot mis-expire a lease.  Retry backoff fences arrive as deltas
("not claimable for N seconds") for the same reason.

State lives in the ordinary farm-root layout (``cells/``, ``leases/``,
``results/``, ``checkpoints/``) as the same checksummed envelopes the
filesystem transport writes, so ``fsck`` and ``farm status`` work on a
server root unchanged, and a restarted service recovers every cell,
lease, and result from disk.
"""

from __future__ import annotations

import base64
import os
import threading
import time
from typing import Dict, List, Optional

from repro.farm import lease as fsl
from repro.farm.lease import (
    CellResult,
    CellSpec,
    FARM_SCHEMA,
    FarmPaths,
    LEASE_KIND,
    Lease,
    cid_of,
)
from repro.rpc import RpcServer
from repro.store import (
    ArtifactError,
    atomic_write_bytes,
    envelope_bytes,
    read_json_artifact,
    remove_file,
)

#: Envelope kind of the persisted fencing-token counter.
FENCE_KIND = "farm-fence"


class FarmState:
    """Everything the service knows, plus its on-disk recovery story.

    One lock serializes all RPCs: the farm's scale is tens of cells and
    a heartbeat per worker per second, so correctness-by-serialization
    costs nothing measurable and keeps every invariant local.
    """

    def __init__(self, root: str) -> None:
        self.paths = FarmPaths(root).ensure()
        self.lock = threading.Lock()
        self.cells: Dict[str, CellSpec] = {}
        self.leases: Dict[str, Lease] = {}
        self.fence = 0
        self._result_keys: set = set()
        self._recover()

    # ----------------------------------------------------- persistence

    @property
    def _fence_path(self) -> str:
        return os.path.join(self.paths.root, "fence.json")

    def _recover(self) -> None:
        """Rebuild in-memory state from the root: cells, live leases,
        result keys, and the fence counter (never reused, even across
        restarts — see ``fence.json``)."""
        for cid in fsl.list_cells(self.paths):
            try:
                self.cells[cid] = fsl.read_cell(self.paths.cell(cid))
            except (ArtifactError, OSError):
                continue  # damaged spec: the broker republishes
        for cid in fsl.list_leases(self.paths):
            try:
                lease = fsl.read_lease(self.paths.lease(cid))
            except (ArtifactError, OSError):
                continue  # torn write: a fresh claim will replace it
            self.leases[cid] = lease
            self.fence = max(self.fence, lease.token)
        for _cid, path in fsl.iter_results(self.paths):
            try:
                result = fsl.read_result(path)
            except (ArtifactError, OSError):
                continue
            self._result_keys.add((result.cid, result.attempt, result.worker))
        if os.path.exists(self._fence_path):
            try:
                data, _ = read_json_artifact(self._fence_path, FENCE_KIND,
                                             allow_legacy=False)
                self.fence = max(self.fence, int(data["fence"]))
            except (ArtifactError, OSError, KeyError, ValueError):
                pass  # lease files above already lower-bound the fence

    def _issue_token(self) -> int:
        self.fence += 1
        atomic_write_bytes(
            self._fence_path,
            envelope_bytes(FENCE_KIND, FARM_SCHEMA, {"fence": self.fence}),
        )
        return self.fence

    def _write_lease(self, lease: Lease, *, durable: bool = True) -> None:
        atomic_write_bytes(
            self.paths.lease(lease.cid),
            envelope_bytes(LEASE_KIND, FARM_SCHEMA, lease.to_dict()),
            durable=durable,
        )

    def _drop_lease(self, cid: str) -> None:
        self.leases.pop(cid, None)
        remove_file(self.paths.lease(cid))

    def _ckpt_path(self, cid: str) -> str:
        return os.path.join(self.paths.checkpoints, f"{cid}.snap")

    def _done(self, cid: str) -> bool:
        return any(key[0] == cid for key in self._result_keys)

    def _store_result(self, result: CellResult) -> None:
        fsl.write_result(self.paths, result)
        self._result_keys.add((result.cid, result.attempt, result.worker))

    # ------------------------------------------------------------ reads

    def snapshot_cells(self) -> List[Dict]:
        now = time.time()
        out = []
        for cid in sorted(self.cells):
            data = self.cells[cid].to_dict()
            # Ship the backoff fence as a *delta*: the client re-anchors
            # it on its own clock, so host clock skew cannot extend (or
            # collapse) a retry backoff.
            data["not_before_in"] = max(0.0, self.cells[cid].not_before - now)
            out.append(data)
        return out

    def snapshot_leases(self) -> List[Dict]:
        now = time.time()
        out = []
        for cid in sorted(self.leases):
            lease = self.leases[cid]
            data = lease.to_dict()
            data["age"] = lease.age(now)
            data["held"] = now - lease.granted_unix
            out.append(data)
        return out

    def snapshot_results(self) -> List[Dict]:
        out = []
        for _cid, path in fsl.iter_results(self.paths):
            try:
                out.append(fsl.read_result(path).to_dict())
            except (ArtifactError, OSError):
                continue  # unreadable: fsck's problem, not the wire's
        return out

    def read_checkpoint(self, cid: str) -> Dict:
        try:
            # Only a published cell has a checkpoint: a cid off the
            # wire never names a path of its own.
            if cid in self.cells:
                with open(self._ckpt_path(cid), "rb") as fh:
                    raw = fh.read()
                return {"data": base64.b64encode(raw).decode("ascii")}
        except OSError:
            pass
        return {"missing": 1}

    # -------------------------------------------------------- mutations
    # All called under self.lock, all returning JSON-able dicts.  An
    # ``{"code": ...}`` response is a protocol verdict (fenced, taken,
    # backoff, ...), not an HTTP error: the transport maps them.

    def rpc_publish(self, cell_data: Dict) -> Dict:
        cell = CellSpec.from_dict(cell_data)
        if not isinstance(cell.key, str) or cell.cid != cid_of(cell.key):
            # The cid names every file of the cell: only the one derived
            # from its key may reach the disk.
            raise ValueError(f"cid {cell.cid!r} is not the cid of its key")
        prior = self.cells.get(cell.cid)
        if prior is not None and prior.key == cell.key:
            # Resumed sweep: the service's attempt counter and backoff
            # fence are the authoritative ones.
            cell = prior
        self.cells[cell.cid] = cell
        fsl.write_cell(self.paths, cell)
        return {"cell": cell.to_dict()}

    def rpc_prune(self, keep: List[str]) -> Dict:
        keep_set = set(keep)
        for cid in list(self.cells):
            if cid in keep_set:
                continue
            del self.cells[cid]
            self._drop_lease(cid)
            remove_file(self.paths.cell(cid))
        return {"ok": 1}

    def rpc_claim(self, cid: str, worker: str, ttl: float,
                  attempt: int) -> Dict:
        cell = self.cells.get(cid)
        if cell is None:
            return {"code": "unknown-cell"}
        if self._done(cid):
            return {"code": "done"}
        if attempt != cell.attempt:
            # The claimer's scan predates a reclaim: its attempt number
            # is stale, and granting it would undo the fence.
            return {"code": "stale-attempt"}
        now = time.time()
        if now < cell.not_before:
            return {"code": "backoff"}
        held = self.leases.get(cid)
        if held is not None:
            if held.worker == worker and held.attempt == attempt:
                # Semantic idempotency: re-claiming a lease you already
                # hold (a retry whose rid the cache lost, e.g. across a
                # service restart) returns the same grant.
                return {"lease": held.to_dict()}
            return {"code": "taken"}
        lease = Lease(
            cid=cid, key=cell.key, worker=worker, attempt=attempt,
            ttl=ttl, granted_unix=now, heartbeat_unix=now,
            token=self._issue_token(),
        )
        self.leases[cid] = lease
        self._write_lease(lease)
        return {"lease": lease.to_dict()}

    def rpc_heartbeat(self, cid: str, token: int, cycle: int,
                      committed: int, state: Optional[str]) -> Dict:
        lease = self.leases.get(cid)
        if lease is None or lease.token != token:
            return {"code": "fenced"}
        lease.heartbeat_unix = time.time()
        lease.cycle = cycle
        lease.committed = committed
        if state is not None:
            lease.state = state
        # Heartbeats are frequent and individually expendable: persist
        # atomically but not durably, exactly like the fs transport.
        self._write_lease(lease, durable=state is not None)
        return {"ok": 1}

    def rpc_release(self, cid: str, token: int) -> Dict:
        lease = self.leases.get(cid)
        if lease is None or lease.token != token:
            return {"released": False}
        self._drop_lease(cid)
        return {"released": True}

    def rpc_complete(self, result_data: Dict, token: int) -> Dict:
        result = CellResult.from_dict(result_data)
        key = (result.cid, result.attempt, result.worker)
        if key in self._result_keys:
            return {"ok": 1}  # replay of an applied completion
        lease = self.leases.get(result.cid)
        if lease is None or lease.token != token:
            # The zombie case: this worker's lease was reclaimed.  On
            # the filesystem the duplicate lands on disk and the broker
            # verifies it at fold time; here the fence rejects it at the
            # door — the winner's result (or the reclaim) stands.
            return {"code": "fenced"}
        self._store_result(result)
        self._drop_lease(result.cid)
        remove_file(self._ckpt_path(result.cid))
        return {"ok": 1}

    def rpc_reclaim(self, cid: str, token: int, attempt: int,
                    released: int, backoff: float,
                    terminal: Optional[Dict]) -> Dict:
        cell = self.cells.get(cid)
        if cell is None:
            return {"code": "unknown-cell"}
        if self._done(cid):
            return {"code": "done"}  # completed in flight: nothing to do
        lease = self.leases.get(cid)
        if lease is not None and lease.token != token:
            # The broker's view is stale (the lease changed hands since
            # its last scan): refuse — it will re-observe and decide.
            return {"code": "fenced"}
        if terminal is not None:
            result = CellResult.from_dict(terminal)
            if result.cid != cid:
                raise ValueError(f"terminal result for {result.cid!r} "
                                 f"cannot retire cell {cid!r}")
            self._store_result(result)
            self._drop_lease(cid)
            remove_file(self._ckpt_path(cid))
            return {"ok": 1}
        if cell.attempt < attempt:
            cell.attempt = attempt
            cell.released = released
            cell.not_before = time.time() + max(0.0, backoff)
            # Publish the bumped spec (the fence) before dropping the
            # lease — both under the lock, so no claim can interleave
            # and the in-flight heartbeat deterministically loses.
            fsl.write_cell(self.paths, cell)
        self._drop_lease(cid)
        return {"ok": 1}

    def rpc_checkpoint(self, cid: str, token: int, data_b64: str) -> Dict:
        lease = self.leases.get(cid)
        if lease is None or lease.token != token:
            return {"code": "fenced"}
        atomic_write_bytes(self._ckpt_path(cid),
                           base64.b64decode(data_b64.encode("ascii")))
        return {"ok": 1}

    # ----------------------------------------------------------- routes

    def routes(self) -> Dict[str, Dict]:
        return {"GET": {
            "/ping": lambda q: {"ok": 1, "fence": self.fence,
                                "cells": len(self.cells),
                                "results": len(self._result_keys)},
            "/cells": lambda q: {"cells": self.snapshot_cells()},
            "/leases": lambda q: {"leases": self.snapshot_leases()},
            "/done": lambda q: {
                "cids": sorted({k[0] for k in self._result_keys})},
            "/results": lambda q: {"results": self.snapshot_results()},
            "/has-checkpoint": lambda q: {"exists": (
                q.get("cid", "") in self.cells
                and os.path.exists(self._ckpt_path(q["cid"])))},
            "/checkpoint": lambda q: self.read_checkpoint(q.get("cid", "")),
        }, "POST": {
            "/publish": lambda b: self.rpc_publish(b["cell"]),
            "/prune": lambda b: self.rpc_prune(b["keep"]),
            "/claim": lambda b: self.rpc_claim(
                b["cid"], b["worker"], float(b["ttl"]), int(b["attempt"])),
            "/heartbeat": lambda b: self.rpc_heartbeat(
                b["cid"], int(b["token"]), int(b.get("cycle", 0)),
                int(b.get("committed", 0)), b.get("state")),
            "/release": lambda b: self.rpc_release(b["cid"],
                                                   int(b["token"])),
            "/complete": lambda b: self.rpc_complete(b["result"],
                                                     int(b["token"])),
            "/reclaim": lambda b: self.rpc_reclaim(
                b["cid"], int(b["token"]), int(b["attempt"]),
                int(b.get("released", 0)), float(b.get("backoff", 0.0)),
                b.get("terminal")),
            "/checkpoint": lambda b: self.rpc_checkpoint(
                b["cid"], int(b["token"]), b["data"]),
        }}


class FarmServer(RpcServer):
    """The lease service: the RPC server over :class:`FarmState`."""

    def __init__(self, root: str, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False) -> None:
        super().__init__(FarmState(root), host=host, port=port,
                         verbose=verbose)
