"""The stdlib JSON-RPC server under both HTTP services.

The farm lease service (:mod:`repro.farm.server`) and the job server
(:mod:`repro.serve.server`) declare only their routes.  A route takes
the GET query (``{name: first value}``) or the POST JSON object and
returns a dict (HTTP 200) or a ``(payload, status)`` pair.  Routes run
under the service's lock; responses are sent outside it.  A POST with a
request id (``rid``) executes at most once: a retry gets the remembered
200 response plus ``"replayed": 1``.  An unknown path is 404; a body
that is not a JSON object, or a route raising :class:`KeyError`,
:class:`TypeError` or :class:`ValueError`, is 400 — a verdict, not a
dropped connection its client would retry.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

#: How many request-id -> response entries the replay cache keeps.
RID_CACHE_SIZE = 4096


class BadRequest(ValueError):
    """A route's own verdict on a malformed request: HTTP 400 whose
    error text is the message alone."""


class RpcServer:
    """An embeddable JSON-RPC service over ``state``, which provides the
    ``lock`` and its ``routes()`` (``{"GET": {path: route}, "POST": ...}``):
    ``start()`` serves on a background thread (port 0 picks a free one),
    ``serve_forever()`` in the foreground, ``stop()`` shuts it down."""

    def __init__(self, state, *, host: str, port: int,
                 verbose: bool) -> None:
        self.state = state
        self.routes = state.routes()
        self.rid_cache: "OrderedDict[str, Dict]" = OrderedDict()
        self.verbose = verbose
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.rpc = self
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "RpcServer":
        self._thread = threading.Thread(target=self.serve_forever,
                                        name=type(self).__name__, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(5)

    def call(self, method: str, path: str, request: Dict) -> Tuple[Dict, int]:
        """Answer one request; the handler sends the result."""
        rid = request.get("rid") if method == "POST" else None
        with self.state.lock:
            if rid is not None and rid in self.rid_cache:
                # Exactly-once: this request already executed; its
                # effect stands and the original answer is replayed.
                return {**self.rid_cache[rid], "rid": rid, "replayed": 1}, 200
            payload, status = self._route(method, path, request)
            if status == 200 and rid is not None:
                self.rid_cache[rid] = payload
                while len(self.rid_cache) > RID_CACHE_SIZE:
                    self.rid_cache.popitem(last=False)
        return ({**payload, "rid": rid} if method == "POST" else payload,
                status)

    def _route(self, method: str, path: str,
               request: Dict) -> Tuple[Dict, int]:
        route = self.routes[method].get(path)
        if route is None:
            return {"error": f"unknown path {path!r}"}, 404
        try:
            reply = route(request)
        except KeyError as exc:
            return {"error": f"missing field {exc}"}, 400
        except BadRequest as exc:
            return {"error": str(exc)}, 400
        except (TypeError, ValueError) as exc:
            return {"error": f"bad request: {exc}"}, 400
        return reply if isinstance(reply, tuple) else (reply, 200)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # noqa: D102 — silence stdlib chatter
        if self.server.rpc.verbose:
            super().log_message(fmt, *args)

    def _send(self, payload: Dict, status: int) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 — stdlib API
        parsed = urlparse(self.path)
        query = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        self._send(*self.server.rpc.call("GET", parsed.path, query))

    def do_POST(self) -> None:  # noqa: N802 — stdlib API
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, json.JSONDecodeError) as exc:
            self._send({"error": f"bad request body: {exc}"}, 400)
            return
        self._send(*self.server.rpc.call("POST", urlparse(self.path).path,
                                         body))
