"""In-process scripted chat-completion endpoint for labeler tests.

Serves the real wire protocol over a loopback HTTP server and instruments
request concurrency, so tests can assert both protocol conformance and the
in-flight bound. It answers HTTP/1.0 (one connection per request) unless
``keep_alive`` asks for HTTP/1.1 persistent connections.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable


class MockLLMServer:
    """Scripted endpoint: ``script(prompt) -> response text``.

    Tracks total requests, the high-water mark of concurrent requests, the
    connections opened, and each request's path, headers and body (for
    wire-format assertions). ``delay_s`` holds each request open to force
    overlap; ``status_code`` != 200 simulates a broken endpoint.
    ``replies(n)``, when given, sets the status and the extra headers of the
    n-th request (from 0, in arrival order) instead. With
    ``keep_alive``, ``close_idle`` closes each connection right after its
    answer without announcing it, as a server's idle timeout does; each
    close releases ``connection_closed``.
    """

    def __init__(self, script: Callable[[str], str] | None = None, delay_s: float = 0.0,
                 status_code: int = 200, keep_alive: bool = False, close_idle: bool = False,
                 replies: Callable[[int], tuple[int, dict[str, str]]] | None = None):
        self.script = script or (lambda prompt: "No")
        self.delay_s = delay_s
        self.status_code = status_code
        self.replies = replies
        self.keep_alive = keep_alive
        self.close_idle = close_idle
        self.total_requests = 0
        self.connections = 0
        self.connection_closed = threading.Semaphore(0)
        self.in_flight = 0
        self.max_in_flight = 0
        self.paths: list[str] = []
        self.bodies: list[dict] = []
        self.headers: list[dict] = []
        self._lock = threading.Lock()
        self._httpd = _Server(("127.0.0.1", 0), _Handler)
        self._httpd.owner = self
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "MockLLMServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)


class _Server(ThreadingHTTPServer):
    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.owner.connection_closed.release()


class _Handler(BaseHTTPRequestHandler):
    def setup(self):
        super().setup()
        server: MockLLMServer = self.server.owner
        if server.keep_alive:
            self.protocol_version = "HTTP/1.1"
        with server._lock:
            server.connections += 1

    def do_POST(self):
        server: MockLLMServer = self.server.owner
        # The in-flight gauge counts UNANSWERED requests: it is decremented
        # before the response is written. Every unanswered request is still
        # outstanding from the client's point of view, so the observed
        # maximum can never exceed the client's true outstanding count.
        with server._lock:
            number = server.total_requests
            server.total_requests += 1
            server.in_flight += 1
            server.max_in_flight = max(server.max_in_flight, server.in_flight)
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length))
            with server._lock:
                server.paths.append(self.path)
                server.bodies.append(body)
                server.headers.append(dict(self.headers))
            if server.delay_s:
                time.sleep(server.delay_s)
            text = server.script(body["messages"][0]["content"])
        finally:
            with server._lock:
                server.in_flight -= 1
        status, extra = server.replies(number) if server.replies else (server.status_code, {})
        if status != 200:
            doc = {"error": "scripted failure"}  # a body with a length keeps a kept-alive connection usable
        else:
            doc = {"choices": [{"message": {"role": "assistant", "content": text}}]}
        payload = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        for name, value in extra.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        if server.close_idle:
            self.close_connection = True

    def log_message(self, *args):  # keep test output quiet
        pass
