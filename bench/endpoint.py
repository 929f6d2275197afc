"""Stand-in chat-completion endpoint for the labeling workload.

Run it as its own process::

    python3 bench/endpoint.py --seed 7

It prints ``PORT <n>`` on its first stdout line and serves until terminated.
Every completion is answered after ``LATENCY_MS``.

Why not ``tests/mockllm.py``: that server answers HTTP/1.0, so every request
opens a new TCP connection; it shares the labeler's process and interpreter
lock, so its own work slows the client it measures; and its failure knob is
one global status code. Serving stacks in front of real models speak
HTTP/1.1 keep-alive from a separate process and fail transiently per
request, which is what this server does.

Every answer is scripted by a hash of (seed, base prompt), so the same seed
gives the same Yes / No / abstain mix and the same transient 503s on every
run, whatever order the requests arrive in. ``POST /_reset`` clears the
counters and the 503 memory; ``GET /_stats`` returns the counters.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

COMPLETIONS_PATH = "/v1/chat/completions"
# Fixed service time of every completion. At 10 ms it, not host contention, sets
# most of a cold labeling run's wall time.
LATENCY_MS = 10.0

ABSTAIN_ALWAYS_SHARE = 0.03
ABSTAIN_ONCE_SHARE = 0.05
YES_SHARE = 0.15
TRANSIENT_503_SHARE = 0.05

_YES = ("Yes", "yes.", '"Yes"', "YES, same mine")
_NO = ("No", "no.", '"No"', "No, different sites")
_ABSTAIN = ("I cannot tell.", "Unclear", "Maybe")


@dataclass(frozen=True)
class Script:
    """What the endpoint answers for one base prompt.

    ``first`` answers the base prompt and ``retry`` the base prompt with the
    answer-format line re-appended. ``transient`` makes the first request for
    the base prompt fail with 503.
    """

    first: str
    retry: str
    transient: bool
    label: int  # the label the labeler should end with
    abstains: bool  # True when the labeler should fall back to its default


def script(seed: int, base_prompt: str) -> Script:
    digest = hashlib.sha256(f"{seed}\n{base_prompt}".encode("utf-8")).digest()
    u_kind, u_yes, u_503 = (int.from_bytes(digest[i : i + 4], "big") / 2**32 for i in (0, 4, 8))
    pick = digest[12]
    answer = _YES[pick % len(_YES)] if u_yes < YES_SHARE else _NO[pick % len(_NO)]
    abstain = _ABSTAIN[digest[13] % len(_ABSTAIN)]
    transient = u_503 < TRANSIENT_503_SHARE
    if u_kind < ABSTAIN_ALWAYS_SHARE:
        return Script(abstain, abstain, transient, label=0, abstains=True)
    if u_kind < ABSTAIN_ALWAYS_SHARE + ABSTAIN_ONCE_SHARE:
        return Script(abstain, answer, transient, label=int(u_yes < YES_SHARE), abstains=False)
    return Script(answer, answer, transient, label=int(u_yes < YES_SHARE), abstains=False)


def split_retry(prompt: str) -> tuple[str, bool]:
    """(base prompt, is_retry): a retry repeats the prompt's last line."""
    lines = prompt.split("\n")
    if len(lines) >= 2 and lines[-1] == lines[-2]:
        return "\n".join(lines[:-1]), True
    return prompt, False


class _State:
    def __init__(self, seed: int):
        self.seed = seed
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.connections = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.transient_errors = 0
        self.service_ms: list[float] = []
        self.failed_once: set[str] = set()

    def stats(self) -> dict:
        service = self.service_ms or [0.0]
        return {
            "requests": self.requests,
            "connections": self.connections,
            "max_in_flight": self.max_in_flight,
            "transient_errors_served": self.transient_errors,
            "service_ms_p50": statistics.median(service),
            "service_ms_mean": statistics.fmean(service),
        }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # small responses; Nagle plus delayed ACK would add ~40 ms

    def setup(self):
        super().setup()
        self.carried_completion = False  # connections are counted once they carry a completion

    def _send(self, status: int, doc: dict) -> None:
        payload = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):
        state: _State = self.server.state
        if self.path != "/_stats":
            self._send(404, {"error": "not found"})
            return
        with state.lock:
            doc = state.stats()
        self._send(200, doc)

    def do_POST(self):
        state: _State = self.server.state
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/_reset":
            with state.lock:
                state.reset()
            self._send(200, {})
            return
        if self.path != COMPLETIONS_PATH:
            self._send(404, {"error": "not found"})
            return
        start = time.perf_counter()
        with state.lock:
            if not self.carried_completion:
                self.carried_completion = True
                state.connections += 1
            state.requests += 1
            state.in_flight += 1
            state.max_in_flight = max(state.max_in_flight, state.in_flight)
        try:
            prompt = json.loads(body)["messages"][0]["content"]
            base, is_retry = split_retry(prompt)
            plan = script(state.seed, base)
            time.sleep(LATENCY_MS / 1000.0)
            with state.lock:
                fail = plan.transient and not is_retry and base not in state.failed_once
                if fail:
                    state.failed_once.add(base)
                    state.transient_errors += 1
        finally:
            with state.lock:
                state.in_flight -= 1
        if fail:
            self._send(503, {"error": "transient overload"})
        else:
            text = plan.retry if is_retry else plan.first
            self._send(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})
        with state.lock:
            state.service_ms.append((time.perf_counter() - start) * 1000.0)

    def log_message(self, *args):
        pass


class EndpointProcess:
    """Client-side handle: starts the endpoint process and reads its counters."""

    def __init__(self, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"endpoint did not start: {line!r}")
        self.port = int(line.split()[1])
        self.base_url = f"http://127.0.0.1:{self.port}"

    def _call(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path, body=b"" if method == "POST" else None)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def reset(self) -> None:
        self._call("POST", "/_reset")

    def stats(self) -> dict:
        return self._call("GET", "/_stats")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.state = _State(args.seed)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
