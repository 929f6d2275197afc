"""Match/non-match labels for record pairs from a chat-completion endpoint.

Each pair is rendered with the four-line Yes/No prompt and POSTed to
``{base_url}/v1/chat/completions``. Responses are parsed leniently ("Yes",
"no.", '"Yes"' all count); anything else is an abstention, retried with the
answer-format constraint re-appended, and finally defaulted to non-match
with an audit trail. Completed responses are cached on disk keyed by
(model, temperature, prompt), so a warm re-run issues zero requests and
reproduces its output byte for byte.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import selectors
import socket
import string
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence
from urllib.parse import urlsplit

from .errors import DataError, LLMTransportError
from .pairing import LabeledPair, PairKey, Provenance
from .records import JSONL_ROW_ERRORS, Record, record_index, row_error
from .serialize import PROMPT_CONSTRAINT_LINE, build_pair_prompt

ENV_API_KEY = "MINERLINK_LLM_API_KEY"
ENV_BASE_URL = "MINERLINK_LLM_BASE_URL"

COMPLETIONS_PATH = "/v1/chat/completions"
MAX_COMPLETION_TOKENS = 8

_STRIP_CHARS = string.punctuation + string.whitespace + "‘’“”"


@dataclass(frozen=True)
class LabelerConfig:
    base_url: str
    model: str
    temperature: float = 0.0
    max_retries: int = 2
    max_in_flight: int = 4
    cache_path: str | Path | None = None
    timeout_s: float = 30.0

    def __post_init__(self):
        if self.temperature < 0:
            raise DataError(f"temperature must be >= 0: {self.temperature}")
        if self.max_in_flight < 1:
            raise DataError(f"max_in_flight must be >= 1: {self.max_in_flight}")
        if self.max_retries < 0:
            raise DataError(f"max_retries must be >= 0: {self.max_retries}")
        if not self.timeout_s > 0:
            raise DataError(f"timeout_s must be > 0: {self.timeout_s}")


class LabelStatus(Enum):
    OK = "ok"
    ABSTAIN = "abstain"
    TRANSPORT_ERROR = "transport_error"


@dataclass(frozen=True)
class LabelOutcome:
    key: PairKey
    label: int | None
    raw_response: str
    status: LabelStatus
    error: str | None = None


@dataclass(frozen=True)
class LabelSummary:
    total: int
    matches: int
    nonmatches: int
    abstain_defaulted: int
    requests_issued: int


def parse_yes_no(text: str) -> int | None:
    """1 for a leading "yes", 0 for a leading "no", None (abstain) otherwise."""
    tokens = text.split()
    if not tokens:
        return None
    first = tokens[0].strip(_STRIP_CHARS).casefold()
    if first == "yes":
        return 1
    if first == "no":
        return 0
    return None


def prompt_hash(model: str, temperature: float, prompt: str) -> str:
    payload = json.dumps([model, temperature, prompt]).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class LabelCache:
    """Append-only JSON Lines cache of endpoint responses.

    Entries become visible to readers only after the line is written, and a
    single lock serializes writers, so concurrent labeling threads can share
    one cache. ``path=None`` keeps the cache in memory only.

    A run killed mid-append leaves a last line without its newline. Loading
    drops such a line if it does not parse (its pair is requested again) and
    completes it if it does, so the next append starts on a fresh line. Any
    other malformed line is a DataError naming the file and line.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._entries: dict[str, str] = {}
        self._lock = threading.Lock()
        if self._path is not None and self._path.exists():
            data = self._path.read_bytes()
            lines = data.split(b"\n")
            tail = lines.pop()  # empty unless the last line lacks its newline
            for lineno, line in enumerate(lines, 1):
                self._load_line(lineno, line)
            if tail:
                try:
                    self._load_line(len(lines) + 1, tail)
                except DataError:  # torn by a crash: cut it off
                    with self._path.open("r+b") as fh:
                        fh.truncate(len(data) - len(tail))
                else:
                    with self._path.open("ab") as fh:
                        fh.write(b"\n")

    def _load_line(self, lineno: int, line: bytes) -> None:
        if line.strip():
            try:
                doc = json.loads(line.decode("utf-8"))
                key, response = doc["hash"], doc["response"]
                if type(key) is not str or type(response) is not str:
                    raise TypeError("hash and response must be strings")
                self._entries[key] = response
            except JSONL_ROW_ERRORS as exc:
                raise row_error(self._path, lineno, exc) from exc

    def get(self, key: str) -> str | None:
        return self._entries.get(key)

    def put(self, key: str, response: str) -> None:
        with self._lock:
            if key in self._entries:
                return
            if self._path is not None:
                with self._path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"hash": key, "response": response, "status": "ok"}) + "\n")
                    fh.flush()
            self._entries[key] = response

    def __len__(self) -> int:
        return len(self._entries)


class _TransportFailure(Exception):
    pass


def _dropped(sock: socket.socket) -> bool:
    """True when an idle kept-alive socket is readable.

    Between requests the server has nothing to say, so a readable socket
    means it closed the connection (EOF) or broke the protocol; either way
    the socket must not carry the next request.
    """
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


def _endpoint(base_url: str) -> tuple[type[http.client.HTTPConnection] | None, tuple, str]:
    """(connection class, (host, port), request path) for ``base_url``.

    The class is None when the URL cannot be reached over HTTP(S). The path
    keeps any gateway prefix of the base URL.
    """
    try:
        url = urlsplit(base_url)
        address = (url.hostname, url.port)
    except ValueError:  # a malformed port or IPv6 host
        return None, (), COMPLETIONS_PATH
    factory = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}.get(url.scheme)
    return (factory if url.hostname else None), address, url.path.rstrip("/") + COMPLETIONS_PATH


class _Client:
    """One labeling run's view of the endpoint: connection pool, cache, counters.

    Each worker thread keeps one HTTP/1.1 keep-alive connection, so at most
    ``max_in_flight`` are open; ``close`` closes all of them. Proxies from
    the environment are never used and redirects are not followed.
    """

    def __init__(self, cfg: LabelerConfig, cache: LabelCache):
        self.cfg = cfg
        self.cache = cache
        self.base_url = (os.environ.get(ENV_BASE_URL) or cfg.base_url).rstrip("/")
        self._factory, self._address, self._path = _endpoint(self.base_url)
        self._headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(ENV_API_KEY)
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self.requests_issued = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, reopened if the server closed it while idle."""
        conn = getattr(self._local, "connection", None)
        if conn is None:
            try:
                if self._factory is None:
                    raise http.client.InvalidURL(f"not an http or https URL with a host: {self.base_url!r}")
                conn = self._factory(*self._address, timeout=self.cfg.timeout_s)
            except http.client.InvalidURL as exc:
                raise _TransportFailure(f"{type(exc).__name__}: {exc}") from exc
            with self._lock:
                self._connections.append(conn)
            self._local.connection = conn
        elif conn.sock is not None and _dropped(conn.sock):
            conn.close()  # the next request opens a new socket
        return conn

    def close(self) -> None:
        with self._lock:
            connections, self._connections = self._connections, []
        for conn in connections:
            conn.close()

    def complete(self, prompt: str) -> str:
        key = prompt_hash(self.cfg.model, self.cfg.temperature, prompt)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        response = self._post(prompt)
        self.cache.put(key, response)
        return response

    def _post(self, prompt: str) -> str:
        body = {
            "model": self.cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.cfg.temperature,
            "max_tokens": MAX_COMPLETION_TOKENS,
        }
        with self._lock:
            self.requests_issued += 1
        try:
            status, reason, data = self._exchange(json.dumps(body, allow_nan=False).encode("utf-8"))
            if not 200 <= status < 300:
                raise _TransportFailure(f"HTTP {status} {reason} for url: {self.base_url}{COMPLETIONS_PATH}")
            content = json.loads(data)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"message content is {type(content).__name__}, not a string")
            return content
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise _TransportFailure(f"{type(exc).__name__}: {exc}") from exc

    def _exchange(self, payload: bytes) -> tuple[int, str, bytes]:
        """POST ``payload`` and read the whole response, whatever its status.

        A response read to the end leaves the connection open for the next
        request; a socket or protocol error closes it.
        """
        conn = self._connection()
        try:
            conn.request("POST", self._path, payload, self._headers)
            resp = conn.getresponse()
            return resp.status, resp.reason, resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise _TransportFailure(f"{type(exc).__name__}: {exc}") from exc

    def label(self, a: Record, b: Record) -> LabelOutcome:
        """Label one pair with the shared retry budget of max_retries + 1 attempts.

        An abstention escalates to the prompt with the constraint line
        re-appended; a transport failure retries the same prompt. Each
        attempt's response is cached under its own prompt hash, so replays
        walk the identical chain without network traffic.
        """
        key = PairKey.of(a.uri, b.uri)
        base_prompt = build_pair_prompt(a, b)
        retry_prompt = base_prompt + "\n" + PROMPT_CONSTRAINT_LINE
        prompt = base_prompt
        last_response = ""
        last_error: str | None = None
        for _ in range(self.cfg.max_retries + 1):
            try:
                response = self.complete(prompt)
            except _TransportFailure as exc:
                last_error = str(exc)
                continue
            last_error = None
            last_response = response
            label = parse_yes_no(response)
            if label is not None:
                return LabelOutcome(key=key, label=label, raw_response=response, status=LabelStatus.OK)
            prompt = retry_prompt
        if last_error is not None:
            return LabelOutcome(
                key=key, label=None, raw_response=last_response,
                status=LabelStatus.TRANSPORT_ERROR, error=last_error,
            )
        return LabelOutcome(key=key, label=None, raw_response=last_response, status=LabelStatus.ABSTAIN)


def label_pair(a: Record, b: Record, cfg: LabelerConfig, cache: LabelCache | None = None) -> LabelOutcome:
    """Label a single record pair; see _Client.label for retry semantics."""
    client = _Client(cfg, cache if cache is not None else LabelCache(cfg.cache_path))
    try:
        return client.label(a, b)
    finally:
        client.close()


def label_dataset(
    pairs: Sequence[PairKey],
    records: Mapping[str, Record] | Sequence[Record],
    cfg: LabelerConfig,
    cache: LabelCache | None = None,
) -> tuple[list[LabeledPair], LabelSummary]:
    """Label every pair, one output row per input pair in input order.

    All uris are resolved before any network call. At most
    ``cfg.max_in_flight`` requests are outstanding at any moment. Abstaining
    pairs are defaulted to non-match with provenance marking the default;
    any transport failure aborts the run with LLMTransportError.
    """
    index = records if isinstance(records, Mapping) else record_index(records)
    unresolved = {u for k in pairs for u in (k.uri_1, k.uri_2) if u not in index}
    if unresolved:
        raise DataError(f"unresolved uris in pairs: {sorted(unresolved)[:5]}")

    client = _Client(cfg, cache if cache is not None else LabelCache(cfg.cache_path))
    try:
        if pairs:
            with ThreadPoolExecutor(max_workers=cfg.max_in_flight) as pool:
                outcomes = list(
                    pool.map(lambda k: client.label(index[k.uri_1], index[k.uri_2]), pairs)
                )
        else:
            outcomes = []
    finally:
        client.close()

    labeled: list[LabeledPair] = []
    abstained = 0
    for outcome in outcomes:
        if outcome.status is LabelStatus.TRANSPORT_ERROR:
            raise LLMTransportError(
                f"labeling failed for pair ({outcome.key.uri_1}, {outcome.key.uri_2}): {outcome.error}"
            )
        if outcome.status is LabelStatus.ABSTAIN:
            abstained += 1
            labeled.append(
                LabeledPair(
                    key=outcome.key, label=0,
                    provenance=Provenance.LLM_ABSTAIN_DEFAULT,
                    raw_response=outcome.raw_response,
                )
            )
        else:
            labeled.append(
                LabeledPair(
                    key=outcome.key, label=outcome.label,
                    provenance=Provenance.LLM, raw_response=outcome.raw_response,
                )
            )
    summary = LabelSummary(
        total=len(labeled),
        matches=sum(p.label == 1 for p in labeled),
        nonmatches=sum(p.label == 0 for p in labeled),
        abstain_defaulted=abstained,
        requests_issued=client.requests_issued,
    )
    return labeled, summary
