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
import re
import select
import socket
import string
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from email._policybase import compat32  # http.client's parser's policy; email.policy imports far more
from email.utils import parsedate_to_datetime
from pathlib import Path
from typing import Mapping, Sequence
from urllib.parse import urlsplit

from .errors import DataError, LLMTransportError
from .pairing import LabeledPair, PairKey, Provenance, resolve_uris
from .records import JSONL_ROW_ERRORS, Record, row_error, write_lines
from .serialize import PROMPT_CONSTRAINT_LINE, build_pair_prompt

ENV_API_KEY = "MINERLINK_LLM_API_KEY"
ENV_BASE_URL = "MINERLINK_LLM_BASE_URL"

COMPLETIONS_PATH = "/v1/chat/completions"
MAX_COMPLETION_TOKENS = 8

_STRIP_CHARS = string.punctuation + string.whitespace + "‘’“”"
_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT


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

    Appends land in completion order; ``compact`` rewrites the file in hash
    order, so its bytes depend only on its entries.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._entries: dict[str, str] = {}
        self._lock = threading.Lock()
        self._appended = False
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
                # a bare fd, not a file object: this runs once per response
                data = _cache_line(key, response).encode("utf-8")
                fd = os.open(self._path, _APPEND_FLAGS, 0o666)
                try:
                    while data:
                        data = data[os.write(fd, data):]
                finally:
                    os.close(fd)
                self._appended = True
            self._entries[key] = response

    def compact(self) -> None:
        """Rewrite the file atomically with its lines sorted by hash, if
        anything was appended since it was loaded or last compacted."""
        with self._lock:
            if self._appended:
                write_lines((_cache_line(key, self._entries[key]) for key in sorted(self._entries)), self._path)
                self._appended = False

    def __len__(self) -> int:
        return len(self._entries)


def _cache_line(key: str, response: str) -> str:
    return json.dumps({"hash": key, "response": response, "status": "ok"}) + "\n"


_poll = getattr(select, "poll", None)


def _dropped(sock: socket.socket) -> bool:
    """True when an idle kept-alive socket is readable.

    Between requests the server has nothing to say, so a readable socket
    means it closed the connection (EOF) or broke the protocol; either way
    the socket must not carry the next request.
    """
    if _poll is None:  # Windows, whose select() takes a socket of any number
        return bool(select.select([sock], [], [], 0)[0])
    poller = _poll()  # one poll(2) call, and no fd-number limit as select(2) has
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class _OneWrite:
    """Sends the request line, headers and a ``bytes`` body in one write.

    ``http.client`` sends the header block and the body separately, so the
    server wakes up and reads twice per request. The bytes on the wire are
    the same. ``_send_output`` is private, but it has the same signature and
    the same ``_buffer`` from Python 3.6 through 3.13.
    """

    def _send_output(self, message_body=None, encode_chunked=False):
        if type(message_body) is not bytes:  # a bytes body is never chunked: it has a Content-Length
            return super()._send_output(message_body, encode_chunked)
        self._buffer.extend((b"", message_body))
        msg = b"\r\n".join(self._buffer)
        del self._buffer[:]
        self.send(msg)


# The fields the framing of a response depends on (read by ``begin`` and
# ``_check_close``), and Retry-After
_LEAN_FIELDS = {name.encode(): name for name in (
    "content-length", "transfer-encoding", "connection", "keep-alive", "proxy-connection", "retry-after")}
# The email parser's test for a field line: a name of printable ASCII other
# than the colon, then the colon
_FIELD_LINE = re.compile(rb"[!-9;-~]*:")


def _lean_fields(lines: list[bytes]) -> dict[str, str]:
    """The ``_LEAN_FIELDS`` of a header block, as ``email.message.Message.get`` reads them.

    ``lines`` comes from ``http.client._read_headers``, so it ends with the
    empty line (or b"" at EOF). As in the email parser, a "From " line is
    skipped, any other line that is not a field or a folded line ends the
    block, and the first of repeated fields wins. A field's lines become its
    value by ``compat32.header_source_parse``, the parser's own rule for
    trimming and joining folded lines (it changed within Python 3.13).
    Unlike the parser, a bare CR does not break a line.
    """
    fields: dict[str, str] = {}
    name, source = None, []  # the lean field being read, and its lines
    for line in lines:
        if line[:1] in (b" ", b"\t"):
            if name is not None:
                source.append(line.decode("iso-8859-1"))
            continue
        if name is not None:  # the last line is never folded, so the last field is stored too
            fields.setdefault(name, compat32.header_source_parse(source)[1])
            name = None
        if line.startswith(b"From "):
            continue
        match = _FIELD_LINE.match(line)
        if match is None:
            break
        name = _LEAN_FIELDS.get(line[: match.end() - 1].lower())
        if name is not None:
            source = [line.decode("iso-8859-1")]
    return fields


class _LeanResponse(http.client.HTTPResponse):
    """A response that parses only the header fields its framing needs.

    The stock ``begin`` hands every header block to the ``email`` package,
    which cost the client more CPU than anything else per request. This one
    reads the status line with the inherited ``_read_status`` and the header
    lines with ``http.client._read_headers`` (same line and count limits),
    keeps ``_LEAN_FIELDS`` in ``headers``, a plain dict keyed by lowercased
    name, and sets ``chunked``, ``length`` and ``will_close`` as the stock
    ``begin`` does. ``read`` and ``_check_close`` are inherited. Both private
    helpers are the same from Python 3.10 through 3.13.
    """

    def begin(self):
        if self.headers is not None:  # already begun
            return
        while True:  # skip any 100 Continue and its header block
            version, status, reason = self._read_status()
            if status != http.client.CONTINUE:
                break
            http.client._read_headers(self.fp)
        self.code = self.status = status
        self.reason = reason.strip()
        if version in ("HTTP/1.0", "HTTP/0.9"):
            self.version = 10
        elif version.startswith("HTTP/1."):
            self.version = 11
        else:
            raise http.client.UnknownProtocol(version)
        self.headers = self.msg = _lean_fields(http.client._read_headers(self.fp))

        tr_enc = self.headers.get("transfer-encoding")
        self.chunked = bool(tr_enc) and tr_enc.lower() == "chunked"
        if self.chunked:
            self.chunk_left = None
        self.will_close = self._check_close()
        self.length = None
        length = self.headers.get("content-length")
        if length and not self.chunked:
            try:
                self.length = int(length)
            except ValueError:
                pass
            else:
                if self.length < 0:
                    self.length = None
        if (status in (http.client.NO_CONTENT, http.client.NOT_MODIFIED) or 100 <= status < 200
                or self._method == "HEAD"):
            self.length = 0
        if not self.will_close and not self.chunked and self.length is None:
            self.will_close = True  # the body ends when the server closes


class _HTTPConnection(_OneWrite, http.client.HTTPConnection):
    response_class = _LeanResponse


class _HTTPSConnection(_OneWrite, http.client.HTTPSConnection):
    response_class = _LeanResponse


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
    factory = {"http": _HTTPConnection, "https": _HTTPSConnection}.get(url.scheme)
    return (factory if url.hostname else None), address, url.path.rstrip("/") + COMPLETIONS_PATH


class _Refused(LLMTransportError):
    """A 429 or 503 answer whose Retry-After asked for ``wait_s`` seconds before the next request."""

    def __init__(self, message: str, wait_s: float):
        super().__init__(message)
        self.wait_s = wait_s


def _retry_after_s(value: str) -> float:
    """Seconds a Retry-After value asks to wait (RFC 9110 §10.2.3).

    The value is delta-seconds or an HTTP-date; one of neither form asks
    for no wait.
    """
    value = value.strip()
    if value.isascii() and value.isdigit():
        return float(value)
    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError, IndexError):  # not a date; Python 3.10 raises TypeError
        return 0.0
    if when.tzinfo is None:  # a "-0000" zone: UTC
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


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
                raise LLMTransportError(f"{type(exc).__name__}: {exc}") from exc
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
            status, reason, data, retry_after = self._exchange(json.dumps(body, allow_nan=False).encode("utf-8"))
            if not 200 <= status < 300:
                message = f"HTTP {status} {reason} for url: {self.base_url}{COMPLETIONS_PATH}"
                wait_s = _retry_after_s(retry_after) if status in (429, 503) and retry_after else 0.0
                raise _Refused(message, wait_s) if wait_s else LLMTransportError(message)
            content = json.loads(data)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"message content is {type(content).__name__}, not a string")
            return content
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise LLMTransportError(f"{type(exc).__name__}: {exc}") from exc

    def _exchange(self, payload: bytes) -> tuple[int, str, bytes, str | None]:
        """POST ``payload``; status, reason, body and Retry-After of the answer.

        The whole response is read, whatever its status.
        A response read to the end leaves the connection open for the next
        request; a socket or protocol error closes it.
        """
        conn = self._connection()
        try:
            conn.request("POST", self._path, payload, self._headers)
            resp = conn.getresponse()
            return resp.status, resp.reason, resp.read(), resp.headers.get("retry-after")
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise LLMTransportError(f"{type(exc).__name__}: {exc}") from exc

    def label(self, a: Record, b: Record) -> LabeledPair:
        """Label one pair with the shared retry budget of max_retries + 1 attempts.

        An abstention escalates to the prompt with the constraint line
        re-appended; a transport failure retries the same prompt, after the
        wait that a 429 or 503 asked for in Retry-After (at most
        ``timeout_s``), or at once without one. Each
        attempt's response is cached under its own prompt hash, so replays
        walk the identical chain without network traffic. A budget that ends
        in an abstention defaults to non-match, with provenance marking the
        default and the last response kept; one whose last attempt failed in
        transport raises LLMTransportError naming the pair.
        """
        key = PairKey.of(a.uri, b.uri)
        prompt = base_prompt = build_pair_prompt(a, b)
        response = ""
        error: LLMTransportError | None = None
        for _ in range(self.cfg.max_retries + 1):
            if isinstance(error, _Refused):
                time.sleep(min(error.wait_s, self.cfg.timeout_s))
            try:
                response = self.complete(prompt)
            except LLMTransportError as exc:
                error = exc
                continue
            error = None
            label = parse_yes_no(response)
            if label is not None:
                return LabeledPair(key, label, Provenance.LLM, response)
            prompt = base_prompt + "\n" + PROMPT_CONSTRAINT_LINE
        if error is not None:
            raise LLMTransportError(f"labeling failed for pair ({key.uri_1}, {key.uri_2}): {error}") from error
        return LabeledPair(key, 0, Provenance.LLM_ABSTAIN_DEFAULT, response)


def label_pair(a: Record, b: Record, cfg: LabelerConfig, cache: LabelCache | None = None) -> LabeledPair:
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

    All uris are resolved before any network call. A crew of at most
    ``cfg.max_in_flight`` threads takes the pairs one at a time, so at most
    that many requests are outstanding at any moment. Every pair is tried,
    and every answer cached, before the first pair (in input order) whose
    labeling failed raises its LLMTransportError; the crew has ended by
    then. A run that appended to the cache file compacts it, also when the
    run fails.
    """
    index = resolve_uris(pairs, records)

    client = _Client(cfg, cache if cache is not None else LabelCache(cfg.cache_path))
    labeled: list = [None] * len(pairs)  # per pair, its LabeledPair or what its labeling raised
    todo = iter(range(len(pairs)))  # shared: under the GIL, next() hands each index to one thread

    def work() -> None:
        for i in todo:
            key = pairs[i]
            try:
                labeled[i] = client.label(index[key.uri_1], index[key.uri_2])
            except BaseException as exc:  # raised below, in input order
                labeled[i] = exc

    crew = [threading.Thread(target=work, name=f"minerlink-label-{n}")
            for n in range(min(cfg.max_in_flight, len(pairs)))]
    try:
        for thread in crew:
            thread.start()
        for thread in crew:
            thread.join()
    finally:
        for _ in todo:  # if the join was interrupted, the crew stops after the pairs it holds
            pass
        client.close()
        client.cache.compact()
    for outcome in labeled:
        if isinstance(outcome, BaseException):
            raise outcome
    summary = LabelSummary(
        total=len(labeled),
        matches=sum(p.label == 1 for p in labeled),
        nonmatches=sum(p.label == 0 for p in labeled),
        abstain_defaulted=sum(p.provenance is Provenance.LLM_ABSTAIN_DEFAULT for p in labeled),
        requests_issued=client.requests_issued,
    )
    return labeled, summary
