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

import functools
import hashlib
import http.client
import io
import json
import os
import re
import select
import socket
import string
import threading
import time
import types
from dataclasses import dataclass
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from pathlib import Path
from typing import Mapping, Sequence
from urllib.parse import urlsplit

from .errors import DataError, LLMTransportError
from .pairing import LabeledPair, PairKey, Provenance, resolve_uris
from .records import Record, read_rows, write_lines
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
        if not 0 <= self.temperature:  # NaN included
            raise DataError(f"temperature must be >= 0: {self.temperature}")
        if self.max_in_flight < 1:
            raise DataError(f"max_in_flight must be >= 1: {self.max_in_flight}")
        if self.max_retries < 0:
            raise DataError(f"max_retries must be >= 0: {self.max_retries}")
        if not 0 < self.timeout_s <= threading.TIMEOUT_MAX:  # a socket timeout above it overflows
            raise DataError(f"timeout_s must be > 0 and <= {threading.TIMEOUT_MAX}: {self.timeout_s}")


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
    first = tokens[0].strip(_STRIP_CHARS).casefold() if tokens else ""
    return {"yes": 1, "no": 0}.get(first)


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
            entries = self._entries

            def load(line: str) -> None:  # in the row loop, so a repeated hash keeps its later line
                doc = json.loads(line)
                key, response = doc["hash"], doc["response"]
                if type(key) is not str or type(response) is not str:
                    raise TypeError("hash and response must be strings")
                entries[key] = response

            try:
                read_rows(self._path, load)
            except DataError as exc:
                data = self._path.read_bytes()
                lines = data.splitlines(keepends=True)
                if exc.lineno != len(lines) or lines[-1].endswith((b"\n", b"\r")):
                    raise
                # it failed at an unterminated last line, so every line before it is loaded: a torn append
                os.truncate(self._path, len(data) - len(lines[-1]))
            with self._path.open("rb") as fh:
                fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
                last = fh.read(1)
            if last not in (b"", b"\n"):  # a last line without its newline parsed: complete it
                with self._path.open("ab") as fh:
                    fh.write(b"\n")

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


# A plain header line: a name of printable ASCII other than the colon, the
# colon, and a value without CR or LF up to the line end
_PLAIN_FIELD = re.compile(rb"[!-9;-~]+:[^\r\n]*\r?\n").match


def _lean_fields(lines: list[bytes]) -> dict[str, str] | http.client.HTTPMessage:
    """The fields of a header block, for ``.get`` by lowercased name.

    ``lines`` comes from ``http.client._read_headers``, so it ends with the
    empty line (or b"" at EOF). When every line before it is a plain field
    line, as in real traffic, the fields are a dict: the first of repeated
    fields wins, and a value is the rest of its line with the blanks after
    the colon and the line end trimmed, as the ``email`` parser reads one
    line. Any other block (a folded line, a "From " line, a line that is no
    field, a bare CR) is the ``HTTPMessage`` of ``http.client.parse_headers``.
    """
    fields = {}
    for line in lines[:-1]:
        if _PLAIN_FIELD(line) is None:
            return http.client.parse_headers(io.BytesIO(b"".join(lines)))
        name, value = line.split(b":", 1)
        fields.setdefault(name.lower().decode("ascii"), value.lstrip(b" \t").rstrip(b"\r\n").decode("iso-8859-1"))
    return fields


class _LeanResponse(http.client.HTTPResponse):
    """A response whose plain header blocks skip the ``email`` package.

    The stock ``begin`` hands every header block to the ``email`` package,
    which cost the client more CPU than anything else per request. This one
    reads the status line with the inherited ``_read_status`` and the header
    lines with ``http.client._read_headers`` (same line and count limits),
    keeps their ``_lean_fields`` in ``headers``, and sets ``chunked``,
    ``length`` and ``will_close`` as the stock ``begin`` does. ``read`` and
    ``_check_close`` are inherited.
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

        self.chunked = self.headers.get("transfer-encoding", "").lower() == "chunked"
        if self.chunked:
            self.chunk_left = None
        self.will_close = self._check_close()
        length = self.headers.get("content-length")
        try:  # as in the stock parse, a length that int() cannot read, or below 0, is none
            self.length = int(length) if length and not self.chunked and int(length) >= 0 else None
        except ValueError:
            self.length = None
        if (status in (http.client.NO_CONTENT, http.client.NOT_MODIFIED) or 100 <= status < 200
                or self._method == "HEAD"):
            self.length = 0
        if not self.will_close and not self.chunked and self.length is None:
            self.will_close = True  # the body ends when the server closes


# A keep-alive 503 of plain lines, the form that takes the lean parse's own reading
_PROBE = (b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n"
          b"Connection: keep-alive\r\nRetry-After: 2\r\nContent-Length: 2\r\n\r\n{}")


@functools.cache
def _response_class() -> type[http.client.HTTPResponse]:
    """``_LeanResponse`` if it reads the framing and Retry-After of ``_PROBE`` as the stock parse does.

    Otherwise, or when it raises, the stock class: the lean parse reads private
    names that a new interpreter may lack or change (``http.client._read_headers``,
    ``HTTPResponse._read_status``, ``_check_close`` and ``_method``). Called once
    per process, by the first client.
    """
    framings = []
    try:
        for response_class in (_LeanResponse, http.client.HTTPResponse):
            resp = response_class(types.SimpleNamespace(makefile=lambda mode: io.BytesIO(_PROBE)), method="POST")
            resp.begin()
            framings.append((resp.status, resp.length, resp.chunked, resp.will_close, resp.headers.get("retry-after")))
    except Exception:  # whatever a missing or changed private name raises
        return http.client.HTTPResponse
    return _LeanResponse if framings[0] == framings[1] else http.client.HTTPResponse


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
    """One crew thread's view of the endpoint: its connection and request count.

    The stock HTTP/1.1 keep-alive connection is made here. It reads responses
    with ``_response_class()``, which hands any header block that is not
    plain to ``http.client.parse_headers``, opens its socket on the first
    request and is reopened after the server closed it while idle; the
    thread that uses the client closes it. An unusable base URL fails
    here, before any request. Proxies from the environment are never used
    and redirects are not followed.
    """

    def __init__(self, cfg: LabelerConfig, cache: LabelCache):
        self.cfg = cfg
        self.cache = cache
        self.base_url = (os.environ.get(ENV_BASE_URL) or cfg.base_url).rstrip("/")
        try:
            url = urlsplit(self.base_url)
            factory = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}.get(url.scheme)
            if factory is None or not url.hostname:
                raise http.client.InvalidURL("not an http or https URL with a host")
            # with no port, the scheme's own: given None, a bare IPv6 host's last colon would pass for one
            port = factory.default_port if url.port is None else url.port
            self.connection = factory(url.hostname, port, timeout=cfg.timeout_s)
        except (ValueError, http.client.InvalidURL) as exc:  # ValueError: a malformed port or IPv6 host
            raise LLMTransportError(f"InvalidURL: {exc}: {self.base_url!r}") from exc
        self.connection.response_class = _response_class()
        self._path = url.path.rstrip("/") + COMPLETIONS_PATH  # keeps any gateway prefix
        self._headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(ENV_API_KEY)
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self.requests_issued = 0

    def _post(self, prompt: str) -> str:
        """The completion of ``prompt``, from one POST.

        The whole response is read, whatever its status, so the connection
        stays open for the next request; a socket or protocol error closes it.
        """
        body = {
            "model": self.cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.cfg.temperature,
            "max_tokens": MAX_COMPLETION_TOKENS,
        }
        payload = json.dumps(body).encode("utf-8")  # the config admits no NaN or infinity
        self.requests_issued += 1
        conn = self.connection
        if conn.sock is not None and _dropped(conn.sock):
            conn.close()  # the request opens a new socket
        try:
            conn.request("POST", self._path, payload, self._headers)
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise LLMTransportError(f"{type(exc).__name__}: {exc}") from exc
        if not 200 <= resp.status < 300:
            message = f"HTTP {resp.status} {resp.reason} for url: {self.base_url}{COMPLETIONS_PATH}"
            retry_after = resp.headers.get("retry-after")
            wait_s = _retry_after_s(retry_after) if resp.status in (429, 503) and retry_after else 0.0
            raise _Refused(message, wait_s) if wait_s else LLMTransportError(message)
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"message content is {type(content).__name__}, not a string")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise LLMTransportError(f"{type(exc).__name__}: {exc}") from exc
        return content

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
        error: LLMTransportError | None = None
        for _ in range(self.cfg.max_retries + 1):
            if isinstance(error, _Refused):
                time.sleep(min(error.wait_s, self.cfg.timeout_s))
            digest = prompt_hash(self.cfg.model, self.cfg.temperature, prompt)
            response = self.cache.get(digest)
            if response is None:
                try:
                    response = self._post(prompt)
                except LLMTransportError as exc:
                    error = exc
                    continue
                self.cache.put(digest, response)
            error = None
            label = parse_yes_no(response)
            if label is not None:
                return LabeledPair(key, label, Provenance.LLM, response)
            prompt = base_prompt + "\n" + PROMPT_CONSTRAINT_LINE
        if error is not None:
            raise LLMTransportError(f"labeling failed for pair ({key.uri_1}, {key.uri_2}): {error}") from error
        return LabeledPair(key, 0, Provenance.LLM_ABSTAIN_DEFAULT, response)


def label_pair(a: Record, b: Record, cfg: LabelerConfig, cache: LabelCache | None = None) -> LabeledPair:
    """Label a single record pair: ``label_dataset`` over that one pair."""
    return label_dataset([PairKey.of(a.uri, b.uri)], [a, b], cfg, cache)[0][0]


def label_dataset(
    pairs: Sequence[PairKey],
    records: Mapping[str, Record] | Sequence[Record],
    cfg: LabelerConfig,
    cache: LabelCache | None = None,
) -> tuple[list[LabeledPair], LabelSummary]:
    """Label every pair, one output row per input pair in input order.

    All uris are resolved, and the base URL checked, before any network
    call. A crew of at most ``cfg.max_in_flight`` threads, each with its own
    client and connection, takes the pairs one at a time, so at most that
    many requests are outstanding at any moment. Every pair is tried, and
    every answer cached, before the first pair (in input order) whose
    labeling failed raises its LLMTransportError. Every crew thread that
    started has ended, and closed its connection, when this returns or
    raises; then a run that appended to the cache file compacts it, also
    when the run fails.
    """
    index = resolve_uris(pairs, records)
    cache = cache if cache is not None else LabelCache(cfg.cache_path)
    clients = [_Client(cfg, cache) for _ in range(min(cfg.max_in_flight, len(pairs)))]
    labeled: list = [None] * len(pairs)  # per pair, its LabeledPair or what its labeling raised
    todo = iter(range(len(pairs)))  # shared: under the GIL, next() hands each index to one thread

    def work(client: _Client) -> None:
        try:
            for i in todo:
                key = pairs[i]
                try:
                    labeled[i] = client.label(index[key.uri_1], index[key.uri_2])
                except BaseException as exc:  # raised below, in input order
                    labeled[i] = exc
        finally:
            client.connection.close()

    crew = [threading.Thread(target=work, args=(client,), name=f"minerlink-label-{n}")
            for n, client in enumerate(clients)]
    try:
        for thread in crew:
            thread.start()
        for thread in crew:
            thread.join()
    finally:
        for _ in todo:  # after a failed start or an interrupted join, the crew stops after the pairs it holds
            pass
        for thread in crew:
            if thread.is_alive():  # never true of a thread that did not start
                thread.join()
        cache.compact()
    for outcome in labeled:
        if isinstance(outcome, BaseException):
            raise outcome
    summary = LabelSummary(
        total=len(labeled),
        matches=sum(p.label == 1 for p in labeled),
        nonmatches=sum(p.label == 0 for p in labeled),
        abstain_defaulted=sum(p.provenance is Provenance.LLM_ABSTAIN_DEFAULT for p in labeled),
        requests_issued=sum(client.requests_issued for client in clients),
    )
    return labeled, summary
