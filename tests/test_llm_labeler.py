from __future__ import annotations

import gc
import http.client
import io
import json
import os
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
import warnings
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minerlink

from minerlink import llm_labeler
from minerlink.errors import DataError, LLMTransportError
from minerlink.llm_labeler import (
    LabelCache,
    LabelerConfig,
    _LeanResponse,
    _retry_after_s,
    label_dataset,
    label_pair,
    parse_yes_no,
    prompt_hash,
)
from minerlink.pairing import PairKey, Provenance, enumerate_pairs, write_labeled_pairs
from minerlink.serialize import PROMPT_CONSTRAINT_LINE, build_pair_prompt

from conftest import make_record
from mockllm import MockLLMServer


def closed_port_url() -> str:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"http://127.0.0.1:{port}"


def two_records():
    a = make_record("m:1", [("site_name", "Eagle Mine")], location=(46.744, -87.887))
    b = make_record("u:1", [("Ftr_Name", "Eagle")], location=(46.745, -87.888))
    return a, b


def small_corpus(n):
    records = {}
    for i in range(n):
        r = make_record(f"s:{i:04d}", [("site_name", f"Site {i}"), ("state", "MN")])
        records[r.uri] = r
    return records


@pytest.mark.parametrize(
    "text,expected",
    [
        ("Yes", 1),
        ("yes", 1),
        ("YES!", 1),
        ('"Yes"', 1),
        ("Yes, they match.", 1),
        ("No", 0),
        ("no.", 0),
        ("No - different sites", 0),
        ("The two mines appear to be related", None),
        ("", None),
        ("   ", None),
        ("Maybe", None),
        ("‘Yes’", 1),
    ],
)
def test_parse_yes_no(text, expected):
    assert parse_yes_no(text) == expected


class TestPromptHash:
    def test_sensitive_to_all_inputs(self):
        base = prompt_hash("llama3-8b", 0.0, "prompt")
        assert prompt_hash("other", 0.0, "prompt") != base
        assert prompt_hash("llama3-8b", 0.5, "prompt") != base
        assert prompt_hash("llama3-8b", 0.0, "prompt2") != base
        assert prompt_hash("llama3-8b", 0.0, "prompt") == base


class TestLabelCache:
    def test_put_get_and_persistence(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = LabelCache(path)
        cache.put("h1", "Yes")
        cache.put("h1", "IGNORED")  # idempotent
        assert cache.get("h1") == "Yes"
        reloaded = LabelCache(path)
        assert reloaded.get("h1") == "Yes"
        assert len(path.read_text().splitlines()) == 1
        with path.open("a", encoding="utf-8") as fh:  # a repeated hash: its later line is the one kept
            fh.write(json.dumps({"hash": "h1", "response": "No", "status": "ok"}) + "\n")
        assert LabelCache(path).get("h1") == "No"

    def test_torn_last_line_is_dropped_and_requested_again(self, tmp_path):
        records = small_corpus(3)
        keys = [PairKey("s:0000", "s:0001"), PairKey("s:0000", "s:0002")]
        path = tmp_path / "cache.jsonl"
        with MockLLMServer(script=lambda prompt: "Yes") as server:
            cfg = LabelerConfig(base_url=server.base_url, model="m", max_in_flight=1, cache_path=path)
            first, _ = label_dataset(keys, records, cfg)
            good, second = path.read_bytes().splitlines(keepends=True)
            path.write_bytes(good + second[: len(second) // 2])  # killed mid-append
            again, summary = label_dataset(keys, records, cfg)
        assert again == first
        assert summary.requests_issued == 1  # the good line replays, the torn one is asked again
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 and all(json.loads(line) for line in lines)
        assert LabelCache(path).get(json.loads(lines[1])["hash"]) == "Yes"

    def test_last_line_without_newline_is_kept_and_completed(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps({"hash": "h1", "response": "Yes", "status": "ok"}), encoding="utf-8")
        cache = LabelCache(path)
        assert cache.get("h1") == "Yes"
        cache.put("h2", "No")
        assert [json.loads(line)["hash"] for line in path.read_text(encoding="utf-8").splitlines()] == ["h1", "h2"]

    @pytest.mark.parametrize("line", [b"{not json", b'{"hash": "h2"}', b'{"hash": "h2", "response": 1}', b"\xff"])
    def test_malformed_inner_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "cache.jsonl"
        good = json.dumps({"hash": "h1", "response": "Yes", "status": "ok"}).encode()
        path.write_bytes(good + b"\n" + line + b"\n" + good + b"\n")
        with pytest.raises(DataError, match=f"^{path}:2: "):
            LabelCache(path)

    def test_malformed_inner_line_before_a_torn_one_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = json.dumps({"hash": "h1", "response": "Yes", "status": "ok"}).encode()
        data = good + b"\n{not json\n" + good[: len(good) // 2]  # and then killed mid-append
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"^{path}:2: malformed row: "):
            LabelCache(path)
        assert path.read_bytes() == data

    def test_cold_runs_in_any_completion_order_write_the_same_bytes(self, tmp_path):
        records = small_corpus(5)
        keys = enumerate_pairs(list(records.values()))
        started = []

        def first_request_last(prompt):
            started.append(prompt)
            if len(started) == 1:
                time.sleep(0.3)  # the other workers finish while this one waits
            return "Yes" if "Site 1" in prompt else "No"

        class OrderRecordingCache(LabelCache):
            def put(self, key, response):
                super().put(key, response)
                self.order.append(key)

        files = []
        for run, max_in_flight in enumerate((1, 4)):
            path = tmp_path / f"cache{run}.jsonl"
            cache = OrderRecordingCache(path)
            cache.order = []
            started.clear()
            with MockLLMServer(script=first_request_last) as server:
                cfg = LabelerConfig(base_url=server.base_url, model="m", max_in_flight=max_in_flight,
                                    cache_path=path)
                label_dataset(keys, records, cfg, cache)
            files.append((cache.order, path.read_bytes()))
        (order_1, bytes_1), (order_4, bytes_4) = files
        assert order_1 != order_4  # the appends came in another order
        assert bytes_1 == bytes_4
        hashes = [json.loads(line)["hash"] for line in bytes_1.splitlines()]
        assert hashes == sorted(order_1)

    def test_warm_rerun_leaves_the_file_untouched(self, tmp_path):
        records = small_corpus(4)
        keys = enumerate_pairs(list(records.values()))
        path = tmp_path / "cache.jsonl"
        with MockLLMServer(script=lambda prompt: "No") as server:
            cfg = LabelerConfig(base_url=server.base_url, model="m", max_in_flight=3, cache_path=path)
            label_dataset(keys, records, cfg)
            os.utime(path, ns=(1_000_000_000, 1_000_000_000))  # so that a rewrite would show
            before = path.read_bytes()
            _, summary = label_dataset(keys, records, cfg)
        assert summary.requests_issued == 0
        assert path.read_bytes() == before
        assert path.stat().st_mtime_ns == 1_000_000_000
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_run_still_compacts_what_it_appended(self, tmp_path):
        records = small_corpus(4)
        keys = enumerate_pairs(list(records.values()))
        path = tmp_path / "cache.jsonl"
        calls = []

        def fail_after_three(prompt):
            calls.append(prompt)
            if len(calls) == 4:
                server.status_code = 503  # this request and every later one fail
            return "No"

        with MockLLMServer(script=fail_after_three) as server:
            cfg = LabelerConfig(base_url=server.base_url, model="m", max_in_flight=1, max_retries=0,
                                cache_path=path)
            with pytest.raises(LLMTransportError):
                label_dataset(keys, records, cfg)
        hashes = [json.loads(line)["hash"] for line in path.read_text(encoding="utf-8").splitlines()]
        assert len(hashes) == 3 and hashes == sorted(hashes)

    def test_put_after_compact_survives_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = LabelCache(path)
        cache.put("h2", "No")
        cache.put("h1", "Yes")
        cache.compact()  # replaces the file
        cache.put("h3", "Yes")
        reloaded = LabelCache(path)
        assert [reloaded.get(h) for h in ("h1", "h2", "h3")] == ["Yes", "No", "Yes"]
        assert [json.loads(line)["hash"] for line in path.read_text(encoding="utf-8").splitlines()] == ["h1", "h2", "h3"]

    def test_new_cache_file_gets_the_mode_of_open_for_append(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        LabelCache(path).put("h1", "Yes")
        with open(tmp_path / "reference", "a", encoding="utf-8"):
            pass
        assert path.stat().st_mode == (tmp_path / "reference").stat().st_mode

    def test_memory_only(self):
        cache = LabelCache(None)
        cache.put("h", "No")
        assert cache.get("h") == "No"


class TestLabelPair:
    def test_scripted_yes(self, tmp_path):
        a, b = two_records()
        with MockLLMServer(script=lambda prompt: "Yes") as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                cache_path=tmp_path / "cache.jsonl")
            outcome = label_pair(a, b, cfg)
        assert outcome.provenance is Provenance.LLM
        assert outcome.label == 1
        assert outcome.raw_response == "Yes"
        assert outcome.key == PairKey("m:1", "u:1")

    def test_cache_hit_second_call_issues_no_requests(self, tmp_path):
        a, b = two_records()
        with MockLLMServer(script=lambda prompt: "No") as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                cache_path=tmp_path / "cache.jsonl")
            first = label_pair(a, b, cfg)
            assert server.total_requests == 1
            second = label_pair(a, b, cfg)
            assert server.total_requests == 1
        assert first == second

    def test_persistent_prose_abstains_after_budget(self, tmp_path):
        a, b = two_records()
        with MockLLMServer(script=lambda prompt: "They seem similar") as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                max_retries=2, cache_path=tmp_path / "cache.jsonl")
            outcome = label_pair(a, b, cfg)
            # three attempts, but attempts 2 and 3 share the clarified prompt,
            # so the cache answers the third: only 2 distinct requests go out
            assert server.total_requests == 2
        assert outcome.label == 0
        assert outcome.provenance is Provenance.LLM_ABSTAIN_DEFAULT
        assert outcome.raw_response == "They seem similar"

    def test_no_retries_means_single_attempt(self, tmp_path):
        a, b = two_records()
        with MockLLMServer(script=lambda prompt: "They seem similar") as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                max_retries=0, cache_path=None)
            outcome = label_pair(a, b, cfg)
            assert server.total_requests == 1
        assert outcome.label == 0
        assert outcome.provenance is Provenance.LLM_ABSTAIN_DEFAULT

    def test_abstain_retry_appends_one_constraint_line(self, tmp_path):
        a, b = two_records()
        prompts = []

        def script(prompt):
            prompts.append(prompt)
            return "Hmm" if len(prompts) == 1 else "Yes"

        with MockLLMServer(script=script) as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                cache_path=tmp_path / "cache.jsonl")
            outcome = label_pair(a, b, cfg)
        assert outcome.label == 1
        assert prompts[0] == build_pair_prompt(a, b)
        assert prompts[1] == build_pair_prompt(a, b) + "\n" + PROMPT_CONSTRAINT_LINE

    def test_transport_error_carries_cause(self, tmp_path):
        a, b = two_records()
        cfg = LabelerConfig(base_url=closed_port_url(), model="llama3-8b",
                            max_retries=1, timeout_s=2.0,
                            cache_path=tmp_path / "cache.jsonl")
        with pytest.raises(LLMTransportError) as caught:
            label_pair(a, b, cfg)
        assert caught.value.__cause__ is not None

    def test_http_error_is_transport_error(self, tmp_path):
        a, b = two_records()
        with MockLLMServer(status_code=500) as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                max_retries=0, cache_path=tmp_path / "cache.jsonl")
            with pytest.raises(LLMTransportError, match=r"^labeling failed for pair \(m:1, u:1\): HTTP 500"):
                label_pair(a, b, cfg)


    def test_non_string_content_is_transport_error(self):
        a, b = two_records()
        with MockLLMServer(script=lambda prompt: None) as server:  # "content": null
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b", max_retries=0, cache_path=None)
            with pytest.raises(LLMTransportError, match="not a string"):
                label_pair(a, b, cfg)


class TestWireProtocol:
    def test_request_body_and_path(self, tmp_path):
        a, b = two_records()
        with MockLLMServer(script=lambda prompt: "Yes") as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                temperature=0.0, cache_path=None)
            label_pair(a, b, cfg)
            body = server.bodies[0]
        assert server.paths == ["/v1/chat/completions"]
        assert body["model"] == "llama3-8b"
        assert body["temperature"] == 0.0
        assert body["max_tokens"] == 8
        assert body["messages"] == [{"role": "user", "content": build_pair_prompt(a, b)}]

    def test_bearer_token_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MINERLINK_LLM_API_KEY", "sekrit")
        a, b = two_records()
        with MockLLMServer(script=lambda prompt: "Yes") as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b", cache_path=None)
            label_pair(a, b, cfg)
            headers = server.headers[0]
        assert headers.get("Authorization") == "Bearer sekrit"

    def test_base_url_env_override(self, tmp_path, monkeypatch):
        a, b = two_records()
        with MockLLMServer(script=lambda prompt: "No") as server:
            monkeypatch.setenv("MINERLINK_LLM_BASE_URL", server.base_url)
            cfg = LabelerConfig(base_url="http://unreachable.invalid", model="llama3-8b",
                                cache_path=None)
            outcome = label_pair(a, b, cfg)
        assert outcome.label == 0


    def test_base_url_prefix_and_trailing_slash_kept_in_path(self):
        a, b = two_records()
        with MockLLMServer(script=lambda prompt: "Yes") as server:
            cfg = LabelerConfig(base_url=server.base_url + "/gw/", model="llama3-8b", cache_path=None)
            outcome = label_pair(a, b, cfg)
        assert outcome.label == 1
        assert server.paths == ["/gw/v1/chat/completions"]

    def test_redirect_is_not_followed(self):
        a, b = two_records()
        with MockLLMServer(status_code=302) as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b", max_retries=0, cache_path=None)
            with pytest.raises(LLMTransportError, match="302"):
                label_pair(a, b, cfg)
            assert server.total_requests == 1

    @pytest.mark.parametrize("base_url", ["ftp://127.0.0.1:21", "http://", "http://[::1", "http://127.0.0.1:99999"])
    def test_unusable_base_url_is_transport_error(self, base_url):
        a, b = two_records()
        cfg = LabelerConfig(base_url=base_url, model="llama3-8b", max_retries=0, cache_path=None)
        with pytest.raises(LLMTransportError, match="InvalidURL"):
            label_pair(a, b, cfg)

    @pytest.mark.parametrize("base_url, host, port", [
        ("http://[::1]/", "::1", 80), ("https://[::1]", "::1", 443), ("http://[::1]:8080/", "::1", 8080),
        ("http://127.0.0.1", "127.0.0.1", 80),
    ])
    def test_base_url_without_a_port_takes_the_scheme_default(self, monkeypatch, base_url, host, port):
        monkeypatch.delenv(llm_labeler.ENV_BASE_URL, raising=False)
        client = llm_labeler._Client(LabelerConfig(base_url=base_url, model="m", cache_path=None), LabelCache(None))
        try:
            assert (client.connection.host, client.connection.port) == (host, port)
        finally:
            client.connection.close()

    @pytest.mark.skipif(shutil.which("openssl") is None, reason="needs the openssl command")
    def test_https_verifies_certificates_by_default(self, tmp_path):
        cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
        subprocess.run(
            ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
             "-subj", "/CN=127.0.0.1", "-keyout", str(key), "-out", str(cert)],
            check=True, capture_output=True,
        )
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(cert, key)
        a, b = two_records()
        with MockLLMServer(script=lambda prompt: "Yes") as server:
            server._httpd.socket = context.wrap_socket(server._httpd.socket, server_side=True)
            cfg = LabelerConfig(base_url=server.base_url.replace("http:", "https:"), model="llama3-8b",
                                max_retries=0, timeout_s=5.0, cache_path=None)
            with pytest.raises(LLMTransportError, match="CERTIFICATE_VERIFY_FAILED"):
                label_pair(a, b, cfg)
            assert server.total_requests == 0


class TestKeepAlive:
    def test_one_connection_per_worker_all_closed_on_return(self):
        records = small_corpus(8)
        keys = enumerate_pairs(list(records.values()))  # 28 pairs
        with MockLLMServer(script=lambda p: "No", delay_s=0.01, keep_alive=True) as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                max_in_flight=3, cache_path=None)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                label_dataset(keys, records, cfg)
                gc.collect()  # a socket left open warns when it is collected
            assert server.total_requests == 28
            assert 2 <= server.connections <= 3
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_request_bytes_on_the_wire(self, monkeypatch):
        records = small_corpus(5)
        keys = enumerate_pairs(list(records.values()))  # 10 pairs
        with MockLLMServer(script=lambda p: "No", keep_alive=True) as server:
            port = server._httpd.server_address[1]
            writes = {}  # per client socket, what it wrote in order
            sendall = socket.socket.sendall

            def recording(sock, data, *args):
                if sock.getpeername()[1] == port:  # the client's side only
                    writes.setdefault(sock.getsockname(), []).append(bytes(data))
                return sendall(sock, data, *args)

            monkeypatch.setattr(socket.socket, "sendall", recording)
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                max_in_flight=2, cache_path=None)
            label_dataset(keys, records, cfg)
            assert server.total_requests == 10
        bodies = []
        for stream in (b"".join(chunks) for chunks in writes.values()):
            while stream:  # request after request: the header block, then Content-Length bytes of body
                head, _, stream = stream.partition(b"\r\n\r\n")
                assert head.startswith(b"POST /v1/chat/completions HTTP/1.1\r\n")
                length, = [int(line[16:]) for line in head.split(b"\r\n") if line.startswith(b"Content-Length: ")]
                body, stream = stream[:length], stream[length:]
                bodies.append(json.loads(body))
        assert sorted(map(json.dumps, bodies)) == sorted(map(json.dumps, server.bodies))
        assert len(bodies) == 10

    def test_idle_close_by_server_costs_no_retry(self):
        records = small_corpus(3)
        keys = enumerate_pairs(list(records.values()))[:2]
        with MockLLMServer(script=lambda p: "Yes", keep_alive=True, close_idle=True) as server:

            class WaitForIdleClose(LabelCache):
                # hold the next request until the server has closed the connection
                def put(self, key, response):
                    super().put(key, response)
                    assert server.connection_closed.acquire(timeout=5)

            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                max_retries=0, max_in_flight=1, cache_path=None)
            labeled, summary = label_dataset(keys, records, cfg, cache=WaitForIdleClose())
            assert server.total_requests == summary.requests_issued == 2
            assert server.connections == 2
        assert [p.label for p in labeled] == [1, 1]

    def test_error_status_keeps_the_connection(self):
        a, b = two_records()
        statuses = iter([503, 200])

        def script(prompt):
            server.status_code = next(statuses)  # the first attempt fails, its retry succeeds
            return "Yes"

        with MockLLMServer(script=script, keep_alive=True) as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                max_retries=1, cache_path=None)
            outcome = label_pair(a, b, cfg)
            assert server.total_requests == 2
            assert server.connections == 1
        assert outcome.provenance is Provenance.LLM and outcome.label == 1


class _Replay:
    """A socket whose ``makefile`` replays fixed response bytes."""

    def __init__(self, data: bytes):
        self.data = data

    def makefile(self, mode):
        return io.BufferedReader(io.BytesIO(self.data))


def parsed(response_class, data: bytes):
    """What a response class makes of ``data``: the exception type ``begin``
    raises, or its framing with Retry-After and what ``read`` returns (or the
    type it raises)."""
    resp = response_class(_Replay(data), method="POST")
    try:
        try:
            resp.begin()
        except Exception as exc:
            return type(exc)
        framing = (resp.status, resp.reason, resp.version, resp.chunked, resp.length, resp.will_close,
                   resp.headers.get("retry-after"))
        try:
            return framing, resp.read()
        except Exception as exc:
            return framing, type(exc)
    finally:
        resp.close()


_VALUES = {
    "Content-Length": ("0", "5", "12", "007", "+4", "1_0", "-3", "x", "", "5, 5"),
    "Transfer-Encoding": ("chunked", "Chunked", "CHUNKED", "gzip, chunked", "chunked, gzip", "identity", ""),
    "Connection": ("close", "Close", "keep-alive", "Keep-Alive", "upgrade", "keep-alive, close", ""),
    "Keep-Alive": ("timeout=5", "", "x"),
    "Proxy-Connection": ("keep-alive", "close", ""),
    "Retry-After": ("120", "caf\xe9"),
    "Content-Type": ("application/json",),
}
_EOLS = st.sampled_from(["\r\n", "\n"])
_FIELD_LINES = st.sampled_from(sorted(_VALUES)).flatmap(lambda name: st.builds(
    lambda cased, lead, value, trail, eol, folds: f"{cased}:{lead}{value}{trail}{eol}"
    + "".join(f"{blank}{more}{eol}" for blank, more in folds),
    st.sampled_from([name, name.lower(), name.upper(), name.swapcase()]),
    st.sampled_from(["", " ", "  ", "\t"]),
    st.sampled_from(_VALUES[name]),
    st.sampled_from(["", "", " ", "\t"]),
    _EOLS,
    st.lists(st.tuples(st.sampled_from([" ", "\t"]), st.sampled_from(_VALUES[name])), max_size=2)
    | st.just([]),
))
# lines the email parser skips, that end its header block, or that a bare CR breaks in two
_ODD_LINES = st.builds(lambda line, eol: line + eol,
                       st.sampled_from(["From nowhere", "From x: 0", "not a field", ": no name", "Bad Name: 0",
                                        " folded first", "X: a\rContent-Length: 2", "X: a\rRetry-After: 7",
                                        "Content-Length: 3\rX: y"]),
                       _EOLS)
_HEADER_LINES = st.lists(st.integers(0, 4).flatmap(lambda k: _ODD_LINES if k == 0 else _FIELD_LINES), max_size=8)


def _chunked(payload: bytes) -> bytes:
    return (f"{len(payload):x}\r\n".encode() + payload + b"\r\n" if payload else b"") + b"0\r\n\r\n"


_RESPONSES = st.builds(
    lambda go_on, version, status, reason, eol, lines, payload, chunked: (
        (f"HTTP/1.1 100 Continue{eol}{''.join(go_on)}{eol}" if go_on is not None else "")
        + f"{version} {status}{reason}{eol}{''.join(lines)}{eol}"
    ).encode("iso-8859-1") + (_chunked(payload) if chunked else payload),
    st.none() | st.none() | st.lists(_FIELD_LINES, max_size=1),
    st.sampled_from(["HTTP/1.0", "HTTP/1.1"]),
    st.sampled_from([200, 204, 304, 404, 429, 503]),
    st.sampled_from(["", " OK", " Service Unavailable ", " "]),
    _EOLS,
    _HEADER_LINES,
    st.binary(max_size=24),
    st.booleans(),
)


class TestLeanResponse:
    @settings(max_examples=600, deadline=None)
    @given(_RESPONSES)
    def test_framing_matches_the_stock_parse(self, data):
        assert parsed(_LeanResponse, data) == parsed(http.client.HTTPResponse, data)

    @pytest.mark.parametrize("data, error", [
        (b"", http.client.RemoteDisconnected),
        (b"garbage\r\n\r\n", http.client.BadStatusLine),
        (b"HTTP/1.1 abc OK\r\n\r\n", http.client.BadStatusLine),
        (b"HTTP/1.1 99 Low\r\n\r\n", http.client.BadStatusLine),
        (b"HTTP/2.0 200 OK\r\n\r\n", http.client.UnknownProtocol),
        (b"HTTP/1.1 200 " + b"x" * 65_536 + b"\r\n\r\n", http.client.LineTooLong),
        (b"HTTP/1.1 200 OK\r\nX: " + b"x" * 65_534 + b"\r\n\r\n", http.client.LineTooLong),
        (b"HTTP/1.1 100 Continue\r\nX: " + b"x" * 65_534 + b"\r\n\r\nHTTP/1.1 200 OK\r\n\r\n",
         http.client.LineTooLong),
        (b"HTTP/1.1 200 OK\r\n" + b"X: 1\r\n" * 100 + b"\r\n", http.client.HTTPException),
    ], ids=["empty", "garbage", "status-not-a-number", "status-below-100", "http-2", "long-status-line",
            "long-header-line", "long-continue-header-line", "101-header-lines"])
    def test_limits_and_bad_status_lines_raise_as_the_stock_parse_does(self, data, error):
        assert parsed(_LeanResponse, data) is parsed(http.client.HTTPResponse, data) is error

    def test_ninety_nine_fields_are_within_the_limit(self):
        data = b"HTTP/1.1 200 OK\r\n" + b"X: 1\r\n" * 98 + b"Content-Length: 2\r\n\r\nok"
        assert parsed(_LeanResponse, data) == parsed(http.client.HTTPResponse, data) \
            == ((200, "OK", 11, False, 2, False, None), b"ok")

    def test_first_of_repeated_fields_wins_and_folds_are_joined(self):
        plain = b"HTTP/1.1 200 OK\r\ncontent-LENGTH: 2\r\nContent-Length: 9\r\nRetry-After:\t 7 \r\n\r\nokmore"
        resp = _LeanResponse(_Replay(plain), method="POST")
        resp.begin()
        assert (resp.headers.get("content-length"), resp.headers.get("retry-after")) == ("2", "7 ")
        assert (resp.length, resp.will_close, resp.read()) == (2, False, b"ok")

        folded = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive,\r\n close\r\n\r\nokmore"
        resp = _LeanResponse(_Replay(folded), method="POST")
        resp.begin()
        connection = resp.headers.get("connection")
        assert connection.startswith("keep-alive,") and connection.endswith(" close")
        assert (resp.length, resp.will_close, resp.read()) == (2, True, b"ok")

    @pytest.mark.parametrize("keep_alive", [False, True], ids=["http-1.0", "http-1.1"])
    def test_no_response_goes_through_the_email_parser(self, monkeypatch, keep_alive):
        assert llm_labeler._response_class() is _LeanResponse  # its stock parse must not meet the patch
        stock_parse = http.client.parse_headers
        server_parses = []

        def server_only(*args, **kwargs):  # the mock server parses its requests with it
            if sys._getframe(1).f_code is not BaseHTTPRequestHandler.parse_request.__code__:
                raise AssertionError("a response went through http.client.parse_headers")
            server_parses.append(1)
            return stock_parse(*args, **kwargs)

        monkeypatch.setattr(http.client, "parse_headers", server_only)
        records = small_corpus(4)
        keys = enumerate_pairs(list(records.values()))  # 6 pairs
        with MockLLMServer(script=lambda p: "Yes", keep_alive=keep_alive) as server:
            cfg = LabelerConfig(base_url=server.base_url, model="m", max_in_flight=2, cache_path=None)
            labeled, summary = label_dataset(keys, records, cfg)
            assert server.total_requests == summary.requests_issued == 6
        assert [p.label for p in labeled] == [1] * 6
        assert len(server_parses) == 6


def _lean_parse_without(field):
    def patch(monkeypatch):
        lean_fields = llm_labeler._lean_fields
        monkeypatch.setattr(llm_labeler, "_lean_fields",
                            lambda lines: {k: v for k, v in lean_fields(lines).items() if k != field})
    return patch


class TestResponseClassCheck:
    @pytest.fixture(autouse=True)
    def fresh_check(self):
        llm_labeler._response_class.cache_clear()
        yield
        llm_labeler._response_class.cache_clear()

    @staticmethod
    def label(cache_path):
        records = small_corpus(4)
        keys = enumerate_pairs(list(records.values()))  # 6 pairs
        replies = {}

        def script(prompt):  # a Yes, a No and an abstention that escalates, by prompt
            return replies.setdefault(prompt, ("Yes", "No", "Unsure")[len(replies) % 3])

        with MockLLMServer(script=script, keep_alive=True) as server:
            cfg = LabelerConfig(base_url=server.base_url, model="m", max_in_flight=1, cache_path=cache_path)
            labeled, _ = label_dataset(keys, records, cfg)
        return labeled, Path(cache_path).read_bytes()

    def test_picks_the_lean_parse_on_this_interpreter(self):
        assert llm_labeler._response_class() is _LeanResponse

    @pytest.mark.parametrize("patch", [
        lambda m: m.delattr(http.client, "_read_headers"),
        lambda m: m.delattr(http.client.HTTPResponse, "_read_status"),
        lambda m: m.delattr(http.client.HTTPResponse, "_check_close"),
        _lean_parse_without("content-length"),
        _lean_parse_without("retry-after"),
    ], ids=["_read_headers", "_read_status", "_check_close", "lean-parse-without-content-length",
            "lean-parse-without-retry-after"])
    def test_a_missing_name_or_a_disagreeing_parse_picks_the_stock_class(self, tmp_path, monkeypatch, patch):
        lean = self.label(tmp_path / "lean.jsonl")
        assert llm_labeler._response_class() is _LeanResponse
        llm_labeler._response_class.cache_clear()
        with monkeypatch.context() as m:
            patch(m)
            assert llm_labeler._response_class() is http.client.HTTPResponse
        # the choice holds for the process: labeling reads every response with the stock class
        assert self.label(tmp_path / "stock.jsonl") == lean
        assert llm_labeler._response_class() is http.client.HTTPResponse


class TestRetryAfter:
    @pytest.fixture
    def sleeps(self, monkeypatch):
        slept = []
        sleep = time.sleep

        def recording(seconds):
            if threading.current_thread() is threading.main_thread() or \
                    threading.current_thread().name.startswith("minerlink-label"):
                slept.append(seconds)
            sleep(seconds)

        monkeypatch.setattr(llm_labeler.time, "sleep", recording)
        return slept

    @staticmethod
    def run(replies, max_retries=2, timeout_s=5.0):
        a, b = two_records()
        with MockLLMServer(script=lambda p: "Yes", keep_alive=True, replies=replies) as server:
            cfg = LabelerConfig(base_url=server.base_url, model="m", max_retries=max_retries,
                                timeout_s=timeout_s, cache_path=None)
            try:
                return label_pair(a, b, cfg), server.total_requests
            except LLMTransportError as exc:
                return exc, server.total_requests

    @pytest.mark.parametrize("status", [429, 503])
    def test_delta_seconds_are_waited_before_the_next_attempt(self, sleeps, status):
        outcome, requests = self.run(lambda n: (status, {"Retry-After": "1"}) if n == 0 else (200, {}))
        assert outcome.label == 1 and requests == 2
        assert sleeps == [1.0]

    def test_http_date_is_waited_for(self, sleeps):
        when = datetime.now(timezone.utc) + timedelta(seconds=3)
        outcome, requests = self.run(lambda n: (503, {"Retry-After": format_datetime(when, usegmt=True)})
                                     if n == 0 else (200, {}))
        assert outcome.label == 1 and requests == 2
        assert len(sleeps) == 1 and 1.0 < sleeps[0] <= 3.0

    def test_wait_is_capped_at_the_timeout(self, sleeps):
        outcome, requests = self.run(lambda n: (429, {"Retry-After": "3600"}) if n == 0 else (200, {}),
                                     timeout_s=0.2)
        assert outcome.label == 1 and requests == 2
        assert sleeps == [0.2]

    @pytest.mark.parametrize("status, headers", [
        (503, {}),
        (503, {"Retry-After": "soon"}),
        (503, {"Retry-After": "0"}),
        (503, {"Retry-After": "Sun, 06 Nov 1994 08:49:37 GMT"}),  # past
        (500, {"Retry-After": "1"}),  # only 429 and 503 ask for a wait
    ], ids=["none", "unreadable", "zero", "past-date", "on-500"])
    def test_otherwise_the_retry_goes_at_once(self, sleeps, status, headers):
        outcome, requests = self.run(lambda n: (status, headers) if n == 0 else (200, {}))
        assert outcome.label == 1 and requests == 2
        assert sleeps == []

    def test_each_wait_spends_an_attempt_of_the_budget(self, sleeps):
        outcome, requests = self.run(lambda n: (503, {"Retry-After": "1"}), max_retries=1, timeout_s=0.1)
        assert isinstance(outcome, LLMTransportError) and "HTTP 503" in str(outcome)
        assert requests == 2
        assert sleeps == [0.1]  # none after the last attempt

    @pytest.mark.parametrize("value, seconds", [
        ("120", 120.0),
        (" 7 ", 7.0),
        ("\xb2", 0.0),  # a digit to str.isdigit, not to RFC 9110
        ("-5", 0.0),
        ("1.5", 0.0),
        ("", 0.0),
        ("Sun, 06 Nov 1994 08:49:37 GMT", 0.0),
        ("Sunday, 06-Nov-94 08:49:37 GMT", 0.0),
        ("Sun Nov  6 08:49:37 1994", 0.0),
        ("Fri, 31 Dec 9999 23:59:59 GMT", None),
        ("Fri, 31 Dec 9999 23:59:59 -0000", None),
        ("Mon, 32 Foo 2026 99:99:99 GMT", 0.0),
    ])
    def test_retry_after_forms(self, value, seconds):
        if seconds is None:  # far in the future
            assert _retry_after_s(value) > 1e10
        else:
            assert _retry_after_s(value) == seconds


def test_import_does_not_load_requests():
    code = "import sys, minerlink, minerlink.cli, minerlink.llm_labeler; print('requests' in sys.modules)"
    src = str(Path(minerlink.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.strip() == "False"


class TestLabelDataset:
    def test_scripted_counts_and_order(self, tmp_path):
        records = small_corpus(10)
        keys = enumerate_pairs(list(records.values()))
        assert len(keys) == 45
        yes_keys = set(keys[:7])
        # script keyed on the serialized pair text of the chosen keys
        prompts_yes = {
            build_pair_prompt(records[k.uri_1], records[k.uri_2]) for k in yes_keys
        }

        with MockLLMServer(script=lambda p: "Yes" if p in prompts_yes else "No") as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                cache_path=tmp_path / "cache.jsonl")
            labeled, summary = label_dataset(keys, records, cfg)

        assert [p.key for p in labeled] == keys
        assert summary.total == 45
        assert summary.matches == 7
        assert summary.nonmatches == 38
        assert summary.abstain_defaulted == 0
        assert all(p.provenance is Provenance.LLM for p in labeled)
        assert {p.key for p in labeled if p.label == 1} == yes_keys

    def test_empty_pair_list(self, tmp_path):
        cfg = LabelerConfig(base_url=closed_port_url(), model="llama3-8b", cache_path=None)
        labeled, summary = label_dataset([], {}, cfg)
        assert labeled == [] and summary.total == 0 and summary.requests_issued == 0

    def test_unresolved_uri_fails_before_any_request(self, tmp_path):
        records = small_corpus(3)
        keys = [PairKey("s:0000", "zz:missing")]
        with MockLLMServer() as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b", cache_path=None)
            with pytest.raises(DataError, match="unresolved"):
                label_dataset(keys, records, cfg)
            assert server.total_requests == 0

    def test_abstains_default_to_nonmatch_with_provenance(self, tmp_path):
        records = small_corpus(4)
        keys = enumerate_pairs(list(records.values()))
        prose_prompt_fragment = "Site 0"

        def script(prompt):
            return "I cannot tell" if prose_prompt_fragment in prompt else "No"

        with MockLLMServer(script=script) as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                max_retries=1, cache_path=tmp_path / "cache.jsonl")
            labeled, summary = label_dataset(keys, records, cfg)
        defaulted = [p for p in labeled if p.provenance is Provenance.LLM_ABSTAIN_DEFAULT]
        assert summary.abstain_defaulted == len(defaulted) == 3  # pairs touching Site 0
        assert all(p.label == 0 for p in defaulted)
        assert summary.total == len(keys)

    def test_concurrency_bound_honored(self, tmp_path):
        records = small_corpus(8)
        keys = enumerate_pairs(list(records.values()))  # 28 pairs
        with MockLLMServer(script=lambda p: "No", delay_s=0.02) as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                max_in_flight=3, cache_path=None)
            label_dataset(keys, records, cfg)
            assert server.max_in_flight <= 3
            assert server.max_in_flight >= 2  # the bound was actually exercised

    def test_transport_failure_raises(self, tmp_path):
        records = small_corpus(3)
        keys = enumerate_pairs(list(records.values()))
        cfg = LabelerConfig(base_url=closed_port_url(), model="llama3-8b",
                            max_retries=0, timeout_s=2.0, cache_path=None)
        with pytest.raises(LLMTransportError):
            label_dataset(keys, records, cfg)

    def test_failed_run_still_tries_every_pair(self, tmp_path):
        records = small_corpus(4)
        keys = enumerate_pairs(list(records.values()))  # 6 pairs
        failing = {build_pair_prompt(records[k.uri_1], records[k.uri_2]) for k in (keys[0], keys[3])}
        path = tmp_path / "cache.jsonl"
        with MockLLMServer(script=lambda p: None if p in failing else "Yes") as server:  # None: "content": null
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b", max_in_flight=2, max_retries=0,
                                cache_path=path)
            with pytest.raises(LLMTransportError) as caught:
                label_dataset(keys, records, cfg)
            assert server.total_requests == 6
        assert str(caught.value).startswith(f"labeling failed for pair ({keys[0].uri_1}, {keys[0].uri_2}): ")
        assert len(path.read_text(encoding="utf-8").splitlines()) == 4

    def test_earlier_pair_error_wins_when_it_fails_last(self, tmp_path):
        records = small_corpus(4)
        keys = enumerate_pairs(list(records.values()))  # 6 pairs
        first, later = (build_pair_prompt(records[k.uri_1], records[k.uri_2]) for k in (keys[1], keys[2]))

        def script(prompt):
            if prompt == first:
                time.sleep(0.3)  # the later pair fails, and the rest are answered, meanwhile
            return None if prompt in (first, later) else "Yes"  # None: "content": null

        path = tmp_path / "cache.jsonl"
        with MockLLMServer(script=script) as server:
            cfg = LabelerConfig(base_url=server.base_url, model="m", max_in_flight=3, max_retries=0,
                                cache_path=path)
            with pytest.raises(LLMTransportError) as caught:
                label_dataset(keys, records, cfg)
            assert server.total_requests == 6
        assert str(caught.value).startswith(f"labeling failed for pair ({keys[1].uri_1}, {keys[1].uri_2}): ")
        cached = LabelCache(path)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 4  # compacted: one line per entry
        assert all(cached.get(prompt_hash("m", 0.0, build_pair_prompt(records[k.uri_1], records[k.uri_2]))) == "Yes"
                   for i, k in enumerate(keys) if i not in (1, 2))

    def test_no_labeling_thread_outlives_the_call(self):
        records = small_corpus(5)
        keys = enumerate_pairs(list(records.values()))  # 10 pairs
        crew = set()

        def labelers():
            return [t for t in threading.enumerate() if t.name.startswith("minerlink-label")]

        def script(prompt):
            crew.update(labelers())
            return None if "Site 4" in prompt else "No"  # four pairs fail

        with MockLLMServer(script=script, delay_s=0.01) as server:
            cfg = LabelerConfig(base_url=server.base_url, model="m", max_in_flight=3, max_retries=0,
                                cache_path=None)
            with pytest.raises(LLMTransportError):
                label_dataset(keys, records, cfg)
            assert labelers() == []
            label_dataset([k for k in keys if "s:0004" not in (k.uri_1, k.uri_2)], records, cfg)
            assert labelers() == []
        assert len(crew) >= 2 and not any(t.is_alive() for t in crew)  # the check above saw real crew threads

    def test_warm_cache_rerun_identical_bytes_zero_requests(self, tmp_path):
        records = small_corpus(6)
        keys = enumerate_pairs(list(records.values()))
        cache_path = tmp_path / "cache.jsonl"
        with MockLLMServer(script=lambda p: "Yes" if "Site 1" in p else "No") as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b", cache_path=cache_path)
            first, summary1 = label_dataset(keys, records, cfg)
            cold_requests = server.total_requests
            assert summary1.requests_issued == cold_requests > 0
            second, summary2 = label_dataset(keys, records, cfg)
            assert server.total_requests == cold_requests
            assert summary2.requests_issued == 0
        out1, out2 = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
        write_labeled_pairs(first, out1)
        write_labeled_pairs(second, out2)
        assert out1.read_bytes() == out2.read_bytes()


class TestLifecycle:
    """One crew thread per client and connection; label_pair is label_dataset over one pair."""

    @staticmethod
    def crew_alive():
        return [t.name for t in threading.enumerate() if t.name.startswith("minerlink-label")]

    def test_label_pair_leaves_the_cache_label_dataset_leaves(self, tmp_path):
        a, b = two_records()
        unrelated = json.dumps({"hash": "f" * 64, "response": "No", "status": "ok"}) + "\n"
        runs = {
            "pair": lambda cfg: label_pair(a, b, cfg),
            "dataset": lambda cfg: label_dataset([PairKey.of(a.uri, b.uri)], [a, b], cfg)[0][0],
        }
        outcomes, caches = {}, {}
        for name, run in runs.items():
            path = tmp_path / f"{name}.jsonl"
            path.write_text(unrelated, encoding="utf-8")  # sorts last, so only a compaction moves it
            answers = iter(["Hmm", "Yes"])
            with MockLLMServer(script=lambda prompt: next(answers)) as server:
                cfg = LabelerConfig(base_url=server.base_url, model="m", cache_path=path)
                outcomes[name] = run(cfg)
                assert server.total_requests == 2
            caches[name] = path.read_bytes()
        assert outcomes["pair"] == outcomes["dataset"]
        assert outcomes["pair"].label == 1 and outcomes["pair"].provenance is Provenance.LLM
        assert caches["pair"] == caches["dataset"]
        lines = caches["pair"].decode("utf-8").splitlines(keepends=True)
        assert len(lines) == 3 and lines == sorted(lines) and lines[-1] == unrelated

    @pytest.mark.parametrize("base_url", ["ftp://127.0.0.1:21", "http://", "http://[::1", "http://127.0.0.1:99999"])
    def test_unusable_base_url_fails_once_before_any_request(self, monkeypatch, base_url):
        def no_request(client, prompt):
            raise AssertionError("a request was attempted")

        monkeypatch.setattr(llm_labeler._Client, "_post", no_request)
        records = small_corpus(3)
        keys = enumerate_pairs(list(records.values()))
        cfg = LabelerConfig(base_url=base_url, model="m", max_in_flight=2, cache_path=None)
        with pytest.raises(LLMTransportError, match="^InvalidURL: ") as caught:
            label_dataset(keys, records, cfg)
        assert "labeling failed" not in str(caught.value) and "s:000" not in str(caught.value)
        assert self.crew_alive() == []

    def test_unusable_base_url_with_no_pairs_returns(self):
        cfg = LabelerConfig(base_url="ftp://127.0.0.1:21", model="m", cache_path=None)
        labeled, summary = label_dataset([], {}, cfg)
        assert labeled == [] and summary == llm_labeler.LabelSummary(0, 0, 0, 0, 0)

    def test_requests_issued_counts_every_request_of_the_crew(self):
        records = small_corpus(6)
        keys = enumerate_pairs(list(records.values()))  # 15 pairs

        def script(prompt):
            return "Hmm" if "Site 1" in prompt else "No"  # five pairs abstain, with a second prompt each

        with MockLLMServer(script=script, keep_alive=True,
                           replies=lambda n: (500, {}) if n in (0, 3, 7) else (200, {})) as server:
            # a budget of five attempts holds both prompts of a pair and all three failures
            cfg = LabelerConfig(base_url=server.base_url, model="m", max_in_flight=3, max_retries=4,
                                cache_path=None)
            labeled, summary = label_dataset(keys, records, cfg)
            assert summary.requests_issued == server.total_requests == 15 + 5 + 3
            assert server.connections <= 3
        assert summary.abstain_defaulted == 5

    def test_failed_start_joins_the_started_crew_before_closing_and_compacting(self, tmp_path, monkeypatch):
        records = small_corpus(4)
        keys = enumerate_pairs(list(records.values()))  # 6 pairs
        path = tmp_path / "cache.jsonl"
        crew_at_compact = []

        class Cache(LabelCache):
            def compact(self):
                crew_at_compact.append(TestLifecycle.crew_alive())
                super().compact()

        start = threading.Thread.start

        def start_one_only(thread):
            if thread.name == "minerlink-label-1":
                deadline = time.monotonic() + 5
                while server.total_requests == 0 and time.monotonic() < deadline:
                    time.sleep(0.001)  # the first crew thread is mid-request
                raise RuntimeError("can't start new thread")
            start(thread)

        with MockLLMServer(script=lambda p: "No", delay_s=0.2, keep_alive=True) as server:
            monkeypatch.setattr(threading.Thread, "start", start_one_only)
            cfg = LabelerConfig(base_url=server.base_url, model="m", max_in_flight=3, cache_path=path)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(RuntimeError, match="can't start new thread"):
                    label_dataset(keys, records, cfg, cache=Cache(path))
                assert self.crew_alive() == []
                gc.collect()  # a socket left open warns when it is collected
            requests = server.total_requests
        assert crew_at_compact == [[]]
        assert requests == 1  # the started thread stops after the pair it held
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == requests and lines == sorted(lines)  # every answer cached, then compacted
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestReferenceScale:
    def test_437_matches_from_74691_cached_pairs(self, tmp_path):
        # Table-2-shaped run, served entirely from a prebuilt cache: 387
        # records, 74,691 pairs, the first 437 scripted "Yes"
        import json

        records = small_corpus(0)
        for i in range(387):
            r = make_record(f"mrds:{i:05d}", [("site_name", f"Site {i}")])
            records[r.uri] = r
        keys = enumerate_pairs(list(records.values()))
        assert len(keys) == 74_691

        cache_path = tmp_path / "cache.jsonl"
        model_name = "llama3-8b"
        with cache_path.open("w", encoding="utf-8") as fh:
            for idx, key in enumerate(keys):
                prompt = build_pair_prompt(records[key.uri_1], records[key.uri_2])
                digest = prompt_hash(model_name, 0.0, prompt)
                response = "Yes" if idx < 437 else "No"
                fh.write(json.dumps({"hash": digest, "response": response, "status": "ok"}) + "\n")

        cfg = LabelerConfig(base_url=closed_port_url(), model=model_name, cache_path=cache_path)
        labeled, summary = label_dataset(keys, records, cfg)
        assert summary.requests_issued == 0
        assert summary.total == 74_691
        assert summary.matches == 437
        assert summary.nonmatches == 74_254


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(DataError):
            LabelerConfig(base_url="http://x", model="m", temperature=-0.1)
        with pytest.raises(DataError):
            LabelerConfig(base_url="http://x", model="m", max_in_flight=0)
        with pytest.raises(DataError):
            LabelerConfig(base_url="http://x", model="m", max_retries=-1)

    def test_largest_timeout_accepted(self):
        assert LabelerConfig(base_url="http://x", model="m", timeout_s=threading.TIMEOUT_MAX).timeout_s > 0
