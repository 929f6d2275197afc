from __future__ import annotations

import gc
import json
import shutil
import socket
import ssl
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import minerlink

from minerlink.errors import DataError, LLMTransportError
from minerlink.llm_labeler import (
    LabelCache,
    LabelerConfig,
    LabelStatus,
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
        assert outcome.status is LabelStatus.OK
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
        assert outcome.status is LabelStatus.ABSTAIN
        assert outcome.label is None
        assert outcome.raw_response == "They seem similar"

    def test_no_retries_means_single_attempt(self, tmp_path):
        a, b = two_records()
        with MockLLMServer(script=lambda prompt: "They seem similar") as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                max_retries=0, cache_path=None)
            outcome = label_pair(a, b, cfg)
            assert server.total_requests == 1
        assert outcome.status is LabelStatus.ABSTAIN

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
        outcome = label_pair(a, b, cfg)
        assert outcome.status is LabelStatus.TRANSPORT_ERROR
        assert outcome.label is None
        assert outcome.error

    def test_http_error_is_transport_error(self, tmp_path):
        a, b = two_records()
        with MockLLMServer(status_code=500) as server:
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b",
                                max_retries=0, cache_path=tmp_path / "cache.jsonl")
            outcome = label_pair(a, b, cfg)
        assert outcome.status is LabelStatus.TRANSPORT_ERROR


    def test_non_string_content_is_transport_error(self):
        a, b = two_records()
        with MockLLMServer(script=lambda prompt: None) as server:  # "content": null
            cfg = LabelerConfig(base_url=server.base_url, model="llama3-8b", max_retries=0, cache_path=None)
            outcome = label_pair(a, b, cfg)
        assert outcome.status is LabelStatus.TRANSPORT_ERROR
        assert "not a string" in outcome.error


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
            outcome = label_pair(a, b, cfg)
            assert server.total_requests == 1
        assert outcome.status is LabelStatus.TRANSPORT_ERROR
        assert "302" in outcome.error

    @pytest.mark.parametrize("base_url", ["ftp://127.0.0.1:21", "http://", "http://[::1", "http://127.0.0.1:99999"])
    def test_unusable_base_url_is_transport_error(self, base_url):
        a, b = two_records()
        cfg = LabelerConfig(base_url=base_url, model="llama3-8b", max_retries=0, cache_path=None)
        outcome = label_pair(a, b, cfg)
        assert outcome.status is LabelStatus.TRANSPORT_ERROR
        assert "InvalidURL" in outcome.error

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
            outcome = label_pair(a, b, cfg)
            assert server.total_requests == 0
        assert outcome.status is LabelStatus.TRANSPORT_ERROR
        assert "CERTIFICATE_VERIFY_FAILED" in outcome.error


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
        assert outcome.status is LabelStatus.OK and outcome.label == 1


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
