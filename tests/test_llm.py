import http.server
import json
import logging
import re
import threading
import time

import pytest

from kgrag.kg import KGFormatError
from kgrag.llm import (
    CompletionRequest,
    MockOracle,
    RemoteBackend,
    ReplayBackend,
    ReplayMissError,
    ReplayStore,
    TransportError,
    remote_from_env,
    request_digest,
)


def refine_prompt(chains):
    lines = ["Question: who is linked to the answer", "Candidate evidence chains:"]
    lines += [f"{i}. {c}" for i, c in enumerate(chains, start=1)]
    lines.append("Reply with the chosen numbers as a comma-separated list.")
    return CompletionRequest(system_text="select", user_text="\n".join(lines))


def qa_prompt(evidence_lines, header="Evidence:"):
    lines = ["Question: who is linked to the answer", header]
    lines += [f"- {line}" for line in evidence_lines]
    lines.append("Return the answers as a JSON list of strings.")
    return CompletionRequest(system_text="answer", user_text="\n".join(lines))


def test_mock_selects_answer_terminated_chains():
    mock = MockOracle({"who is linked to the answer": {"C"}})
    req = refine_prompt(["A → [r1] → C", "A → [r2] → B", "B → [r3] → C"])
    assert mock.complete(req).text == "1, 3"


def test_mock_returns_none_when_nothing_matches():
    mock = MockOracle({"who is linked to the answer": {"Z"}})
    req = refine_prompt(["A → [r1] → C"])
    assert mock.complete(req).text == "none"


def test_mock_qa_answers_first_evidence_targets():
    mock = MockOracle({"who is linked to the answer": {"C"}})
    req = qa_prompt(["A → [r1] → {C, D}", "A → [r2] → E"])
    assert json.loads(mock.complete(req).text) == ["C", "D"]


def test_mock_qa_no_evidence_yields_empty_list():
    mock = MockOracle({"who is linked to the answer": set()})
    req = qa_prompt([])
    assert json.loads(mock.complete(req).text) == []


def test_mock_qa_works_on_flat_fact_prompts():
    mock = MockOracle({"who is linked to the answer": {"B"}})
    req = qa_prompt(["A → [r1] → B"], header="Facts:")
    assert json.loads(mock.complete(req).text) == ["B"]


def test_mock_ignores_demonstration_blocks():
    mock = MockOracle({"who is linked to the answer": {"C"}, "demo question": {"Y"}})
    demo = (
        "Question: demo question\n"
        "Candidate evidence chains:\n"
        "1. X → [r] → Y\n"
        "Selected: 1\n\n"
    )
    task = (
        "Question: who is linked to the answer\n"
        "Candidate evidence chains:\n"
        "1. A → [r1] → B\n"
        "2. A → [r2] → C\n"
        "Reply with the chosen numbers as a comma-separated list."
    )
    req = CompletionRequest(system_text="select", user_text=demo + task)
    assert mock.complete(req).text == "2"


def test_mock_qa_ignores_demo_evidence():
    mock = MockOracle({"who is linked to the answer": {"C"}, "demo question": {"Y"}})
    demo = (
        "Question: demo question\n"
        "Evidence:\n"
        "- X → [r] → Y\n"
        'Answers: ["Y"]\n\n'
    )
    task = (
        "Question: who is linked to the answer\n"
        "Evidence:\n"
        "- A → [r1] → C\n"
        "Return the answers as a JSON list of strings."
    )
    req = CompletionRequest(system_text="answer", user_text=demo + task)
    assert json.loads(mock.complete(req).text) == ["C"]


def test_mock_token_usage_counts_whitespace_tokens():
    mock = MockOracle({"q": {"B"}})
    req = CompletionRequest(system_text="one two", user_text="three four five")
    result = mock.complete(req)
    assert result.prompt_tokens == 5
    assert result.token_usage["prompt"] == 5


def test_mock_determinism():
    mock = MockOracle({"who is linked to the answer": {"C"}})
    req = refine_prompt(["A → [r1] → C", "X → [r] → Y"])
    assert mock.complete(req).text == mock.complete(req).text


def test_request_defaults_match_contract():
    req = CompletionRequest(system_text="s", user_text="u")
    assert req.temperature == 0.0
    assert req.seed == 42
    with pytest.raises(ValueError):
        CompletionRequest(system_text="s", user_text="u", temperature=-1)


def test_replay_round_trip(tmp_path):
    store = ReplayStore(tmp_path / "replay.jsonl")
    req = CompletionRequest(system_text="s", user_text="u")
    digest = request_digest(req)
    store.put(digest, "recorded text", 3, 2)
    backend = ReplayBackend(ReplayStore(tmp_path / "replay.jsonl"))
    result = backend.complete(req)
    assert result.text == "recorded text"
    assert result.backend == "replay"
    assert result.token_usage == {"prompt": 3, "completion": 2}


def test_replay_store_serves_the_first_response_of_a_digest_recorded_twice(tmp_path):
    path = tmp_path / "replay.jsonl"
    first, second = ReplayStore(path), ReplayStore(path)  # two processes that both missed
    first.put("d1", "one", 1, 1)
    second.put("d1", "two", 1, 1)
    reloaded = ReplayStore(path)
    assert len(reloaded) == 1
    assert reloaded.get("d1") == first.get("d1") == ("one", 1, 1)


def test_replay_store_drops_a_torn_last_line(tmp_path, caplog):
    path = tmp_path / "replay.jsonl"
    whole = '{"digest": "d1", "text": "one", "usage": {"prompt": 1, "completion": 2}}\n'
    path.write_text(whole + '{"digest": "d2", "te', encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="kgrag.llm"):
        store = ReplayStore(path)
    assert len(store) == 1
    assert store.get("d1") == ("one", 1, 2)
    assert any("torn last line" in r.getMessage() for r in caplog.records)
    store.put("d3", "three", 0, 0)  # appends after the complete records only
    caplog.clear()
    reloaded = ReplayStore(path)
    assert len(reloaded) == 2 and reloaded.get("d3") == ("three", 0, 0)
    assert not caplog.records


def test_replay_store_keeps_a_whole_last_line_without_newline(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text('{"digest": "d1", "text": "one"}\n{"digest": "d2", "text": "two"}', encoding="utf-8")
    store = ReplayStore(path)
    assert store.get("d2") == ("two", 0, 0)
    store.put("d3", "three", 0, 0)  # starts a line of its own
    assert len(ReplayStore(path)) == 3


def test_replay_store_bad_middle_line_is_unreadable(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text('{"digest": "d1", "te\n{"digest": "d2", "text": "two"}\n', encoding="utf-8")
    with pytest.raises(KGFormatError, match="line 1"):
        ReplayStore(path)


def test_replay_miss_names_digest(tmp_path):
    backend = ReplayBackend(ReplayStore(tmp_path / "empty.jsonl"))
    req = CompletionRequest(system_text="s", user_text="u")
    with pytest.raises(ReplayMissError) as err:
        backend.complete(req)
    assert request_digest(req)[:12] in str(err.value)
    assert err.value.digest == request_digest(req)


def test_digest_depends_on_inputs():
    a = CompletionRequest(system_text="s", user_text="u")
    b = CompletionRequest(system_text="s", user_text="u", seed=7)
    assert request_digest(a) != request_digest(b)
    assert request_digest(a) == request_digest(CompletionRequest(system_text="s", user_text="u"))


def _ok_response(text="hello"):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": 10, "completion_tokens": 4},
    }


def test_remote_sends_chat_completion_payload():
    seen = {}

    def transport(payload):
        seen.update(payload)
        return _ok_response()

    backend = RemoteBackend("http://x", "test-model", transport=transport)
    req = CompletionRequest(system_text="sys", user_text="usr", max_tokens=99)
    result = backend.complete(req)
    assert result.text == "hello"
    assert seen["model"] == "test-model"
    assert seen["messages"] == [
        {"role": "system", "content": "sys"},
        {"role": "user", "content": "usr"},
    ]
    assert seen["temperature"] == 0.0
    assert seen["seed"] == 42
    assert seen["max_tokens"] == 99


def test_remote_retries_then_succeeds():
    calls = {"n": 0}
    waits = []

    def transport(payload):
        calls["n"] += 1
        if calls["n"] < 3:
            raise RuntimeError("flaky")
        return _ok_response()

    backend = RemoteBackend(
        "http://x", "m", transport=transport, backoff_s=0.5, sleep=waits.append
    )
    assert backend.complete(CompletionRequest(system_text="s", user_text="u")).text == "hello"
    assert calls["n"] == 3
    assert waits == [0.5, 1.0]


def test_remote_fails_after_bounded_retries():
    def transport(payload):
        raise RuntimeError("down")

    backend = RemoteBackend("http://x", "m", transport=transport, sleep=lambda s: None)
    with pytest.raises(TransportError) as err:
        backend.complete(CompletionRequest(system_text="s", user_text="u"))
    assert err.value.backend == "remote"


@pytest.fixture
def endpoint():
    """A chat endpoint on 127.0.0.1 that answers every POST with ``status`` and ``body``
    and keeps each request's headers and JSON body."""
    seen: list[tuple[dict, dict]] = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            seen.append((dict(self.headers), payload))
            self.send_response(server.status)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(server.body)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    server.status, server.body, server.seen = 200, json.dumps(_ok_response("over http")).encode(), seen
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def _url(server) -> str:
    host, port = server.server_address
    return f"http://{host}:{port}/v1/chat/completions"


def test_remote_posts_json_with_a_bearer_key_over_http(endpoint):
    backend = RemoteBackend(_url(endpoint), "m", "secret", timeout_s=10)
    result = backend.complete(CompletionRequest(system_text="s", user_text="u"))
    assert (result.text, result.prompt_tokens, result.completion_tokens) == ("over http", 10, 4)
    [(headers, payload)] = endpoint.seen
    assert headers["Authorization"] == "Bearer secret"
    assert headers["Content-Type"] == "application/json"
    assert payload["model"] == "m"


def test_remote_retries_an_http_error_then_fails(endpoint):
    endpoint.status, endpoint.body = 500, b"x" * 300
    waits = []
    backend = RemoteBackend(_url(endpoint), "m", max_attempts=2, backoff_s=0.25, timeout_s=10, sleep=waits.append)
    with pytest.raises(TransportError, match=f"HTTP 500: {'x' * 200} \\(request"):
        backend.complete(CompletionRequest(system_text="s", user_text="u"))
    assert len(endpoint.seen) == 2
    assert waits == [0.25]
    assert "Authorization" not in endpoint.seen[0][0]


@pytest.mark.parametrize("url", ["file:///etc/hosts", "ftp://example.com/x", "localhost:8000/v1"])
def test_remote_refuses_a_url_that_is_not_http(url):
    with pytest.raises(ValueError, match="http or https"):
        RemoteBackend(url, "m")


def test_remote_caches_to_replay_store(tmp_path):
    store = ReplayStore(tmp_path / "cache.jsonl")
    backend = RemoteBackend("http://x", "m", transport=lambda p: _ok_response("cached"), store=store)
    req = CompletionRequest(system_text="s", user_text="u")
    backend.complete(req)
    replay = ReplayBackend(ReplayStore(tmp_path / "cache.jsonl"))
    assert replay.complete(req).text == "cached"


def test_remote_reads_a_null_usage_as_no_counts():
    response = {**_ok_response("hi there"), "usage": None}
    backend = RemoteBackend("http://x", "m", transport=lambda p: response)
    result = backend.complete(CompletionRequest(system_text="s", user_text="one two three"))
    assert (result.text, result.prompt_tokens, result.completion_tokens) == ("hi there", 3, 2)


@pytest.mark.parametrize(
    "edit, shown",
    [
        (lambda r: r["choices"][0]["message"].update(content=["hello"]), "content has the wrong type"),
        (lambda r: r["choices"][0]["message"].update(content=None), "content has the wrong type"),
        (lambda r: r["usage"].update(prompt_tokens="12"), "prompt_tokens has the wrong type: '12'"),
        (lambda r: r["usage"].update(completion_tokens=4.0), "completion_tokens has the wrong type: 4.0"),
        (lambda r: r.update(usage=[10, 4]), "usage has the wrong type"),
        (lambda r: r.update(choices=[]), "choices is empty"),
        (lambda r: r.update(choices={"message": {}}), "choices has the wrong type"),
        (lambda r: r["choices"][0].pop("message"), "missing field 'message'"),
        (lambda r: r.pop("choices"), "missing field 'choices'"),
    ],
    ids=[
        "content-list", "content-null", "prompt_tokens-string", "completion_tokens-float", "usage-list",
        "choices-empty", "choices-object", "no-message", "no-choices",
    ],
)
def test_remote_malformed_response_is_a_transport_error_naming_the_field(tmp_path, edit, shown):
    response = _ok_response()
    edit(response)
    store = ReplayStore(tmp_path / "cache.jsonl")
    backend = RemoteBackend("http://x", "m", transport=lambda p: response, store=store)
    with pytest.raises(TransportError, match=f"malformed response: .*{re.escape(shown)}"):
        backend.complete(CompletionRequest(system_text="s", user_text="u"))
    assert len(store) == 0


def test_remote_bounded_concurrency():
    active = {"now": 0, "peak": 0}
    lock = threading.Lock()

    def transport(payload):
        with lock:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
        time.sleep(0.02)
        with lock:
            active["now"] -= 1
        return _ok_response()

    backend = RemoteBackend("http://x", "m", transport=transport, max_inflight=2)
    threads = [
        threading.Thread(
            target=lambda: backend.complete(CompletionRequest(system_text="s", user_text=f"u{i}"))
        )
        for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert active["peak"] <= 2


def test_remote_from_env(monkeypatch):
    monkeypatch.delenv("REG_LLM_URL", raising=False)
    monkeypatch.delenv("REG_LLM_MODEL", raising=False)
    with pytest.raises(ValueError, match="REG_LLM_URL"):
        remote_from_env()
    monkeypatch.setenv("REG_LLM_URL", "http://endpoint")
    monkeypatch.setenv("REG_LLM_MODEL", "model-x")
    monkeypatch.setenv("REG_LLM_KEY", "secret")
    backend = remote_from_env()
    assert backend.tag == "remote:model-x"
