"""Uniform completion interface over a mock oracle, a replay store, and a remote endpoint.

All backends expose ``complete(request) -> CompletionResult`` and a ``tag``
identifying the model behind it. Mock and replay are deterministic; the remote
backend retries with exponential backoff, caps in-flight requests, and can
cache responses into a replay store.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .config import json_field
from .kg import read_jsonl, write_jsonl

logger = logging.getLogger(__name__)

ENV_URL = "REG_LLM_URL"
ENV_MODEL = "REG_LLM_MODEL"
ENV_KEY = "REG_LLM_KEY"


@dataclass(frozen=True)
class CompletionRequest:
    system_text: str
    user_text: str
    temperature: float = 0.0
    seed: int = 42
    max_tokens: int = 1024

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    prompt_tokens: int
    completion_tokens: int
    backend: str

    @property
    def token_usage(self) -> dict[str, int]:
        return {"prompt": self.prompt_tokens, "completion": self.completion_tokens}


def request_digest(req: CompletionRequest) -> str:
    payload = json.dumps(
        [req.system_text, req.user_text, req.temperature, req.seed],
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _whitespace_tokens(text: str) -> int:
    return len(text.split())


class CompletionError(RuntimeError):
    def __init__(self, message: str, backend: str, digest: str):
        super().__init__(f"[{backend}] {message} (request {digest[:12]})")
        self.backend = backend
        self.digest = digest


class ReplayMissError(CompletionError):
    pass


class TransportError(CompletionError):
    pass


# -- mock oracle -------------------------------------------------------------

_QUESTION_LINE = re.compile(r"^Question:\s*(.*)$", re.MULTILINE)
_NUMBERED_LINE = re.compile(r"^(\d+)\.\s+(.*)$")


def _chain_targets(rendered: str) -> list[str]:
    """Final entity labels of a rendered chain line; ``{a, b}`` splits into both."""
    last = rendered.split(" → ")[-1].strip()
    if last.startswith("{") and last.endswith("}"):
        return [part.strip() for part in last[1:-1].split(",") if part.strip()]
    return [last]


class MockOracle:
    """Deterministic stand-in for a chat model, keyed by known question texts.

    Selection prompts (marker line ``Candidate evidence chains:``) answer with
    the numbers of chains whose terminal entity is a known answer. QA prompts
    (marker ``Evidence:`` or ``Facts:``) answer with the target set of the
    first evidence line as a JSON string list.
    """

    name = "mock"

    def __init__(self, answers_by_question: dict[str, set[str]]):
        self._answers = {k: set(v) for k, v in answers_by_question.items()}

    @property
    def tag(self) -> str:
        return "mock"

    def _lookup_answers(self, user_text: str) -> set[str]:
        # demonstrations carry their own "Question:" lines; the task question
        # is the last one
        for text in reversed(_QUESTION_LINE.findall(user_text)):
            if text.strip() in self._answers:
                return self._answers[text.strip()]
        # fall back to the longest known question contained in the prompt
        best = ""
        for known in self._answers:
            if known in user_text and len(known) > len(best):
                best = known
        return self._answers.get(best, set())

    @staticmethod
    def _final_block(lines: list[str], headers: tuple[str, ...]) -> list[str] | None:
        last = None
        for i, line in enumerate(lines):
            if line.startswith(headers):
                last = i
        return None if last is None else lines[last + 1 :]

    def complete(self, req: CompletionRequest) -> CompletionResult:
        answers = self._lookup_answers(req.user_text)
        lines = req.user_text.splitlines()
        selection_block = self._final_block(lines, ("Candidate evidence chains:",))
        if selection_block is not None:
            picks = []
            for line in selection_block:
                m = _NUMBERED_LINE.match(line.strip())
                if m and any(t in answers for t in _chain_targets(m.group(2))):
                    picks.append(m.group(1))
            text = ", ".join(picks) if picks else "none"
        else:
            evidence_block = self._final_block(lines, ("Evidence:", "Facts:")) or []
            first = None
            for line in evidence_block:
                if line.startswith("- "):
                    first = line[2:].strip()
                    break
            text = json.dumps(_chain_targets(first) if first else [])
        return CompletionResult(
            text=text,
            prompt_tokens=_whitespace_tokens(req.system_text) + _whitespace_tokens(req.user_text),
            completion_tokens=_whitespace_tokens(text),
            backend=self.name,
        )


# -- replay ------------------------------------------------------------------


def _replay_entry(obj: dict) -> tuple[str, tuple[str, int, int]]:
    usage = json_field(obj, "usage", dict, {})
    counts = json_field(usage, "prompt", int, 0), json_field(usage, "completion", int, 0)
    return json_field(obj, "digest", str), (json_field(obj, "text", str), *counts)


class ReplayStore:
    """JSONL-backed response cache keyed by request digest; an unreadable file raises KGFormatError.

    Every record is written whole, newline included, so a last line without a
    newline that does not parse is a write that was cut off: it is dropped with
    a warning. Before the next record is appended, such a line is cut from the
    file, and a whole last record without its newline gets one.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, tuple[str, int, int]] = {}
        self._tail: tuple[int, bytes] | None = None  # where to end the file, and with what
        if self.path.exists():
            data = self.path.read_bytes()
            cut = data.rfind(b"\n") + 1
            if cut < len(data):
                try:
                    json.loads(data[cut:])
                    self._tail = (len(data), b"\n")
                except ValueError:
                    logger.warning("replay store %s: dropping a torn last line", self.path)
                    data, self._tail = data[:cut], (cut, b"")
            for digest, entry in read_jsonl(io.BytesIO(data), _replay_entry):
                self._entries.setdefault(digest, entry)  # a digest recorded twice keeps its first, as put

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str) -> tuple[str, int, int] | None:
        return self._entries.get(digest)

    def put(self, digest: str, text: str, prompt_tokens: int, completion_tokens: int) -> None:
        with self._lock:
            if digest in self._entries:
                return
            self._entries[digest] = (text, prompt_tokens, completion_tokens)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self._tail is not None:
                with self.path.open("r+b") as fh:
                    fh.seek(self._tail[0])
                    fh.write(self._tail[1])
                    fh.truncate()
                self._tail = None
            usage = {"prompt": prompt_tokens, "completion": completion_tokens}
            with self.path.open("a", encoding="utf-8") as fh:
                write_jsonl(fh, [{"digest": digest, "text": text, "usage": usage}])


class ReplayBackend:
    name = "replay"

    def __init__(self, store: ReplayStore):
        self.store = store

    @property
    def tag(self) -> str:
        return "replay"

    def complete(self, req: CompletionRequest) -> CompletionResult:
        digest = request_digest(req)
        hit = self.store.get(digest)
        if hit is None:
            raise ReplayMissError("no recorded response", self.name, digest)
        text, p, c = hit
        return CompletionResult(text, p, c, self.name)


# -- remote ------------------------------------------------------------------


def _http_transport(url: str, api_key: str, timeout: float) -> Callable[[dict], dict]:
    """POST the payload as JSON and parse the reply; a reply other than 200 raises ``RuntimeError``.
    A URL of another scheme than http or https, which urllib would also open, raises ``ValueError``."""
    import urllib.error  # here, so that only a remote backend loads http.client and ssl
    import urllib.parse
    import urllib.request

    if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
        raise ValueError(f"{ENV_URL} must be an http or https URL, got {url!r}")
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    def send(payload: dict) -> dict:
        request = urllib.request.Request(url, json.dumps(payload).encode("utf-8"), headers, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status, body = exc.code, exc.read()
        text = body.decode("utf-8", "replace")
        if status != 200:
            raise RuntimeError(f"HTTP {status}: {text[:200]}")
        return json.loads(text)

    return send


class RemoteBackend:
    """Chat-completion endpoint client with retries and an in-flight cap.

    The wire format is ``{model, messages, temperature, seed, max_tokens}``
    with a system and a user message; responses are read from
    ``choices[0].message.content``. Successful responses are cached into the
    given replay store, if any.
    """

    name = "remote"

    def __init__(
        self,
        url: str,
        model: str,
        api_key: str = "",
        *,
        transport: Callable[[dict], dict] | None = None,
        store: ReplayStore | None = None,
        max_inflight: int = 4,
        max_attempts: int = 3,
        backoff_s: float = 0.5,
        timeout_s: float = 60.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if max_inflight < 1 or max_attempts < 1:
            raise ValueError("max_inflight and max_attempts must be >= 1")
        self.model = model
        self.store = store
        self._transport = transport or _http_transport(url, api_key, timeout_s)
        self._slots = threading.Semaphore(max_inflight)
        self._max_attempts = max_attempts
        self._backoff_s = backoff_s
        self._sleep = sleep

    @property
    def tag(self) -> str:
        return f"remote:{self.model}"

    def complete(self, req: CompletionRequest) -> CompletionResult:
        digest = request_digest(req)
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": req.system_text},
                {"role": "user", "content": req.user_text},
            ],
            "temperature": req.temperature,
            "seed": req.seed,
            "max_tokens": req.max_tokens,
        }
        last_error: Exception | None = None
        with self._slots:
            for attempt in range(self._max_attempts):
                try:
                    raw = self._transport(payload)
                    break
                except Exception as exc:  # noqa: BLE001 - transport errors vary by client
                    last_error = exc
                    if attempt + 1 < self._max_attempts:
                        self._sleep(self._backoff_s * (2**attempt))
            else:
                raise TransportError(str(last_error), self.name, digest)
        try:
            choices = json_field(raw, "choices", tuple[dict, ...])
            if not choices:
                raise ValueError("choices is empty")
            text = json_field(json_field(choices[0], "message", dict), "content", str)
            usage = json_field(raw, "usage", dict | None, None) or {}
            prompt_tokens = json_field(usage, "prompt_tokens", int, _whitespace_tokens(req.user_text))
            completion_tokens = json_field(usage, "completion_tokens", int, _whitespace_tokens(text))
        except KeyError as exc:
            raise TransportError(f"malformed response: missing field {exc}", self.name, digest) from exc
        except (TypeError, ValueError) as exc:
            raise TransportError(f"malformed response: {exc}", self.name, digest) from exc
        if self.store is not None:
            self.store.put(digest, text, prompt_tokens, completion_tokens)
        return CompletionResult(text, prompt_tokens, completion_tokens, self.name)


def remote_from_env(store: ReplayStore | None = None, **kwargs) -> RemoteBackend:
    """Build a remote backend from REG_LLM_URL / REG_LLM_MODEL / REG_LLM_KEY."""
    url = os.environ.get(ENV_URL, "")
    model = os.environ.get(ENV_MODEL, "")
    if not url or not model:
        raise ValueError(f"{ENV_URL} and {ENV_MODEL} must be set for the remote backend")
    return RemoteBackend(url, model, os.environ.get(ENV_KEY, ""), store=store, **kwargs)
