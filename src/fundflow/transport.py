"""Pluggable LLM transports: live HTTP, recording, and replay.

Every query is identified by a content hash over the prompt and the sampling
parameters (attempt number included, so retries get their own slot). Replay
mode serves solely from a JSONL store and never opens a connection, which is
what makes pipeline runs hermetic and reproducible. Record mode is the same
store with a miss path: it asks any inner transport once per missing key and
appends the answer; without a store file it is an in-memory memo.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import weakref
from dataclasses import dataclass

from .errors import CorruptStore, ReplayMiss, TransportError

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TransportParams:
    model: str
    temperature: float = 0.0
    max_tokens: int = 1024


def query_key(prompt: str, params: TransportParams, attempt: int = 0) -> str:
    payload = json.dumps(
        {
            "prompt": prompt,
            "model": params.model,
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
            "attempt": attempt,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# read_jsonl's field kinds: (what an error calls the value, its rule); a
# JSON true is a Python bool, which is an int but not a score
_FIELD_KINDS = {
    "string": ("a string", lambda v: isinstance(v, str)),
    "label": ('"adversarial" or "benign"', lambda v: v in ("adversarial", "benign")),
    "score": ("a number in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1),
}


def read_jsonl(path: str, error: type[Exception], **fields: str) -> list[tuple]:
    """The values of ``fields`` in each non-blank line of a JSONL file.

    ``fields`` maps each name to the kind of its value, a key of
    ``_FIELD_KINDS``. A line that is not such an object, a line torn by a
    crash mid-write included, raises ``error`` naming the file and line.
    """
    names = tuple(fields)
    rules = tuple(_FIELD_KINDS[kind][1] for kind in fields.values())
    rows = []
    # bytes, so that text torn inside a UTF-8 sequence, or not UTF-8 at
    # all, is reported with its line like any other bad line
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except (ValueError, RecursionError) as exc:  # nested too deep
                raise error(f"{path}:{lineno}: not JSON: {exc}") from exc
            values = tuple(map(row.get, names)) if isinstance(row, dict) else None
            if values is None or not all(rule(v) for rule, v in zip(rules, values)):
                expected = ", ".join(
                    f"{name!r} ({_FIELD_KINDS[kind][0]})" for name, kind in fields.items()
                )
                raise error(f"{path}:{lineno}: expected an object with {expected}")
            rows.append(values)
    return rows


TIMEOUT = 120.0  # seconds that ``LiveTransport`` waits for each answer

# A request that fails to connect, or is answered 429 or 5xx, is sent again
# up to three times: at once, then after 1 s, then after 2 s, each wait plus
# up to 0.5 s of jitter, unless the answer's Retry-After asks for a wait (at
# most 60 s). read=0: a request sent but not answered in time is not sent
# again, so the timeout is never multiplied. These are the keyword arguments
# of the urllib3 ``Retry`` that ``LiveTransport`` mounts on its session.
RETRY = dict(
    total=3,
    connect=3,
    read=0,
    status=3,
    other=0,
    status_forcelist=(429, 500, 502, 503, 504),
    allowed_methods=frozenset({"POST"}),
    backoff_factor=0.5,
    backoff_jitter=0.5,
    retry_after_max=60,
    raise_on_status=False,
)


class LiveTransport:
    """Chat-completions over HTTP; the API key comes from the environment.

    All queries go through one ``requests.Session``, so a connection is kept
    open and reused by the next query, and a failed request is retried as
    ``RETRY`` says. ``close()`` closes the session.

    ``requests`` and ``urllib3`` are imported when a transport is built, not
    with this module, so a run that never talks HTTP, a replay run included,
    never loads them.
    """

    def __init__(
        self,
        params: TransportParams,
        endpoint: str,
        api_key_env: str = "OPENAI_API_KEY",
    ) -> None:
        import requests

        self.params = params
        self.endpoint = endpoint
        self.api_key_env = api_key_env
        self.session = requests.Session()
        self.connections = requests.adapters.DEFAULT_POOLSIZE

    @property
    def connections(self) -> int:
        """Connections kept open for reuse: one per thread that queries at
        once, so that none is opened only to be discarded."""
        return self._connections

    @connections.setter
    def connections(self, count: int) -> None:
        from requests.adapters import HTTPAdapter
        from urllib3.util import Retry

        self._connections = count
        adapter = HTTPAdapter(pool_maxsize=count, max_retries=Retry(**RETRY))
        self.session.mount("https://", adapter)
        self.session.mount("http://", adapter)

    def close(self) -> None:
        self.session.close()

    def query(self, prompt: str, attempt: int = 0) -> str:
        from requests import RequestException

        del attempt  # part of the query identity, not of the request
        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise TransportError(
                f"environment variable {self.api_key_env} is not set"
            )
        body = {
            "model": self.params.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.params.temperature,
            "max_tokens": self.params.max_tokens,
        }
        try:
            response = self.session.post(
                self.endpoint,
                json=body,
                headers={"Authorization": f"Bearer {api_key}"},
                timeout=TIMEOUT,
            )
            response.raise_for_status()
            content = response.json()["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                # a store holds only string answers
                raise TypeError(f"content is {type(content).__name__}, not a string")
            return content
        except RequestException as exc:
            raise TransportError(str(exc)) from exc
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError(f"unexpected response shape: {exc}") from exc


class ReplayTransport:
    """Serves stored responses by key; a miss is an error, never a fetch.

    The store is JSONL, one ``{"key", "model", "response"}`` record a line.
    Every non-blank line must be a whole record. A line that is not,
    including a final line torn by a crash mid-write, raises CorruptStore.
    When a key has several lines, the first one is served.
    """

    def __init__(self, store_path: str | None, params: TransportParams) -> None:
        self.params = params
        self.store_path = store_path
        self._responses = self._load()

    def _load(self) -> dict[str, str]:
        responses: dict[str, str] = {}
        rows = read_jsonl(self.store_path, CorruptStore, key="string", response="string")
        for key, response in rows:
            responses.setdefault(key, response)
        return responses

    def query(self, prompt: str, attempt: int = 0) -> str:
        key = query_key(prompt, self.params, attempt)
        response = self._responses.get(key)
        if response is None:
            return self._miss(key, prompt, attempt)
        return response

    def _miss(self, key: str, prompt: str, attempt: int) -> str:
        raise ReplayMiss(key=key, context=f"attempt {attempt}")

    def close(self) -> None:
        """A replay store holds nothing open once loaded."""


class RecordTransport(ReplayTransport):
    """A store that asks an inner transport on a miss and appends the answer.

    An existing store is read first, so a rerun asks only for missing keys.
    When several threads miss one key, one asks and the others wait for its
    answer. A failed query appends nothing and is asked again on the next
    miss. With ``store_path`` None the answers stay in memory and no file is
    read or written, so the transport is a memo that asks each key once.

    The first miss opens the store for appending, creating the store and
    any missing directories above it, before it asks the inner transport,
    so a store that cannot be opened fails before any answer is paid for.
    It stays open until ``close()``, which closes the inner transport too
    when that has a ``close()``. Each answer is written and flushed as one
    whole line, so a crash leaves at most a torn last line, one with no
    newline. Loading cuts such a line off with a warning, so its key is
    asked again and the next answer starts a line of its own.
    """

    def __init__(self, inner, store_path: str | None = None) -> None:
        self.inner = inner
        self._lock = threading.Lock()  # guards the store file and _asking
        # a lock for each key being asked, dropped once the key is answered
        self._asking: dict[str, threading.Lock] = {}
        self._store = None  # opened by the first miss
        super().__init__(store_path, inner.params)

    def _load(self) -> dict[str, str]:
        # the first miss creates the store; its directory may not exist yet
        if self.store_path is None or not os.path.exists(self.store_path):
            return {}
        with open(self.store_path, "rb") as fh:
            data = fh.read()
        whole = data.rfind(b"\n") + 1
        if whole < len(data):
            os.truncate(self.store_path, whole)
            _log.warning(
                "%s: cut a torn last line of %d bytes", self.store_path, len(data) - whole
            )
        return super()._load()

    def _miss(self, key: str, prompt: str, attempt: int) -> str:
        with self._lock:
            asking = self._asking.setdefault(key, threading.Lock())
        with asking:
            response = self._responses.get(key)
            if response is None:
                if self.store_path is not None:
                    with self._lock:
                        if self._store is None:
                            os.makedirs(os.path.dirname(self.store_path) or ".", exist_ok=True)
                            self._store = open(self.store_path, "ab")
                            # a transport dropped without close() still closes it
                            weakref.finalize(self, self._store.close)
                response = self.inner.query(prompt, attempt)
                if self.store_path is not None:
                    record = {"key": key, "model": self.params.model, "response": response}
                    line = (json.dumps(record, ensure_ascii=False) + "\n").encode()
                    with self._lock:
                        self._store.write(line)
                        self._store.flush()
                self._responses[key] = response
        # answered: drop the key's lock. A failed ask keeps it, so the threads
        # waiting on it ask once more between them, not once each.
        with self._lock:
            self._asking.pop(key, None)
        return response

    def close(self) -> None:
        with self._lock:
            if self._store is not None:
                self._store.close()
                self._store = None
        close_inner = getattr(self.inner, "close", None)
        if close_inner is not None:
            close_inner()
