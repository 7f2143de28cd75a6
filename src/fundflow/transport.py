"""Pluggable LLM transports: live HTTP, and one store for record and replay.

Every query is identified by a content hash over the prompt and the sampling
parameters (attempt number included, so retries get their own slot). The
store answers by key from a JSONL file. Without an ``ask`` function it
replays: it serves solely from the file and never opens a connection, which
is what makes pipeline runs hermetic and reproducible. With one it records:
it asks once per missing key and appends the answer. Without a file it is an
in-memory memo.
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
    """The JSONL store of answers by query key, with an optional miss path.

    Each line of the store is one ``{"key", "model", "response"}`` record,
    and loading raises CorruptStore at any non-blank line that is not. When
    a key has several lines, the first one is served. Without ``ask`` a miss
    is a ReplayMiss, never a fetch, and a last line torn by a crash
    mid-write is a bad line like any other.

    With ``ask(prompt, attempt)`` a miss is asked once per key, however many
    threads miss it at once, and the answer is appended; a failed ask
    appends nothing and is asked again on the next miss. A store that does
    not exist yet starts empty. The first miss opens it for appending, with
    any missing directories, before it asks, so a store that cannot be
    opened fails before any answer is paid for; it stays open until
    ``close()``. Each answer is written and flushed as one whole line, so a
    crash leaves at most a torn last line, one with no newline. Loading cuts
    such a line off with a warning, so its key is asked again.

    With ``store_path`` None no file is read or written: with ``ask`` the
    transport is a memo that asks each key once.
    """

    def __init__(self, store_path: str | None, params: TransportParams, ask=None) -> None:
        self.params = params
        self.store_path = store_path
        self._ask = ask
        self._lock = threading.Lock()  # guards the store file and _asking
        # a lock for each key being asked, dropped once the key is answered
        self._asking: dict[str, threading.Lock] = {}
        self._store = None  # opened by the first miss
        self._responses = self._load()

    def _load(self) -> dict[str, str]:
        path = self.store_path
        # an asking store is created by its first miss; its directory may not exist yet
        if path is None or (self._ask is not None and not os.path.exists(path)):
            return {}
        if self._ask is not None:
            with open(path, "rb") as fh:
                data = fh.read()
            whole = data.rfind(b"\n") + 1
            if whole < len(data):
                os.truncate(path, whole)
                _log.warning("%s: cut a torn last line of %d bytes", path, len(data) - whole)
        rows = read_jsonl(path, CorruptStore, key="string", response="string")
        return dict(reversed(rows))  # so the first line of a key wins

    def query(self, prompt: str, attempt: int = 0) -> str:
        key = query_key(prompt, self.params, attempt)
        response = self._responses.get(key)
        if response is not None:
            return response
        if self._ask is None:
            raise ReplayMiss(key=key, context=f"attempt {attempt}")
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
                response = self._ask(prompt, attempt)
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
        """Close the store, if a miss opened it."""
        with self._lock:
            if self._store is not None:
                self._store.close()
                self._store = None


class RecordTransport(ReplayTransport):
    """The store that asks the transport ``inner``, under ``inner.params``,
    on a miss. ``close()`` closes ``inner`` too when that has a ``close()``."""

    def __init__(self, inner, store_path: str | None = None) -> None:
        self.inner = inner
        # inner.query is looked up at each ask, so a caller may swap it
        super().__init__(store_path, inner.params, lambda p, attempt: inner.query(p, attempt))

    def close(self) -> None:
        super().close()
        close_inner = getattr(self.inner, "close", None)
        if close_inner is not None:
            close_inner()
