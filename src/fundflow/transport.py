"""Pluggable LLM transports: live HTTP, recording, and replay.

Every query is identified by a content hash over the prompt and the sampling
parameters (attempt number included, so retries get their own slot). Replay
mode serves solely from a JSONL store and never opens a connection, which is
what makes pipeline runs hermetic and reproducible. Record mode is the same
store with a miss path: it asks any inner transport once per missing key and
appends the answer.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import weakref
from dataclasses import dataclass

import requests
from requests.adapters import DEFAULT_POOLSIZE, HTTPAdapter

from .errors import CorruptStore, ReplayMiss, TransportError


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


_JSON_TYPES = {"string": str, "number": (int, float)}


def read_jsonl(path: str, error: type[Exception], **fields: str) -> list[tuple]:
    """The values of ``fields`` in each non-blank line of a JSONL file.

    ``fields`` maps each name to the JSON type of its value, ``"string"``
    or ``"number"``. A line that is not such an object, a line torn by a
    crash mid-write included, raises ``error`` naming the file and line.
    """
    names = tuple(fields)
    types = tuple(_JSON_TYPES[kind] for kind in fields.values())
    rows = []
    # bytes, so that text torn inside a UTF-8 sequence, or not UTF-8 at
    # all, is reported with its line like any other bad line
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise error(f"{path}:{lineno}: not JSON: {exc}") from exc
            values = tuple(map(row.get, names)) if isinstance(row, dict) else None
            if values is None or not all(map(isinstance, values, types)):
                expected = ", ".join(f"{kind} {name!r}" for name, kind in fields.items())
                raise error(f"{path}:{lineno}: expected an object with {expected}")
            rows.append(values)
    return rows


class LiveTransport:
    """Chat-completions over HTTP; the API key comes from the environment.

    All queries go through one ``requests.Session``, so a connection is kept
    open and reused by the next query. ``close()`` closes the session.
    """

    def __init__(
        self,
        params: TransportParams,
        endpoint: str,
        api_key_env: str = "OPENAI_API_KEY",
        timeout: float = 120.0,
    ) -> None:
        self.params = params
        self.endpoint = endpoint
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.session = requests.Session()
        self.connections = DEFAULT_POOLSIZE

    @property
    def connections(self) -> int:
        """Connections kept open for reuse: one per thread that queries at
        once, so that none is opened only to be discarded."""
        return self._connections

    @connections.setter
    def connections(self, count: int) -> None:
        self._connections = count
        adapter = HTTPAdapter(pool_maxsize=count)
        self.session.mount("https://", adapter)
        self.session.mount("http://", adapter)

    def close(self) -> None:
        self.session.close()

    def query(self, prompt: str, attempt: int = 0) -> str:
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
                timeout=self.timeout,
            )
            response.raise_for_status()
            data = response.json()
            return data["choices"][0]["message"]["content"]
        except requests.RequestException as exc:
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

    def __init__(self, store_path: str, params: TransportParams) -> None:
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
    answer. A failed query appends nothing. The first answer opens the store
    for appending, and it stays open until ``close()``, which closes the
    inner transport too when that has a ``close()``. Each answer is written
    and flushed as one whole line, so a crash leaves at most a torn last
    line.
    """

    def __init__(self, inner, store_path: str) -> None:
        self.inner = inner
        self._lock = threading.Lock()  # guards the store file and _asking
        self._asking: dict[str, threading.Lock] = {}
        self._store = None  # opened by the first answer
        super().__init__(store_path, inner.params)

    def _load(self) -> dict[str, str]:
        # the first answer creates the store; its directory may not exist yet
        if not os.path.exists(self.store_path):
            return {}
        return super()._load()

    def _miss(self, key: str, prompt: str, attempt: int) -> str:
        with self._lock:
            asking = self._asking.setdefault(key, threading.Lock())
        with asking:
            response = self._responses.get(key)
            if response is None:
                response = self.inner.query(prompt, attempt)
                record = {"key": key, "model": self.params.model, "response": response}
                line = (json.dumps(record, ensure_ascii=False) + "\n").encode()
                with self._lock:
                    if self._store is None:
                        self._store = open(self.store_path, "ab")
                        # a transport dropped without close() still closes it
                        weakref.finalize(self, self._store.close)
                    self._store.write(line)
                    self._store.flush()
                    self._responses[key] = response
        return response

    def close(self) -> None:
        with self._lock:
            if self._store is not None:
                self._store.close()
                self._store = None
        close_inner = getattr(self.inner, "close", None)
        if close_inner is not None:
            close_inner()
