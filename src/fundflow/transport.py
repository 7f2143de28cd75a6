"""Pluggable LLM transports: live HTTP, recording, and replay.

Every query is identified by a content hash over the prompt and the sampling
parameters (attempt number included, so retries get their own slot). Record
mode wraps any transport and appends each response to a JSONL store; replay
mode serves solely from such a store and never opens a connection, which is
what makes pipeline runs hermetic and reproducible.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass

import requests

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


class LiveTransport:
    """Chat-completions over HTTP; the API key comes from the environment."""

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
            response = requests.post(
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


class RecordTransport:
    """Forwards to an inner transport and appends responses to a JSONL store."""

    def __init__(self, inner, store_path: str) -> None:
        self.inner = inner
        self.params: TransportParams = inner.params
        self.store_path = store_path
        self._lock = threading.Lock()

    def query(self, prompt: str, attempt: int = 0) -> str:
        text = self.inner.query(prompt, attempt)
        record = {
            "key": query_key(prompt, self.params, attempt),
            "model": self.params.model,
            "response": text,
        }
        line = json.dumps(record, ensure_ascii=False)
        with self._lock:
            with open(self.store_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        return text


class ReplayTransport:
    """Serves recorded responses by key; a miss is an error, never a fetch.

    Every non-blank store line must be a whole record. A line that is not,
    including a final line torn by a crash mid-write, raises CorruptStore.
    """

    def __init__(self, store_path: str, params: TransportParams) -> None:
        self.params = params
        self.store_path = store_path
        self._responses: dict[str, str] = {}
        # bytes, so that a record torn inside a UTF-8 sequence is reported
        # with its line like any other bad record
        with open(store_path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise CorruptStore(f"{store_path}:{lineno}: not JSON: {exc}") from exc
                if not (
                    isinstance(record, dict)
                    and isinstance(record.get("key"), str)
                    and isinstance(record.get("response"), str)
                ):
                    raise CorruptStore(
                        f"{store_path}:{lineno}: expected an object with string "
                        "'key' and 'response'"
                    )
                self._responses[record["key"]] = record["response"]

    def query(self, prompt: str, attempt: int = 0) -> str:
        key = query_key(prompt, self.params, attempt)
        if key not in self._responses:
            raise ReplayMiss(key=key, context=f"attempt {attempt}")
        return self._responses[key]
