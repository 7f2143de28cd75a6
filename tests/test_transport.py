import json
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests

from fundflow.cli import main
from fundflow.errors import CorruptStore, ReplayMiss, TransportError
from fundflow.transport import (
    LiveTransport,
    RecordTransport,
    ReplayTransport,
    TransportParams,
    query_key,
)

PARAMS = TransportParams(model="gpt-4o", temperature=0.0, max_tokens=1024)


def test_query_key_is_sha256_hex():
    key = query_key("hello", PARAMS)
    assert len(key) == 64 and set(key) <= set("0123456789abcdef")


def test_query_key_stable():
    assert query_key("hello", PARAMS, attempt=1) == query_key("hello", PARAMS, attempt=1)


@pytest.mark.parametrize(
    "other",
    [
        ("different prompt", PARAMS, 0),
        ("hello", TransportParams(model="gpt-4o-mini"), 0),
        ("hello", TransportParams(model="gpt-4o", temperature=0.5), 0),
        ("hello", TransportParams(model="gpt-4o", max_tokens=2048), 0),
        ("hello", PARAMS, 1),
    ],
)
def test_query_key_sensitive_to_every_field(other):
    prompt, params, attempt = other
    assert query_key(prompt, params, attempt) != query_key("hello", PARAMS, 0)


class EchoTransport:
    def __init__(self, params):
        self.params = params

    def query(self, prompt, attempt=0):
        return f"echo {prompt} / attempt {attempt} / ünïcode"


def test_record_then_replay_byte_identity(tmp_path):
    store = tmp_path / "store.jsonl"
    recorder = RecordTransport(EchoTransport(PARAMS), str(store))
    sent = [("alpha", 0), ("beta", 0), ("alpha", 1)]
    recorded = [recorder.query(p, a) for p, a in sent]

    lines = store.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert [json.loads(x)["key"] for x in lines] == [
        query_key(p, PARAMS, a) for p, a in sent
    ]

    replay = ReplayTransport(str(store), PARAMS)
    assert [replay.query(p, a) for p, a in sent] == recorded


class CountingEcho(EchoTransport):
    """Echoes after a short wait, counting the queries asked per key."""

    def __init__(self, params, fail=()):
        super().__init__(params)
        self.asked = Counter()
        self.fail = set(fail)
        self._lock = threading.Lock()

    def query(self, prompt, attempt=0):
        with self._lock:
            self.asked[query_key(prompt, self.params, attempt)] += 1
        time.sleep(0.001)
        if prompt in self.fail:
            raise TransportError(f"no answer for {prompt}")
        return super().query(prompt, attempt)


def store_record(prompt, response, attempt=0):
    key = query_key(prompt, PARAMS, attempt)
    return json.dumps({"key": key, "model": "gpt-4o", "response": response}) + "\n"


def test_record_asks_once_per_key_across_threads(tmp_path):
    store = tmp_path / "store.jsonl"
    inner = CountingEcho(PARAMS)
    recorder = RecordTransport(inner, str(store))
    sent = [(f"prompt {i % 7}", i % 2) for i in range(40)]

    def ask_all(offset):
        rotated = sent[offset:] + sent[:offset]
        return sorted(zip(rotated, (recorder.query(p, a) for p, a in rotated)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            answers = list(pool.map(ask_all, range(6)))
    finally:
        sys.setswitchinterval(interval)

    keys = {query_key(p, PARAMS, a) for p, a in sent}
    assert len(keys) == 14
    assert inner.asked == Counter(dict.fromkeys(keys, 1))
    lines = store.read_text(encoding="utf-8").splitlines()
    assert sorted(json.loads(line)["key"] for line in lines) == sorted(keys)
    assert all(a == answers[0] for a in answers)


def test_record_resumes_from_a_complete_store(tmp_path):
    store = tmp_path / "store.jsonl"
    sent = [("alpha", 0), ("beta", 0), ("alpha", 1)]
    first = RecordTransport(EchoTransport(PARAMS), str(store))
    recorded = [first.query(p, a) for p, a in sent]
    before = store.read_bytes()

    inner = CountingEcho(PARAMS)
    again = RecordTransport(inner, str(store))
    assert [again.query(p, a) for p, a in sent] == recorded
    assert inner.asked == Counter()
    assert store.read_bytes() == before


def test_record_does_not_create_the_store_before_an_answer(tmp_path):
    store = tmp_path / "not_yet" / "store.jsonl"
    recorder = RecordTransport(EchoTransport(PARAMS), str(store))
    assert not store.parent.exists()
    store.parent.mkdir()
    recorder.query("alpha")
    assert len(store.read_text(encoding="utf-8").splitlines()) == 1


def test_first_line_of_a_key_wins(tmp_path):
    store = tmp_path / "store.jsonl"
    store.write_text(
        store_record("p", "first") + store_record("p", "second"), encoding="utf-8"
    )
    inner = CountingEcho(PARAMS)
    assert RecordTransport(inner, str(store)).query("p") == "first"
    assert ReplayTransport(str(store), PARAMS).query("p") == "first"
    assert inner.asked == Counter()


def test_record_over_corrupt_store_names_the_line(tmp_path):
    store = tmp_path / "store.jsonl"
    store.write_text(store_record("p", "r") + '{"key": "0f3a", "resp', encoding="utf-8")
    with pytest.raises(CorruptStore, match=r"store\.jsonl:2: "):
        RecordTransport(EchoTransport(PARAMS), str(store))


@pytest.mark.parametrize(
    "store_line, row_line, problem",
    [
        (b'{"key": "0f3a", "resp', b'{"id": "b", "lab', "not JSON"),
        (b'["0f3a", "r"]', b'["b", "benign"]', "expected an object with"),
        (b'{"key": "0f3a"}', b'{"id": "b"}', "expected an object with"),
        (b'{"key": "0f3a", "response": 5}', b'{"id": "b", "label": 5}', "expected an object with"),
        (b'\xff\xfe{"key": "0f3a"}', b'\xff\xfe{"id": "b"}', "not JSON"),
    ],
    ids=["torn", "not-an-object", "missing-field", "wrong-type", "not-utf8"],
)
def test_store_and_eval_report_a_bad_line_alike(tmp_path, capsys, store_line, row_line, problem):
    store = tmp_path / "store.jsonl"
    store.write_bytes(store_record("p", "r").encode() + store_line + b"\n")
    with pytest.raises(CorruptStore) as caught:
        ReplayTransport(str(store), PARAMS)
    assert str(caught.value).startswith(f"{store}:2: {problem}")
    rows = tmp_path / "rows.jsonl"
    rows.write_bytes(b'{"id": "a", "label": "benign"}\n' + row_line + b"\n")
    assert main(["eval", str(rows), str(rows)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {rows}:2: {problem}")


def test_failed_query_writes_nothing_and_is_asked_again(tmp_path):
    store = tmp_path / "store.jsonl"
    inner = CountingEcho(PARAMS, fail={"flaky"})
    recorder = RecordTransport(inner, str(store))
    recorder.query("steady")
    for _ in range(2):
        with pytest.raises(TransportError):
            recorder.query("flaky")
    assert inner.asked[query_key("flaky", PARAMS)] == 2
    lines = store.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["key"] for line in lines] == [query_key("steady", PARAMS)]


def test_replay_miss_carries_key(tmp_path):
    store = tmp_path / "store.jsonl"
    store.write_text("", encoding="utf-8")
    replay = ReplayTransport(str(store), PARAMS)
    with pytest.raises(ReplayMiss) as exc_info:
        replay.query("never recorded")
    assert exc_info.value.key == query_key("never recorded", PARAMS, 0)


def test_replay_skips_blank_lines(tmp_path):
    store = tmp_path / "store.jsonl"
    key = query_key("p", PARAMS, 0)
    store.write_text(
        "\n" + json.dumps({"key": key, "model": "gpt-4o", "response": "r"}) + "\n\n",
        encoding="utf-8",
    )
    assert ReplayTransport(str(store), PARAMS).query("p") == "r"


def test_replay_differs_when_params_differ(tmp_path):
    store = tmp_path / "store.jsonl"
    RecordTransport(EchoTransport(PARAMS), str(store)).query("p")
    other = ReplayTransport(str(store), TransportParams(model="gpt-4o-mini"))
    with pytest.raises(ReplayMiss):
        other.query("p")


class FakeResponse:
    def __init__(self, payload, error=None):
        self._payload = payload
        self._error = error

    def raise_for_status(self):
        if self._error:
            raise self._error

    def json(self):
        return self._payload


def test_live_transport_success(monkeypatch):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(url=url, body=json, headers=headers, timeout=timeout)
        return FakeResponse({"choices": [{"message": {"content": "hello back"}}]})

    monkeypatch.setattr(requests.Session, "post", staticmethod(fake_post))
    monkeypatch.setenv("FAKE_API_KEY_VAR", "test-key-123")
    live = LiveTransport(PARAMS, "https://example.invalid/v1/chat", "FAKE_API_KEY_VAR")
    assert live.query("ping", attempt=3) == "hello back"
    assert captured["url"] == "https://example.invalid/v1/chat"
    assert captured["body"] == {
        "model": "gpt-4o",
        "messages": [{"role": "user", "content": "ping"}],
        "temperature": 0.0,
        "max_tokens": 1024,
    }
    assert captured["headers"]["Authorization"] == "Bearer test-key-123"
    assert captured["timeout"] == 120.0


def test_live_transport_requires_env_key(monkeypatch):
    calls = []
    monkeypatch.setattr(
        requests.Session, "post", staticmethod(lambda *a, **k: calls.append(1))
    )
    monkeypatch.delenv("FAKE_API_KEY_VAR", raising=False)
    live = LiveTransport(PARAMS, "https://example.invalid", "FAKE_API_KEY_VAR")
    with pytest.raises(TransportError, match="FAKE_API_KEY_VAR"):
        live.query("ping")
    assert calls == []  # no request without a key


def test_live_transport_http_error(monkeypatch):
    def fake_post(url, **kwargs):
        return FakeResponse({}, error=requests.HTTPError("429 too many requests"))

    monkeypatch.setattr(requests.Session, "post", staticmethod(fake_post))
    monkeypatch.setenv("FAKE_API_KEY_VAR", "k")
    live = LiveTransport(PARAMS, "https://example.invalid", "FAKE_API_KEY_VAR")
    with pytest.raises(TransportError):
        live.query("ping")


def test_live_transport_connection_error(monkeypatch):
    def fake_post(url, **kwargs):
        raise requests.ConnectionError("refused")

    monkeypatch.setattr(requests.Session, "post", staticmethod(fake_post))
    monkeypatch.setenv("FAKE_API_KEY_VAR", "k")
    live = LiveTransport(PARAMS, "https://example.invalid", "FAKE_API_KEY_VAR")
    with pytest.raises(TransportError, match="refused"):
        live.query("ping")


def test_live_transport_unexpected_shape(monkeypatch):
    monkeypatch.setattr(
        requests.Session,
        "post",
        staticmethod(lambda url, **kwargs: FakeResponse({"unexpected": True})),
    )
    monkeypatch.setenv("FAKE_API_KEY_VAR", "k")
    live = LiveTransport(PARAMS, "https://example.invalid", "FAKE_API_KEY_VAR")
    with pytest.raises(TransportError, match="shape"):
        live.query("ping")


def test_record_wraps_live_params(tmp_path):
    recorder = RecordTransport(EchoTransport(PARAMS), str(tmp_path / "s.jsonl"))
    assert recorder.params == PARAMS


def test_live_transport_reuses_one_connection(monkeypatch):
    """Queries go over one kept-alive connection to a loopback server."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    connections = []
    body = json.dumps({"choices": [{"message": {"content": "pong"}}]}).encode()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive

        def setup(self):
            super().setup()
            connections.append(self.client_address)

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    monkeypatch.setenv("FAKE_API_KEY_VAR", "k")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    endpoint = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    live = LiveTransport(PARAMS, endpoint, "FAKE_API_KEY_VAR")
    try:
        assert [live.query(p) for p in ("a", "b", "c")] == ["pong"] * 3
    finally:
        live.close()
        server.shutdown()
        server.server_close()
        thread.join()
    assert len(connections) == 1
