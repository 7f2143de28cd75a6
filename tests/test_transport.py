import hashlib
import json
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests
from hypothesis import given, settings, strategies as st

from fundflow.cli import main
from fundflow.scripted import ADVERSARIAL_ROWS, ScriptedTransport
from fundflow.errors import CorruptStore, ReplayMiss, TransportError
from fundflow.transport import (
    LiveTransport,
    RecordTransport,
    ReplayTransport,
    TransportParams,
    query_key,
)

from conftest import FIXTURE_TEXT
from test_pipeline import BENIGN_TEXT, MODEL_NAMES, STATIC_NAMES

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


# quotes, backslashes, control characters, line separators and non-ASCII
# text, which JSON escapes or, with ensure_ascii=False, passes through
AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\u2028", "é", "€", "\U0001d518"])


@settings(deadline=None, max_examples=200)
@given(
    prompt=st.text(st.one_of(AWKWARD, st.characters())),
    model=st.text(st.one_of(AWKWARD, st.characters()), max_size=12),
    temperature=st.floats(min_value=0, max_value=2),
    max_tokens=st.integers(1, 4096),
    attempt=st.integers(0, 3),
)
def test_query_key_is_the_sha256_of_the_sorted_json_of_the_query(
    prompt, model, temperature, max_tokens, attempt
):
    """Pins the bytes every existing store is keyed by."""
    query = {
        "prompt": prompt,
        "model": model,
        "temperature": temperature,
        "max_tokens": max_tokens,
        "attempt": attempt,
    }
    payload = json.dumps(query, sort_keys=True, ensure_ascii=False).encode()
    params = TransportParams(model=model, temperature=temperature, max_tokens=max_tokens)
    assert query_key(prompt, params, attempt) == hashlib.sha256(payload).hexdigest()


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
    assert recorder._asking == {}  # no lock outlives its key's answer
    lines = store.read_text(encoding="utf-8").splitlines()
    assert sorted(json.loads(line)["key"] for line in lines) == sorted(keys)
    assert all(a == answers[0] for a in answers)


def test_threads_waiting_on_a_failed_key_ask_it_once_more_between_them(tmp_path):
    """The first ask fails. Threads that miss the key while it is asked,
    before or after that failure, wait on one lock: one of them asks again
    and the rest take its answer."""
    inner = CountingEcho(PARAMS, fail={"flaky"})
    recorder = RecordTransport(inner, str(tmp_path / "store.jsonl"))
    query = inner.query

    def slow_and_failing_once(prompt, attempt=0):
        time.sleep(0.05)
        try:
            return query(prompt, attempt)
        finally:
            inner.fail.clear()

    inner.query = slow_and_failing_once

    def ask(i):
        time.sleep(0.02 * i)  # staggered, so some miss after the failure
        try:
            return recorder.query("flaky")
        except TransportError:
            return None

    with ThreadPoolExecutor(max_workers=6) as pool:
        answers = list(pool.map(ask, range(6)))
    assert answers[0] is None and None not in answers[1:]
    assert inner.asked[query_key("flaky", PARAMS)] == 2
    assert recorder._asking == {}


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


def test_record_creates_missing_directories_with_its_first_answer(tmp_path):
    store = tmp_path / "not_yet" / "nor_this" / "store.jsonl"
    inner = CountingEcho(PARAMS)
    recorder = RecordTransport(inner, str(store))
    assert not store.parent.parent.exists()
    answer = recorder.query("alpha")
    recorder.close()
    assert inner.asked == Counter({query_key("alpha", PARAMS): 1})
    assert ReplayTransport(str(store), PARAMS).query("alpha") == answer


def test_a_store_that_cannot_be_opened_fails_before_any_inner_query(tmp_path):
    blocker = tmp_path / "out.txt"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    inner = CountingEcho(PARAMS)
    recorder = RecordTransport(inner, str(blocker / "s.jsonl"))
    for _ in range(2):
        with pytest.raises(OSError):
            recorder.query("alpha")
    recorder.close()
    assert inner.asked == Counter()


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
    store.write_text(
        store_record("p", "r") + '{"key": "0f3a", "resp\n' + store_record("q", "s"),
        encoding="utf-8",
    )
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


@pytest.mark.parametrize("content", [None, 7, ["a"]])
def test_live_content_that_is_not_text_is_not_recorded(tmp_path, monkeypatch, content):
    answer = {"choices": [{"message": {"content": content}}]}
    monkeypatch.setattr(
        requests.Session, "post", staticmethod(lambda url, **kwargs: FakeResponse(answer))
    )
    monkeypatch.setenv("FAKE_API_KEY_VAR", "k")
    store = tmp_path / "s.jsonl"
    store.write_text(json.dumps({"key": "k0", "model": "gpt-4o", "response": "r"}) + "\n")
    before = store.read_bytes()
    live = LiveTransport(PARAMS, "https://example.invalid", "FAKE_API_KEY_VAR")
    recorder = RecordTransport(live, str(store))
    with pytest.raises(TransportError, match="shape"):
        recorder.query("ping")
    recorder.close()
    assert store.read_bytes() == before
    assert ReplayTransport(str(store), PARAMS)._responses == {"k0": "r"}


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


def test_memo_without_a_store_asks_each_key_once_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inner = CountingEcho(PARAMS, fail={"flaky"})
    memo = RecordTransport(inner)
    sent = [(f"prompt {i % 5}", i % 2) for i in range(30)]

    def ask_all(offset):
        rotated = sent[offset:] + sent[:offset]
        return sorted(zip(rotated, (memo.query(p, a) for p, a in rotated)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            answers = list(pool.map(ask_all, range(6)))
    finally:
        sys.setswitchinterval(interval)
    assert all(a == answers[0] for a in answers)
    assert answers[0] == sorted((q, EchoTransport(PARAMS).query(*q)) for q in sent)
    assert inner.asked == Counter({query_key(p, PARAMS, a): 1 for p, a in sent})
    assert memo._asking == {}
    for _ in range(2):  # a failed query is not remembered
        with pytest.raises(TransportError):
            memo.query("flaky")
    assert inner.asked[query_key("flaky", PARAMS)] == 2
    memo.close()
    assert list(tmp_path.iterdir()) == []


def serve(statuses, answer=lambda prompt: "pong"):
    """A loopback chat endpoint answering each POST with the next of
    ``statuses`` (the last one repeats), 503s and 500s with
    ``Retry-After: 0``, and a 200 with ``answer`` of the prompt. Returns the
    server, its endpoint URL, and the list of statuses sent so far; the
    caller shuts the server down."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    sent = []
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            with lock:
                status = statuses[min(len(sent), len(statuses) - 1)]
                sent.append(status)
            body = b"{}"
            if status == 200:
                content = answer(request["messages"][0]["content"])
                body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
            self.send_response(status)
            if status != 200:
                self.send_header("Retry-After", "0")
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions", sent


@pytest.fixture
def no_backoff(monkeypatch):
    """The live transport's retry policy without its waits between tries."""
    from fundflow import transport

    immediate = {**transport.RETRY, "backoff_factor": 0, "backoff_jitter": 0}
    monkeypatch.setattr(transport, "RETRY", immediate)
    monkeypatch.setenv("FAKE_API_KEY_VAR", "k")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    return immediate


def test_live_transport_retries_until_the_endpoint_answers(no_backoff):
    server, endpoint, sent = serve([503, 503, 200])
    live = LiveTransport(PARAMS, endpoint, "FAKE_API_KEY_VAR")
    try:
        assert live.query("ping") == "pong"
    finally:
        live.close()
        server.shutdown()
        server.server_close()
    assert sent == [503, 503, 200]


def test_live_transport_gives_up_after_its_bounded_retries(no_backoff):
    server, endpoint, sent = serve([500])
    live = LiveTransport(PARAMS, endpoint, "FAKE_API_KEY_VAR")
    try:
        with pytest.raises(TransportError, match="500"):
            live.query("ping")
    finally:
        live.close()
        server.shutdown()
        server.server_close()
    assert sent == [500] * (1 + no_backoff["status"])


@pytest.fixture
def failed_connections(monkeypatch):
    """The list of errors that urllib3's next connections raise, one each,
    before it connects as usual."""
    from urllib3.connection import HTTPConnection

    connect, errors = HTTPConnection._new_conn, []

    def new_conn(conn):
        if errors:
            raise errors.pop(0)
        return connect(conn)

    monkeypatch.setattr(HTTPConnection, "_new_conn", new_conn)
    return errors


def test_live_retries_are_shared_by_every_kind_of_failure(no_backoff, failed_connections):
    """A failed connection and then 503s: three retries in all, so the
    endpoint sees three requests after the failed connection."""
    from urllib3.exceptions import NewConnectionError

    failed_connections.append(NewConnectionError(None, "connection refused"))
    server, endpoint, sent = serve([503])
    live = LiveTransport(PARAMS, endpoint, "FAKE_API_KEY_VAR")
    try:
        with pytest.raises(TransportError, match="503"):
            live.query("ping")
    finally:
        live.close()
        server.shutdown()
        server.server_close()
    assert failed_connections == [] and sent == [503] * 3


def test_live_transport_does_not_resend_after_a_tls_failure(no_backoff, failed_connections):
    """A failure that is neither a connection's nor a status's (here TLS)
    is not retried."""
    import ssl

    failed_connections.extend([ssl.SSLError("certificate verify failed")] * 2)
    server, endpoint, sent = serve([200])
    live = LiveTransport(PARAMS, endpoint, "FAKE_API_KEY_VAR")
    try:
        with pytest.raises(TransportError, match="certificate verify failed"):
            live.query("ping")
    finally:
        live.close()
        server.shutdown()
        server.server_close()
    assert len(failed_connections) == 1 and sent == []


def test_live_retry_policy_never_resends_an_unanswered_request():
    """The policy checked is the one mounted on the session, for both schemes."""
    live = LiveTransport(PARAMS, "https://example.invalid", "FAKE_API_KEY_VAR")
    live.connections = 3
    try:
        mounted = [live.session.get_adapter(f"{s}://example.invalid") for s in ("http", "https")]
    finally:
        live.close()
    for retry in (adapter.max_retries for adapter in mounted):
        assert retry.read == 0
        assert "POST" in retry.allowed_methods
        assert set(retry.status_forcelist) == {429, 500, 502, 503, 504}
        assert retry.respect_retry_after_header and retry.retry_after_max <= 60


def test_record_batch_over_loopback_replays_byte_for_byte(tmp_path, no_backoff, capsys):
    """A record batch asks the endpoint once per distinct query, into a store
    whose directories do not exist yet, and replaying that store rewrites
    every artifact byte for byte."""
    scripted = ScriptedTransport(PARAMS, ADVERSARIAL_ROWS)
    server, endpoint, sent = serve([200], scripted.query)
    batch = tmp_path / "contracts"
    batch.mkdir()
    (batch / "c_adv.txt").write_text(FIXTURE_TEXT, encoding="utf-8")
    (batch / "c_ben.txt").write_text(BENIGN_TEXT, encoding="utf-8")
    store = tmp_path / "stores" / "run1" / "store.jsonl"
    common = ["detect", "-i", str(batch), "--store", str(store), "--concurrency", "2"]
    try:
        recorded = main(
            [*common, "-o", str(tmp_path / "rec"), "--transport", "record",
             "--endpoint", endpoint, "--api-key-env", "FAKE_API_KEY_VAR"]
        )
    finally:
        server.shutdown()
        server.server_close()
    assert recorded == 3
    assert len(store.read_text(encoding="utf-8").splitlines()) == len(sent) > 0
    assert main([*common, "-o", str(tmp_path / "rep"), "--transport", "replay"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == out[2:] and len(out) == 4
    for cid in ("c_adv", "c_ben"):
        for name in (*STATIC_NAMES, *MODEL_NAMES):
            rec = (tmp_path / "rec" / cid / name).read_bytes()
            assert rec == (tmp_path / "rep" / cid / name).read_bytes(), (cid, name)
