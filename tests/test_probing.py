import threading

import pytest
from hypothesis import given, strategies as st

from fundflow.description import chunk_flat_text
from fundflow.errors import MalformedResponse, ReplayMiss, RetryExhausted
from fundflow.probing import (
    LETTER_TO_LABEL,
    ProbeDistribution,
    parse_ranked_response,
    query_pool,
    run_stage1,
    run_stage2,
)
from fundflow.prompts import PROBE_KINDS
from fundflow.transport import RecordTransport, ReplayTransport, TransportParams

from conftest import ADVERSARIAL_ROWS, FIXTURE_TEXT, ScriptedTransport, make_bundle_rows

PARAMS = TransportParams(model="gpt-4o")


def test_parse_case_study_row():
    text = (
        "Reasoning: short.\n"
        "G1: B\nP1: 60%\nG2: A\nP2: 25%\nG3: C\nP3: 10%\nG4: D\nP4: 5%\n"
    )
    dist = parse_ranked_response(text, probe="g_normal")
    assert dist.probe == "g_normal"
    assert dist.ranked == (
        ("suspicion", 60.0),
        ("adversarial", 25.0),
        ("uncertain", 10.0),
        ("benign", 5.0),
    )


def test_parse_tolerates_decoration():
    text = (
        "Step by step: the flow is gated.\n"
        "g1: (B) suspicion\n p1: 60 percent\n"
        "G2 : (A)\nP2: 25%\n"
        "G3. C\nP3. 10\n"
        "G4: d\nP4: 5%\nDone.\n"
    )
    dist = parse_ranked_response(text)
    assert [label for label, _ in dist.ranked] == [
        "suspicion",
        "adversarial",
        "uncertain",
        "benign",
    ]


def test_missing_slot_rejected():
    text = "G1: A\nP1: 70\nG2: B\nP2: 20\nG3: C\nP3: 10\nG4: D\n"
    with pytest.raises(MalformedResponse):
        parse_ranked_response(text)


def test_duplicate_letters_rejected():
    text = "G1: A\nP1: 70\nG2: A\nP2: 20\nG3: C\nP3: 7\nG4: D\nP4: 3\n"
    with pytest.raises(MalformedResponse):
        parse_ranked_response(text)


def test_non_letter_guess_rejected():
    text = "G1: E\nP1: 70\nG2: B\nP2: 20\nG3: C\nP3: 7\nG4: D\nP4: 3\n"
    with pytest.raises(MalformedResponse):
        parse_ranked_response(text)


def test_confidence_without_a_number_rejected():
    text = "G1: A\nP1: 70\nG2: B\nP2: most\nG3: C\nP3: 7\nG4: D\nP4: 3\n"
    with pytest.raises(MalformedResponse) as raised:
        parse_ranked_response(text)
    assert str(raised.value) == "P2 does not carry a number: 'most'"


@pytest.mark.parametrize("confs", [(50, 20, 7, 3), (70, 30, 15, 5)])
def test_sum_outside_band_rejected(confs):
    lines = []
    for i, (letter, conf) in enumerate(zip("ABCD", confs), start=1):
        lines += [f"G{i}: {letter}", f"P{i}: {conf}"]
    with pytest.raises(MalformedResponse):
        parse_ranked_response("\n".join(lines))


def test_sum_99_rescaled_to_exactly_100():
    text = "G1: B\nP1: 59\nG2: A\nP2: 25\nG3: C\nP3: 10\nG4: D\nP4: 5\n"
    dist = parse_ranked_response(text)
    confs = [c for _, c in dist.ranked]
    assert sum(confs) == pytest.approx(100.0, abs=1e-9)
    assert confs[0] == pytest.approx(5900 / 99, abs=1e-9)


def test_exact_100_not_rescaled():
    text = "G1: B\nP1: 60\nG2: A\nP2: 25\nG3: C\nP3: 10\nG4: D\nP4: 5\n"
    dist = parse_ranked_response(text)
    assert [c for _, c in dist.ranked] == [60.0, 25.0, 10.0, 5.0]


def test_increasing_confidences_rejected():
    text = "G1: A\nP1: 40\nG2: B\nP2: 10\nG3: C\nP3: 30\nG4: D\nP4: 20\n"
    with pytest.raises(MalformedResponse):
        parse_ranked_response(text)


def test_equal_adjacent_confidences_allowed():
    text = "G1: A\nP1: 40\nG2: B\nP2: 30\nG3: C\nP3: 15\nG4: D\nP4: 15\n"
    dist = parse_ranked_response(text)
    assert [c for _, c in dist.ranked] == [40.0, 30.0, 15.0, 15.0]


def test_all_confidence_on_one_label_accepted():
    text = "G1: D\nP1: 100%\nG2: A\nP2: 0%\nG3: B\nP3: 0%\nG4: C\nP4: 0%\n"
    dist = parse_ranked_response(text, probe="g_normal")
    ranked = (("benign", 100.0), ("adversarial", 0.0), ("suspicion", 0.0), ("uncertain", 0.0))
    assert dist.ranked == ranked
    assert ProbeDistribution.from_json(dist.to_json()) == dist


@given(
    st.permutations("ABCD"),
    st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ),
)
def test_format_then_parse_round_trip(letters, raw_confs):
    total = sum(raw_confs)
    confs = sorted((c * 100.0 / total for c in raw_confs), reverse=True)
    lines = []
    for i, (letter, conf) in enumerate(zip(letters, confs), start=1):
        lines += [f"G{i}: {letter}", f"P{i}: {conf}%"]
    dist = parse_ranked_response("\n".join(lines))
    assert [label for label, _ in dist.ranked] == [LETTER_TO_LABEL[x] for x in letters]
    for got, want in zip((c for _, c in dist.ranked), confs):
        assert got == pytest.approx(want, abs=1e-6)


def test_distribution_json_round_trip():
    text = "G1: B\nP1: 60\nG2: A\nP2: 25\nG3: C\nP3: 10\nG4: D\nP4: 5\n"
    dist = parse_ranked_response(text, probe="s_normal")
    assert ProbeDistribution.from_json(dist.to_json()) == dist
    assert dict(dist.ranked)["suspicion"] == 60.0


class FlakyTransport:
    """Malformed until the scheduled attempt, then a fixed good answer."""

    def __init__(self, good_from_attempt):
        self.params = PARAMS
        self.good_from_attempt = good_from_attempt
        self.attempts_seen = []

    def query(self, prompt, attempt=0):
        self.attempts_seen.append(attempt)
        if attempt >= self.good_from_attempt:
            return "G1: A\nP1: 70\nG2: B\nP2: 20\nG3: C\nP3: 7\nG4: D\nP4: 3\n"
        return "gibberish with no slots"


def run_probes(transport, retries=2):
    bundle = make_bundle_rows()
    with query_pool(2) as pool:
        return run_stage2(bundle, transport, retries=retries, pool=pool)


def test_retry_recovers_after_malformed():
    transport = FlakyTransport(good_from_attempt=2)
    result = run_probes(transport, retries=2)
    assert result.failed == []
    assert len(result.distributions) == 6
    assert max(transport.attempts_seen) == 2


def test_retry_exhaustion_drops_probe_only():
    class HalfBroken(ScriptedTransport):
        def query(self, prompt, attempt=0):
            if prompt.rstrip().endswith("(A) adversarial."):
                return "never parseable"
            return super().query(prompt, attempt)

    transport = HalfBroken(PARAMS, ADVERSARIAL_ROWS)
    result = run_probes(transport, retries=1)
    assert sorted(result.failed) == ["g_mislead_adv", "s_mislead_adv"]
    assert sorted(d.probe for d in result.distributions) == sorted(
        k for k in PROBE_KINDS if not k.endswith("mislead_adv")
    )


@pytest.mark.parametrize("retries", [0, 1, 2])
def test_a_probe_that_never_parses_is_asked_retries_plus_one_times(retries):
    """Each attempt is a query, and a paid one on a live endpoint: a probe
    whose answer never parses is asked once at each attempt from 0 to
    ``retries``, and then dropped."""
    asked = []

    class NeverParses:
        params = PARAMS

        def query(self, prompt, attempt=0):
            asked.append((prompt, attempt))
            return "never parseable"

    result = run_probes(NeverParses(), retries=retries)
    assert result.distributions == [] and result.failed == list(PROBE_KINDS)
    prompts = {prompt for prompt, _ in asked}
    assert len(prompts) == len(PROBE_KINDS)
    assert sorted(asked) == sorted((p, a) for p in prompts for a in range(retries + 1))


def test_replay_miss_names_the_probe():
    class MissingStore:
        params = PARAMS

        def query(self, prompt, attempt=0):
            raise ReplayMiss(key="deadbeef")

    with pytest.raises(ReplayMiss, match="probe g_normal"):
        from fundflow.probing import _run_probe

        _run_probe("g_normal", "prompt", MissingStore(), retries=2)


def test_retry_exhausted_message_names_probe():
    class AlwaysBad:
        params = PARAMS

        def query(self, prompt, attempt=0):
            return "nope"

    from fundflow.probing import _run_probe

    with pytest.raises(RetryExhausted, match="probe s_mislead_be"):
        _run_probe("s_mislead_be", "prompt", AlwaysBad(), retries=1)


def test_stage2_probe_labels_match_kinds():
    transport = ScriptedTransport(PARAMS, ADVERSARIAL_ROWS)
    result = run_probes(transport)
    assert [d.probe for d in result.distributions] == list(PROBE_KINDS)
    by_kind = {d.probe: d for d in result.distributions}
    assert by_kind["s_mislead_adv"].ranked[0] == ("adversarial", 80.0)
    assert by_kind["g_normal"].ranked[0] == ("suspicion", 60.0)


def test_stage1_parses_summaries():
    desc = chunk_flat_text(FIXTURE_TEXT)
    transport = ScriptedTransport(PARAMS, ADVERSARIAL_ROWS)
    result = run_stage1(desc, transport)
    assert result.contract_summary == "Moves funds through guarded external calls."
    assert [f.name for f in result.functions] == ["unknownfffcf3a1", "withdrawAll"]
    assert result.functions[0].suspicious is True
    assert result.functions[0].purpose == "handles one step of the flow."
    assert result.functions[0].reason.startswith("execution is gated")


def test_stage1_function_fallbacks():
    from fundflow.probing import _parse_stage1_function

    parsed = _parse_stage1_function("f", "no structure at all")
    assert parsed.purpose == "no structure at all"
    assert parsed.suspicious is False
    assert parsed.reason == ""


def test_empty_slot_does_not_take_the_next_slots_line():
    from fundflow.probing import _parse_stage1_function

    text = "purpose:\nsuspicious: Yes\nreason: r"
    parsed = _parse_stage1_function("f", text)
    assert parsed.purpose == text  # the fallback for a missing purpose
    assert parsed.suspicious is True
    assert parsed.reason == "r"


def test_slot_value_on_the_next_plain_line_parses():
    from fundflow.probing import _parse_stage1_function

    parsed = _parse_stage1_function("f", "Purpose:\n\n  moves funds \nSuspicious: no\nReason:")
    assert parsed.purpose == "moves funds"
    assert parsed.suspicious is False
    assert parsed.reason == ""


def test_empty_ranked_slot_does_not_take_the_next_slots_line():
    text = "G1:\nP1: 70\nG2: B\nP2: 20\nG3: C\nP3: 10\nG4: D\nP4: 0\n"
    with pytest.raises(MalformedResponse, match="missing G1 or P1"):
        parse_ranked_response(text)
    dist = parse_ranked_response(text.replace("G1:\n", "G1:\n(A)\n"))
    assert dist.ranked[0] == ("adversarial", 70.0)


def test_empty_ranked_slot_does_not_take_a_following_label():
    """P5 is no slot, but its label is no value either: a blank P4 must not
    read the 5 of "P5"."""
    text = "G1: A\nP1: 60\nG2: B\nP2: 25\nG3: C\nP3: 10\nG4: D\nP4:\nP5: 30%\n"
    with pytest.raises(MalformedResponse, match="missing G4 or P4"):
        parse_ranked_response(text)
    dist = parse_ranked_response(text.replace("P4:\n", "P4:\n5%\n"))
    assert dist.ranked[3] == ("benign", 5.0)


def test_stage1_general_fallback():
    from fundflow.probing import _parse_stage1_general

    assert _parse_stage1_general("  bare text  ") == "bare text"
    assert _parse_stage1_general("contract summary: tidy.") == "tidy."


class OverlapTransport(ScriptedTransport):
    """Scripted answers; the first two calls each wait for the other, so
    they pass only if they are in flight at the same time."""

    def __init__(self, params, rows):
        super().__init__(params, rows)
        self.barrier = threading.Barrier(2, timeout=5)
        self.lock = threading.Lock()
        self.calls = 0
        self.in_flight = 0
        self.max_in_flight = 0

    def query(self, prompt, attempt=0):
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            first_two = self.calls < 2
            self.calls += 1
        try:
            if first_two:
                self.barrier.wait()
            return super().query(prompt, attempt)
        finally:
            with self.lock:
                self.in_flight -= 1


def test_non_replay_stages_overlap_queries():
    desc = chunk_flat_text(FIXTURE_TEXT)
    stage1_transport = OverlapTransport(PARAMS, ADVERSARIAL_ROWS)
    with query_pool(2) as pool:
        stage1 = run_stage1(desc, stage1_transport, pool)
    assert [f.name for f in stage1.functions] == ["unknownfffcf3a1", "withdrawAll"]
    assert stage1_transport.max_in_flight == 2

    stage2_transport = OverlapTransport(PARAMS, ADVERSARIAL_ROWS)
    with query_pool(2) as pool:
        stage2 = run_stage2(make_bundle_rows(), stage2_transport, 2, pool)
    assert [d.probe for d in stage2.distributions] == list(PROBE_KINDS)
    assert stage2_transport.max_in_flight == 2


def test_replay_stages_run_inline(tmp_path, monkeypatch):
    from fundflow import probing

    store = tmp_path / "store.jsonl"
    desc = chunk_flat_text(FIXTURE_TEXT)
    scripted = ScriptedTransport(PARAMS, ADVERSARIAL_ROWS)
    recorder = RecordTransport(scripted, str(store))
    run_stage1(desc, recorder)
    run_stage2(make_bundle_rows(), recorder, 2)

    def no_pool(*args, **kwargs):
        raise AssertionError("a replay stage created a thread pool")

    monkeypatch.setattr(probing, "ThreadPoolExecutor", no_pool)
    main_thread = threading.current_thread()
    seen_threads = set()

    class WatchedReplay(ReplayTransport):
        def query(self, prompt, attempt=0):
            seen_threads.add(threading.current_thread())
            return super().query(prompt, attempt)

    replay = WatchedReplay(str(store), PARAMS)
    stage1 = run_stage1(desc, replay)
    stage2 = run_stage2(make_bundle_rows(), replay, 2)
    assert stage1.contract_summary == "Moves funds through guarded external calls."
    assert [d.probe for d in stage2.distributions] == list(PROBE_KINDS)
    assert seen_threads == {main_thread}
