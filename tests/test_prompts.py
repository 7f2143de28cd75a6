import pytest

from fundflow.description import (
    ContractDescription,
    chunk_flat_text,
    description_from_json,
    render_flat_text,
)
from fundflow.indicators import Indicators
from fundflow.prompts import (
    AnalysisBundle,
    FunctionSummary,
    HINT_ADVERSARIAL,
    HINT_BENIGN,
    PROBE_KINDS,
    UnknownFunction,
    _asset,
    build_stage1_prompts,
    build_stage2_context,
    build_stage2_prompt,
    ordinal,
)

from conftest import FIXTURE_TEXT


def make_bundle():
    return AnalysisBundle(
        contract_summary="Routes value through one guarded call.",
        functions=[
            FunctionSummary("unknownfffcf3a1", "forwards to a lender", True, "origin gate"),
            FunctionSummary("withdrawAll", "pays out storage", False, "plain payout"),
        ],
        unknown_functions=[
            UnknownFunction(
                "unknownfffcf3a1", "param1", "calls stor_5.flashLoan", "origin gate"
            )
        ],
        indicators=Indicators(
            external_call_count=3,
            external_call_ratio=1 / 3,
            unknown_fn_count=1,
            unknown_fn_ratio=0.5,
            bot_fn_count=0,
            bot_fn_ratio=0.0,
            transfers_in_unknown_fns=True,
        ),
        paths=[
            "a --[]--> transfer",
            "b --[c1]--> stor_1 --[]--> transfer",
            "c --[]--> flashLoan",
        ],
    )


def test_general_context_carries_indicators():
    prompt = build_stage2_prompt("g_normal", make_bundle())
    assert "=== Contract-Level Information ===" in prompt
    assert "Contract Summary: Routes value through one guarded call." in prompt
    assert "Total external calls: 3," in prompt
    assert "External call ratio: 0.3333" in prompt
    assert "Unknown function count: 1," in prompt
    assert "Unknown function ratio: 0.5000" in prompt
    assert "Transfers in unknown functions: Yes" in prompt
    assert "Bot function count: 0," in prompt
    assert "Hint:" not in prompt


def test_normal_prompts_end_with_options_line():
    for kind in ("g_normal", "s_normal"):
        prompt = build_stage2_prompt(kind, make_bundle())
        assert prompt.endswith("(A) adversarial (B) suspicion (C) uncertain (D) benign\n")


def test_misleading_hints_are_the_last_line():
    cases = {
        "g_mislead_adv": HINT_ADVERSARIAL,
        "s_mislead_adv": HINT_ADVERSARIAL,
        "g_mislead_be": HINT_BENIGN,
        "s_mislead_be": HINT_BENIGN,
    }
    for kind, hint in cases.items():
        prompt = build_stage2_prompt(kind, make_bundle())
        assert prompt.splitlines()[-1] == hint
        assert prompt.count("Hint:") == 1


def test_hint_strings_exact():
    assert HINT_ADVERSARIAL == "Hint: I think the answer should be (A) adversarial."
    assert HINT_BENIGN == "Hint: I think the answer should be (D) benign."


def test_specific_context_lists_every_path():
    context = build_stage2_context("s_normal", make_bundle())
    marker = "Fund-Flow Paths (ingress to egress):"
    assert marker in context
    tail = context.split(marker, 1)[1]
    assert "Format: ingress_var --[cond1, cond2]--> var2 --[cond3]--> egress_var" in tail
    for line in make_bundle().paths:
        assert f"\n{line}\n" in tail + "\n"


def test_specific_context_numbers_functions():
    context = build_stage2_context("s_normal", make_bundle())
    assert (
        "- (1st function) unknownfffcf3a1: forwards to a lender, "
        "Suspicious: Yes, Reason: origin gate" in context
    )
    assert "- (2nd function) withdrawAll: pays out storage, Suspicious: No" in context


def test_specific_context_placeholders_fall_back():
    bundle = AnalysisBundle(contract_summary="s", indicators=make_bundle().indicators)
    context = build_stage2_context("s_normal", bundle)
    assert context.count("(none)") == 3  # summaries, unknowns, paths


def test_unknown_probe_kind_rejected():
    with pytest.raises(ValueError):
        build_stage2_prompt("g_sideways", make_bundle())


def test_prompts_are_byte_stable():
    for kind in PROBE_KINDS:
        assert build_stage2_prompt(kind, make_bundle()) == build_stage2_prompt(
            kind, make_bundle()
        )


def test_six_probe_kinds():
    assert PROBE_KINDS == (
        "g_normal",
        "s_normal",
        "g_mislead_adv",
        "g_mislead_be",
        "s_mislead_adv",
        "s_mislead_be",
    )


def test_stage1_prompts():
    desc = chunk_flat_text(FIXTURE_TEXT)
    general, per_function = build_stage1_prompts(desc)
    assert "contract summary:" in general
    assert "function unknownfffcf3a1(param1):" in general
    assert "  it is required that the 1st external call succeeds" in general
    assert len(per_function) == 2
    assert "function unknownfffcf3a1(param1):" in per_function[0]
    assert "function withdrawAll(param1):" not in per_function[0]
    assert "function withdrawAll(param1):" in per_function[1]
    assert "purpose:" in per_function[1]


def test_stage1_prompts_embed_the_rendered_description():
    # the general prompt holds the whole rendered description, each function
    # prompt that function's render; a contract without functions renders
    # as one newline
    for desc in (
        chunk_flat_text(FIXTURE_TEXT),
        description_from_json('{"contract": "empty", "functions": []}'),
    ):
        general, per_function = build_stage1_prompts(desc)
        assert general == _asset("stage1_general.txt").format(
            description=render_flat_text(desc)
        )
        assert per_function == [
            _asset("stage1_function.txt").format(
                function_description=render_flat_text(ContractDescription("", [chunk]))
            )
            for chunk in desc.functions
        ]
    assert render_flat_text(desc) == "\n"


def test_ordinal_suffixes():
    values = {
        1: "1st", 2: "2nd", 3: "3rd", 4: "4th", 11: "11th", 12: "12th",
        13: "13th", 21: "21st", 22: "22nd", 101: "101st", 111: "111th",
    }
    for n, want in values.items():
        assert ordinal(n) == want
