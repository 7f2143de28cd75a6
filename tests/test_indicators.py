from fundflow.description import ContractDescription, chunk_flat_text
from fundflow.forest import build_forest
from fundflow.indicators import (
    Indicators,
    compute_indicators,
    is_bot_function,
    is_unknown_function,
)

from conftest import FIXTURE_TEXT


def indicators_of(text):
    return compute_indicators(build_forest(chunk_flat_text(text)))


def test_unknown_function_predicate():
    assert is_unknown_function("unknownfffcf3a1")
    assert is_unknown_function("unknown")
    assert not is_unknown_function("withdrawAll")
    assert not is_unknown_function("Unknown")  # lifter names are lowercase


def test_bot_function_predicate():
    assert is_bot_function("setBotProtection")
    assert is_bot_function("bot_check")
    assert is_bot_function("ROBOT")
    assert not is_bot_function("transfer")


def test_fixture_indicators():
    got = indicators_of(FIXTURE_TEXT)
    # one call out of three behavior sentences; one of two functions unnamed
    assert got.external_call_count == 1
    assert abs(got.external_call_ratio - 1 / 3) < 1e-12
    assert got.unknown_fn_count == 1
    assert got.unknown_fn_ratio == 0.5
    assert got.bot_fn_count == 0
    assert got.bot_fn_ratio == 0.0
    assert got.transfers_in_unknown_fns is False


def test_delegate_calls_counted_as_external():
    got = indicators_of(
        "function f(a):\n"
        "it delegates a call to stor_2.impl(a)\n"
        "it triggers the external call to stor_5.run(a)\n"
    )
    assert got.external_call_count == 2
    assert got.external_call_ratio == 1.0


def test_transfer_inside_unknown_function():
    got = indicators_of(
        "function unknownfffcf3a1(a):\nit transfers a wei to caller\n"
    )
    assert got.transfers_in_unknown_fns is True


def test_transfer_like_call_inside_unknown_function():
    got = indicators_of(
        "function unknownaa(a):\nit triggers the external call to stor_1.transferFrom(a)\n"
    )
    assert got.transfers_in_unknown_fns is True


def test_transfer_in_named_function_does_not_count():
    got = indicators_of("function payout(a):\nit transfers a wei to caller\n")
    assert got.transfers_in_unknown_fns is False


def test_non_fund_call_in_unknown_function_does_not_count():
    got = indicators_of(
        "function unknownaa(a):\nit triggers the external call to stor_1.balanceOf(a)\n"
    )
    assert got.transfers_in_unknown_fns is False


def test_empty_description_gives_zero_ratios():
    got = compute_indicators(build_forest(ContractDescription("empty", [])))
    assert got == Indicators(0, 0.0, 0, 0.0, 0, 0.0, False)


def test_conditions_not_in_behavior_denominator():
    got = indicators_of(
        "function f(a):\n"
        "when (a > 0)\n"
        "  it triggers the external call to stor_5.run(a)\n"
    )
    assert got.external_call_ratio == 1.0


def test_function_order_does_not_matter():
    a = indicators_of(
        "function unknownaa(x):\nit transfers x wei to caller\n"
        "function g(y):\nit returns y\n"
    )
    b = indicators_of(
        "function g(y):\nit returns y\n"
        "function unknownaa(x):\nit transfers x wei to caller\n"
    )
    assert a == b
