"""Every toolkit error survives a pickle round trip: a batch's static halves
run in worker processes, and their errors reach the caller pickled."""

import pickle

import pytest

from fundflow import errors
from fundflow.errors import FundflowError, ReplayMiss


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


EVERY_ERROR = sorted({FundflowError, *_subclasses(FundflowError)}, key=lambda c: c.__name__)


def example(cls):
    if cls is ReplayMiss:
        return ReplayMiss(key="k", context="c")
    return cls("what went wrong")


def test_every_error_class_is_covered():
    defined = {
        value
        for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, FundflowError)
    }
    assert defined <= set(EVERY_ERROR)


@pytest.mark.parametrize("cls", EVERY_ERROR, ids=lambda c: c.__name__)
def test_a_pickle_round_trip_keeps_type_message_and_attributes(cls):
    error = example(cls)
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is cls
    assert str(again) == str(error)
    assert again.args == error.args
    assert vars(again) == vars(error)


@pytest.mark.parametrize(
    "context, message",
    [("c", "no stored response for key k (c)"), ("", "no stored response for key k")],
)
def test_replay_miss_keeps_its_key_and_message(context, message):
    again = pickle.loads(pickle.dumps(ReplayMiss(key="k", context=context)))
    assert (again.key, again.context, str(again)) == ("k", context, message)
