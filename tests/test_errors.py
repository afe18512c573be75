"""Refusals survive pickle and copy with their type, text and fields,
including those whose __init__ takes other arguments than their message."""

import copy
import pickle

from tropspan import (
    EnumerationBudgetExceeded,
    SpectralConditionViolated,
    TropicalError,
)


class PlainRefusal(TropicalError):
    pass


def test_refusals_survive_pickle_copy_and_deepcopy():
    # the first two used to raise TypeError: rebuilding called __init__(message)
    cases = ((SpectralConditionViolated(2, 7), {"vertex": 2, "weight": 7}),
             (EnumerationBudgetExceeded("more than 5 selections", visited=5),
              {"visited": 5}),
             (PlainRefusal("plain text"), {}))
    for refusal, fields in cases:
        rebuilt = [pickle.loads(pickle.dumps(refusal, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in (*rebuilt, copy.copy(refusal), copy.deepcopy(refusal)):
            assert type(copied) is type(refusal)
            assert str(copied) == str(refusal)
            assert {name: getattr(copied, name) for name in fields} == fields
