import inspect
import math
import pickle

import pytest

from dialret import errors

# One instance of every error class, built as the package builds it.
EXAMPLES = {
    errors.DialretError: errors.DialretError("something failed"),
    errors.ConfigError: errors.ConfigError("invalid config", ["a: bad", "b: missing"]),
    errors.DataError: errors.DataError("malformed record"),
    errors.CandidatePoolError: errors.CandidatePoolError("too few responses"),
    errors.NumericError: errors.NumericError("non-finite scores"),
    errors.DivergenceError: errors.DivergenceError(3, math.nan),
    errors.NonFiniteParameterError: errors.NonFiniteParameterError("bilinear"),
}


def test_every_error_class_has_an_example():
    defined = {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.DialretError)
    }
    assert defined == set(EXAMPLES)


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_error_survives_pickle(cls, protocol):
    error = EXAMPLES[cls]
    copy = pickle.loads(pickle.dumps(error, protocol))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    # repr compares the attributes with NaN equal to itself.
    assert repr(vars(copy)) == repr(vars(error))
