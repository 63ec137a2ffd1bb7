"""The package's exception types."""

import pickle

import pytest

from simpop.errors import (
    DivergenceError,
    MissingItemError,
    ParseError,
    SimpopError,
    ValidationError,
)


@pytest.mark.parametrize(
    "error, message",
    [
        (ParseError("malformed model line", 7), "line 7: malformed model line"),
        (ValidationError("duplicate item ids"), "duplicate item ids"),
        (MissingItemError("item 'x' not in model"), "item 'x' not in model"),
        (DivergenceError("objective is not finite", 12, [1.0, 0.5]),
         "objective is not finite (iteration 12)"),
        (DivergenceError("every grid cell failed", None, ("cell",)),
         "every grid cell failed"),
    ],
    ids=["parse", "validation", "missing-item", "fit-divergence", "grid-divergence"],
)
def test_every_error_survives_a_pickle_round_trip(error, message):
    # a process pool sends a worker's error back pickled
    assert str(error) == message
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error) and isinstance(back, SimpopError)
    assert str(back) == message
    for name in ("line_number", "iteration", "trace"):
        assert getattr(back, name, None) == getattr(error, name, None), name
    assert vars(back) == vars(error)
