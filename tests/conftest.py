"""Session fixtures shared by the test modules."""

import pytest


@pytest.fixture(scope="session")
def property_outcome():
    """Run each property runner of ``test_properties.py`` at most once per
    session: ``test_properties.py`` and acceptance criterion 7 grade the
    same runners. Returns what the runner returned, or raises the
    AssertionError it raised."""
    outcomes = {}

    def outcome(runner):
        if runner not in outcomes:
            try:
                outcomes[runner] = (runner(), None)
            except AssertionError as exc:
                outcomes[runner] = (None, exc)
        value, exc = outcomes[runner]
        if exc is not None:
            raise exc
        return value

    return outcome
