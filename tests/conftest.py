from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

import crossband as cb


@pytest.fixture(scope="session")
def grid():
    return cb.AngularGrid(step_deg=1.0)


@pytest.fixture(scope="session")
def gpp3_10():
    return cb.Gpp3Pattern(hpbw_deg=10.0, a_max_db=30.0)


@pytest.fixture(scope="session")
def ula4():
    return cb.UlaPattern(n_elements=4)


@pytest.fixture(scope="session")
def ula8():
    return cb.UlaPattern(n_elements=8)


def _assert_frozen(array):
    """Neither ``array`` nor any array along its base chain can be made writeable."""
    view = array
    while isinstance(view, np.ndarray):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view.flags.writeable = True
        view = view.base
    with pytest.raises(ValueError):
        array[0] = -5.0


@pytest.fixture(scope="session")
def assert_frozen():
    return _assert_frozen


def _assert_copies_frozen(obj, *names):
    """A copy, a deep copy and a pickle round trip of ``obj`` hold frozen, byte-equal arrays."""
    for round_trip in (copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))):
        twin = round_trip(obj)
        for name in names:
            _assert_frozen(getattr(twin, name))
            assert getattr(twin, name).tobytes() == getattr(obj, name).tobytes()


@pytest.fixture(scope="session")
def assert_copies_frozen():
    return _assert_copies_frozen
