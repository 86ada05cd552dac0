from __future__ import annotations

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
