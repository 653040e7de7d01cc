import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nsplab import RadialGrid, make_profile, solve_steady_monotone
from oracles import STEADY, gas


@pytest.fixture(scope="session")
def shell12():
    return RadialGrid(1.0, 2.0, 256)


@pytest.fixture(scope="session")
def shell16():
    return RadialGrid(1.0, 16.0, 1000)


@pytest.fixture(scope="session")
def params_gamma2():
    return gas(2.0)


@pytest.fixture(scope="session")
def steady_bump_gamma2(shell16, params_gamma2):
    profile = make_profile("admissible_bump", params_gamma2, 0.5, shell16)
    return solve_steady_monotone(profile, **STEADY)


@pytest.fixture(scope="session")
def steady_flat_gamma2(shell16, params_gamma2):
    profile = make_profile("constant", params_gamma2, 0.0, shell16)
    return solve_steady_monotone(profile, **STEADY)
