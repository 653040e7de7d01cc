import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nsplab import (FluidParams, build_radial_grid, make_profile,
                    solve_steady_monotone)


@pytest.fixture(scope="session")
def shell12():
    return build_radial_grid(1.0, 2.0, 256)


@pytest.fixture(scope="session")
def shell16():
    return build_radial_grid(1.0, 16.0, 1000)


@pytest.fixture(scope="session")
def params_gamma2():
    return FluidParams(gamma=2.0, mu=0.5, lambda_=0.0, c_star=1.0)


@pytest.fixture(scope="session")
def steady_bump_gamma2(shell16):
    profile = make_profile("admissible_bump", 1.0, 0.5, shell16)
    return solve_steady_monotone(2.0, profile)


@pytest.fixture(scope="session")
def steady_flat_gamma2(shell16):
    profile = make_profile("constant", 1.0, 0.0, shell16)
    return solve_steady_monotone(2.0, profile)
