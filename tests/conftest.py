"""Fixtures shared by more than one test module."""

import numpy as np
import pytest

from fadenet.fading import FadingModel
from fadenet.topology import Topology


@pytest.fixture
def rician_z_channel():
    # receiver 1 hears both transmitters, receiver 2 only the second;
    # entries in sorted order: (1, 1), (1, 2), (2, 2).  Rician means and
    # a correlated covariance reach eps2, the duality phases and the
    # cross-block MI
    topo = Topology(n_t=2, n_r=2, zeros=frozenset({(2, 1)}))
    cov = np.array(
        [[1.0, 0.3 + 0.1j, 0.2], [0.3 - 0.1j, 1.5, 0.1 + 0.2j], [0.2, 0.1 - 0.2j, 1.0]]
    )
    means = {(1, 1): 1.0 + 0.5j, (1, 2): 0.3 - 0.2j, (2, 2): -0.8j}
    return FadingModel.from_mapping(topo, means=means, covariance=cov)
