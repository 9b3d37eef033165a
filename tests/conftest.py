import importlib.resources

import numpy as np
import pytest

from priorsweep.blvs import BlvsFamily, Dataset


def synthetic_dataset(m=40, q=5, seed=1234, strong=(0, 2), noise=0.7):
    """Well-conditioned regression data with a couple of strong predictors."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, q))
    beta = np.zeros(q)
    for j in strong:
        beta[j] = 1.5
    y = 0.4 + X @ beta + rng.normal(scale=noise, size=m)
    names = [f"x{j}" for j in range(q)]
    return Dataset(y=y, X=X, names=names)


@pytest.fixture(scope="session")
def small_family():
    return BlvsFamily(synthetic_dataset())


@pytest.fixture(scope="session")
def tiny_family():
    return BlvsFamily(synthetic_dataset(m=25, q=3, seed=77, strong=(1,)))


@pytest.fixture(scope="session")
def uscrime_path():
    return importlib.resources.files("priorsweep") / "data" / "uscrime.csv"
