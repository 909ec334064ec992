from __future__ import annotations

import numpy as np
import pytest

from affine_kahler.tensors import SpaceConfig


@pytest.fixture(scope="session")
def cfg2() -> SpaceConfig:
    return SpaceConfig(2)


@pytest.fixture(scope="session")
def cfg3() -> SpaceConfig:
    return SpaceConfig(3)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name and returns the shared dict in
    which counts[name] is the number of calls from then on."""
    counts: dict[str, int] = {}

    def install(owner, name: str) -> dict[str, int]:
        original = getattr(owner, name)
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return counts

    return install
