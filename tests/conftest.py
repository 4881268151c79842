import json
from pathlib import Path

import pytest

from conefix.instances import instance_a, instance_b, instance_c, instance_d
from conefix.oracle import generate_twu_corpus, generate_tz_corpus, random_finite_instance

import numpy as np

TZ_SEED = 1021
TWU_SEED = 2042
PLAIN_SEED = 77

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_doc(name: str) -> dict:
    """A committed instance file from ``fixtures/``, as a fresh dict to edit."""
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


@pytest.fixture
def space_a():
    return instance_a()


@pytest.fixture
def space_b():
    return instance_b()


@pytest.fixture
def space_c():
    return instance_c()


@pytest.fixture
def fin_d():
    return instance_d()


@pytest.fixture(scope="session")
def tz_corpus():
    """100 finite instances exhaustively satisfying TZ(a, b, c) for
    randomized dyadic constants (shared across the suite)."""
    return generate_tz_corpus(100, seed=TZ_SEED)


@pytest.fixture(scope="session")
def twu_corpus():
    return generate_twu_corpus(20, seed=TWU_SEED)


@pytest.fixture(scope="session")
def plain_corpus():
    rng = np.random.default_rng(PLAIN_SEED)
    return [random_finite_instance(rng) for _ in range(20)]
