from __future__ import annotations

import inspect
import json
import pathlib

import numpy as np
import pytest

import flowtab.algorithms
from flowtab.generator import GeneratorConfig, generate_arrays
from flowtab.model import load_model

REPO = pathlib.Path(__file__).resolve().parents[1]
MODELS = REPO / "models"


@pytest.fixture(scope="session")
def toy_model():
    return load_model(str(MODELS / "toy_twopoint.json"))


@pytest.fixture(scope="session")
def heavytail_model():
    return load_model(str(MODELS / "example_heavytail.json"))


@pytest.fixture(scope="session")
def toy_document() -> dict:
    with open(MODELS / "toy_twopoint.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def toy_population() -> tuple[np.ndarray, np.ndarray]:
    """Exact two-point population: 500 one-packet flows of 100 B and
    500 ten-packet flows of 1000 B."""
    lengths = np.array([1] * 500 + [10] * 500, dtype=np.int64)
    sizes = np.array([100] * 500 + [1000] * 500, dtype=np.int64)
    return lengths, sizes


@pytest.fixture(scope="session")
def ht_population(heavytail_model):
    """Memoized million-flow populations of the heavy-tail model, shared
    between the statistical tests and the acceptance suite."""
    cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def get(seed: int, count: int = 10 ** 6) -> tuple[np.ndarray, np.ndarray]:
        key = (seed, count)
        if key not in cache:
            cache[key] = generate_arrays(
                heavytail_model, GeneratorConfig(seed=seed, flow_count=count)
            )
        return cache[key]

    return get


@pytest.fixture
def mutate(monkeypatch):
    """mutate(name, old, new) replaces the function ``name`` of
    flowtab.algorithms, for the test, by its source with the text ``old``,
    which must occur there exactly once, replaced by ``new``."""
    def apply(name: str, old: str, new: str) -> None:
        source = inspect.getsource(getattr(flowtab.algorithms, name))
        assert source.count(old) == 1, (name, old)
        namespace = dict(vars(flowtab.algorithms))
        exec(source.replace(old, new), namespace)
        monkeypatch.setattr(flowtab.algorithms, name, namespace[name])
    return apply
