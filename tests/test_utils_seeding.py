"""Tests for deterministic seeding."""

from hypothesis import given
from hypothesis import strategies as st

from repro.utils.seeding import SeededRng, derive_seed


def test_derive_seed_deterministic():
    assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)


def test_derive_seed_namespaced():
    assert derive_seed(42, "a") != derive_seed(42, "b")
    assert derive_seed(42, "a") != derive_seed(43, "a")


def test_child_streams_are_independent():
    rng = SeededRng(1)
    a1 = rng.child("a").uniform(0.0, 1.0)
    # Drawing from a sibling stream must not perturb stream "a".
    rng.child("b").uniform(0.0, 1.0)
    a2 = SeededRng(1).child("a").uniform(0.0, 1.0)
    assert a1 == a2


def test_same_seed_same_sequence():
    rng1, rng2 = SeededRng(5), SeededRng(5)
    assert [rng1.uniform(0.0, 1.0) for _ in range(10)] == [rng2.uniform(0.0, 1.0) for _ in range(10)]


def test_shuffle_is_deterministic():
    items1 = list(range(20))
    items2 = list(range(20))
    SeededRng(9).shuffle(items1)
    SeededRng(9).shuffle(items2)
    assert items1 == items2
    assert items1 != list(range(20))


def test_sample_without_replacement():
    sample = SeededRng(3).sample(range(100), 10)
    assert len(sample) == len(set(sample)) == 10


def test_chance_extremes():
    rng = SeededRng(0)
    assert not any(rng.chance(0.0) for _ in range(50))
    assert all(rng.chance(1.0) for _ in range(50))


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
def test_derive_seed_in_range(root, path):
    seed = derive_seed(root, path)
    assert 0 <= seed < 2**63


def test_uniform_within_bounds():
    rng = SeededRng(7)
    for _ in range(100):
        value = rng.uniform(2.0, 3.0)
        assert 2.0 <= value <= 3.0


def test_randint_within_bounds():
    rng = SeededRng(7)
    for _ in range(100):
        assert 1 <= rng.randint(1, 6) <= 6
