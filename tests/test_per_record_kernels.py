"""Each per-record kernel equals its definition.

The hot per-record hashes and conversions are written for speed — a head
absorbed once, one loop per partitioner, a C conversion of an all-``int``
column — and each is held here to the plain computation it replaces:
``stable_hash``/``stable_uniform`` on the concatenated parts, ``shard_of``
per record, ``stable_digest`` for a derived uid, a per-value loop for a
float64 column.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.records import DataRecord
from repro.llm.models import DEFAULT_MODEL
from repro.llm.simulated import SimulatedLLM
from repro.sem.batch import RecordBatch, _exact_float_column
from repro.sem.shard import PARTITIONERS, partition_records, shard_of
from repro.utils.hashing import StablePrefix, stable_digest, stable_hash, stable_uniform
from tests.test_utils_hashing import _PARTS

# -- StablePrefix.child -------------------------------------------------------


@given(_PARTS, _PARTS, _PARTS)
def test_child_extends_the_head(head, more, tail):
    child = StablePrefix(*head).child(*more)
    assert child.hash(*tail) == stable_hash(*head, *more, *tail)
    assert child.uniform(*tail) == stable_uniform(*head, *more, *tail)


def test_child_leaves_its_parent_as_it_was():
    parent = StablePrefix("shard")
    parent.child("a").child("b")
    assert parent.hash("u1") == stable_hash("shard", "u1")
    assert StablePrefix().child().hash("x") == stable_hash("x")


# -- partition_records == shard_of per record ---------------------------------


def _items(uids: list[str], gap: int) -> list[tuple[int, DataRecord]]:
    return [
        (index * gap, DataRecord({"text": "t"}, uid=uid)) for index, uid in enumerate(uids)
    ]


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@given(
    uids=st.lists(st.text(alphabet="u1'\"\x1f.", max_size=5), max_size=30),
    n_shards=st.integers(min_value=1, max_value=9),
    gap=st.integers(min_value=1, max_value=3),
)
def test_partition_records_places_each_item_where_shard_of_says(
    partitioner, uids, n_shards, gap
):
    items = _items(uids, gap)
    expected: list[list] = [[] for _ in range(n_shards)]
    for index, item in enumerate(items):
        expected[shard_of(item[1].uid, index, len(items), n_shards, partitioner)].append(item)
    assert partition_records(items, n_shards, partitioner) == expected


# -- DataRecord.derive: the uid suffix is a stable_digest ---------------------

_NAMES = st.lists(st.text(alphabet="ab'\x1f", min_size=1, max_size=3), max_size=3)


@given(st.text(alphabet="u1'\"\x1f.", max_size=6), _NAMES, _NAMES)
def test_derived_uid_suffix_is_the_shape_digest(uid, added, dropped):
    child = DataRecord({"a": 1}, uid=uid).derive({name: 0 for name in added}, drop=dropped)
    digest = stable_digest(
        uid, tuple(sorted(dict.fromkeys(added))), tuple(sorted(set(dropped)))
    )
    assert child.uid == f"{uid}.{digest[:6]}"


# -- _exact_float_column == the per-value loop --------------------------------

_BOUND = 2**53


def _per_value(values: list, literal) -> list[float] | None:
    """The definition: every present value a non-bool int or float, ints
    within +-2**53; NULL (None or NaN) reads NaN."""
    if isinstance(literal, bool) or not isinstance(literal, (int, float)):
        return None
    if isinstance(literal, int) and abs(literal) > _BOUND:
        return None
    floats = []
    for value in values:
        if value is None or (isinstance(value, float) and math.isnan(value)):
            floats.append(math.nan)
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        elif isinstance(value, int) and abs(value) > _BOUND:
            return None
        else:
            floats.append(float(value))
    return floats


def _kernel(values: list, literal) -> np.ndarray | None:
    batch = RecordBatch([DataRecord({"v": value}, uid=f"r{i}") for i, value in enumerate(values)])
    return _exact_float_column(batch.column("v"), batch.validity("v"), literal)


def _assert_same(values: list, literal=1) -> None:
    expected, got = _per_value(values, literal), _kernel(values, literal)
    if expected is None:
        assert got is None
    else:
        assert got is not None and got.dtype == np.float64
        assert np.array_equal(got, np.array(expected, dtype=float), equal_nan=True)


_EDGE_INTS = st.sampled_from(
    [0, 1, -1, _BOUND - 1, _BOUND, _BOUND + 1, -_BOUND, -_BOUND - 1, 2**63, -(2**70)]
)
_INTS = st.one_of(_EDGE_INTS, st.integers())


@pytest.mark.parametrize(
    "values",
    [
        [_BOUND, -_BOUND, 3],
        [_BOUND + 1, 2],
        [1, -_BOUND - 1],
        [_BOUND, None],
        [_BOUND, math.nan],
        [_BOUND, True],
        [False, 1],
        [1, 2.5],
        [],
    ],
)
def test_bounds_and_mixed_columns(values):
    _assert_same(values)


@given(st.lists(_INTS, max_size=12))
def test_int_columns_match_the_loop(values):
    _assert_same(values)


@given(
    st.lists(
        st.one_of(_INTS, st.none(), st.just(math.nan), st.booleans(), st.floats(allow_nan=False)),
        max_size=12,
    ),
    st.one_of(_EDGE_INTS, st.floats(allow_nan=False), st.booleans()),
)
def test_mixed_columns_match_the_loop(values, literal):
    _assert_same(values, literal)


# -- the LLM noise draw: one head per noise key -------------------------------


def test_noise_heads_draw_the_plain_stable_uniform():
    seed = 11
    llm = SimulatedLLM(seed=seed)
    call = llm._prepared("filter", "Is the filing 'urgent'?", DEFAULT_MODEL)
    # Keys that differ only by a quote or by the part separator.
    keys = ("urgent'", 'urgent"', "urgent\x1f", "urgent")
    difficulty = 0.95
    probability = min(
        0.95, call.card.error_rate("filter") * 2.0 * difficulty * difficulty + difficulty - 0.7
    )
    outcomes = set()
    for index in range(64):
        uid = f"doc-{index}"
        for key in keys:  # interleaved: each key keeps its own head
            draw = stable_uniform(seed, "llm-noise", call.card.name, "filter", key, uid)
            erred = llm._errs(call, key, uid, difficulty)
            assert erred == (draw < probability)
            assert call.noise_heads[key].uniform(uid) == draw
            outcomes.add(erred)
    assert outcomes == {True, False}
    assert set(call.noise_heads) == set(keys)
