"""Tests for stable hashing."""

from hypothesis import given
from hypothesis import strategies as st

from repro.utils.hashing import (
    PART_SEPARATOR,
    StablePrefix,
    digest_serialized,
    serialize_parts,
    stable_digest,
    stable_hash,
    stable_uniform,
)


def test_stable_hash_is_deterministic():
    assert stable_hash("a", 1, True) == stable_hash("a", 1, True)


def test_stable_hash_differs_on_part_boundaries():
    assert stable_hash("ab", "c") != stable_hash("a", "bc")


def test_stable_hash_differs_on_types():
    assert stable_hash(1) != stable_hash("1")


def test_stable_uniform_range():
    values = [stable_uniform("key", i) for i in range(200)]
    assert all(0.0 <= value < 1.0 for value in values)


def test_stable_uniform_spread():
    values = [stable_uniform("spread", i) for i in range(500)]
    low = sum(1 for value in values if value < 0.5)
    assert 180 < low < 320  # roughly balanced


def test_stable_digest_is_hex_and_short():
    digest = stable_digest("x", 42)
    assert len(digest) == 16
    int(digest, 16)  # parses as hex


@given(st.lists(st.text(), min_size=1, max_size=5))
def test_stable_hash_deterministic_property(parts):
    assert stable_hash(*parts) == stable_hash(*parts)


@given(st.text(), st.text())
def test_stable_uniform_bounds_property(a, b):
    assert 0.0 <= stable_uniform(a, b) < 1.0


def test_known_answers_pin_the_payload_format():
    # Values computed before the helpers were refactored: the payload is the
    # parts' reprs joined by "\x1f", SHA-256, first 16 hex digits / 8 bytes.
    assert stable_digest("gen-cache", "gpt-4o", "filter", "a b", "u'1") == "414417ca4c858493"
    assert stable_hash(0, "llm-noise", ("t", 1), None, 2.5) == 2354446505445392485
    assert stable_digest() == "e3b0c44298fc1c14"


# -- prefix form: defined as equal to the plain call on the concatenated parts --

_PARTS = st.lists(
    st.one_of(
        st.text(),
        st.text(alphabet="a\x1f'\"\\", max_size=6),  # separators and quotes
        st.integers(),
        st.floats(allow_nan=False),
        st.booleans(),
        st.none(),
        st.tuples(st.text(max_size=4), st.integers()),
    ),
    max_size=6,
)


@given(_PARTS)
def test_prefix_form_equals_plain_call_at_every_split(parts):
    for split in range(len(parts) + 1):  # 0 = empty prefix, len = empty tail
        prefix = StablePrefix(*parts[:split])
        tail = parts[split:]
        assert prefix.digest(*tail) == stable_digest(*parts)
        assert prefix.hash(*tail) == stable_hash(*parts)
        assert prefix.uniform(*tail) == stable_uniform(*parts)


def test_prefix_is_reusable_and_keeps_part_boundaries():
    prefix = StablePrefix("gen-cache", "gpt-4o")
    first = prefix.digest("filter", "u1")
    assert prefix.digest("filter", "u2") != first
    assert prefix.digest("filter", "u1") == first  # the copy absorbed the tail, not the prefix
    assert StablePrefix("ab").digest("c") != StablePrefix("a").digest("bc")
    assert StablePrefix("a\x1fb").digest() == stable_digest("a\x1fb")


@given(_PARTS, _PARTS)
def test_serialized_halves_concatenate_to_the_whole(head, tail):
    # What DataRecord.derive relies on: a payload can be assembled from
    # separately serialised runs of parts.
    if head and tail:
        payload = serialize_parts(*head) + PART_SEPARATOR + serialize_parts(*tail)
        assert digest_serialized(payload) == stable_digest(*head, *tail)
    assert digest_serialized(serialize_parts(*head)) == stable_digest(*head)
