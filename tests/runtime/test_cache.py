"""Tests for the canonical cache-key encoding."""

import enum
from dataclasses import dataclass

import pytest

from repro.runtime.cache import encode_key


class _Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class _Spec:
    name: str
    count: int


class TestEncodeKey:
    def test_primitives_and_containers(self):
        assert encode_key(("a", 1, None, True)) == encode_key(("a", 1, None, True))
        assert encode_key((1,)) != encode_key((2,))
        assert encode_key([1, 2]) != encode_key((1, 2))

    def test_enums_encode_by_name_not_identity(self):
        assert encode_key(_Color.RED) == "_Color.RED"
        assert encode_key(_Color.RED) != encode_key(_Color.BLUE)

    def test_dataclasses_encode_by_field_values(self):
        assert encode_key(_Spec("x", 1)) == encode_key(_Spec("x", 1))
        assert encode_key(_Spec("x", 1)) != encode_key(_Spec("x", 2))

    def test_unhashable_key_types_rejected(self):
        with pytest.raises(TypeError):
            encode_key(object())
