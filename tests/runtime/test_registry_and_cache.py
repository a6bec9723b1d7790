"""Tests for the runtime registry and the canonical cache-key encoding."""

import enum
from dataclasses import dataclass

import pytest

from repro.runtime.cache import encode_key
from repro.runtime.registry import Registry, RegistryError


class TestRegistry:
    def test_decorator_registration_and_lookup(self):
        registry: Registry = Registry("widget")

        @registry.register("w-1", description="the first widget")
        def build():
            return 41

        assert "w-1" in registry
        assert registry.get("w-1") is build
        assert registry.get("w-1")() == 41
        assert registry.description("w-1") == "the first widget"

    def test_direct_registration(self):
        registry: Registry = Registry("widget")
        registry.register("w-2", lambda: 2)
        assert registry.get("w-2")() == 2

    def test_description_falls_back_to_docstring(self):
        registry: Registry = Registry("widget")

        @registry.register("w-3")
        def build():
            """Builds the third widget.

            More detail that should not appear in the one-liner.
            """

        assert registry.description("w-3") == "Builds the third widget."

    def test_duplicate_key_rejected(self):
        registry: Registry = Registry("widget")
        registry.register("w-1", lambda: 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("w-1", lambda: 2)

    def test_overwrite_allows_replacement(self):
        registry: Registry = Registry("widget")
        registry.register("w-1", lambda: 1)
        registry.register("w-1", lambda: 2, overwrite=True)
        assert registry.get("w-1")() == 2

    def test_unknown_key_error_lists_available(self):
        registry: Registry = Registry("widget")
        registry.register("w-1", lambda: 1)
        with pytest.raises(RegistryError, match="w-1"):
            registry.get("nope")

    def test_unknown_key_is_a_keyerror(self):
        # RegistryError subclasses KeyError so existing except-clauses keep working.
        registry: Registry = Registry("widget")
        with pytest.raises(KeyError):
            registry.get("nope")

    def test_invalid_keys_rejected(self):
        registry: Registry = Registry("widget")
        with pytest.raises(RegistryError):
            registry.register("", lambda: 1)
        with pytest.raises(RegistryError):
            registry.register(3, lambda: 1)  # type: ignore[arg-type]

    def test_keys_sorted_and_iteration(self):
        registry: Registry = Registry("widget")
        registry.register("b", lambda: 1)
        registry.register("a", lambda: 2)
        assert registry.keys() == ["a", "b"]
        assert list(registry) == ["a", "b"]
        assert len(registry) == 2

    def test_unregister(self):
        registry: Registry = Registry("widget")
        registry.register("w-1", lambda: 1)
        registry.unregister("w-1")
        assert "w-1" not in registry
        with pytest.raises(RegistryError):
            registry.unregister("w-1")


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
