"""Dataclass fields checked against their annotations.

:class:`~repro.experiments.config.ExperimentConfig`, the four fault
specs and :class:`~repro.faults.plan.ResiliencePolicy` call
:func:`check_field_types` first in ``__post_init__``, so a mistyped
value fails at construction with an error that names its field.  A
field annotated ``float`` accepts an ``int``; a ``bool`` is never a
number, though Python's ``bool`` is an ``int``; ``Optional[X]`` also
accepts ``None``; a subscripted generic such as ``Dict[str, int]`` is
checked by its origin type (``dict``), not item by item.
:func:`check_field_values` checks a mapping the same way before the
dataclass is built, as the run cache does with its stored results.  The
module imports nothing from :mod:`repro`, so any layer can use it
without an import cycle.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache
from typing import Any, Mapping, Tuple, get_args, get_origin, get_type_hints

__all__ = ["check_field_types", "check_field_values"]


def _accepted(hint: Any) -> Tuple[Tuple[type, ...], bool]:
    """The types a field annotated ``hint`` accepts, and whether it may
    be None."""
    args = get_args(hint)
    optional = type(None) in args
    if optional:
        (hint,) = [arg for arg in args if arg is not type(None)]
    hint = get_origin(hint) or hint
    return ((int, float) if hint is float else (hint,)), optional


@lru_cache(maxsize=None)
def _field_types(cls: Any) -> Tuple[Tuple[str, Tuple[type, ...], bool], ...]:
    """(name, accepted types, may be None) per dataclass field of
    ``cls``, built once per class; ``ClassVar`` members are not fields."""
    hints = get_type_hints(cls)
    return tuple((f.name, *_accepted(hints[f.name])) for f in fields(cls))


def _check(
    name: str, value: Any, types: Tuple[type, ...], optional: bool
) -> None:
    if value is None and optional:
        return
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in types
    ):
        expected = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{name} must be {expected}, got {value!r}")


def check_field_types(obj: Any) -> None:
    """Raise ``TypeError("<name> must be <types>, got <value>")`` for the
    first field of the dataclass instance ``obj`` whose value does not
    match its annotation."""
    for name, types, optional in _field_types(type(obj)):
        _check(name, getattr(obj, name), types, optional)


def check_field_values(cls: Any, values: Mapping[str, Any]) -> None:
    """:func:`check_field_types` for the fields of the dataclass ``cls``
    that ``values`` holds, before an instance is built from them."""
    for name, types, optional in _field_types(cls):
        if name in values:
            _check(name, values[name], types, optional)
