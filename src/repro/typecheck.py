"""Dataclass fields checked against their annotations.

:class:`~repro.experiments.config.ExperimentConfig`, the four fault
specs and :class:`~repro.faults.plan.ResiliencePolicy` call
:func:`check_field_types` first in ``__post_init__``, so a mistyped
value fails at construction with an error that names its field.  A
field annotated ``float`` accepts an ``int``; a ``bool`` is never a
number, though Python's ``bool`` is an ``int``; ``Optional[X]`` also
accepts ``None``.  The module imports nothing from :mod:`repro`, so any
layer can use it without an import cycle.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache
from typing import Any, Tuple, get_args, get_type_hints

__all__ = ["check_field_types"]


def _accepted(hint: Any) -> Tuple[Tuple[type, ...], bool]:
    """The types a field annotated ``hint`` accepts, and whether it may
    be None."""
    args = get_args(hint)
    optional = type(None) in args
    if optional:
        (hint,) = [arg for arg in args if arg is not type(None)]
    return ((int, float) if hint is float else (hint,)), optional


@lru_cache(maxsize=None)
def _field_types(cls: Any) -> Tuple[Tuple[str, Tuple[type, ...], bool], ...]:
    """(name, accepted types, may be None) per dataclass field of
    ``cls``, built once per class; ``ClassVar`` members are not fields."""
    hints = get_type_hints(cls)
    return tuple((f.name, *_accepted(hints[f.name])) for f in fields(cls))


def check_field_types(obj: Any) -> None:
    """Raise ``TypeError("<name> must be <types>, got <value>")`` for the
    first field of the dataclass instance ``obj`` whose value does not
    match its annotation."""
    for name, types, optional in _field_types(type(obj)):
        value = getattr(obj, name)
        if value is None and optional:
            continue
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            expected = " or ".join(t.__name__ for t in types)
            raise TypeError(f"{name} must be {expected}, got {value!r}")
