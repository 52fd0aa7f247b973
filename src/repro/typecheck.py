"""Dataclass fields checked against their annotations.

:class:`~repro.experiments.config.ExperimentConfig`, the four fault
specs, :class:`~repro.faults.plan.ResiliencePolicy` and the trace
header's :class:`~repro.fs.trace.TraceMeta` call
:func:`check_field_types` first in ``__post_init__``, so a mistyped
value fails at construction with an error that names its field.  A
field annotated ``float`` accepts an ``int``; a ``bool`` is never a
number, though Python's ``bool`` is an ``int``; ``Optional[X]`` also
accepts ``None``; ``Any`` accepts every value.  A subscripted generic
such as ``Dict[str, int]`` is checked by its origin type (``dict``),
then item by item, recursively: the keys and values of ``Dict[K, V]``,
the items of ``List[X]`` and ``Tuple[X, ...]``, and a fixed
``Tuple[A, B, C]`` by position.  An
item's error names its path, as in ``idle_by_kind['sync'][0]``.
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


@lru_cache(maxsize=None)
def _parse(hint: Any) -> Tuple[Tuple[type, ...], bool, Tuple[Any, ...]]:
    """The types a value annotated ``hint`` may have, whether it may be
    None, and the hints of its items."""
    args = get_args(hint)
    optional = type(None) in args
    if optional:
        (hint,) = [arg for arg in args if arg is not type(None)]
        args = get_args(hint)
    origin = get_origin(hint) or hint
    return ((int, float) if origin is float else (origin,)), optional, args


def _check(name: str, value: Any, hint: Any) -> None:
    if hint is Any:
        return
    types, optional, args = _parse(hint)
    if value is None and optional:
        return
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in types
    ):
        expected = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{name} must be {expected}, got {value!r}")
    if not args:
        return
    if types == (dict,):
        for k, v in value.items():
            _check(f"{name} key", k, args[0])
            _check(f"{name}[{k!r}]", v, args[1])
    elif types == (list,) or args[-1] is Ellipsis:
        for i, v in enumerate(value):
            _check(f"{name}[{i}]", v, args[0])
    elif types == (tuple,):
        if len(value) != len(args):
            raise TypeError(
                f"{name} must hold {len(args)} items, got {value!r}"
            )
        for i, (v, arg) in enumerate(zip(value, args)):
            _check(f"{name}[{i}]", v, arg)


@lru_cache(maxsize=None)
def _field_hints(cls: Any) -> Tuple[Tuple[str, Any], ...]:
    """(name, annotation) per dataclass field of ``cls``, built once per
    class; ``ClassVar`` members are not fields."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def check_field_types(obj: Any) -> None:
    """Raise ``TypeError("<name> must be <types>, got <value>")`` for the
    first field of the dataclass instance ``obj`` whose value does not
    match its annotation."""
    for name, hint in _field_hints(type(obj)):
        _check(name, getattr(obj, name), hint)


def check_field_values(cls: Any, values: Mapping[str, Any]) -> None:
    """:func:`check_field_types` for the fields of the dataclass ``cls``
    that ``values`` holds, before an instance is built from them."""
    for name, hint in _field_hints(cls):
        if name in values:
            _check(name, values[name], hint)
