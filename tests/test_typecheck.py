"""Field checks against dataclass annotations (``repro.typecheck``)."""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pytest

from repro.typecheck import check_field_types, check_field_values


@dataclass
class Fields:
    count: int
    share: float
    by_name: Dict[str, int]
    series: List[float]
    pair: Tuple[int, int]
    maybe: Optional[List[int]] = None


def test_generics_are_checked_by_their_origin_type():
    good = dict(count=1, share=2, by_name={"a": 1}, series=[0.5],
                pair=(1, 2))
    check_field_types(Fields(**good))
    check_field_values(Fields, dict(good, maybe=[3]))
    for name, bad in [("by_name", [1]), ("series", (0.5,)),
                      ("pair", [1, 2]), ("maybe", {}), ("count", True)]:
        with pytest.raises(TypeError, match=f"^{name} must be"):
            check_field_values(Fields, dict(good, **{name: bad}))


@dataclass
class Nested:
    by_name: Dict[str, Tuple[float, float, int]]
    rows: List[List[float]]
    counts: Dict[int, int]
    rest: Tuple[str, ...] = ()


def test_items_are_checked_recursively():
    good = dict(by_name={"sync": (1.5, 2, 3)}, rows=[[0.5, 1]],
                counts={0: 4}, rest=("a", "b"))
    check_field_values(Nested, good)
    for name, bad, path in [
        ("by_name", {1: (1.5, 2, 3)}, "by_name key must be str"),
        ("by_name", {"sync": (1.5, 2, 3.0)}, r"by_name\['sync'\]\[2\] "
                                             "must be int"),
        ("by_name", {"sync": (1.5, 2)}, r"by_name\['sync'\] must hold 3"),
        ("rows", [[0.5], ["x"]], r"rows\[1\]\[0\] must be int or float"),
        ("counts", {"0": 4}, "counts key must be int"),
        ("counts", {0: True}, r"counts\[0\] must be int"),
        ("rest", ("a", 1), r"rest\[1\] must be str"),
    ]:
        with pytest.raises(TypeError, match=f"^{path}"):
            check_field_values(Nested, dict(good, **{name: bad}))


def test_values_check_skips_fields_not_given():
    check_field_values(Fields, {"share": 1.5})
    with pytest.raises(TypeError, match="share must be int or float"):
        check_field_values(Fields, {"share": "1.5"})
