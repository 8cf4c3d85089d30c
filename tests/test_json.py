"""The one reader of JSON inputs: what it parses, its bool rule, its item
rule and its date form."""

from __future__ import annotations

import re
from datetime import date
from pathlib import Path

import pytest

from satakit._json import date_field, field, load
from satakit.errors import UnrepresentableField

SRC = Path(__file__).resolve().parents[1] / "src" / "satakit"


# -- load ---------------------------------------------------------------------------


def test_load_reads_text_and_utf8_bytes():
    assert load('{"a": [1, "é", null, true]}', "t") == {"a": [1, "é", None, True]}
    assert load('{"a": "é"}'.encode(), "t") == {"a": "é"}
    assert load("[]", "t") == []


@pytest.mark.parametrize(
    "text",
    [
        "",
        "{not json",
        "{} {}",
        "[" * 100_000,
        "1" * 5000,
        '{"a": 1, "a": 1}',
        '[{"b": {"a": 1, "a": 2}}]',
        b"\xff\xfe",
    ],
    ids=["empty", "malformed", "trailing", "deep", "huge-number", "repeated-key",
         "nested-repeated-key", "not-utf8"],
)
def test_load_maps_every_parse_failure(text):
    with pytest.raises(UnrepresentableField, match="^policy is not valid JSON: "):
        load(text, "policy")


def test_load_names_the_repeated_key():
    with pytest.raises(UnrepresentableField, match="repeated key 'signature'"):
        load('{"signature": "aa", "x": 1, "signature": "bb"}', "credential")


def test_json_is_parsed_only_by_load():
    for path in SRC.glob("*.py"):
        if path.name != "_json.py":
            assert not re.search(r"(?<!_)json\.load|JSONDecoder", path.read_text()), path.name


# -- field: the bool rule -------------------------------------------------------------


@pytest.mark.parametrize("kind", [int, float, (int, float), str, (str, int)])
@pytest.mark.parametrize("value", [True, False])
def test_a_bool_is_no_number(kind, value):
    with pytest.raises(UnrepresentableField, match="^fixture field 'x' has the wrong JSON type"):
        field({"x": value}, "x", kind, what="fixture")


def test_a_bool_is_a_bool_and_a_number_a_number():
    assert field({"x": True}, "x", bool, what="t") is True
    assert field({"x": False}, "x", (bool, int), what="t") is False
    assert field({"x": 1}, "x", int, what="t") == 1
    assert field({"x": 1.5}, "x", (int, float), what="t") == 1.5
    for value, kind in ((1, bool), (0, bool), (1.0, int), ("1", int), (None, str)):
        with pytest.raises(UnrepresentableField):
            field({"x": value}, "x", kind, what="t")


# -- field: the item rule -------------------------------------------------------------


def test_items_of_a_list_or_an_object():
    assert field({"x": ["a", "b"]}, "x", list, items=str, what="t") == ["a", "b"]
    assert field({"x": {"k": "a"}}, "x", dict, items=str, what="t") == {"k": "a"}
    assert field({"x": [None, {}]}, "x", list, items=(dict, type(None)), what="t") == [None, {}]
    assert field({"x": []}, "x", list, items=int, what="t") == []
    # a value that is neither a list nor an object has no items
    assert field({"x": "ab"}, "x", (list, str), items=dict, what="t") == "ab"


@pytest.mark.parametrize(
    "value,items",
    [(["a", 5], str), ({"k": 5}, str), ([True], int), ([1, True], (int, float)), ([["a"]], str)],
)
def test_a_wrong_item_is_a_wrong_type(value, items):
    with pytest.raises(UnrepresentableField, match="^certificate field 'x' has the wrong JSON"):
        field({"x": value}, "x", (list, dict), items=items, what="certificate")


# -- field: presence --------------------------------------------------------------------


def test_an_absent_field_takes_its_default_unchecked():
    marker = object()
    assert field({}, "x", int, marker, what="t") is marker
    assert field({"x": None}, "x", str, None, what="t") is None
    with pytest.raises(UnrepresentableField, match="^policy field 'x' is missing$"):
        field({}, "x", int, what="policy")


@pytest.mark.parametrize("obj", [[], "x", 5, None, True])
def test_a_non_object_has_no_fields(obj):
    with pytest.raises(UnrepresentableField, match="^fixture has no field 'x': "):
        field(obj, "x", int, 0, what="fixture")


# -- date_field ---------------------------------------------------------------------------


def test_date_field_reads_a_calendar_date():
    assert date_field({"d": "2020-06-01"}, "d", what="t") == date(2020, 6, 1)
    assert date_field({"d": "0999-12-31"}, "d", what="t") == date(999, 12, 31)


@pytest.mark.parametrize(
    "text",
    ["20200601", "2020-W23-1", "2020-06-1", "2020-6-01", " 2020-06-01", "2020-06-01T00:00",
     "2020-13-01", "2020-02-30", ""],
)
def test_only_yyyy_mm_dd_is_a_date(text):
    with pytest.raises(UnrepresentableField, match="^fixture field 'd' is not a YYYY-MM-DD date"):
        date_field({"d": text}, "d", what="fixture")


@pytest.mark.parametrize("value", [20200601, None, True, ["2020-06-01"]])
def test_a_date_is_a_string(value):
    with pytest.raises(UnrepresentableField, match="wrong JSON type"):
        date_field({"d": value}, "d", what="t")
