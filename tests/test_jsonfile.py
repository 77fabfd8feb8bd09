import pytest

from ctxclf.errors import CtxclfError
from ctxclf.jsonfile import expect, read_field, read_json


class Bad(CtxclfError):
    pass


@pytest.mark.parametrize(
    "text, message",
    [
        ("{\n  \"a\": 1,,\n}", "invalid JSON at line 2, column 10"),
        ("[" * 100_000 + "]" * 100_000, "invalid JSON: nested too deeply"),
        ('{"seed": 1' + "0" * 5000 + "}", "invalid JSON: an integer with too many digits"),
    ],
    ids=["syntax", "deep", "digits"],
)
def test_read_json_names_the_file(tmp_path, text, message):
    p = tmp_path / "in.json"
    p.write_text(text)
    with pytest.raises(Bad) as exc:
        read_json(p, Bad)
    assert str(exc.value) == f"{p}: {message}"


@pytest.mark.parametrize(
    "value, kind, expected",
    [
        (True, int, "an integer"),
        (False, float, "a number"),
        (3.0, int, "an integer"),
        ("3", int, "an integer"),
        (3, str, "a string"),
        ({}, list, "a list"),
        ([], dict, "an object"),
        (None, float, "a number"),
    ],
)
def test_expect_refuses_and_converts_nothing(value, kind, expected):
    with pytest.raises(Bad) as exc:
        expect(value, kind, "x", Bad)
    assert str(exc.value) == f"x: expected {expected}, got {value!r}"


def test_expect_takes_an_integer_for_a_float_only():
    assert type(expect(2, float, "x", Bad)) is float
    assert expect(0.5, float, "x", Bad) == 0.5
    with pytest.raises(Bad, match=r"^x: 1000.*0 does not fit a float$"):
        expect(10**400, float, "x", Bad)


def test_expect_shortens_a_long_or_deep_value():
    deep = []
    for _ in range(900):
        deep = [deep]
    for value in (deep, "a" * 10_000, list(range(10_000))):
        with pytest.raises(Bad) as exc:
            expect(value, int, "x", Bad)
        assert len(str(exc.value)) < 80


def test_read_field_names_the_path():
    doc = {"a": 1}
    assert read_field(doc, "a", int, "ea.", Bad) == 1
    assert read_field(doc, "b", int, "ea.", Bad, 7) == 7
    with pytest.raises(Bad, match=r"^ea\.b: missing$"):
        read_field(doc, "b", int, "ea.", Bad)
    with pytest.raises(Bad, match=r"^ea\.a: expected a list, got 1$"):
        read_field(doc, "a", list, "ea.", Bad)
