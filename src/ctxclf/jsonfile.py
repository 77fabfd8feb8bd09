"""Reading the JSON input files: run config, structure, constraint table and meta.json.

``read_json`` decodes a UTF-8 file; ``read_field`` and ``expect`` check the type
of one value (the library types check their scalar fields with ``expect`` too).
Every fault is raised as the caller's error class, in one wording:
``<path>: not UTF-8 text``, ``<path>: invalid JSON ...``, ``<field>: missing`` or
``<field>: expected <kind>, got <value>``. Range checks stay with the callers.
"""

from __future__ import annotations

import json
import operator
import reprlib

_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}
REQUIRED = object()  # the default of a field that must be present


def read_json(path, error: type[Exception]):
    """The document in the UTF-8 JSON file at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.loads(fh.read())
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    except RecursionError:  # the decoder recurses once per open bracket
        raise error(f"{path}: invalid JSON: nested too deeply") from None
    except ValueError:  # an integer above sys.get_int_max_str_digits()
        raise error(f"{path}: invalid JSON: an integer with too many digits") from None


def expect(value, kind: type, where: str, error: type[Exception]):
    """``value`` when it is a JSON value of ``kind`` (int, float, str, list or dict).

    A boolean is not an integer or a number, and nothing is converted except
    an integer given for a float, and a numpy integer (what ``operator.index``
    takes; a library caller may pass one) given for an int. The value in a
    message is shortened, so a long or deeply nested one still makes one short line.
    """
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise error(f"{where}: {reprlib.repr(value)} does not fit a float") from None
    if kind is int and not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    if isinstance(value, bool) or not isinstance(value, kind):
        raise error(f"{where}: expected {_KINDS[kind]}, got {reprlib.repr(value)}")
    return value


def read_field(
    obj: dict, key: str, kind: type, prefix: str, error: type[Exception], default=REQUIRED
):
    """``obj[key]`` as ``expect`` checks it, or ``default`` when the key is absent.

    ``prefix`` is the path of ``obj`` with its separator (``""``, ``"ea."``);
    a field without a default must be present.
    """
    if key not in obj:
        if default is REQUIRED:
            raise error(f"{prefix}{key}: missing")
        return default
    return expect(obj[key], kind, f"{prefix}{key}", error)
