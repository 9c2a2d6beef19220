"""Config tables and the one parser that reads them.

A `Table` names every field of a JSON config block, each with a kind and a
default. Reading a block through it refuses any key the table does not name,
fills in the defaults and passes every value through its kind, which checks
and converts it: a misspelt field is an error, never a silently different
run. A kind is a function ``(value, name, error)`` that returns the typed
value or raises ``error`` with a message naming the field (``grid.n``); a
`Table` is itself the kind of a nested block.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

REQUIRED = object()  # the default of a field that must be given


class ConfigError(ValueError):
    pass


class Table:
    """Fields of a config block: name -> (kind, default) or (kind, default, needs).

    An absent field with default None reads as None; any other default is
    read through the field's kind, as if given. ``needs`` replaces the
    message of every refusal of its field. ``check(values, block)`` runs
    after the fields, on the values read and the raw block; it refuses a
    combination of fields or settles a value that depends on others.
    """

    def __init__(self, fields, check=None):
        self.fields, self.check = fields, check

    def __call__(self, block, name="", error=ConfigError):
        where = name or "config"
        if not isinstance(block, dict):
            raise error(f"{where} must hold a JSON object, not a {type(block).__name__}")
        for key in block:
            if key not in self.fields:
                raise error(f"unknown field {key!r} in {where}, which takes "
                            f"{', '.join(map(repr, self.fields)) or 'no fields'}")
        values = SimpleNamespace()
        for key, (kind, default, *needs) in self.fields.items():
            field = f"{name}.{key}" if name else key
            value = block.get(key, default)
            if value is REQUIRED:
                raise error(f"missing field {key!r} in {where}")
            if key in block or default is not None:
                try:
                    value = kind(value, field, error)
                except error:
                    if not needs:
                        raise
                    raise error(f"{needs[0]}, got {field}={value!r}") from None
            setattr(values, key, value)
        if self.check:
            self.check(values, block)
        return values


def number(x, name, error):
    """A finite int or float, as a float; bools and strings are refused."""
    if isinstance(x, bool) or not (isinstance(x, (int, float)) and abs(x) <= sys.float_info.max):
        raise error(f"{name} must be a finite number, got {x!r}")
    return float(x)


def count(least):
    """The kind of an integer >= least; bools are refused."""
    def kind(n, name, error):
        if isinstance(n, bool) or not (isinstance(n, int) and n >= least):
            raise error(f"{name} must be an integer >= {least}, got {n!r}")
        return n
    return kind


def numbers(positive=False, empty=False):
    """The kind of a list of finite numbers, non-empty unless ``empty``, all > 0 if ``positive``."""
    what = (f"{'a' if empty else 'a non-empty'} list of "
            f"{'positive' if positive else 'finite'} numbers")

    def kind(xs, name, error):
        ok = isinstance(xs, list) and (empty or len(xs) > 0)
        vals = [number(x, f"each entry of {name}", error) for x in xs] if ok else []
        if not ok or positive and any(v <= 0 for v in vals):
            raise error(f"{name} must be {what}, got {xs!r}")
        return vals
    return kind


def window(w, name, error):
    """[lo, hi]: two finite numbers with lo < hi, as a pair of floats."""
    if not (isinstance(w, list) and len(w) == 2):
        raise error(f"{name} must be a list [lo, hi] of two numbers, got {w!r}")
    lo, hi = (number(x, f"each end of {name}", error) for x in w)
    if not lo < hi:
        raise error(f"{name} needs lo < hi, got {w!r}")
    return lo, hi


def choice(*options):
    """The kind of one of the given strings."""
    def kind(x, name, error):
        if not (isinstance(x, str) and x in options):
            raise error(f"{name} must be one of {', '.join(map(repr, options))}, got {x!r}")
        return x
    return kind


def read_text(path, what, error):
    """The UTF-8 text of the file at path; a file that cannot be read raises ``error``.

    A missing file, a directory, a file without read permission and bytes
    that are not UTF-8 each give one message naming the file as ``what``.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} file {path} is not UTF-8 text: {exc.reason} "
                    f"at byte {exc.start}") from None
