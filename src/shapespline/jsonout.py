"""JSON text with the bytes of ``json.dumps(obj, sort_keys=True, indent=1)``.

``json.dumps`` runs its pure-Python encoder whenever ``indent`` is set;
``dumps`` here writes the same text for plain data (dicts with str keys,
lists, tuples, str, bool, None, int and float) and splices :class:`Raw`
text in unchanged.  ``template`` turns a skeleton holding :data:`SLOT`
placeholders into a ``%``-template, so that many entries of one shape are
written by ``template % values``: a Python float formats through ``%s``
exactly as ``float.__repr__``, which is what ``json.dumps`` prints for a
finite float.
"""

from __future__ import annotations

import functools
from json.encoder import encode_basestring_ascii as _string

_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


class Raw:
    """Text already encoded for the place it is spliced into."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


SLOT = Raw("\0")  # a template field; encoded text never holds a raw NUL


def number(x: float) -> str:
    """A float as ``json.dumps`` writes it (``NaN``, ``Infinity`` included)."""
    text = float.__repr__(x)
    return _NON_FINITE[text] if "n" in text else text


def join_list(texts, level: int) -> str:
    """A list at nesting ``level`` of items already encoded for ``level + 1``."""
    if not texts:
        return "[]"
    inner = "\n" + " " * (level + 1)
    return "[" + inner + ("," + inner).join(texts) + "\n" + " " * level + "]"


def _encode(o, level: int, out: list) -> None:
    if isinstance(o, str):
        out.append(_string(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(number(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = "\n" + " " * (level + 1)
        sep = "[" + inner
        for item in o:
            out.append(sep)
            sep = "," + inner
            _encode(item, level + 1, out)
        out.append("\n" + " " * level + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = "\n" + " " * (level + 1)
        sep = "{" + inner
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _string(key) + ": ")
            sep = "," + inner
            _encode(value, level + 1, out)
        out.append("\n" + " " * level + "}")
    elif isinstance(o, Raw):
        out.append(o.text)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def dumps(obj, level: int = 0) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1)``, for ``obj`` placed at
    nesting ``level`` of an enclosing document."""
    out = []
    _encode(obj, level, out)
    return "".join(out)


def template(obj, level: int = 0) -> str:
    """``dumps(obj, level)`` as a ``%``-template with one ``%s`` field per
    :data:`SLOT`, in the order the text holds them (dict keys sorted)."""
    return dumps(obj, level).replace("%", "%%").replace("\0", "%s")


@functools.lru_cache(maxsize=None)
def entry_template(keys: tuple, level: int) -> str:
    """Template of a dict at ``level`` whose ``keys`` all hold fields."""
    return template(dict.fromkeys(keys, SLOT), level)
