"""The one rule for numeric fields of JSON configs and of the dataclasses
built from them.

A number is an int or a float, never a bool or a string, and it is never
rounded: an integer field takes only an integer, and a seed only a
non-negative one.  A real field must also be finite; JSON's ``NaN``,
``Infinity`` and overflowing literals such as ``1e400`` parse to
non-finite floats.  An array field (tabulated samples, explicit deltas)
holds numbers only, all finite; a nested section is a JSON object.  Every
violation is a ``ValueError`` that names the field, raised before any
compute; the CLI adds the config section and exits 2.

A config object holds only the fields that its record defines for its
kind (``require_fields``): a key outside them, a misspelled one included, is
a ``ValueError`` that names it, never dropped in favour of a default.  A
tagged section's tag is checked first, against the one table of kinds and
fields that its record keeps (``require_tagged``, ``require_kind``), and a
size list holds integers below 2^63, numpy's index bound (``require_sizes``).

The records that own the fields apply the rule in their constructors, and
store real fields as floats; their ``from_json`` checks the keys and hands
the raw JSON values to the constructor, so a field that a config leaves out
takes the default written in the record's dataclass, and nowhere else.

The one dtype rule: a real array is float64 and a complex one complex128
(``require_numbers``), and ``[re, im]`` pairs decode as float64 when every
imaginary part is exactly 0 (``require_pairs``), so real input stays real;
``to_pairs`` writes an array back as such pairs.
"""

import math
import numbers

import numpy as np


def is_integer(value) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_finite(field: str, value):
    """``value`` if it is a finite real number, else a ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{field!r} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{field!r} must be finite, got {value}")
    return value


def require_integer(field: str, value, minimum=None):
    """``value`` if it is an integer (not a bool) and at least ``minimum``,
    else a ``ValueError``."""
    if not is_integer(value):
        raise ValueError(f"{field!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{field!r} must be >= {minimum}, got {value}")
    return value


def require_object(field: str, value) -> dict:
    """``value`` if it is a JSON object (a dict), else a ``ValueError``."""
    if not isinstance(value, dict):
        raise ValueError(f"{field!r} must be a JSON object, got {type(value).__name__}")
    return value


def require_fields(obj: dict, optional=(), *, required=(), section: str = "") -> dict:
    """``obj``, a JSON object, if it holds every key in ``required`` and no
    key outside ``required`` and ``optional``.  A missing key is a
    ``KeyError`` (the CLI reports a missing field), any other key a
    ``ValueError`` that names it and ``section``, the field that holds
    ``obj`` when it is nested."""
    for key in required:
        if key not in obj:
            raise KeyError(key)
    for key in obj:
        if key not in required and key not in optional:
            where = f" in {section!r}" if section else ""
            raise ValueError(f"unknown field {key!r}{where}; expected one of "
                             + ", ".join(map(repr, (*required, *optional))))
    return obj


def require_kind(what: str, tag, kinds) -> str:
    """``tag`` if it is a string naming one of ``kinds``, a record's table of
    kinds, else a ``ValueError`` that names the tag and lists the kinds."""
    if not isinstance(tag, str) or tag not in kinds:
        raise ValueError(f"unknown {what} {tag!r}; expected one of "
                         + ", ".join(map(repr, kinds)))
    return tag


def require_tagged(obj: dict, kinds: dict, what: str, default: str, key="kind", section=""):
    """The tag ``obj[key]`` (``default`` when absent) of a config section,
    checked by ``require_kind`` before ``require_fields`` checks the
    section's keys against the tag's ``(optional, required)`` fields."""
    tag = require_kind(what, obj.get(key, default), kinds)
    optional, required = kinds[tag]
    require_fields(obj, (key, *optional), required=required, section=section)
    return tag


def require_sizes(field: str, sizes) -> tuple:
    """``sizes`` as a tuple of Python ints if it is a list or tuple of
    integers (no bool) below 2^63, else a ``ValueError`` naming the field."""
    if not (isinstance(sizes, (list, tuple)) and all(map(is_integer, sizes))):
        raise ValueError(f"bad {field} {sizes!r}: expected a list of integers")
    if any(s >= 2**63 for s in sizes):
        raise ValueError(f"bad {field} {list(sizes)!r}: every size must be below 2^63")
    return tuple(map(int, sizes))


def _holds_bool(values) -> bool:
    # numpy infers a numeric dtype for a list that mixes bools with numbers,
    # so nested lists are walked; a numeric ndarray cannot hold a bool.
    if isinstance(values, (list, tuple)):
        return any(map(_holds_bool, values))
    return isinstance(values, (bool, np.bool_))


def require_numbers(field: str, values) -> np.ndarray:
    """``values`` as an array of the dtype rule if every entry is a finite
    int, float or complex number (no bool, no string), else a ``ValueError``."""
    arr = np.asarray(values)
    if _holds_bool(values) or arr.dtype.kind not in "iufc":
        raise ValueError(f"{field!r} must hold numbers only, not bools or strings")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{field!r} must be finite")
    return arr.astype(np.promote_types(arr.dtype, np.float64), copy=False)


def require_pairs(field: str, values) -> np.ndarray:
    """``values``, a list of ``[re, im]`` number pairs, as a 1-D array under
    the dtype rule, else a ``ValueError`` that names the field."""
    pairs = require_numbers(field, values)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"{field!r} must be a list of [re, im] pairs, "
                         f"got shape {pairs.shape}")
    z = np.ascontiguousarray(pairs, dtype=float).view(np.complex128).reshape(-1)
    return z if z.imag.any() else z.real.copy()


def to_pairs(values) -> list:
    """The entries of ``values`` in row-major order as ``[re, im]`` pairs,
    the list that ``require_pairs`` reads back."""
    z = np.asarray(values).reshape(-1)
    return np.stack([z.real, z.imag], axis=1).tolist()
