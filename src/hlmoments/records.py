"""One codec for the frozen report records.

Every record leaves the package as a flat dict carrying its ``record`` tag,
the ``schema_version`` and one entry per dataclass field (tuples as lists),
so it survives a JSON round trip unchanged.
"""

from __future__ import annotations

import numbers
from dataclasses import MISSING, fields
from typing import ClassVar, Union, get_args, get_origin, get_type_hints

from .errors import ArgumentError

SCHEMA_VERSION = 1


def _coerce(hint, value):
    origin = get_origin(hint)
    if origin is Union:  # Optional[T]
        return None if value is None else _coerce(get_args(hint)[0], value)
    if origin is tuple and isinstance(value, (list, tuple)):  # tuple[T, ...]
        return tuple(_coerce(get_args(hint)[0], v) for v in value)
    takes = {int: numbers.Integral, float: numbers.Real, str: str}.get(hint, ())
    if isinstance(value, takes) and not isinstance(value, bool):
        return hint(value)
    raise TypeError(f"{value!r} does not fit {hint}")


class Record:
    """Base of the frozen report dataclasses: ``to_dict`` / ``from_dict``.

    A subclass sets ``RECORD``, its wire tag.  Each field must be annotated
    as one of ``str``, ``int``, ``float``, ``Optional[int]``,
    ``tuple[int, ...]`` or ``tuple[float, ...]``; ``from_dict`` rebuilds the
    field through that annotation, and a field with a default may be absent.
    An ``int`` takes an integer, a ``float`` any real (inf and NaN too), but
    neither a bool; a tuple takes a list or tuple.  Anything else raises ``ArgumentError``.
    """

    RECORD: ClassVar[str]

    def to_dict(self) -> dict:
        d = {"record": self.RECORD, "schema_version": SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            d[f.name] = list(value) if isinstance(value, tuple) else value
        return d

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ArgumentError(f"a {cls.RECORD!r} record must be a dict, got {type(d).__name__}")
        tag, version = d.get("record"), d.get("schema_version")
        if tag != cls.RECORD or version != SCHEMA_VERSION:
            raise ArgumentError(
                f"expected record {cls.RECORD!r} at schema version {SCHEMA_VERSION}, "
                f"got {tag!r} at {version!r}"
            )
        hints = get_type_hints(cls)
        kwargs = {}
        for f in fields(cls):
            if f.name not in d:
                if f.default is MISSING:
                    raise ArgumentError(f"{cls.RECORD!r} record lacks field {f.name!r}")
                continue
            try:
                kwargs[f.name] = _coerce(hints[f.name], d[f.name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ArgumentError(
                    f"{cls.RECORD!r} field {f.name!r} cannot hold {d[f.name]!r}"
                ) from exc
        return cls(**kwargs)
