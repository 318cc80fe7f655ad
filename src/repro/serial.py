"""One JSON contract for every spec and record.

Every experiment of this package is a frozen dataclass that round-trips
through JSON, and its ``content_hash`` keys the run store
(:class:`~repro.api.store.RunRecordStore`), the figure store
(:class:`~repro.api.figstore.DerivedRecordStore`) and the campaign
journal (:class:`~repro.resilience.journal.CampaignJournal`).  This
module owns that contract once:

* :class:`Spec` — the base of the frozen spec dataclasses:
  ``from_dict`` / ``from_json`` / ``to_json`` / ``content_hash`` /
  ``replace`` around each class's own canonical ``to_dict``, and
  ``coerce`` for a spec nested in another;
* :func:`build`, :func:`check_fields`, :func:`check_scalars` and
  :func:`parse_json` — the checks a hand-written file goes through,
  shared with the nested coercers and the record classes, so malformed
  input always ends in :class:`~repro.errors.ConfigurationError`;
* :func:`csv_table`, :func:`markdown_table` and :func:`dumps_indented`
  — the deterministic table and JSON exports of the record classes.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
from typing import (
    Any,
    ClassVar,
    Collection,
    Iterable,
    Mapping,
    Sequence,
    TypeVar,
)

from repro.errors import ConfigurationError

_T = TypeVar("_T")
_S = TypeVar("_S", bound="Spec")


def parse_json(text: str, noun: str) -> Any:
    """``json.loads(text)``; invalid JSON raises :class:`ConfigurationError`
    naming ``noun``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{noun} is not valid JSON: {exc}") from exc


def check_fields(
    data: Any,
    noun: str,
    required: Collection[str],
    optional: Collection[str] = (),
) -> Mapping[str, Any]:
    """``data`` itself, once it is a JSON object holding every
    ``required`` key and no key outside ``required`` and ``optional``;
    :class:`ConfigurationError` naming ``noun`` otherwise."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"expected a JSON object for the {noun}, got "
            f"{type(data).__name__}"
        )
    unknown = [k for k in data if k not in required and k not in optional]
    if unknown:
        raise ConfigurationError(
            f"unknown {noun} fields: {sorted(unknown, key=str)}; "
            f"valid fields: {sorted([*required, *optional])}"
        )
    missing = [name for name in required if name not in data]
    if missing:
        raise ConfigurationError(f"missing {noun} fields: {sorted(missing)}")
    return data


@functools.cache
def _init_fields(cls: type) -> tuple[frozenset[str], frozenset[str]]:
    """``(required, optional)`` init-field names of dataclass ``cls``,
    computed once per class (``from_dict`` runs once per served
    request)."""
    required, optional = set(), set()
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        if (f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            required.add(f.name)
        else:
            optional.add(f.name)
    return frozenset(required), frozenset(optional)


def build(cls: type[_T], data: Any, noun: str) -> _T:
    """Dataclass ``cls`` constructed from the JSON object ``data``.

    ``data`` must name every required init field and no other key.  A
    value the constructor rejects with ``TypeError``, ``ValueError`` or
    ``OverflowError`` (a string where a number belongs, an integer too
    large for a float) raises :class:`ConfigurationError` as well.
    """
    kwargs = check_fields(data, noun, *_init_fields(cls))
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"invalid {noun}: {exc}") from exc


#: Annotation, as written (spec modules postpone their annotations) ->
#: (kind, takes None) of the fields :func:`check_scalars` checks.
_SCALAR_KINDS = {
    "int": ("int", False),
    "int | None": ("int", True),
    "float": ("float", False),
    "float | tuple[float, ...]": ("vector", False),
    "tuple[float, ...]": ("floats", False),
    "bool": ("bool", False),
}


@functools.cache
def _scalar_fields(cls: type) -> tuple[tuple[str, str, bool], ...]:
    """``(name, kind, takes None)`` of each field of dataclass ``cls``
    whose annotation :data:`_SCALAR_KINDS` names."""
    return tuple(
        (f.name, *_SCALAR_KINDS[f.type])
        for f in dataclasses.fields(cls)
        if f.type in _SCALAR_KINDS
    )


def check_scalars(spec: Any) -> None:
    """Check the number and bool fields of frozen dataclass ``spec`` by
    their annotations, storing each float field as a float.

    An ``int`` field takes an ``int`` (``int | None`` also ``None``).  A
    ``float`` field takes an ``int`` or a ``float`` and keeps a
    ``float``, so ``1`` and ``1.0`` share one content hash; a
    ``float | tuple[float, ...]`` field also takes a list or tuple of
    them and keeps a tuple, a ``tuple[float, ...]`` field only such a
    list or tuple, and no float field takes a NaN or an infinity.  A
    ``bool`` field takes only a ``bool``, and no number field takes one.
    Anything else raises :class:`ConfigurationError`.
    """
    for name, kind, optional in _scalar_fields(type(spec)):
        value = getattr(spec, name)
        if kind == "bool":
            if type(value) is not bool:
                raise ConfigurationError(
                    f"{name} must be true or false, got {value!r}"
                )
        elif kind == "int":
            if type(value) is not int and (value is not None or not optional):
                expected = "an int or None" if optional else "an int"
                raise ConfigurationError(
                    f"{name} must be {expected}, got {value!r}"
                )
        else:
            vector = kind != "float" and isinstance(value, (list, tuple))
            if kind == "floats" and not vector:
                raise ConfigurationError(
                    f"{name} must be a list of numbers, got {value!r}"
                )
            for item in value if vector else (value,):
                if type(item) is bool or not isinstance(item, (int, float)):
                    raise ConfigurationError(
                        f"{name} must be an int or a float, got {item!r}"
                    )
                if not math.isfinite(item):
                    raise ConfigurationError(
                        f"{name} must be finite, got {item!r}"
                    )
            value = tuple(map(float, value)) if vector else float(value)
            object.__setattr__(spec, name, value)


class Spec:
    """Base of the frozen, JSON round-trippable spec dataclasses.

    A subclass sets :attr:`noun`, its name in error messages, and
    defines ``to_dict``, its canonical JSON form, which
    :meth:`from_dict` must rebuild into an equal spec.
    """

    noun: ClassVar[str]

    def to_dict(self) -> dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def from_dict(cls: type[_S], data: Any) -> _S:
        """Rebuild a spec from :meth:`to_dict` output or a hand-written
        file (see :func:`build`); unknown keys raise, so typos fail
        loud."""
        return build(cls, data, cls.noun)

    @classmethod
    def coerce(cls: type[_S], value: Any, field: str) -> _S:
        """A nested spec field's value as this class: an instance
        passes, its dict form goes through :meth:`from_dict`, anything
        else raises :class:`ConfigurationError` naming ``field``."""
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        if not isinstance(value, cls):
            raise ConfigurationError(
                f"{field} must be a {cls.__name__}, got {value!r}"
            )
        return value

    @classmethod
    def from_json(cls: type[_S], text: str) -> _S:
        return cls.from_dict(parse_json(text, cls.noun))

    def to_json(self, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    def content_hash(self) -> str:
        """sha256 of the key-sorted :meth:`to_dict` JSON.

        It keys the run store, the figure store and the journal, so it
        must never change for an unchanged spec: a changed hash
        silently empties every store.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def replace(self: _S, **overrides: Any) -> _S:
        """A copy with some fields swapped (re-validated)."""
        return dataclasses.replace(self, **overrides)


def dumps_indented(value: Any) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, but each container
    of scalars is one call of CPython's C encoder (``indent`` turns it
    off), whose item separator carries the line break and the indent."""
    if json.encoder.c_make_encoder is None:
        return json.dumps(value, indent=2)
    return _indented(value, "\n")


@functools.cache
def _c_encoder(separator: str) -> Any:
    """``json.dumps``' C encoder with ``separator`` between items; it keeps
    no cycle markers, as no container it writes holds another."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", separator, False, False, True)


def _indented(value: Any, newline: str) -> str:
    """``value`` as :func:`dumps_indented` writes it after ``newline``."""
    inner = newline + "  "
    separator = "," + inner
    encode = _c_encoder(separator)
    if not isinstance(value, (dict, list, tuple)) or not value:
        return "".join(encode(value, 0))
    is_dict = isinstance(value, dict)
    for child in value.values() if is_dict else value:
        if isinstance(child, (dict, list, tuple)):
            break
    else:  # a container of scalars: one encoder call
        text = "".join(encode(value, 0))
        return f"{text[0]}{inner}{text[1:-1]}{newline}{text[-1]}"
    if is_dict:  # the C encoder writes each key: '{"key": 0}'
        body = separator.join(
            ["".join(encode({k: 0}, 0))[1:-2] + _indented(v, inner)
             for k, v in value.items()])
    else:
        body = separator.join([_indented(v, inner) for v in value])
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}{inner}{body}{newline}{closing}"


def csv_table(
    columns: Sequence[str], rows: Iterable[Mapping[str, Any]]
) -> str:
    """Deterministic CSV of ``rows`` under a ``columns`` header, ``\\n``
    line ends.  ``csv`` itself writes ``None`` as an empty cell and a
    float (a numpy float too) through ``float.__repr__``; only a tuple
    (a per-port load vector) needs converting, to a JSON list."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(
        [json.dumps(list(v)) if isinstance(v, tuple) else v
         for v in map(row.get, columns)]
        for row in rows
    )
    return buffer.getvalue()


def _markdown_cell(value: Any, float_format: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return float_format.format(value)
    return str(value)


def markdown_table(
    columns: Sequence[str],
    rows: Iterable[Mapping[str, Any]],
    float_format: str,
) -> str:
    """A GitHub-flavoured pipe table of ``rows``: floats through
    ``float_format``, ``None`` as ``-``."""
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append(
            "| "
            + " | ".join(_markdown_cell(row.get(c), float_format)
                         for c in columns)
            + " |"
        )
    return "\n".join(lines)
