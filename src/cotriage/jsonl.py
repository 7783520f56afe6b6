"""Schema-tagged JSON-lines files.

Each file starts with a header record {"schema": "<name>/<version>"} followed
by one JSON object per line. Writers emit keys in sorted order so identical
payloads produce identical bytes. The reader decodes every line with one
shared decoder, one raw_decode call per line. write_json writes the single
indented JSON documents (manifests, summaries, checkpoints) and write_csv the
tables with the same atomic rename.
"""

from __future__ import annotations

import csv
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence, TextIO, TypeVar

from .errors import ParseError

T = TypeVar("T")


# json.dumps builds a new encoder per call; encode() keeps no state between
# calls, so one shared encoder is safe from any thread.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# json.loads shares one module-level decoder the same way; raw_decode skips
# its whitespace matching, which the stripped lines do not need.
_DECODER = json.JSONDecoder()


def dumps_record(record: dict[str, Any]) -> str:
    """The bytes json.dumps(record, sort_keys=True, separators=(",", ":")) gives."""
    return _ENCODER.encode(record)


@contextmanager
def replace_atomically(path: str | Path) -> Iterator[TextIO]:
    """Create the parent directory, write a temp file, then rename it over the target.

    The temp name is unique to the writing process and thread, so concurrent
    writers of one target never share (and never rename away) a temp file.
    A write that raises removes its temp file and leaves the target as it
    was. Newlines are written untranslated, so the bytes are the same on
    every platform and the csv module's row endings pass through.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}.{threading.get_ident()}")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def write_jsonl(path: str | Path, schema: str, records: Iterable[dict[str, Any]]) -> None:
    with replace_atomically(path) as fh:
        fh.write(dumps_record({"schema": schema}) + "\n")
        for rec in records:
            fh.write(dumps_record(rec) + "\n")


def write_json(path: str | Path, doc: dict[str, Any]) -> None:
    """One indented JSON document with sorted keys, written atomically."""
    with replace_atomically(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
    comment: str | None = None,
) -> None:
    """A CSV table, after a '# comment' line when one is given, written atomically."""
    with replace_atomically(path) as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_unique_jsonl(
    path: str | Path,
    schema: str,
    parse: Callable[[dict[str, Any]], T],
    key: Callable[[T], Hashable],
) -> Iterator[T]:
    """Yield parse(record) for each record after the header; keys must be unique.

    The first non-blank line must be the header naming schema; a file without
    one is a ParseError. Line numbers are 1-based file lines, blank lines
    counted. A line that is not one JSON value, or holds an integer too long
    to convert, is a ParseError naming it. A KeyError, TypeError or ValueError
    raised by parse becomes a ParseError naming the record's line, and so
    does a repeated key. A file that is not UTF-8 is a ParseError naming the
    first line that is not.
    """
    header_seen = False
    seen: set[Hashable] = set()
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    rec, end = _DECODER.raw_decode(raw)
                except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
                    raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line=lineno) from exc
                if end != len(raw):
                    raise ParseError("invalid JSON: Extra data", line=lineno)
                if not isinstance(rec, dict):
                    raise ParseError("record is not a JSON object", line=lineno)
                if not header_seen:
                    got = rec.get("schema")
                    if got != schema:
                        raise ParseError(f"expected schema {schema!r}, got {got!r}", line=lineno)
                    header_seen = True
                    continue
                try:
                    item = parse(rec)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ParseError(f"bad {schema} record: {exc!r}", line=lineno) from exc
                k = key(item)
                if k in seen:
                    raise ParseError(f"duplicate {schema} key {k!r}", line=lineno)
                seen.add(k)
                yield item
        except UnicodeDecodeError as exc:
            line = first_undecodable_line(path)
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}", line=line) from exc
    if not header_seen:
        raise ParseError(f"{path} has no {schema!r} header")


def first_undecodable_line(path: str | Path) -> int | None:
    """The 1-based number of the first line of path holding bytes that are not UTF-8."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")  # an escaped byte is a lone surrogate, which does not encode
            except UnicodeEncodeError:
                return lineno


def typed(rec: dict[str, Any], key: str, kind: type[T], default: Any = ...) -> T:
    """rec[key], checked to hold the JSON type kind instead of being cast to it.

    A bool is not an int; a float field takes an int and returns a float. With
    a default, an absent or null field returns it. A missing required field is
    a KeyError and a mismatch a TypeError. An int outside int64, or an int too
    large for a float field, is a ValueError. The reader reports each as a
    ParseError naming the line.
    """
    value = rec[key] if default is ... else rec.get(key)
    if value is None and default is not ...:
        return default
    if type(value) is kind:
        if kind is int and not -(2**63) <= value < 2**63:
            raise ValueError(f"{key} does not fit in int64")
        return value
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{key} is too large for a float") from None
    raise TypeError(f"{key} must be {kind.__name__}, not {value!r}")
