"""Reading and writing the package's files.

Every input file a caller names is read by ``read_chunks`` (one record per
line), ``read_jsonl`` (one JSON object per line, through ``read_chunks``)
or ``read_json`` (one JSON document); ``read_lines`` is the per-line
reader whose results a chunk must match. Every output file is written by
``write_text``, directly or through ``write_json`` (one JSON document) or
``write_jsonl`` (one JSON object per line). A bad line or document is
reported one way: the file, plus the 1-based line of a line file. A
lenient reader collects its bad lines instead of raising, so one bad line
never aborts it.

``read_chunks`` is the one chunk loop. It takes up to ``CHUNK_LINES``
lines, decodes them once, drops the blank ones and hands the rest to the
format's chunk parser, which returns each line's value or None. ``build``
then runs once per value, and a value it rejects is a bad line at its own
line number. A chunk whose parser returns None, or that holds a line that
is not UTF-8, takes the per-line path instead (``read_lines``' own, on the
lines already decoded), so its rows, its errors and their absolute line
numbers are the per-line reader's. The loop holds at most one chunk: it
reads the next only after it has yielded the last row of this one.

``read_jsonl``'s chunk parser reads the lines with one ``json.loads`` of
``"[" + "\n,".join(lines) + "]"``. That gives each line's own object only
under a guard: the chunk holds no ``[``, and every line starts with ``{``
and holds at most ``CHUNK_BRACES`` of them.
Strict JSON rejects a raw newline inside a string, so no string spans a
joined line; a ``,`` inside an object must be followed by a ``"`` key, not
by a line's ``{``, so no object spans one; without ``[`` no array spans
one. So each line holds at least one top-level value, and the count check
(as many objects as lines) proves it holds exactly one. A chunk that fails
the guard or the count, or whose parse raises what ``read_lines`` catches,
takes the per-line path. Lines holding ``[`` (datasets, embedding tables)
always do.

``json_object`` is the one JSON fast path: one ``raw_decode`` of a text
that starts with ``{`` and holds at most ``CHUNK_BRACES`` ``{`` and ``[``,
kept only when the object ends the text; None for any other text. The
bracket bound keeps that parse far from the recursion limit, so what it
gives does not depend on the call stack it runs on. ``read_jsonl``'s
per-line parse leaves a line it gives None for to ``json.loads``; ``kg``'s
TSV chunk parser sends the chunk with such a metadata cell to the
per-line path.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from itertools import islice, repeat

from .errors import InputError

CHUNK_LINES = 512  # lines per chunk of read_chunks; a larger chunk is no faster and holds more
CHUNK_BRACES = 32  # a joined JSONL line holds at most this many "{"; json_object's text, this many "{" and "["

# what a line's decode or parse may raise: the line is bad, not the program
_BAD_LINE = (ValueError, KeyError, TypeError, OverflowError, RecursionError)

_DECODER = json.JSONDecoder()


def read_lines(source, parse, bad=None):
    """Yield ``parse(line)`` for each nonblank line of ``source``: a path,
    or an iterable of str or bytes lines (an open file's name is reported).

    A line that is not UTF-8, or whose parse raises ValueError, KeyError,
    TypeError, OverflowError or RecursionError, becomes an InputError naming
    the file and line: raised when ``bad`` is None, appended to it otherwise.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            yield from read_lines(fh, parse, bad)
        return
    yield from _parse_lines(enumerate(source, start=1), parse, _where(source), bad)


def read_chunks(source, parse_chunk, build, parse, bad=None):
    """Yield ``build(value)`` for the value of each nonblank line of
    ``source`` (as ``read_lines`` takes it), ``CHUNK_LINES`` lines at a
    time.

    ``parse_chunk(lines)`` takes a chunk's nonblank lines, decoded, and
    returns the value of each, in order, or None. A chunk it returns None
    for, or with a line that is not UTF-8, takes ``read_lines``' per-line
    path with ``parse``, where ``parse(line)`` must be ``build`` of the
    line's value or the error of that line. A value whose ``build`` raises
    what ``read_lines`` catches is a bad line, at its own line number.
    """
    with open(source, "rb") if isinstance(source, (str, os.PathLike)) else nullcontext(source) as fh:
        where, lines, first = _where(fh), iter(fh), 1
        while chunk := list(islice(lines, CHUNK_LINES)):
            numbered = _nonblank(chunk, first)
            values = None if numbered is None else parse_chunk(numbered[1])
            if values is not None:
                rows = _built(zip(numbered[0], values), build, where, bad)
            else:  # the per-line path, on the decoded lines when there are some
                rows = _parse_lines(enumerate(chunk, first) if numbered is None else zip(*numbered), parse, where, bad)
            first += len(chunk)
            del chunk, numbered, values  # only rows holds them now, and it drops them once exhausted
            yield from rows


def read_jsonl(source, build, bad=None):
    """``read_chunks`` over JSON lines: yield ``build(obj)`` for the JSON
    object on each line; a line holding any other JSON value is bad. A
    chunk is parsed by one ``json.loads`` where the guard in the module
    docstring allows, and line by line otherwise."""

    def parse(line):
        obj = json_object(line)
        if obj is None:  # json.loads at the per-line reader's own call depth
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
        return build(obj)

    return read_chunks(source, _objects, build, parse, bad)


def json_object(text):
    """``json.loads(text)`` when ``text`` starts with ``{``, holds at most
    ``CHUNK_BRACES`` ``{`` and ``[``, and is one JSON object, parsed by one
    ``raw_decode``; None for any other text.

    ``loads`` adds only a BOM check and skips of leading and trailing
    whitespace, which the ``{`` test and the end test rule out. The bracket
    bound keeps the parse far from the recursion limit, so its value does
    not depend on the call depth."""
    if text.startswith("{") and text.count("{") + text.count("[") <= CHUNK_BRACES:
        try:
            obj, end = _DECODER.raw_decode(text)
        except _BAD_LINE:
            return None  # loads makes the same scan, and fails too
        if end == len(text):
            return obj
    return None


def _where(source):
    name = getattr(source, "name", None)
    return "line" if name is None else f"{name}, line"


def _text(raw):
    return (raw.decode("utf-8") if isinstance(raw, bytes) else raw).rstrip("\r\n")


def _bad_line(where, line_no, err, bad):
    """Raise, or append to ``bad``, the InputError of line ``line_no``."""
    reason = f"missing field {err}" if isinstance(err, KeyError) else err
    err = InputError(f"{where} {line_no}: {reason}", line_no)
    if bad is None:
        raise err from None
    bad.append(err)


def _parse_lines(numbered, parse, where, bad):
    """The per-line reader over (line number, raw line) pairs."""
    for line_no, raw in numbered:
        try:
            line = _text(raw)
            if not line or line.isspace():
                continue
            value = parse(line)
        except _BAD_LINE as err:
            _bad_line(where, line_no, err, bad)
            continue
        yield value


def _built(values, build, where, bad):
    """``build(value)`` for each (line number, value) pair of ``values``."""
    for line_no, value in values:
        try:
            row = build(value)
        except _BAD_LINE as err:
            _bad_line(where, line_no, err, bad)
            continue
        yield row


def _nonblank(chunk, first):
    """(line numbers, lines) of the nonblank lines of ``chunk``, whose first
    line is line ``first``, decoded; None when a line is not UTF-8. A line
    is blank as ``_parse_lines`` has it: ``strip`` and ``isspace`` share
    one idea of whitespace."""
    try:
        lines = list(map(_text, chunk))
    except UnicodeDecodeError:
        return None
    line_nos = range(first, first + len(lines))
    if not all(map(str.strip, lines)):
        line_nos = [n for n, line in zip(line_nos, lines) if line.strip()]
        lines = [line for line in lines if line.strip()]
    return line_nos, lines


def _objects(lines):
    """The object of each of ``lines`` by one ``json.loads`` of their join;
    None when they fail the guard or the count, or the parse raises."""
    if (not all(map(str.startswith, lines, repeat("{")))
            or any(map(str.__contains__, lines, repeat("[")))
            or max(map(str.count, lines, repeat("{")), default=0) > CHUNK_BRACES):
        return None
    try:
        objects = json.loads("[" + "\n,".join(lines) + "]")
    except _BAD_LINE:
        return None
    return objects if len(objects) == len(lines) else None


def read_json(path, error):
    """The JSON document in ``path``; a file that cannot be read or parsed
    becomes ``error(message)``, the message naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        raise error(f"{path}: {err}") from None


def write_text(path, text):
    """Write ``text`` to ``path`` whole or not at all: into a temporary file
    beside it (never named ``*.json``), then renamed over it."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(path, obj):
    """Write ``obj`` as one JSON document: indented by 2, keys sorted, with
    a trailing newline."""
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_jsonl(path, rows):
    """Write each of ``rows`` as one JSON object per line, keys sorted."""
    write_text(path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
