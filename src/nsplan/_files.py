"""Reading and writing the package's files.

Every input file a caller names is read by ``read_lines`` (one record per
line), ``read_jsonl`` (one JSON object per line) or ``read_json`` (one JSON
document), and every output file is written by ``write_text``, directly or
through ``write_json`` (one JSON document) or ``write_jsonl`` (one JSON
object per line). A bad line or document is reported one way: the file,
plus the 1-based line of a line file. A lenient reader collects its bad
lines instead of raising, so one bad line never aborts it.

``read_jsonl`` takes up to ``CHUNK_LINES`` lines at a time and parses the
nonblank ones with one ``json.loads`` of ``"[" + "\n,".join(lines) + "]"``,
then calls ``build`` on each object. That gives each line's own object
only under a guard: the chunk holds no ``[``, and every line starts with
``{`` and holds at most ``CHUNK_BRACES`` of them.
Strict JSON rejects a raw newline inside a string, so no string spans a
joined line; a ``,`` inside an object must be followed by a ``"`` key, not
by a line's ``{``, so no object spans one; without ``[`` no array spans
one. So each line holds at least one top-level value, and the count check
(as many objects as lines) proves it holds exactly one. The brace bound
keeps the joined parse far from the recursion limit, which the per-line
parse meets at another depth. A chunk that fails the guard or the count,
or whose decode or parse raises what ``read_lines`` catches, is read
again line by line, so its rows, its errors and their absolute line
numbers are the per-line reader's. Lines holding ``[`` (datasets,
embedding tables) always take the per-line path. The reader holds at most
one chunk: it drops a chunk's lines and objects before it reads the next.
"""

from __future__ import annotations

import json
import os
from itertools import islice, repeat

from .errors import InputError

CHUNK_LINES = 512  # lines per json.loads in read_jsonl; a larger chunk is no faster and holds more
CHUNK_BRACES = 32  # a joined line holds at most this many "{"

# what a line's decode or parse may raise: the line is bad, not the program
_BAD_LINE = (ValueError, KeyError, TypeError, OverflowError, RecursionError)


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


def read_jsonl(source, build, bad=None):
    """``read_lines`` over JSON lines: yield ``build(obj)`` for the JSON
    object on each line; a line holding any other JSON value is bad. Lines
    are parsed a chunk at a time where the guard in the module docstring
    allows."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            yield from read_jsonl(fh, build, bad)
        return

    def parse(line):
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError("line is not a JSON object")
        return build(obj)

    where, source, line_no = _where(source), iter(source), 1
    while chunk := list(islice(source, CHUNK_LINES)):
        objects = _objects(chunk, line_no)
        if objects is None:
            rows = _parse_lines(enumerate(chunk, line_no), parse, where, bad)
        else:
            rows = _built(objects, build, where, bad)
        line_no += len(chunk)
        del chunk, objects  # only rows holds them now, and it drops them once exhausted
        yield from rows


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


def _built(objects, build, where, bad):
    """``build(obj)`` for each (line number, object) pair of ``objects``."""
    for line_no, obj in objects:
        try:
            value = build(obj)
        except _BAD_LINE as err:
            _bad_line(where, line_no, err, bad)
            continue
        yield value


def _objects(chunk, first):
    """The (line number, object) pairs of the nonblank lines of ``chunk``,
    whose first line is line ``first``, parsed by one ``json.loads``; None
    when the chunk fails the guard or the count, or its decode or parse
    raises."""
    try:
        lines = list(map(_text, chunk))
        line_nos = range(first, first + len(lines))
        if not all(map(str.startswith, lines, repeat("{"))):  # a blank line, or a chunk for the per-line path
            line_nos = [n for n, line in zip(line_nos, lines) if line and not line.isspace()]
            lines = [line for line in lines if line and not line.isspace()]
            if not all(map(str.startswith, lines, repeat("{"))):
                return None
        if any(map(str.__contains__, lines, repeat("["))):
            return None
        if max(map(str.count, lines, repeat("{")), default=0) > CHUNK_BRACES:
            return None
        objects = json.loads("[" + "\n,".join(lines) + "]")
    except _BAD_LINE:
        return None
    return zip(line_nos, objects) if len(objects) == len(line_nos) else None


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
