"""Reading and writing the package's files.

Every input file a caller names is read by ``read_lines`` (one record per
line) or ``read_json`` (one JSON document), and every output file is
written by ``write_text``. A bad line or document is reported one way: the
file, plus the 1-based line of a line file. A lenient reader collects its
bad lines instead of raising, so one bad line never aborts it.
"""

from __future__ import annotations

import json
import os

from .errors import InputError


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
    name = getattr(source, "name", None)
    where = "line" if name is None else f"{name}, line"
    for line_no, raw in enumerate(source, start=1):
        try:
            line = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).rstrip("\r\n")
            if not line or line.isspace():
                continue
            value = parse(line)
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as err:
            reason = f"missing field {err}" if isinstance(err, KeyError) else err
            err = InputError(f"{where} {line_no}: {reason}", line_no)
            if bad is None:
                raise err from None
            bad.append(err)
            continue
        yield value


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
