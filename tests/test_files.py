"""Strict line reading: whatever a line of a graph, dataset or embedding
table holds, each reader either parses it or raises an InputError that
names the file and that line. No other error type escapes a reader."""

import json
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsplan import _files, kg, programs
from nsplan.embeddings import TableEmbedding
from nsplan.errors import InputError

# the first line of each file, which parses; the generated line is line 2
READERS = {
    "graph-tsv": (
        lambda path: kg.ingest(path, fmt="conceptnet-tsv", strict=True),
        '/a/x\t/r/UsedFor\t/c/en/soap\t/c/en/wash\t{"weight": 1.0}',
    ),
    "graph-jsonl": (
        lambda path: kg.ingest(path, fmt="jsonl", strict=True),
        '{"head": "soap", "relation": "UsedFor", "tail": "wash", "weight": 1.0}',
    ),
    "dataset": (
        lambda path: programs.load_task_dataset(path, strict=True),
        '{"task": "Watch TV", "steps": ["[Walk] <SOFA> (1)"]}',
    ),
    "table": (TableEmbedding, '{"text": "soap", "vector": [1.0, 0.0]}'),
}

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from(["[Walk] <SOFA> (1)", "[Dance] <TV>", "UsedFor", "/c/en/soap", "soap"]),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))
_KEYS = ("head", "relation", "tail", "weight", "task", "steps", "title", "headlines", "text", "vector")
_OBJECTS = st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=5).map(json.dumps)
_TSV = st.lists(
    st.one_of(
        st.text(max_size=6),
        st.sampled_from(["/a/x", "/r/UsedFor", "/r/", "/c/en/soap", "/c/fr/savon", "/c/en", '{"weight": 2}',
                         '{"weight": "2"}', '{"weight": 1e999}', "{}"]),
    ),
    min_size=4, max_size=6,
).map("\t".join)
_DEEP = st.integers(min_value=1, max_value=100_000).map(lambda n: "[" * n + "]" * n)
LINES = st.one_of(
    st.binary(max_size=60),
    st.one_of(_OBJECTS, _TSV, _DEEP, _VALUES.map(json.dumps)).map(lambda s: s.encode("utf-8", "surrogatepass")),
).map(lambda raw: raw.replace(b"\n", b" "))  # one line of the file


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(line=LINES)
def test_a_strict_reader_raises_only_an_input_error_naming_the_line(tmp_path_factory, reader, line):
    read, first = READERS[reader]
    path = tmp_path_factory.getbasetemp() / f"strict-{reader}.txt"
    path.write_bytes(first.encode("utf-8") + b"\n" + line + b"\n")
    try:
        read(str(path))
    except InputError as err:
        assert err.line_no == 2
        assert str(err).startswith(f"{path}, line 2: ")


# Chunked JSONL reading: one json.loads per chunk of lines, where a guard
# proves the chunk's objects are its lines' own; otherwise the per-line path.

_ROW = '{"head": "c", "relation": "UsedFor", "tail": "d", "weight": 1.0}'
# three lines that one json.loads of their join reads as three objects,
# though no line parses alone: an array, then an object, spans two lines
COUNTEREXAMPLES = {
    "array": ['{"head": "a", "relation": "UsedFor", "tail": "b", "weight": 1.0, "x": [{}', "{}]}", f"{_ROW}, {_ROW}"],
    "object": ['{"head": "a", "relation": "UsedFor", "tail": "b", "weight": 1.0, "x": {"y": 1}', '"z": 2}',
               f"{_ROW}, {_ROW}"],
}


@pytest.mark.parametrize("name", sorted(COUNTEREXAMPLES))
def test_lines_that_parse_only_joined_are_bad_lines(tmp_path, name):
    lines = COUNTEREXAMPLES[name]
    with pytest.raises(ValueError) as first:
        json.loads(lines[0])
    path = tmp_path / "graph.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(InputError) as err:
        kg.ingest(str(path), fmt="jsonl", strict=True)
    assert err.value.line_no == 1
    assert str(err.value) == f"{path}, line 1: {first.value}"
    graph = kg.ingest(str(path), fmt="jsonl")
    assert graph.edge_count == 0 and graph.stats.dropped_malformed == 3


def _per_line(source, build, bad):
    """The per-line JSONL reader: one json.loads per line."""

    def parse(line):
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError("line is not a JSON object")
        return build(obj)

    return _files.read_lines(source, parse, bad)


def _build(obj):
    value = obj["k"]
    if type(value) is not int:
        raise ValueError(f"k must be an int, got {value!r}")
    return value


def _nest(depth):
    return '{"k": 1, "n": ' * depth + "0" + "}" * depth


def _deepest_nest():
    """The deepest ``_nest`` that json.loads parses when called from here."""
    lo, hi = 0, sys.getrecursionlimit()
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            json.loads(_nest(mid))
            lo = mid
        except RecursionError:
            hi = mid - 1
    return lo


_JSONL_LINES = st.one_of(
    st.dictionaries(st.sampled_from(["k", "n", "s"]),
                    st.one_of(st.integers(), st.text(max_size=4), st.sampled_from(["{", "}", "[", "{{", "\\"])),
                    max_size=3).map(json.dumps),
    st.sampled_from(["", "   ", "\t", '  {"k": 2}', '{"k": 3}]', '{"k": "x"}', '{"n": 1}', "[1]", "7", '"s"', "null",
                     '{"k": 4', '{"k": 5}, {"k": 6}', '{"k": [1]}', '{"k": {"k": 1}}', "\x0c", "{" * 40]),
    st.integers(min_value=1, max_value=40).map(_nest),
).map(lambda line: [line.encode("utf-8", "surrogatepass")])
# a group of lines: one line, a counterexample's three, or (an int k) a
# nest k levels deeper than json.loads parses from the test, where a
# joined parse one level deeper or shallower would read otherwise
_JSONL_GROUPS = st.one_of(
    _JSONL_LINES, _JSONL_LINES, _JSONL_LINES,
    st.sampled_from([[line.encode() for line in lines] for lines in COUNTEREXAMPLES.values()]),
    st.one_of(st.just(b"\xff{}"), st.binary(max_size=8)).map(lambda line: [line]),
    st.integers(min_value=-8, max_value=8).map(lambda k: [k]),
)
_JSONL_FILES = st.lists(st.tuples(_JSONL_GROUPS, st.sampled_from([b"\n", b"\r\n", b"\r\r\n"])), max_size=8)


def _read(reader, source, build, strict):
    """(rows, bad errors) of a lenient read, or the error of a strict one."""
    bad = None if strict else []
    try:
        rows = list(reader(source, build, bad))
    except InputError as err:
        return str(err), err.line_no
    return rows, [(str(err), err.line_no) for err in bad or ()]


@pytest.mark.parametrize("chunk", [1, 2, 3, _files.CHUNK_LINES])
@settings(max_examples=200, deadline=None)
@given(groups=_JSONL_FILES, text=st.booleans(), strict=st.booleans())
def test_chunked_jsonl_reads_what_the_per_line_reader_reads(chunk, groups, text, strict):
    """Rows, bad lines, messages and line numbers, from byte or str lines,
    with blank lines, CRLF endings, non-UTF-8 bytes and deep nests."""
    deepest = _deepest_nest()
    lines = [
        (_nest(deepest + line).encode() if isinstance(line, int) else line.replace(b"\n", b" ")) + end
        for group, end in groups for line in group
    ]
    source = [line.decode("utf-8", "surrogateescape") for line in lines] if text else lines
    with mock.patch.object(_files, "CHUNK_LINES", chunk):
        got = _read(_files.read_jsonl, source, _build, strict)
    assert got == _read(_per_line, source, _build, strict)


@pytest.mark.parametrize("chunk", [4, _files.CHUNK_LINES])
@pytest.mark.parametrize("row", ['{{"k": {i}}}', '{{"k": {i}, "list": [1]}}'])  # the bulk and the per-line path
def test_read_jsonl_reads_at_most_one_chunk_ahead(monkeypatch, chunk, row):
    monkeypatch.setattr(_files, "CHUNK_LINES", chunk)
    consumed = 0

    def source():
        nonlocal consumed
        for i in range(3 * chunk + 2):
            consumed += 1
            yield row.format(i=i) + "\n"

    for yielded, value in enumerate(_files.read_jsonl(source(), _build), start=1):
        assert value == yielded - 1
        assert consumed <= -(-yielded // chunk) * chunk  # the chunks that hold the rows yielded so far
    assert consumed == 3 * chunk + 2


# Chunked TSV reading: a chunk's lines are split, checked and their metadata
# decoded by ``kg._tsv_chunk``; a chunk with a bad line takes the per-line
# path, and a row that breaks the row rule is bad at its own line.


def _weight_nest(depth):
    return '{"weight": 2, "n": ' * depth + "0" + "}" * depth


def _deepest_weight_nest():
    """The deepest ``_weight_nest`` that json.loads parses when called from here."""
    lo, hi = 0, sys.getrecursionlimit()
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            json.loads(_weight_nest(mid))
            lo = mid
        except RecursionError:
            hi = mid - 1
    return lo


_TERMS = ["soap", "wash", "soap/n", "wash/v/wn/body", "", "a b"]
_METADATA = [
    '{"weight": 1.5}', '{"weight": 2}', ' {"weight": 1.5}', '{"weight": 1.5} ', '\ufeff{"weight": 1.5}',
    '{"weight": NaN}', '{"weight": Infinity}', '{"weight": -Infinity}', '{"weight": 1e400}',
    '{"weight": 1' + "0" * 400 + "}", '{"weight": 0}', '{"weight": -1.0}', '{"weight": true}', '{"weight": "2"}',
    '{"weight": null}', '{"weight": 1, "weight": 2}', '{"weight": 2, "weight": "x"}', '{"x": {"weight": 2}}',
    "{}", "[1]", "2", '"w"', '{"weight": 2}x', '{"weight": 2',
    '{"sources": [{"contributor": "/s/a"}, {"process": "/s/b"}], "weight": 2.25}',
    '{"weight": 3, "x": ' + "[" * 31 + "]" * 31 + "}", '{"weight": 3, "x": ' + "[" * 32 + "]" * 32 + "}",
    '{"sources": [' + ", ".join(['{"contributor": "/s/a"}'] * 40) + '], "weight": 2.75}',
]
_RELATION_URIS = st.sampled_from(
    [f"/r/{name}" for name in sorted(kg.HOUSEHOLD_RELATIONS)[:3]]
    + ["/r/RelatedTo", "/r/UsedFor/", "/r/UsedFor/x", "/r//x", "/r/", "r/UsedFor", "/R/UsedFor", ""]
)
_CONCEPT_URIS = st.one_of(
    st.builds("/c/{}/{}".format, st.sampled_from(["en", "en", "en", "fr", ""]), st.sampled_from(_TERMS)),
    st.sampled_from(["c/en/soap", "x/c/en/soap", "/x/en/soap", "//c/en/soap", "/c/en", "/c", "/", ""]),
)
_TSV_ROWS = st.builds(
    "/a/x\t{}\t{}\t{}\t{}".format, _RELATION_URIS, _CONCEPT_URIS, _CONCEPT_URIS,
    st.one_of(st.sampled_from(_METADATA), st.sampled_from(_METADATA[:2])),
)
_TSV_LINES = st.one_of(
    _TSV_ROWS, _TSV_ROWS, _TSV_ROWS,
    st.sampled_from(_METADATA).map("/a/x\t/r/UsedFor\t/c/en/soap\t/c/en/wash\t{}".format),  # only the cell is bad
    _TSV_ROWS.map(lambda row: row.replace("\t", "\t\t", 1)),  # 6 columns
    _TSV_ROWS.map(lambda row: row.rsplit("\t", 1)[0]),  # 4 columns
    st.sampled_from(["", "   ", "\t", "\x0c"]),
).map(lambda line: [line.encode("utf-8")])
# a group of lines: one line, a non-UTF-8 line, or (an int k) a row whose
# metadata nests k levels deeper than json.loads parses from the test
_TSV_GROUPS = st.one_of(
    _TSV_LINES, _TSV_LINES, _TSV_LINES,
    st.one_of(st.just(b"/a/x\t/r/UsedFor\t/c/en/\xff\t/c/en/b\t{}"), st.binary(max_size=8)).map(lambda line: [line]),
    st.integers(min_value=-16, max_value=8).map(lambda k: [k]),
)
_TSV_FILES = st.lists(st.tuples(_TSV_GROUPS, st.sampled_from([b"\n", b"\r\n", b"\r\r\n"])), max_size=10)


def _per_line_tsv(source, parse_chunk, build, parse, bad):
    """``read_chunks``' stand-in: the per-line reader with ``parse``."""
    return _files.read_lines(source, parse, bad)


def _graph(source, strict):
    """The columns, node keys and stats of ``kg.ingest``, or its error."""
    try:
        graph = kg.ingest(source, fmt="conceptnet-tsv", strict=strict)
    except InputError as err:
        return str(err), err.line_no
    columns = (graph._head_ids, graph._relation_ids, graph.tail_ids, graph.weights, graph._ranks, graph._other,
               graph._indptr)
    return [c.tobytes() for c in columns], graph.node_keys, graph._relation_names, graph.stats


@pytest.mark.parametrize("chunk", [1, 2, 3, _files.CHUNK_LINES])
@settings(max_examples=200, deadline=None)
@given(groups=_TSV_FILES, text=st.booleans(), strict=st.booleans())
def test_chunked_tsv_ingest_reads_what_the_per_line_reader_reads(chunk, groups, text, strict):
    """The graph, its stats and the strict error of ``kg.ingest``, and the
    reader's rows and bad lines with their messages and line numbers, from
    byte or str lines: good, non-English and off-table rows, bad columns,
    URIs and metadata, blank lines, CRLF endings, non-UTF-8 bytes and
    metadata nested near the recursion limit."""
    deepest = _deepest_weight_nest()
    row = "/a/x\t/r/UsedFor\t/c/en/soap\t/c/en/wash\t"
    lines = [
        ((row + _weight_nest(deepest + line)).encode() if isinstance(line, int) else line) + end
        for group, end in groups for line in group
    ]
    source = [line.decode("utf-8", "surrogateescape") for line in lines] if text else lines
    with mock.patch.object(_files, "CHUNK_LINES", chunk):
        got = _read(lambda src, build, bad: _files.read_chunks(src, kg._tsv_chunk, build, kg._parse_tsv_line, bad),
                    source, kg._tsv_row, strict)
        got_graph = _graph(source, strict)
    assert got == _read(lambda src, build, bad: _files.read_lines(src, kg._parse_tsv_line, bad), source, None, strict)
    with mock.patch.object(kg, "read_chunks", _per_line_tsv):
        assert got_graph == _graph(source, strict)


@pytest.mark.parametrize("chunk", [4, _files.CHUNK_LINES])
@pytest.mark.parametrize("meta", ['{{"weight": {i}}}', ' {{"weight": {i}}}'])  # the chunk and the per-line path
def test_read_chunks_reads_tsv_at_most_one_chunk_ahead(monkeypatch, chunk, meta):
    monkeypatch.setattr(_files, "CHUNK_LINES", chunk)
    consumed = 0

    def source():
        nonlocal consumed
        for i in range(1, 3 * chunk + 3):
            consumed += 1
            yield f"/a/x\t/r/UsedFor\t/c/en/a\t/c/en/b\t{meta.format(i=i)}\n"

    rows = _files.read_chunks(source(), kg._tsv_chunk, kg._tsv_row, kg._parse_tsv_line)
    for yielded, row in enumerate(rows, start=1):
        assert row == ("a", "UsedFor", "b", yielded)
        assert consumed <= -(-yielded // chunk) * chunk  # the chunks that hold the rows yielded so far
    assert consumed == 3 * chunk + 2


_COUNTS = st.one_of(st.integers(min_value=0, max_value=40), st.sampled_from([31, 32, 33]))  # near CHUNK_BRACES
_JSON_TEXTS = st.one_of(
    st.sampled_from(_METADATA),
    _JSONL_LINES.map(lambda lines: lines[0].decode("utf-8", "surrogatepass")),
    _COUNTS.map(_nest),
    _COUNTS.map(lambda n: '{"s": [' + ", ".join(["{}"] * n) + "]}"),
    _COUNTS.map(lambda n: '{"s": ' + "[" * n + "]" * n + "}"),
    st.text(max_size=8),
)
_PADS = st.sampled_from(["", " ", "\n", "\r\n", "\ufeff", "x"])


@settings(max_examples=300, deadline=None)
@given(text=_JSON_TEXTS, lead=_PADS, trail=_PADS)
def test_json_object_gives_the_small_objects_of_json_loads(text, lead, trail):
    """``json_object`` gives ``json.loads``' value for a text that starts
    with ``{``, holds at most ``CHUNK_BRACES`` ``{`` and ``[`` and is one
    object, and None for any other text."""
    text = lead + text + trail
    got = _files.json_object(text)
    try:
        want = json.loads(text)
    except (ValueError, RecursionError):
        assert got is None
        return
    small = text.startswith("{") and text.count("{") + text.count("[") <= _files.CHUNK_BRACES
    if small and text == text.rstrip(" \t\n\r"):
        assert type(got) is dict and repr(got) == repr(want)  # repr: NaN is not equal to itself
    else:
        assert got is None
