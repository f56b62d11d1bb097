"""Strict line reading: whatever a line of a graph, dataset or embedding
table holds, each reader either parses it or raises an InputError that
names the file and that line. No other error type escapes a reader."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsplan import kg, programs
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

