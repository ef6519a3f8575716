"""The report writer against ``json.dumps(doc, indent=2)``: the same bytes
for any document of JSON values, and never the whole text in memory."""

import json
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from spreadlab.cli import _SLICE, _write_report

# any text: non-ASCII and control characters among it
TEXT = st.text(max_size=6)
KEYS = st.one_of(TEXT, st.integers(), st.booleans())
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), TEXT)
# nested values; empty containers among them
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=12,
)
# scalar runs about the slice's edges
RUN_LENGTHS = [_SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 1]


@st.composite
def long_containers(draw):
    """A list, or a dict with int or text keys, of one of ``RUN_LENGTHS``
    scalars, cycling through a few drawn values; now and then a nested
    value breaks the run at a drawn position."""
    n = draw(st.sampled_from(RUN_LENGTHS))
    fill = draw(st.lists(SCALARS, min_size=1, max_size=3))
    items = [fill[i % len(fill)] for i in range(n)]
    if draw(st.booleans()):
        items[draw(st.integers(0, n - 1))] = draw(VALUES)
    if draw(st.booleans()):
        return items
    text_keys = draw(st.booleans())
    return {str(i) if text_keys else i: v for i, v in enumerate(items)}


DOCUMENTS = st.one_of(
    st.dictionaries(KEYS, st.one_of(VALUES, long_containers()), max_size=5),
    st.lists(st.one_of(VALUES, long_containers()), max_size=4),
)


def written(doc) -> bytes:
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "report.json"
        _write_report(str(path), doc)
        return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS)
def test_bytes_are_json_dumps_with_indent_2(doc):
    assert written(doc) == (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def test_long_map_is_never_held_whole(tmp_path):
    # one 50,000-entry map, about 1.5 MB written: a writer that builds the
    # whole text first peaks above the report's size
    doc = {"map": {str(n): f"{n}/{2 * n + 1}" for n in range(50_000)}, "nodes": 50_000}
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        _write_report(str(path), doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    assert peak < size, (peak, size)
