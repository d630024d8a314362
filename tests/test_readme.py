"""The README's library example runs as written and maps its record well,
and every name the package exports resolves."""

import contextlib
import io
import re
from pathlib import Path

import itfmap

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_maps_within_5_degrees():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    printed = out.getvalue()
    match = re.fullmatch(r"(\S+) deg\n", printed)
    assert match, printed
    assert float(match.group(1)) < 5.0


def test_every_exported_name_resolves():
    for name in itfmap.__all__:
        assert getattr(itfmap, name, None) is not None, name
