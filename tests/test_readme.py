"""The README's library-use snippet runs as written and prints what it shows."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_snippet_runs_and_prints_its_shown_output():
    with open(README) as fh:
        (block,) = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    assert f"# -> {out.getvalue()}" in block
