"""The README's library quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_quick_start_runs():
    blocks = _python_blocks()
    assert len(blocks) == 1
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), namespace)
    # the outputs its comments promise
    assert out.getvalue() == "LRD\n"
    fc = namespace["fc"]
    assert fc.point.shape == (48,)
    assert np.all(fc.lower > 0) and np.all(fc.lower < fc.point) and np.all(fc.point < fc.upper)
