"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The python code block of the README's "Library use" section."""
    text = README.read_text()
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    names = {}
    exec(compile(library_example(), str(README), "exec"), names)
    assert names["dist"].shape == (4,)
    assert names["header"].rate_hz == 1.2e5 and names["header"].bin_width_ns == 1000
    assert names["surface"].shape == (41, 21)
    assert names["e_chi"].converged and names["e_p"].converged
    assert 0.0 < names["result"].h_min_bits < 1.0
    assert len(names["text"]) == names["extracted"].size > 0
    assert set(names["text"]) <= {"0", "1"}
