"""The README quickstart runs and prints what the README shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_blocks():
    """The quickstart's code and the output block printed below it."""
    section = README.read_text().split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    (code_lang, code), (_, printed) = re.findall(r"```(\w*)\n(.*?)```", section, re.S)[:2]
    assert code_lang == "python"
    return code, printed


def test_quickstart_prints_the_readme_output():
    code, printed = quickstart_blocks()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == printed
    assert printed.splitlines() == [
        "mixture       [0.568 0.583]",
        "max |q error| 0.083",
        "max w error   0.034",
    ]
