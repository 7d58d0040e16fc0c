"""The README's examples print what they claim.

Every line of the "## Library" example runs in order; a line whose
comment is a float written to full precision (14 or more decimals)
must evaluate to a float whose repr is that comment.

Every "$ knotvol ..." transcript under "## Command line" that stands
alone (no shell loop, no continuation line) runs through `cli.main`, and
its output must match the README line for line: a line ending in "..."
matches any line that starts with the text before it, and a line that
is only "..." ends the comparison.
"""

import re
import shlex
from pathlib import Path

from knotvol import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _first_block(heading, fence):
    text = README.read_text()
    section = text[text.index(heading) :]
    return re.search(fence + r"\n(.*?)```", section, re.S).group(1)


def _library_lines():
    return _first_block("## Library", "```python").splitlines()


def test_readme_library_values():
    namespace = {}
    statement, checked = [], 0
    for line in _library_lines():
        code, _, comment = line.partition("#")
        statement.append(code)
        source = "\n".join(statement)
        try:
            compiled = compile(source, "README.md", "exec")
        except SyntaxError:
            continue  # a statement spread over several lines
        statement = []
        claim = comment.strip()
        if re.fullmatch(r"-?\d+\.\d{14,}", claim):
            assert repr(eval(source, namespace)) == claim, line
            checked += 1
        else:
            exec(compiled, namespace)
    assert checked >= 2


def _transcripts():
    """(argv, expected output lines) for each stand-alone knotvol command."""
    for chunk in _first_block("## Command line", "```").split("\n\n"):
        lines = chunk.strip("\n").splitlines()
        if lines[0].startswith("$ knotvol ") and not any(
            line.startswith((">", "$")) for line in lines[1:]
        ):
            yield shlex.split(lines[0][len("$ knotvol ") :]), lines[1:]


def test_readme_command_transcripts(capsys):
    checked = []
    for argv, expected in _transcripts():
        assert cli.main(argv) == 0, argv
        got = capsys.readouterr().out.splitlines()
        if "..." in expected:
            expected = expected[: expected.index("...")]
            got = got[: len(expected)]
        assert len(got) == len(expected), argv
        for want, line in zip(expected, got):
            if want.endswith("..."):
                assert line.startswith(want[:-3]), (argv, want, line)
            else:
                assert line == want, (argv, want, line)
        checked.append(argv[0])
    assert checked == ["invariant", "volume", "fit"]
