"""The README's library example prints the values it claims.

Every line of the "## Library" example runs in order; a line whose
comment is a float written to full precision (14 or more decimals)
must evaluate to a float whose repr is that comment.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_lines():
    text = README.read_text()
    section = text[text.index("## Library") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return block.splitlines()


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
