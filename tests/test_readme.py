import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_use_block_prints_its_documented_result(capsys):
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = block.rstrip().rsplit("# ", 1)[1]  # the trailing comment
    exec(compile(block, f"{README}:Library use", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == expected
