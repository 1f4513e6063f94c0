import re
from pathlib import Path

from chipgyro.cli import LOOP_FIELDS, SCHEMA

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    """The README's python block is the package's one user-facing example."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4


def test_readme_config_tables_list_every_key_once():
    """The README's config-reference tables (header ``| key | kind | default |``)
    hold one row for each SCHEMA key and each geometry.loops[i] field."""
    keys, in_table = [], False
    for line in README.read_text().splitlines():
        if line == "| key | kind | default |":
            in_table = True
        elif not line.startswith("|"):
            in_table = False
        elif in_table and line.startswith("| `"):
            keys.append(line.split("`")[1])
    expected = [*SCHEMA, *(f"geometry.loops[i].{field}" for field in LOOP_FIELDS)]
    assert sorted(keys) == sorted(expected)
