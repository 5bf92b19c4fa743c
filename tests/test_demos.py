"""Smoke test: every demo script and every fenced Python block of the
README runs to completion in-process."""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_python_blocks_run(capsys):
    assert README_BLOCKS
    for number, block in enumerate(README_BLOCKS):
        exec(compile(block, "README.md python block %d" % number, "exec"), {})
    assert capsys.readouterr().out.strip()
