"""The README's library example runs as written."""
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_block_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    x, records = namespace["x"], namespace["records"]
    assert len(records) == namespace["params"].T
    assert x.shape == (namespace["data"].dim,)
