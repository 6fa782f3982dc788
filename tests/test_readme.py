"""README's Library example, run as written, so that it names no function the
package no longer has."""

import re

import helpers


def test_readme_library_example_runs():
    text = (helpers.ROOT / "README.md").read_text()
    library = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["sc"].graph.m == 10  # the bundled example2
    assert namespace["report"].tau == 2  # as the example's comment says
