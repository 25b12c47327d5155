import re
from pathlib import Path

import mutower

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_from_the_package_root():
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from mutower import" in code
    scope = {}
    exec(code, scope)
    assert scope["rep"] == mutower.ElementaryRep(0, (1, 0, 1), 3, 4)


def test_every_exported_name_resolves():
    missing = [name for name in mutower.__all__ if not hasattr(mutower, name)]
    assert not missing
