import doctest
import re
from pathlib import Path

import laxcat.fincat

README = Path(__file__).resolve().parent.parent / "README.md"


def test_fincat_doctests_and_readme_library_example():
    result = doctest.testmod(laxcat.fincat)
    assert result.attempted == 5 and result.failed == 0
    example = re.search(r"## Library example\s+```python\n(.*?)```",
                        README.read_text(), re.S)
    namespace = {}
    exec(example.group(1), namespace)
    assert namespace["composite"].total_size() == 1
