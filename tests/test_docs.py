import doctest
import re
from pathlib import Path

import laxcat.cli
import laxcat.fincat
import laxcat.jsonio

README = Path(__file__).resolve().parent.parent / "README.md"


def test_fincat_doctests_and_readme_library_example():
    result = doctest.testmod(laxcat.fincat)
    assert result.attempted == 5 and result.failed == 0
    example = re.search(r"## Library example\s+```python\n(.*?)```",
                        README.read_text(), re.S)
    namespace = {}
    exec(example.group(1), namespace)
    assert namespace["composite"].total_size() == 1


def test_readme_caps_table_holds_the_values_of_the_code():
    section = re.search(r"### Caps\n(.*?)\n### ", README.read_text(),
                        re.S).group(1)
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    assert rows[0] == ["cap", "default", "option or constant",
                       "field checked"]
    parser = laxcat.cli._build_parser()
    code = {"`--max-objects`": parser.get_default("max_objects"),
            "`--max-elements`": parser.get_default("max_elements"),
            **{f"`cli.{name}`": getattr(laxcat.cli, name)
               for name in ("RANK_CAP", "DEGREE_CAP", "MATRIX_CAP",
                            "SNF_CAP", "INPUT_CAP")},
            "`jsonio.DIGIT_CAP`": laxcat.jsonio.DIGIT_CAP}
    table = {}
    for cap, default, name, field in rows[2:]:
        table.setdefault(name, set()).add(int(default.replace(" ", "")))
    assert table == {name: {value} for name, value in code.items()}


def test_readme_check_table_names_the_checks_of_the_code():
    section = re.search(r"`check` properties:.*?\n\n(\|.*?)\n\n",
                        README.read_text(), re.S).group(1)
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines()]
    assert rows[0] == ["property", "inputs", "runs", "checks that"]
    table = {}
    for prop, kinds, name, _ in rows[2:]:
        module, function = name.strip("`").split(".")
        table[prop.strip("`")] = (tuple(kinds.split(", ")), module, function)
    assert table == laxcat.cli.CHECKS
