"""The README and the CLI docstring agree with the code they describe."""

import importlib
import inspect
import re
from pathlib import Path

import boxcomp as bc
from boxcomp import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _exit_codes(text):
    """The codes listed in a text's "Exit codes: 0 ok, 1 ..., 2 ...." sentence."""
    sentence = " ".join(text.split("Exit codes:", 1)[1].split()).split(".", 1)[0]
    return sorted(int(code) for code in re.findall(r"(?:^|, )(\d+) ", sentence))


def test_readme_public_names_are_the_package_exports():
    section = README.split("### Public names", 1)[1].split("\n#", 1)[0]
    listed = []
    for module, names in re.findall(r"^- `(\w+)`:(.*?)(?=^- |\Z)", section, re.M | re.S):
        names = re.findall(r"`(\w+)`", names)
        mod = importlib.import_module(f"boxcomp.{module}")
        assert all(hasattr(mod, name) for name in names), module
        listed += names
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(bc.__all__)


def test_documented_exit_codes_are_the_cli_constants():
    constants = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    assert _exit_codes(README) == constants
    assert _exit_codes(cli.__doc__) == constants


def test_public_functions_and_classes_have_docstrings():
    # @dataclass fills a missing docstring with the class signature, as in
    # "SweepPoint(angle: float, ...)", which is not documentation
    missing = []
    for name in bc.__all__:
        obj = getattr(bc, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            doc = (obj.__doc__ or "").strip()
            if not doc or doc.startswith(f"{obj.__name__}("):
                missing.append(name)
    assert missing == []
