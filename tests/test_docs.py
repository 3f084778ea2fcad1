"""The imports the documents show exist: every ``from repro… import …``
statement in ``docs/API.md`` and ``README.md`` (parenthesised multi-line
ones included) runs, and a name imported from a module that declares
``__all__`` is listed there."""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("docs/API.md", "README.md")
IMPORT = re.compile(r"^[ \t]*from[ \t]+(repro[\w.]*)[ \t]+import[ \t]+(\([^)]*\)|[^\n#]*)",
                    re.MULTILINE)

STATEMENTS = [
    (doc, match.group(0).strip(), match.group(1), match.group(2))
    for doc in DOCS
    for match in IMPORT.finditer((ROOT / doc).read_text())
]


def test_the_documents_show_imports():
    assert {doc for doc, *_ in STATEMENTS} == set(DOCS)


@pytest.mark.parametrize("doc, statement, module, names", STATEMENTS,
                         ids=[f"{doc}:{module}" for doc, _, module, _ in STATEMENTS])
def test_documented_import_runs(doc, statement, module, names):
    exec(statement, {})
    declared = getattr(importlib.import_module(module), "__all__", None)
    if declared is not None:
        for item in filter(str.strip, names.strip("()").split(",")):
            name = item.split()[0]  # "x as y" imports x
            assert name in declared, f"{doc}: {module} does not list {name} in __all__"
