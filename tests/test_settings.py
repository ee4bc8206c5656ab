"""A defaulted parameter that no call sets is a constant under another name.

This lint parses `src/parea` and fails on every defaulted parameter of a
function or method that no call in `src/`, `tests/`, `perfbench/` or `tools/`
passes, by position or by keyword. Calls are matched by the name they call:
`name(...)` and `obj.name(...)` both call every function called `name`, and
calling a class calls its `__init__`. A call with `*args` or `**kwargs`
counts as passing every parameter. Such a parameter is deleted and its
default used in its place; one that a caller needs comes back with that
caller."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "tests", "perfbench", "tools")


def _trees(root: Path, *directories):
    for directory in directories:
        for path in sorted((root / directory).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _defaulted(node: ast.FunctionDef, in_class: bool):
    """The positional parameters a call fills, in order, and the names of
    the defaulted ones, for a function or a method (whose `self` or `cls` no
    call fills by position)."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    if in_class and not static:
        positional = positional[1:]
    return positional, defaulted


def _definitions(root: Path):
    """(where, names a call uses, positional parameters, defaulted ones) of
    every function and method in `src/parea` with a defaulted parameter."""
    found = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                positional, defaulted = _defaulted(child, owner is not None)
                names = {child.name}
                if owner is not None and child.name == "__init__":
                    names.add(owner.name)
                where = f"{module}.{owner.name + '.' if owner else ''}{child.name}"
                if defaulted:
                    found.append((where, names, positional, defaulted))
                visit(child, module, None)

    for path, tree in _trees(root, "src/parea"):
        visit(tree, path.stem, None)
    return found


def _calls(root: Path):
    """Name called -> list of (positional count, keywords, passes all)."""
    calls: dict[str, list] = {}
    for _, tree in _trees(root, *CALLERS):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            keywords = {k.arg for k in node.keywords}
            spread = (None in keywords
                      or any(isinstance(a, ast.Starred) for a in node.args))
            calls.setdefault(name, []).append((len(node.args), keywords, spread))
    return calls


def unset_settings(root: Path = ROOT) -> list[str]:
    """Every defaulted parameter in `root/src/parea` that no call passes."""
    calls = _calls(root)
    unset = []
    for where, names, positional, defaulted in _definitions(root):
        sites = [site for name in names for site in calls.get(name, ())]
        for param in defaulted:
            index = positional.index(param) if param in positional else None
            if not any(spread or param in keywords
                       or (index is not None and index < count)
                       for count, keywords, spread in sites):
                unset.append(f"{where}({param})")
    return unset


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    assert unset_settings() == []


def test_the_lint_sees_an_unset_parameter(tmp_path):
    """Only the defaulted parameters that no call passes, by position or by
    keyword, are reported; `self` takes no position."""
    source = tmp_path / "src" / "parea"
    source.mkdir(parents=True)
    (source / "probe.py").write_text(
        "def probe(a, b=1, *, c=2, d=3):\n    pass\n\n\n"
        "class Probe:\n    def __init__(self, e=4, g=5):\n        pass\n\n\n"
        "probe(0, 1, d=0)\nProbe(0)\n", encoding="utf-8")
    assert unset_settings(tmp_path) == ["probe.probe(c)", "probe.Probe.__init__(g)"]
    (source / "spread.py").write_text("probe(*()); Probe(**{})\n", encoding="utf-8")
    assert unset_settings(tmp_path) == []
