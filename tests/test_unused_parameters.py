"""Every settable value has a program path that sets it: a parameter with a
default, on a function or method of the package, is passed by some call in
the package or the benchmark harness, not by tests alone."""

import ast
from pathlib import Path

import metadapt

PACKAGE = Path(metadapt.__file__).parent
HARNESS = PACKAGE.parents[1] / "perfbench"

#: (function, parameter) pairs that only tests set, each with its reason.
ALLOWED = {
    # the tolerances of a test tool: the gradient checks of tests pick them
    ("grad_check", "tol"), ("grad_check", "h"), ("grad_check", "floor"),
    # the entry point that tests call with their own argument lists
    ("run", "argv"),
}


def _defaulted(tree: ast.Module):
    """(function, parameter, position) of every parameter with a default in
    `tree`, dunders excepted; position counts the arguments a call passes
    (a method's self or cls is not one), None for a keyword-only one."""
    methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                fn.name.startswith("__") and fn.name.endswith("__")):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        skip = 1 if id(fn) in methods else 0
        for i in range(len(positional) - len(fn.args.defaults), len(positional)):
            yield fn.name, positional[i].arg, i - skip
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None


def _calls(trees):
    """Function name -> (keywords passed, most positional arguments passed)
    over every call in `trees`; a *args or **kwargs passes every one."""
    seen: dict[str, tuple[set, float]] = {}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            keywords, most = seen.get(name, (set(), 0))
            keywords |= {kw.arg for kw in call.keywords}  # None: a **kwargs
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            seen[name] = keywords, max(most, float("inf") if starred else len(call.args))
    return seen


def test_every_defaulted_parameter_is_set_by_a_program_path():
    files = sorted(PACKAGE.glob("*.py")) + sorted(HARNESS.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    calls = _calls(trees.values())
    found, unset = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, param, position in _defaulted(trees[path]):
            found.add((name, param))
            keywords, most = calls.get(name, (set(), 0))
            passed = param in keywords or None in keywords or (
                position is not None and most > position)
            if not passed and (name, param) not in ALLOWED:
                unset.append(f"{path.name}: {name}({param})")
    assert unset == []
    assert ALLOWED <= found  # the allow-list names only parameters that exist
