"""Print each statement of trapkit's function bodies that no tier-1 test runs.

Run it by hand from the repository root::

    PYTHONPATH=src python tests/line_audit.py

It runs the tier-1 suite in this process, without
``test_criterion_7_desk_scale_performance``, under a ``sys.settrace`` and
``threading.settrace`` collector limited to the files of the imported
``trapkit`` package. Then it prints ``module.py:LINE function: source`` for
each statement in a function body that never ran, and exits with pytest's
exit status. Docstrings and ``nonlocal``/``global`` declarations are not
statements that run, so they are never printed. Code that only a child
process runs (``cli.run``, which the subprocess tests start) is printed too.

Tracing takes about twice the suite's time. Tests that count cyclic garbage
or traced memory can fail under it, as the collector allocates while they
measure; they pass untraced. pytest does not collect this file.
"""

import ast
import contextlib
import os
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SLOW_TEST = "test_criterion_7_desk_scale_performance"


@contextlib.contextmanager
def traced(directory):
    """Yield ``{file name: line numbers run}`` for the files under ``directory``.

    It fills while the block runs, in this thread and in threads started in
    it. The previous trace functions are put back on exit.
    """
    prefix = os.path.join(str(directory), "")
    hits: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        add = hits.setdefault(filename, set()).add

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return line

        return line

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(trace)
    threading.settrace(trace)
    try:
        yield hits
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])


def function_statements(path):
    """``(first line, last line, function)`` of each statement in a function body of ``path``.

    ``function`` is the innermost enclosing function's qualified name. A
    compound statement spans its own body, so it counts as run when any line
    of it ran.
    """
    found = []

    def visit(node, qualname, in_function):
        for child in ast.iter_child_nodes(node):  # except handlers and match cases hold bodies too
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qualname}.{child.name}" if qualname else child.name
                visit(child, name, in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, qualname, in_function)
            docstring = (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and child is node.body[0] and ast.get_docstring(node) is not None)
            if (in_function and isinstance(child, ast.stmt) and not docstring
                    and not isinstance(child, (ast.Nonlocal, ast.Global))):
                found.append((child.lineno, child.end_lineno, qualname))

    visit(ast.parse(path.read_text(encoding="utf-8")), "", False)
    return sorted(found)


def unreached(path, lines_run):
    """``(line, function, source)`` of each statement of ``path`` that no line of ``lines_run`` is in."""
    source = path.read_text(encoding="utf-8").splitlines()
    return [(first, function, source[first - 1].strip())
            for first, last, function in function_statements(path)
            if lines_run.isdisjoint(range(first, last + 1))]


def main():
    import pytest

    import trapkit

    directory = Path(trapkit.__file__).parent
    os.chdir(REPO)  # pytest reads its testpaths from the rootdir's pyproject.toml
    with traced(directory) as hits:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              "-k", f"not {SLOW_TEST}"])
    for path in sorted(directory.glob("*.py")):
        for line, function, text in unreached(path, hits.get(str(path), set())):
            print(f"{path.name}:{line} {function}: {text}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
