import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour():
    # the README's python blocks run in order; an expression statement with a
    # trailing "# value" comment must have exactly that repr
    blocks = README.read_text().split("```python\n")[1:]
    assert len(blocks) == 2
    namespace: dict = {}
    checked = 0
    for block in blocks:
        source = block.split("```", 1)[0]
        lines = source.splitlines()
        for stmt in ast.parse(source).body:
            comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
            code = ast.get_source_segment(source, stmt)
            if isinstance(stmt, ast.Expr) and comment.startswith("#"):
                value = eval(compile(code, "README.md", "eval"), namespace)
                assert repr(value) == comment[1:].strip(), code
                checked += 1
            else:
                exec(compile(code, "README.md", "exec"), namespace)
    assert checked == 9


def test_public_names():
    import apavoid

    names = apavoid.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(apavoid, name) for name in names)
    namespace: dict = {}
    exec("from apavoid import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
