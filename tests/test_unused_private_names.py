"""Every top-level private name of a filmhom module is read somewhere in
filmhom outside its own definition."""

import ast
from pathlib import Path

import filmhom

SRC = Path(filmhom.__file__).resolve().parent


def _bound(statement):
    """The names a top-level statement defines or assigns."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [statement.target])
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _read(statement):
    """The names a statement reads: bare names, attributes and imports."""
    out = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_top_level_name_is_read():
    statements = []     # (module, statement, names it reads)
    for path in sorted(SRC.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((path.stem, statement, _read(statement)))
    unread = [f"{module}.{name}" for module, statement, _ in statements
              for name in _bound(statement)
              if name.startswith("_") and not name.startswith("__")
              and not any(name in reads for _, other, reads in statements
                          if other is not statement)]
    assert not unread, f"private names read nowhere in filmhom: {unread}"
