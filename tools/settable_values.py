"""Count the values a user of eventscan can set, per module of ``src/eventscan``.

Three things count, one each:

- a module-level UPPER_CASE name (a leading underscore allowed), assigned
  with or without an annotation;
- an annotated field with a default in a public class (a class whose name
  has no leading underscore), such as a dataclass or NamedTuple field;
- a default of a public function or method, positional or keyword-only
  (a module-level function or a method of a public class, whose name has no
  leading underscore; nested functions do not count).

Prints one ``module count`` line per module, sorted, then ``total count``:

    python tools/settable_values.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eventscan"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _public(name: str) -> bool:
    return not name.startswith("_")


def _defaults(fn) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _targets(node) -> list:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    names = []
    for target in targets:
        elts = target.elts if isinstance(target, ast.Tuple) else [target]
        names += [e.id for e in elts if isinstance(e, ast.Name)]
    return names


def count(tree: ast.Module) -> int:
    n = 0
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            n += sum(bool(CONSTANT.fullmatch(name)) for name in _targets(node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
            n += _defaults(node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and item.value is not None:
                    n += 1
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(item.name):
                    n += _defaults(item)
    return n


def main() -> int:
    counts = {path.stem: count(ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))}
    for module, n in counts.items():
        print(f"{module} {n}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
