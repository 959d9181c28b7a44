"""Print the size of the kit's sources: lines, lines that hold `isinstance`
(in all and per module), and the definitions of each rule that has a
scalar and a batched twin.

    python3 tools/code_size.py

Counts every line of every .py file under src/, blank lines and comments
included (what `wc -l` counts), and the lines among them that contain
the word `isinstance`: the two figures ROADMAP.md tracks for the design.
The `isinstance` lines are also split by module, for information: most
of `codec.py`'s are input checks, so the split shows which are dispatch.
It also counts the import lines inside a function or class body (an
indented `import` or `from ... import`), per module, for information:
an import deferred into a function usually hides an import cycle.
The last figure counts, for each rule below, the `def` lines of its
scalar name against those of its batched twin (`image` against
`images`, say), methods and module functions alike: a rule written once
along the last axis shows 0 on one side.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# each scalar rule name and the name of its batched twin
TWINS = (("image", "images"), ("witness", "witnesses"),
         ("inverse_distance", "inverse_distances"), ("value", "values"),
         ("evaluate", "evaluate_rows"), ("residual", "residuals"),
         ("penalty_value", "penalty_values"), ("excess", "excesses"),
         ("pattern_search", "pattern_searches"), ("ball_search", "ball_searches"),
         ("fallback_witness", "fallback_witnesses"))


def main() -> None:
    modules = {path.relative_to(SRC).as_posix(): path.read_text().splitlines()
               for path in sorted(SRC.rglob("*.py"))}
    lines = [line for text in modules.values() for line in text]
    print(f"src/ lines: {len(lines)}")
    per_module = {name: sum("isinstance" in line for line in text)
                  for name, text in modules.items()}
    print(f"src/ lines with isinstance: {sum(per_module.values())}")
    print("src/ lines with isinstance per module: "
          + ", ".join(f"{name} {n}" for name, n in per_module.items() if n))
    nested = {name: sum(bool(re.match(r"\s+(import|from \S+ import) ", line)) for line in text)
              for name, text in modules.items()}
    print(f"src/ function-level import lines: {sum(nested.values())}"
          + "".join(f", {name} {n}" for name, n in nested.items() if n))
    defs = [m.group(1) for line in lines if (m := re.match(r"\s*def (\w+)\(", line))]
    counts = ", ".join(f"{one} {defs.count(one)}/{defs.count(many)}" for one, many in TWINS)
    print(f"src/ scalar/batched twin definitions: {counts}")


if __name__ == "__main__":
    main()
