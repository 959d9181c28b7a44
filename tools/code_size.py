"""Print the size of the kit's sources: lines, and lines that hold `isinstance`.

    python3 tools/code_size.py

Counts every line of every .py file under src/, blank lines and comments
included (what `wc -l` counts), and the lines among them that contain
the word `isinstance`: the two figures ROADMAP.md tracks for the design.
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    lines = [line for path in sorted(SRC.rglob("*.py"))
             for line in path.read_text().splitlines()]
    print(f"src/ lines: {len(lines)}")
    print(f"src/ lines with isinstance: {sum('isinstance' in line for line in lines)}")


if __name__ == "__main__":
    main()
