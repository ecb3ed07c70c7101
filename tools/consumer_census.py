#!/usr/bin/env python3
"""List the src/ headers that nothing outside their own module uses.

A header `src/<dir>/<name>.h` counts as consumed when some file under
src/, bench/, examples/ or perfbench/ includes it as "<dir>/<name>.h".
Its own `src/<dir>/<name>.cpp` does not count, and neither does
tests/: a module only its unit tests reach is code no consumer needs.

Prints one line per unconsumed header and exits 1 if there is any;
prints a one-line summary and exits 0 otherwise.

Usage:
    tools/consumer_census.py [REPO_ROOT]
"""

import pathlib
import re
import sys

CONSUMER_DIRS = ("src", "bench", "examples", "perfbench")
SOURCE_SUFFIXES = {".h", ".cpp"}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def includers(root):
    """Map each quoted include path to the set of files that include it."""
    found = {}
    for top in CONSUMER_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for target in INCLUDE.findall(text):
                found.setdefault(target, set()).add(path)
    return found


def unconsumed(root):
    src = root / "src"
    found = includers(root)
    orphans = []
    for header in sorted(src.rglob("*.h")):
        own_cpp = header.with_suffix(".cpp")
        users = found.get(header.relative_to(src).as_posix(), set())
        if not users - {own_cpp}:
            orphans.append(header.relative_to(root).as_posix())
    return orphans


def main(argv):
    if len(argv) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = pathlib.Path(argv[1] if len(argv) == 2
                        else pathlib.Path(__file__).resolve().parent.parent)
    if not (root / "src").is_dir():
        print(f"consumer_census: no src/ under {root}", file=sys.stderr)
        return 2
    orphans = unconsumed(root)
    for header in orphans:
        print(f"unconsumed: {header}")
    if orphans:
        print(f"consumer_census: {len(orphans)} header(s) that no file in "
              f"{', '.join(CONSUMER_DIRS)} includes")
        return 1
    print("consumer_census: every src header has a consumer")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
