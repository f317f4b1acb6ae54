#!/usr/bin/env python3
"""List the library exports that only tests name.

Run from anywhere:

    python3 tools/test_only_exports.py

For every `val NAME` declared in a `lib/**/*.mli`, search the `.ml` files
under lib, bin, examples and perfbench for NAME as a whole word (letters,
digits and `_` delimit a word), leaving out the module's own `.ml`. OCaml
comments (nested) and string literals are removed before the search, so a
word that appears only in prose or in a message does not count as a use.
Each export found nowhere else is printed as `PATH NAME`; each one must
say in its `.mli` why it stays.

The exit status is 1 when more than MAX_LINES exports are printed, else 0.
"""

import os
import re
import sys

MAX_LINES = 15
SEARCHED = ["lib", "bin", "examples", "perfbench"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

VAL = re.compile(r"^\s*val ([a-z_][A-Za-z0-9_]*)", re.M)
# A character literal: 'x', '\n', '\\', '\'', '\065', '\xff', '\o177'.
CHAR = re.compile(r"'(?:[^\\'\n]|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")
# The opening of a quoted string literal: {|...|} or {id|...|id}.
QUOTED = re.compile(r"\{([a-z_]*)\|")
IDENT = re.compile(r"[A-Za-z0-9_']")


def literal_end(src, i):
    """The index just past the string or character literal at [i], or None."""
    if src[i] == '"':
        i += 1
        while i < len(src) and src[i] != '"':
            i += 2 if src[i] == "\\" else 1
        return i + 1
    m = QUOTED.match(src, i)
    if m:
        end = src.find("|" + m.group(1) + "}", m.end())
        return len(src) if end < 0 else end + len(m.group(1)) + 2
    # a quote right after an identifier character belongs to the identifier (x')
    m = CHAR.match(src, i) if i == 0 or not IDENT.match(src[i - 1]) else None
    return m.end() if m else None


def strip(src):
    """[src] with every comment and string literal replaced by a space.

    As in OCaml's lexer, a literal inside a comment is skipped whole, so
    a quote or comment delimiter in it opens or closes nothing.
    """
    out = []
    depth = 0
    i = 0
    while i < len(src):
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
            if not depth:
                out.append(" ")
        else:
            end = literal_end(src, i)
            if end is None:
                if not depth:
                    out.append(src[i])
                i += 1
            else:
                i = end
                if not depth:
                    out.append(" ")
    return "".join(out)


def sources():
    """{path relative to the root: code without comments and strings} of every searched .ml."""
    code = {}
    for top in SEARCHED:
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith(".ml"):
                    path = os.path.join(d, f)
                    with open(path, encoding="utf-8") as fh:
                        code[os.path.relpath(path, ROOT)] = strip(fh.read())
    return code


def main():
    code = sources()
    found = []
    for d, dirs, files in os.walk(os.path.join(ROOT, "lib")):
        dirs.sort()
        for f in sorted(files):
            if not f.endswith(".mli"):
                continue
            mli = os.path.relpath(os.path.join(d, f), ROOT)
            with open(os.path.join(ROOT, mli), encoding="utf-8") as fh:
                names = sorted(set(VAL.findall(fh.read())))
            own = mli[:-1]
            for name in names:
                word = re.compile(r"(?<![A-Za-z0-9_])" + name + r"(?![A-Za-z0-9_])")
                if not any(word.search(text) for path, text in code.items() if path != own):
                    found.append("%s %s" % (mli, name))
    for line in found:
        print(line)
    if len(found) > MAX_LINES:
        print("test_only_exports: %d exports only tests name, at most %d may"
              % (len(found), MAX_LINES), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
