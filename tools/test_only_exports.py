#!/usr/bin/env python3
"""List the library exports that only tests name, and those no code names.

Run from anywhere:

    python3 tools/test_only_exports.py

For every `val` declared in a `lib/**/*.mli`, search the `.ml` files under
lib, bin, examples and perfbench for a use of it. OCaml comments (nested)
and string literals are removed first, so a word that appears only in
prose or in a message is not a use.

A use must reach the value through its own module path; another module's
value of the same name is not one, and nor is the module's own `.ml`,
which names its values bare. The rules:

- a qualified path whose last module is the value's module: `M.v`, also
  `Lib.M.v`, where `M` is a sibling in the same library, a module of a
  library wrapper (`Mpk_util`) or of an opened wrapper;
- a file-local alias: `module J = Mpk_trace.Json` or `let module K = ...
  in`, then `J.v`;
- an open: `open M` (to the end of its structure), `let open M in` (to
  the end of its enclosing bracket, or the next structure item in column
  0) and `M.( ... )`, `M.[ ... ]`, `M.{ ... }` (inside the brackets), then
  a bare `v`;
- a re-export in an interface: `module Key_cache = Key_cache` and
  `include module type of struct include Api end` in `libmpk.mli`, so
  `Libmpk.Key_cache.v` and `Libmpk.v` reach `Key_cache.v` and `Api.v`;
- a nested `module X : sig ... end` in an interface: its values are
  `M.X.v` (`Task.Updates.add`).

A functor's result signature (`Dataflow.MustMay`) and a `module type` are
not searched: their values are reached through an application (`Held.add`).
A qualified name that is also a type of its module (`Keystore.mode`) does
not count after `:` or `of`, or inside a `type` declaration.

Each export that only files under test/ use is printed as `PATH NAME`;
each one must say in its `.mli` why it stays. Each export that no code
names at all, tests included, is printed as `PATH NAME unused`.

A variant constructor declared in an interface is unused, and printed
the same way, when no `.ml` file (tests included, its own module's too)
names it outside a type declaration. Constructors are searched by bare
name, since type-directed disambiguation lets code name them without a
module path; a name before a `.` (a module path) or after `module`,
`open`, `include` or `exception` is not a use. Module re-exports
(`module Key_cache = Key_cache`) are not searched.

The exit status is 1 when any export is unused, or when more than
MAX_LINES exports only tests name; else 0.
"""

import os
import re
import sys

MAX_LINES = 15
SEARCHED = ["lib", "bin", "examples", "perfbench"]
TESTS = ["test"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A character literal: 'x', '\n', '\\', '\'', '\065', '\xff', '\o177'.
CHAR = re.compile(r"'(?:[^\\'\n]|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")
# The opening of a quoted string literal: {|...|} or {id|...|id}.
QUOTED = re.compile(r"\{([a-z_]*)\|")
IDENT = re.compile(r"[A-Za-z0-9_']")
# Where a comment, string or character literal may begin or a comment end.
SPECIAL = re.compile(r"\(\*|\*\)|\"|\{[a-z_]*\||'")
TOKEN = re.compile(
    r"[~?][a-z_][A-Za-z0-9_']*:?"  # a label
    r"|'[a-z_][A-Za-z0-9_]*"  # a type variable
    r"|[A-Z][A-Za-z0-9_']*|[a-z_][A-Za-z0-9_']*"
    r"|[0-9][A-Za-z0-9_]*(?:\.[0-9A-Za-z_]*)?"
    r"|;;|::|:=|:>|->|<-|[()\[\]{}.:;=|,]"
    r"|[!$%&*+\-/<>?@^~#]+"
)
OPENERS = {"(", "[", "{", "begin", "struct", "sig", "object", "do"}
CLOSERS = {")", "]", "}", "end", "done"}
# Keywords that, in column 0, begin a structure item.
ITEMS = {"let", "and", "type", "module", "open", "include", "exception",
         "external", "class", ";;"}
# Keywords that begin a signature item.
SIG_ITEMS = {"val", "type", "and", "module", "include", "exception", "external",
             "open", "class", ";;"}
# Keywords that end a type declaration in a structure or a signature.
DECL_END = {"let", "val", "module", "open", "include", "exception", "external", "class",
            ";;"}
# Keywords after which a capitalized name is not a constructor use.
NOT_CONSTRUCTOR = {"module", "open", "include", "exception"}
# Tokens after which a type annotation is over.
VALUE_AGAIN = {"=", ";", "in", "with", "then", "else", "fun", "function",
               "match", "let", "if", "when", "<-", ":=", ","}


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
    while True:
        m = SPECIAL.search(src, i)
        if not m:
            if not depth:
                out.append(src[i:])
            return "".join(out)
        j = m.start()
        if not depth:
            out.append(src[i:j])
        if m.group() == "(*":
            depth += 1
            i = j + 2
        elif m.group() == "*)" and depth:
            depth -= 1
            i = j + 2
            if not depth:
                out.append(" ")
        else:
            end = literal_end(src, j)
            if end is None:
                if not depth:
                    out.append(src[j])
                i = j + 1
            else:
                i = end
                if not depth:
                    out.append(" ")


def tokens(code):
    """[(token, starts a line)] of stripped code."""
    return [(m.group(), m.start() == 0 or code[m.start() - 1] == "\n")
            for m in TOKEN.finditer(code)]


class Module:
    """A module of some lib interface: its values and the modules inside it."""

    def __init__(self, mli, path):
        self.mli = mli  # the interface that declares it
        self.path = path  # its path inside that interface: "" or "Updates"
        self.vals = []
        self.types = set()
        self.constructors = []  # of the variant types it declares
        self.children = {}  # name -> Module, or a path that re-exports one
        self.includes = []  # paths of the modules whose values it re-exports


def read_interface(mli, text):
    """The Module of [mli]: its values, types, nested modules and re-exports.

    A functor's result signature and a `module type` are skipped whole.
    """
    top = Module(mli, "")
    toks = [t for t, _ in tokens(strip(text))]
    frames = [top]  # the module each open sig/struct/begin belongs to; None: skipped
    pending = None  # what the next `sig` opens
    i = 0
    while i < len(toks):
        t = toks[i]
        cur = frames[-1]
        nxt = toks[i + 1] if i + 1 < len(toks) else ""
        if t == "module" and nxt == "type":
            pending = None
            i += 2
            continue
        if t == "module" and nxt[:1].isupper():
            name = nxt
            after = toks[i + 2] if i + 2 < len(toks) else ""
            if after == "(":
                pending = None  # a functor: its result is not searched
            elif after == ":" and i + 3 < len(toks) and toks[i + 3] == "sig" and cur is not None:
                child = Module(mli, (cur.path + "." if cur.path else "") + name)
                cur.children[name] = child
                pending = child
            elif after == "=" and cur is not None:
                cur.children[name] = read_path(toks, i + 3)[0]
            else:
                pending = None
            i += 2
            continue
        if t == "include" and cur is not None and nxt[:1].isupper():
            cur.includes.append(read_path(toks, i + 1)[0])
        if t == "sig":
            frames.append(pending)
            pending = None
        elif t in OPENERS:
            frames.append(cur)
        elif t in CLOSERS and len(frames) > 1:
            frames.pop()
        elif t == "val" and cur is not None and (nxt[:1].islower() or nxt[:1] == "_"):
            if nxt not in cur.vals:
                cur.vals.append(nxt)
        elif t in ("type", "and") and cur is not None:
            j = i + 1
            while j < len(toks) and (toks[j] in ("nonrec", "(", ")", ",", "+", "-")
                                     or toks[j].startswith("'")):
                j += 1
            if j < len(toks) and toks[j][:1].islower():
                cur.types.add(toks[j])
            cur.constructors += constructors(toks, j)
        i += 1
    return top


def constructors(toks, i):
    """The variant constructors of the type declaration whose name is at toks[i].

    A constructor is a capitalized name at the declaration's own bracket
    depth that no `.` follows (`= M.t` is a type path); the declaration
    ends at the next signature item.
    """
    out = []
    depth = 0
    for j in range(i + 1, len(toks)):
        t = toks[j]
        if t in OPENERS:
            depth += 1
        elif t in CLOSERS:
            if not depth:
                break
            depth -= 1
        elif not depth and t in SIG_ITEMS:
            break
        elif not depth and t[:1].isupper() and (j + 1 == len(toks) or toks[j + 1] != "."):
            out.append(t)
    return out


def read_path(toks, i):
    """The dotted module path at toks[i] as a tuple, and the index past it."""
    path = []
    while i < len(toks) and toks[i][:1].isupper():
        path.append(toks[i])
        if i + 2 < len(toks) and toks[i + 1] == "." and toks[i + 2][:1].isupper():
            i += 2
        else:
            i += 1
            break
    return tuple(path), i


class Library:
    """A wrapped dune library: its directory, name and modules."""

    def __init__(self, dirname, name):
        self.dir = dirname
        self.name = name
        self.modules = {}  # capitalized file name -> Module


class World:
    """Every lib interface, and the resolution of module paths to Modules."""

    def __init__(self, root):
        self.libs = []
        for d, dirs, files in os.walk(os.path.join(root, "lib")):
            dirs.sort()
            if "dune" not in files:
                continue
            with open(os.path.join(d, "dune"), encoding="utf-8") as fh:
                m = re.search(r"\(name\s+([a-z_0-9]+)\)", fh.read())
            if not m:
                continue
            lib = Library(os.path.relpath(d, root), m.group(1))
            for f in sorted(files):
                if f.endswith(".mli"):
                    mli = os.path.join(lib.dir, f)
                    with open(os.path.join(root, mli), encoding="utf-8") as fh:
                        lib.modules[f[:-4].capitalize()] = read_interface(mli, fh.read())
            self.libs.append(lib)
        # what a wrapper name (`Mpk_util`, `Libmpk`) names: the library's
        # main module when it has one, else the library's modules
        self.wrappers = {}
        for lib in self.libs:
            wrapper = lib.name.capitalize()
            self.wrappers[wrapper] = lib.modules.get(wrapper, lib)

    def library_of(self, path):
        for lib in self.libs:
            if os.path.dirname(path) == lib.dir:
                return lib
        return None

    def lookup(self, node, name):
        """The modules [name] names inside [node] (a Library or a Module)."""
        if isinstance(node, Library):
            m = node.modules.get(name)
            return [m] if m else []
        child = node.children.get(name)
        if isinstance(child, Module):
            return [child]
        if child:  # a re-export: resolved in the interface's own library
            return self.resolve(child, self.library_of(node.mli), {}, [])
        return []

    def resolve(self, path, lib, aliases, opened):
        """The Modules a module path may name in a file.

        [lib] is the file's own library, [aliases] its local module
        aliases, [opened] the Libraries and Modules it opens.
        """
        if not path:
            return []
        first = path[0]
        if first in aliases:
            nodes = aliases[first]
        else:
            nodes = []
            if lib and first in lib.modules:
                nodes.append(lib.modules[first])
            for o in opened:
                nodes += self.lookup(o, first)
            if not nodes and first in self.wrappers:
                nodes.append(self.wrappers[first])
        for name in path[1:]:
            nodes = [n for node in nodes for n in self.lookup(node, name)]
        return nodes

    def reexported(self, node):
        """[node] and every module whose values it includes."""
        out = [node]
        for path in node.includes:
            for m in self.resolve(path, self.library_of(node.mli), {}, []):
                out += self.reexported(m)
        return out


def uses(world, path, code):
    """{(mli, module path, name)} of every value [code] reaches by its module path."""
    lib = world.library_of(path)
    toks = tokens(code)
    words = [t for t, _ in toks]
    aliases = {}
    opened = []  # every Library or Module the file opens, for the first module of a path
    found = set()

    def resolve(p):
        return [m for m in world.resolve(p, lib, aliases, opened) if isinstance(m, Module)]

    def use(nodes, name, in_type):
        for node in nodes:
            for m in world.reexported(node):
                if name in m.vals and not (in_type and name in m.types):
                    found.add((m.mli, m.path, name))

    depth = 0
    scopes = []  # (modules, depth, ends at a column-0 item) of each open in scope
    in_type = None  # None, or the depth of the annotation or declaration being read
    decl = False  # inside a `type` declaration
    i = 0
    n = len(toks)
    while i < n:
        t, bol = toks[i]
        if bol and t in ITEMS:
            scopes = [s for s in scopes if not (s[2] and depth <= s[1])]
            decl = t == "type" or (t == "and" and decl)
            in_type = depth if decl else None
        if t in OPENERS:
            depth += 1
        elif t in CLOSERS:
            depth -= 1
            scopes = [s for s in scopes if s[1] <= depth]
            if in_type is not None and depth < in_type:
                in_type, decl = None, False
        elif t in (":", "of", "type", "val"):
            if in_type is None:
                in_type = depth
            decl = decl or t in ("type", "val")
        elif t in VALUE_AGAIN and in_type is not None and not decl and depth <= in_type:
            in_type = None
        if t == "open" or (t == "module" and i + 1 < n and words[i + 1][:1].isupper()):
            local = i > 0 and words[i - 1] == "let"
            j = i + 1
            if t == "open" and j < n and words[j] == "!":
                j += 1
            if t == "module":
                name = words[j]
                if j + 1 < n and words[j + 1] == "=":
                    p, k = read_path(words, j + 2)
                    if p and (k == n or words[k] != "("):
                        target = world.resolve(p, lib, aliases, opened)
                        aliases[name] = aliases.get(name, []) + target
                i = j + 1
                continue
            p, i = read_path(words, j)
            opened += world.resolve(p, lib, aliases, opened)
            scopes.append((resolve(p), depth, local))
            continue
        if t[:1].isupper():
            p, j = read_path(words, i)
            if j + 1 < n and words[j] == ".":
                nxt = words[j + 1]
                if nxt in ("(", "[", "{"):
                    # a local open: the brackets' contents see the module
                    scopes.append((resolve(p), depth + 1, False))
                    i = j + 1
                    continue
                if nxt[:1].islower() or nxt[:1] == "_":
                    use(resolve(p), nxt, in_type is not None)
                    i = j + 2
                    continue
            i = j
            continue
        if (t[:1].islower() or t[:1] == "_") and not (i > 0 and words[i - 1] == "."):
            for mods, _, _ in scopes:
                use(mods, t, in_type is not None)
        i += 1
    return found


def constructor_uses(code):
    """Every capitalized name [code] names outside a type declaration, as a
    constructor may be: not a module path's (`M.`) and not a module's,
    an open's or an exception's own name."""
    words = [t for t, _ in tokens(code)]
    names = set()
    depth = 0
    decl = None  # the depth of the type declaration being read
    for i, t in enumerate(words):
        if t in OPENERS:
            depth += 1
        elif t in CLOSERS:
            depth -= 1
            if decl is not None and depth < decl:
                decl = None
        elif t == "type":
            if decl is None:
                decl = depth
        elif decl is not None:
            if depth <= decl and t in DECL_END:
                decl = None
        elif (t[:1].isupper() and (i + 1 == len(words) or words[i + 1] != ".")
              and (i == 0 or words[i - 1] not in NOT_CONSTRUCTOR)):
            names.add(t)
    return names


def read_sources(root, tops):
    """{path relative to [root]: code without comments and strings} of each .ml under [tops]."""
    code = {}
    for top in tops:
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith(".ml"):
                    path = os.path.join(d, f)
                    with open(path, encoding="utf-8") as fh:
                        code[os.path.relpath(path, root)] = strip(fh.read())
    return code


def search(root):
    """([(mli, name) only tests use], [(mli, name) no code uses]) under [root]."""
    world = World(root)
    used, tested, named = set(), set(), set()
    for path, code in read_sources(root, SEARCHED).items():
        used |= uses(world, path, code)
        named |= constructor_uses(code)
    for path, code in read_sources(root, TESTS).items():
        tested |= uses(world, path, code)
        named |= constructor_uses(code)
    test_only, unused = [], []

    def walk(m):
        for name in sorted(m.vals):
            key = (m.mli, m.path, name)
            if key in used:
                continue
            label = (m.path + "." if m.path else "") + name
            (test_only if key in tested else unused).append((m.mli, label))
        for name in m.constructors:
            if name not in named:
                unused.append((m.mli, (m.path + "." if m.path else "") + name))
        for child in m.children.values():
            if isinstance(child, Module) and child.mli == m.mli:
                walk(child)

    for lib in world.libs:
        for m in lib.modules.values():
            walk(m)
    return sorted(test_only), sorted(unused)


def main(root=ROOT):
    test_only, unused = search(root)
    for mli, name in test_only:
        print("%s %s" % (mli, name))
    for mli, name in unused:
        print("%s %s unused" % (mli, name))
    status = 0
    if unused:
        print("test_only_exports: %d exports no code names, tests included"
              % len(unused), file=sys.stderr)
        status = 1
    if len(test_only) > MAX_LINES:
        print("test_only_exports: %d exports only tests name, at most %d may"
              % (len(test_only), MAX_LINES), file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
