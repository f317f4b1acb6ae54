#!/usr/bin/env python3
"""Check tools/test_only_exports.py against a tiny source tree.

Run from anywhere:

    python3 tools/test_only_exports_fixture.py

The tree below has one use for each rule by which the search resolves a
value through its module path, and values that only a test, a comment, a
string, the module's own .ml, another module's same-named value or a type
annotation name. Of its variant constructors, one is named by its own
module's .ml and one only by a test; the third only by type declarations,
a comment, a string and a module of the same name. The search must print
exactly the expected lines and exit 1, since the tree has unused values.
Exits 1 on any difference.
"""

import contextlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import test_only_exports  # noqa: E402

TREE = {
    "lib/a/dune": "(library (name lib_a))\n",
    "lib/a/m.mli": """
type mode = Fast | Slow | Turbo

val qualified : int
val through_lib : int
val aliased : int
val let_aliased : int
val opened : int
val let_opened : int
val local_opened : int
val test_only : int
val unused : int
val in_comment : int
val shadowed : int
val own_use : int
val mode : mode

module Nested : sig
  type t

  val nested_val : int
  val nested_unused : int
end

type alias = Nested.t

module F (X : sig end) : sig
  val functor_val : int
end
""",
    "lib/a/m.ml": """
type mode = Fast | Slow | Turbo

let own_use = 1
let twice = own_use + own_use
let default = Fast
""",
    "lib/a/n.mli": "val shadowed : int\n",
    "lib/a/n.ml": "let shadowed = 0\n",
    "lib/c/dune": "(library (name libc))\n",
    "lib/c/libc.mli": """
module K = K

include module type of struct
  include Api
end
""",
    "lib/c/k.mli": "val via_reexport : int\n",
    "lib/c/api.mli": "val via_include : int\n",
    "bin/main.ml": """
let _ = Lib_a.M.through_lib

module J = Lib_a.M

let _ = J.aliased

let f () =
  let module L = Lib_a.M in
  L.let_aliased

open Lib_a

let _ = M.qualified
let _ = M.Nested.nested_val
let _ = N.shadowed
let shadowed = 2
let id (x : M.mode) = x

(* M.in_comment, M.Turbo *)
let _ = "M.in_comment, Turbo"

module Turbo = Lib_a.N

let _ = Turbo.shadowed

module G = M.F (struct end)

let _ = G.functor_val
let _ = Libc.K.via_reexport
let _ = Libc.via_include
""",
    "bin/opens.ml": "open Lib_a.M\n\nlet _ = opened\n",
    "bin/local.ml": """
let _ = Lib_a.M.(local_opened)

let g () =
  let open Lib_a.M in
  let_opened
""",
    "test/t.ml": "let _ = Lib_a.M.test_only\nlet _ = Lib_a.M.Slow\n",
}

EXPECTED = """\
lib/a/m.mli test_only
lib/a/m.mli Nested.nested_unused unused
lib/a/m.mli Turbo unused
lib/a/m.mli in_comment unused
lib/a/m.mli mode unused
lib/a/m.mli own_use unused
lib/a/m.mli shadowed unused
lib/a/m.mli unused unused
"""


def main():
    with tempfile.TemporaryDirectory() as root:
        for path, text in TREE.items():
            os.makedirs(os.path.join(root, os.path.dirname(path)), exist_ok=True)
            with open(os.path.join(root, path), "w", encoding="utf-8") as fh:
                fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = test_only_exports.main(root)
    ok = True
    if out.getvalue() != EXPECTED:
        print("test_only_exports_fixture: the search printed\n%s\nexpected\n%s"
              % (out.getvalue(), EXPECTED), file=sys.stderr)
        ok = False
    if status != 1:
        print("test_only_exports_fixture: exit status %d, expected 1 (unused values)"
              % status, file=sys.stderr)
        ok = False
    if ok:
        print("test_only_exports_fixture: ok")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
