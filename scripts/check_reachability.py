#!/usr/bin/env python3
"""Reachability gate: library functions that no program links.

    python3 scripts/check_reachability.py [--build-dir build] [PROGRAM...]

Lists the eqimpact:: functions defined (nm type T or W) in the layer
archives BUILD_DIR/src/*.a that no program binary contains, and fails
unless every one of them is covered by a line of
scripts/reachability_allowlist.txt and every line covers at least one
of them. The programs are the
example_* executables under BUILD_DIR/examples, the bench_* executables
under BUILD_DIR/bench, and every PROGRAM given (perfbench, which builds
in a tree of its own). Tests are not programs: a function only a test
calls is unreached.

Each allowlist line is `PREFIX REASON`. PREFIX is the start of a
function's demangled name (`eqimpact::ml::Dataset` covers the class, a
name up to its `(` covers one overload); REASON is one of

  oracle  a test compares a shipped path against it;
  hook    an input path that waits for its data file;
  audit   the paper's Definitions 1-4 audits.

Blank lines and lines starting with `#` are ignored.

The build must be unoptimised and section-collected, or the list means
nothing: configure with -DCMAKE_BUILD_TYPE=Debug
-DCMAKE_CXX_FLAGS=-ffunction-sections
-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections. At -O2 a used function can
be inlined everywhere and leave no out-of-line copy in any program.

Only out-of-line functions are seen. A function defined in a header
(a class body or `inline`) reaches an archive only if some library .cc
uses it; one that only tests call is in no archive, so the gate cannot
report it.

Prints the names added (unreached, on no line) and removed (lines that
match nothing unreached). Exit code: 0 when the two lists agree, 1 when
they differ, 2 on a usage error. Needs only the Python standard library
and binutils' nm.
"""

import argparse
import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "scripts", "reachability_allowlist.txt")
REASONS = ("oracle", "hook", "audit")
OPEN, CLOSE = "<([{", ">)]}"
ANONYMOUS = "(anonymous namespace)"


def fail(message):
    print("check_reachability: " + message, file=sys.stderr)
    sys.exit(2)


def defined_functions(path, types):
    """Demangled names of the symbols of `path` whose nm type is in
    `types`."""
    result = subprocess.run(["nm", "-C", "--defined-only", path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            universal_newlines=True)
    if result.returncode != 0:
        fail("nm %s: %s" % (path, result.stderr.strip()))
    names = set()
    for line in result.stdout.splitlines():
        # "<address> <type> <name>"; archive member headers have no type.
        fields = line.split(" ", 2)
        if len(fields) == 3 and fields[1] in types:
            names.add(fields[2])
    return names


def qualified_name(symbol):
    """The symbol from its function's qualified name on: a function
    template's demangled return type is cut off, so that
    `double eqimpact::f<int>(int)` reads `eqimpact::f<int>(int)`."""
    depth = 0
    name_start = 0
    i = 0
    while i < len(symbol):
        if depth == 0 and symbol.startswith(ANONYMOUS, i):
            i += len(ANONYMOUS)
            continue
        if symbol.startswith("operator", i) and (i == 0 or
                                                 symbol[i - 1] in ": "):
            # An operator name is one token: operator<, operator()...
            i += len("operator")
            if symbol.startswith("()", i) or symbol.startswith("[]", i):
                i += 2
            elif i < len(symbol) and symbol[i] == " ":
                i += 1  # a conversion, operator new or operator delete
            while i < len(symbol) and symbol[i] in "<>=!+-*/%&|^~,":
                i += 1
            continue
        c = symbol[i]
        if c in OPEN:
            if depth == 0 and c == "(":
                break  # the parameter list
            depth += 1
        elif c in CLOSE:
            depth -= 1
        elif c == " " and depth == 0:
            name_start = i + 1
        i += 1
    return symbol[name_start:]


def read_allowlist(path):
    """The allowlist's (prefix, reason) pairs, in file order."""
    entries = []
    try:
        with open(path) as stream:
            lines = stream.read().splitlines()
    except OSError as error:
        fail("allowlist %s: %s" % (path, error.strerror))
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.rsplit(None, 1)
        if len(fields) != 2 or fields[1] not in REASONS:
            fail("%s:%d: want `PREFIX REASON` with REASON one of %s" %
                 (path, number, ", ".join(REASONS)))
        entries.append((fields[0], fields[1]))
    return entries


def covers(prefix, name):
    """True if `prefix` is a start of `name` that ends a whole token."""
    if not name.startswith(prefix):
        return False
    rest = name[len(prefix):]
    return not rest or not (rest[0].isalnum() or rest[0] == "_")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("programs", nargs="*", metavar="PROGRAM")
    args = parser.parse_args()

    archives = sorted(glob.glob(os.path.join(args.build_dir, "src", "*.a")))
    if not archives:
        fail("no layer archives under %s/src" % args.build_dir)
    programs = sorted(
        path for pattern in ("examples/example_*", "bench/bench_*")
        for path in glob.glob(os.path.join(args.build_dir, pattern))
        if os.path.isfile(path) and os.access(path, os.X_OK))
    if not programs:
        fail("no example_* or bench_* programs under %s" % args.build_dir)
    for program in args.programs:
        if not os.path.isfile(program):
            fail("no program %s" % program)
    programs += args.programs

    defined = set()
    for archive in archives:
        defined |= defined_functions(archive, "TW")
    linked = set()
    for program in programs:
        linked |= defined_functions(program, "TtWw")
    unreached = sorted(
        name for name in (qualified_name(symbol)
                          for symbol in defined - linked)
        if name.startswith("eqimpact::"))

    entries = read_allowlist(ALLOWLIST)
    added = [name for name in unreached
             if not any(covers(prefix, name) for prefix, _ in entries)]
    removed = ["%s %s" % (prefix, reason) for prefix, reason in entries
               if not any(covers(prefix, name) for name in unreached)]

    print("check_reachability: %d archives, %d programs, %d unreached "
          "eqimpact:: functions, %d allowlist lines" %
          (len(archives), len(programs), len(unreached), len(entries)))
    for name in added:
        print("added (reached by no program, on no allowlist line): " + name)
    for line in removed:
        print("removed (allowlist line that matches nothing unreached): " +
              line)
    if added or removed:
        print("check_reachability: FAILED. Delete the code no program "
              "needs, or give it an allowlist line with its reason; "
              "drop lines whose code is gone or now linked.")
        return 1
    print("check_reachability: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
