#!/usr/bin/env python3
"""Compile test for switch exhaustiveness over tests/analyzer/switch_fixtures/.

The build enforces exhaustive enum switches through the compiler: the root
CMakeLists.txt adds -Wswitch-enum to every target, so a switch over an
enum must name each enumerator even when it has a `default:`. This test
pins that the flag does what the build relies on:

  * every *_good.cpp compiles clean with -Werror=switch -Werror=switch-enum;
  * every *_bad.cpp fails, with a switch diagnostic on exactly the lines
    marked `// expect-diag: switch` and no error of any other kind (a
    fixture that fails for an unrelated reason proves nothing).

(-Werror=switch is passed too because clang reports a switch without a
default under -Wswitch, not -Wswitch-enum.)

Usage: switch_selftest.py <c++ compiler>
Exit status: 0 pass, 1 fail.
"""

import os
import re
import subprocess
import sys

FLAGS = ["-std=c++17", "-fsyntax-only", "-Werror=switch",
         "-Werror=switch-enum"]
EXPECT_RE = re.compile(r"//\s*expect-diag:\s*switch\b")
ERROR_RE = re.compile(r"^(?P<file>[^:\s]+):(?P<line>\d+):\d+: error: "
                      r".*\[(?P<flag>[^\]]*)\]\s*$")


def compile_fixture(cxx, path):
    proc = subprocess.run([cxx] + FLAGS + [path], capture_output=True,
                          text=True)
    return proc.returncode, proc.stderr


def main():
    if len(sys.argv) != 2:
        print("usage: switch_selftest.py <c++ compiler>", file=sys.stderr)
        return 1
    cxx = sys.argv[1]
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "switch_fixtures")
    names = sorted(n for n in os.listdir(fixtures) if n.endswith(".cpp"))
    if not any(n.endswith("_bad.cpp") for n in names) or \
            not any(n.endswith("_good.cpp") for n in names):
        print("switch_selftest: need a bad and a good fixture "
              "(broken harness)", file=sys.stderr)
        return 1

    ok = True
    for name in names:
        path = os.path.join(fixtures, name)
        code, err = compile_fixture(cxx, path)
        if name.endswith("_good.cpp"):
            if code != 0:
                print(f"GOOD     {name}: expected a clean compile, got:\n"
                      f"{err}")
                ok = False
            continue
        with open(path, encoding="utf-8") as f:
            expected = {i for i, ln in enumerate(f, start=1)
                        if EXPECT_RE.search(ln)}
        actual = set()
        for ln in err.splitlines():
            m = ERROR_RE.match(ln)
            if m is None:
                continue
            if "switch" not in m.group("flag"):
                print(f"OTHER    {name}:{m.group('line')}: unrelated "
                      f"error [{m.group('flag')}]")
                ok = False
                continue
            actual.add(int(m.group("line")))
        if code == 0:
            print(f"BAD      {name}: compiled clean; expected failure")
            ok = False
        for line in sorted(expected - actual):
            print(f"MISSING  {name}:{line}: no switch diagnostic")
            ok = False
        for line in sorted(actual - expected):
            print(f"SPURIOUS {name}:{line}: unexpected switch diagnostic")
            ok = False
        if not expected:
            print(f"HARNESS  {name}: no expect-diag markers")
            ok = False

    if ok:
        print(f"switch_selftest: {len(names)} fixture(s) behaved as "
              f"expected under {os.path.basename(cxx)}")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
