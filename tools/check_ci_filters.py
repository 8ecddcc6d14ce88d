#!/usr/bin/env python3
"""Fail when a sanitizer job's ``--gtest_filter`` names tests that do not exist.

    python3 tools/check_ci_filters.py build/nvcim_tests [--workflow .github/workflows/ci.yml]

The ASan and TSan jobs in the CI workflow run ``nvcim_tests`` with a
``--gtest_filter='A.*:B*.*:...'`` allow-list. A pattern that matches no test
(the suite was deleted or renamed) silently runs nothing, so that suite's
sanitizer coverage disappears without any job failing. This check lists the
suite's tests (``--gtest_list_tests``) and matches every pattern of every
``--gtest_filter`` in the workflow against the full ``Suite.Test`` names,
with gtest's glob rules (``*`` any run of characters, ``?`` one character).
Negative patterns (after a ``-``) are checked the same way.

Exit status: 0 = every pattern matches a test, 1 = stale pattern(s),
2 = usage/IO error.
"""

import argparse
import fnmatch
import os
import re
import subprocess
import sys

FILTER_RE = re.compile(r"--gtest_filter='([^']*)'")


def list_tests(binary):
    """Full ``Suite.Test`` names as ``--gtest_list_tests`` prints them."""
    out = subprocess.run([binary, "--gtest_list_tests"], capture_output=True, text=True,
                         timeout=120, check=True).stdout
    names, suite = [], None
    for line in out.splitlines():
        entry = line.split("#", 1)[0].rstrip()  # drop "# GetParam() = ..." comments
        if not entry:
            continue
        if not line.startswith(" "):
            suite = entry if entry.endswith(".") else None  # skip the banner line
        elif suite is not None:
            names.append(suite + entry.strip())
    return names


def filters(workflow):
    """(line number, pattern) for every pattern of every --gtest_filter."""
    with open(workflow) as f:
        text = f.read()
    for m in FILTER_RE.finditer(text):
        line = text.count("\n", 0, m.start()) + 1
        for part in m.group(1).replace("-", ":").split(":"):
            if part:
                yield line, part


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("binary", help="the built nvcim_tests executable")
    ap.add_argument("--workflow", default=os.path.join(".github", "workflows", "ci.yml"),
                    help="CI workflow holding the filters (default: %(default)s)")
    args = ap.parse_args()

    try:
        names = list_tests(args.binary)
        patterns = list(filters(args.workflow))
    except (OSError, subprocess.SubprocessError) as e:
        print(f"check_ci_filters: {e}", file=sys.stderr)
        return 2
    if not names or not patterns:
        print(f"check_ci_filters: found {len(names)} tests and {len(patterns)} filter "
              "patterns; expected both to be non-empty", file=sys.stderr)
        return 2

    stale = [(line, p) for line, p in patterns
             if not any(fnmatch.fnmatchcase(n, p) for n in names)]
    for line, p in stale:
        print(f"STALE  {args.workflow}:{line}: --gtest_filter pattern '{p}' "
              "matches no test")
    print(f"check_ci_filters: {len(patterns)} patterns against {len(names)} tests, "
          f"{len(stale)} stale")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
