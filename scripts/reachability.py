#!/usr/bin/env python3
"""Reachability gate: every out-of-line library function must be reached
by a shipped binary (a bench, an example or perfbench) or be listed in
scripts/reachability_allowlist.txt with a reason.

How reachability is measured. The tree is built at -O0 -fno-inline
-ffunction-sections and every executable is linked with --gc-sections,
so a function's section survives in a binary only when something the
binary runs references it. The candidate set is every global text
symbol (nm type T) defined by an object of the src/ libraries; a
candidate is reached by a binary when that binary still defines it.
perfbench/perfbench.cc is compiled and linked against the same
libraries here, since its own build lives outside the top-level tree.

Each candidate lands in one class:

  shipped    kept by some bench/*, examples/* or perfbench binary
  test-only  kept only by tests/test_* or fuzz/*_replay
  unreached  kept by nothing

The gate fails when

  * a test-only or unreached function is not on the allowlist,
  * an allowlist entry names no function the libraries define (the
    list cannot rot), or names a shipped one (the entry is dead),
  * an entry is malformed, repeated, or its reason is not one of the
    four kinds below.

Allowlist format, one function per line, `#` lines are comments:

  <demangled name>  # <kind>: <why>

where <kind> is one of
  oracle       an independent reference the tests check against
  probe        a test probe or seam into a shipped class
  fuzz         a fuzz target's entry point
  roadmap N    scheduled by ROADMAP.md item N

Usage:
  scripts/reachability.py              # build into build-reach/, gate
  scripts/reachability.py --self-test  # the gate on synthetic symbols

The build takes about 1.5 min on 4 cores from cold and seconds when
incremental. Exit 0 iff the gate passes.
"""

import argparse
import os
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / "build-reach"
ALLOWLIST = ROOT / "scripts" / "reachability_allowlist.txt"

CXXFLAGS = "-O0 -fno-inline -ffunction-sections"
LDFLAGS = "-Wl,--gc-sections"

REASON_RE = re.compile(r"^(oracle|probe|fuzz|roadmap \d+): \S")
ENTRY_SEP = "  # "


class ReachError(Exception):
    pass


# ---------------------------------------------------------------- allowlist

def parse_allowlist(text):
    """Returns ({name: reason}, [problems]) for an allowlist's text."""
    entries = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line.lstrip().startswith("#"):
            continue
        if ENTRY_SEP not in line:
            problems.append(f"allowlist:{lineno}: no '{ENTRY_SEP.strip()} "
                            f"<reason>' after the name: {line}")
            continue
        name, reason = line.split(ENTRY_SEP, 1)
        name, reason = name.strip(), reason.strip()
        if not REASON_RE.match(reason):
            problems.append(f"allowlist:{lineno}: reason must start with "
                            f"'oracle:', 'probe:', 'fuzz:' or 'roadmap N:': "
                            f"{reason}")
        if name in entries:
            problems.append(f"allowlist:{lineno}: duplicate entry: {name}")
        entries[name] = reason
    return entries, problems


# ------------------------------------------------------------------- verdict

def classify(defined, shipped_kept, test_kept):
    """Splits `defined` (names) into (shipped, test_only, unreached) sets."""
    shipped = defined & shipped_kept
    test_only = (defined & test_kept) - shipped
    unreached = defined - shipped - test_only
    return shipped, test_only, unreached


def gate(defined, shipped_kept, test_kept, allowlist, allow_problems=()):
    """Returns (findings, counts). Pure: the self-test drives it directly."""
    shipped, test_only, unreached = classify(defined, shipped_kept,
                                             test_kept)
    findings = list(allow_problems)
    for name in sorted(test_only - allowlist.keys()):
        findings.append(f"test-only, not on the allowlist: {name}")
    for name in sorted(unreached - allowlist.keys()):
        findings.append(f"unreached, not on the allowlist: {name}")
    for name in sorted(allowlist.keys() - defined):
        findings.append(f"allowlist names no library function: {name}")
    for name in sorted(allowlist.keys() & shipped):
        findings.append(f"allowlist names a shipped function: {name}")
    counts = {"defined": len(defined), "shipped": len(shipped),
              "test_only": len(test_only), "unreached": len(unreached)}
    return findings, counts


# --------------------------------------------------------------------- build

def run(cmd, **kwargs):
    proc = subprocess.run(cmd, **kwargs)
    if proc.returncode != 0:
        raise ReachError("command failed: " + " ".join(map(str, cmd)))
    return proc


def build_tree(build_dir):
    configure = ["cmake", "-S", str(ROOT), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS_DEBUG=",
                 f"-DCMAKE_CXX_FLAGS={CXXFLAGS}",
                 f"-DCMAKE_EXE_LINKER_FLAGS={LDFLAGS}"]
    if shutil.which("ninja"):
        configure[1:1] = ["-G", "Ninja"]
    if not (build_dir / "CMakeCache.txt").exists():
        run(configure, stdout=subprocess.DEVNULL)
    run(["cmake", "--build", str(build_dir), "--parallel",
         str(os.cpu_count() or 1)], stdout=subprocess.DEVNULL)


def cache_value(build_dir, key):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    raise ReachError(f"{key} not in {build_dir}/CMakeCache.txt")


def libraries(build_dir):
    libs = sorted((build_dir / "src").glob("*/libdap_*.a"))
    if not libs:
        raise ReachError(f"no src libraries under {build_dir}/src")
    return libs


def build_perfbench(build_dir):
    """Compiles and links perfbench.cc like perfbench/CMakeLists.txt does."""
    cxx = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    obj = build_dir / "perfbench.o"
    exe = build_dir / "perfbench"
    run([cxx, "-std=c++20", *CXXFLAGS.split(), "-DDAP_CONTRACTS_LEVEL=1",
         "-I", str(ROOT / "src"), "-c", str(ROOT / "perfbench" /
                                            "perfbench.cc"), "-o", str(obj)])
    run([cxx, str(obj), "-o", str(exe), LDFLAGS, "-Wl,--start-group",
         *map(str, libraries(build_dir)), "-Wl,--end-group", "-pthread"])
    return exe


def text_symbols(path):
    """Mangled names of the global text symbols `path` defines."""
    out = run(["nm", "--defined-only", str(path)], capture_output=True,
              text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] == "T":
            names.add(parts[2])
    return names


def demangle(names):
    names = sorted(names)
    out = run(["c++filt"], input="\n".join(names), capture_output=True,
              text=True).stdout.splitlines()
    if len(out) != len(names):
        raise ReachError("c++filt returned a different number of names")
    return dict(zip(names, out))


def executables(directory, pattern):
    return sorted(p for p in directory.glob(pattern)
                  if p.is_file() and os.access(p, os.X_OK))


def measure(build_dir):
    build_tree(build_dir)
    shipped_bins = (executables(build_dir / "bench", "*") +
                    executables(build_dir / "examples", "*") +
                    [build_perfbench(build_dir)])
    test_bins = (executables(build_dir / "tests", "test_*") +
                 executables(build_dir / "fuzz", "*_replay"))
    if len(shipped_bins) < 2 or not test_bins:
        raise ReachError(f"expected bench, example and test binaries "
                         f"under {build_dir}")

    defined = set()
    for lib in libraries(build_dir):
        defined |= text_symbols(lib)

    def kept(bins):
        names = set()
        for exe in bins:
            names |= text_symbols(exe) & defined
        return names

    shipped_kept = kept(shipped_bins)
    test_kept = kept(test_bins)
    # Constructor and destructor variants (C1/C2, D1/D2) share one
    # demangled name; a function counts as reached when any variant is.
    names = demangle(defined)
    return ({names[m] for m in defined},
            {names[m] for m in shipped_kept},
            {names[m] for m in test_kept})


# ----------------------------------------------------------------- self-test

def self_test():
    defined = {"a::shipped()", "a::oracle()", "a::seam(int)", "a::dead()"}
    shipped = {"a::shipped()"}
    tests = {"a::shipped()", "a::oracle()", "a::seam(int)"}
    good = ("# header comment\n"
            "a::oracle()  # oracle: reference for the tests\n"
            "a::seam(int)  # probe: fault-injection seam\n"
            "a::dead()  # roadmap 7: folded into strategy next\n")
    cases = [
        ("clean tree and list", good, defined, 0),
        ("unlisted test-only function",
         good.replace("a::seam(int)  # probe: fault-injection seam\n", ""),
         defined, 1),
        ("unlisted unreached function",
         good.replace("a::dead()  # roadmap 7: folded into strategy next\n",
                      ""), defined, 1),
        ("stale entry", good + "a::gone()  # oracle: deleted since\n",
         defined, 1),
        ("entry for a shipped function",
         good + "a::shipped()  # probe: still listed\n", defined, 1),
        ("reason of no known kind",
         good.replace("# oracle: reference", "# handy: reference"),
         defined, 1),
        ("entry without a reason", good + "a::other()\n",
         defined | {"a::other()"}, 2),
        ("duplicate entry", good + "a::dead()  # fuzz: twice\n", defined, 1),
    ]
    failed = 0
    for label, text, defs, want in cases:
        entries, problems = parse_allowlist(text)
        findings, _ = gate(defs, shipped, tests, entries, problems)
        verdict = "OK" if len(findings) == want else "WRONG"
        if len(findings) != want:
            failed += 1
        print(f"  [self-test] {label}: {len(findings)} finding(s), "
              f"want {want}: {verdict}")
        for f in findings:
            print(f"      {f}")

    _, counts = gate(defined, shipped, tests, parse_allowlist(good)[0])
    want_counts = {"defined": 4, "shipped": 1, "test_only": 2,
                   "unreached": 1}
    if counts != want_counts:
        failed += 1
        print(f"  [self-test] class counts {counts} != {want_counts}")

    # The checked-in list must at least parse cleanly.
    _, problems = parse_allowlist(ALLOWLIST.read_text())
    for p in problems:
        failed += 1
        print(f"  [self-test] checked-in {p}")

    if failed:
        print(f"self-test FAILED: {failed} case(s)")
        return 1
    print("self-test OK: the gate fires on every doctored list")
    return 0


# ---------------------------------------------------------------------- main

def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()

    try:
        defined, shipped_kept, test_kept = measure(BUILD_DIR)
    except ReachError as err:
        print(f"reachability: {err}", file=sys.stderr)
        return 1
    entries, problems = parse_allowlist(ALLOWLIST.read_text())
    findings, counts = gate(defined, shipped_kept, test_kept, entries,
                            problems)
    print(f"reachability: {counts['defined']} library functions, "
          f"{counts['shipped']} shipped, {counts['test_only']} test-only, "
          f"{counts['unreached']} unreached, {len(entries)} allowlisted")
    for f in findings:
        print(f"reachability: {f}")
    if findings:
        print(f"reachability: FAILED ({len(findings)} finding(s))")
        return 1
    print("reachability: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
