#!/usr/bin/env python3
"""Run the check table, tests/checks.json. Each row is one ctest,
`check.<row>` (tests/CMakeLists.txt registers them), and runs its command
`cmd`, then each command in `then`, once per point of its `jobs` x
`sim_threads` axes, in a fresh directory. Arguments may use the
placeholders {out} (that directory), {jobs}, {threads} and {git_sha}
(the SHA the build was configured from).
A row then checks:

  stdout     the stdout of `cmd`, byte for byte, against a golden;
  artifacts  each file the commands wrote, with the manifest dropped (a
             JSON `"meta"` line, a trace's `"metadata"` line, a CSV's
             `# key:` lines other than `# schema:`), against a golden
             byte for byte, or against the SHA-256 that a `*.sha256`
             golden holds;
  expect     regexes a file must contain (`match`) or must not
             (`absent`);
  anchors    paper values in the stdout of `cmd`: under the first table
             after the `== heading ==` line, the one row whose `where`
             columns hold the given cells, the number in `column`. It
             must lie within `tol` of `paper`, or, when the paper states
             a bound, satisfy `relation` (<, <=, >, >=) against it. A
             locator that selects no row, or more than one, fails.

Goldens live in tests/golden/. On failure the row, its commands and a
unified diff, digest mismatch or anchor reading go to stderr, and the
exit status is 1.

Usage: scripts/checks.py [--build-dir DIR] [ROW...]
(default: build/, every row).
"""

import argparse
import difflib
import hashlib
import itertools
import json
import operator
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
RELATIONS = {"<": operator.lt, "<=": operator.le,
             ">": operator.gt, ">=": operator.ge}
NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?")


class Failure(Exception):
    pass


def drop_manifest(data):
    return b"".join(
        line for line in data.splitlines(keepends=True)
        if b'"meta"' not in line and b'"metadata"' not in line
        and not (line.startswith(b"# ") and not line.startswith(b"# schema:")))


def compare(name, got, golden):
    """Raise Failure unless @p got matches @p golden (bytes or digest)."""
    if golden.suffix == ".sha256":
        want = golden.read_text().strip()
        digest = hashlib.sha256(got).hexdigest()
        if digest != want:
            raise Failure(f"{name}: digest {digest} differs from "
                          f"{golden.name} ({want})")
        return
    want = golden.read_bytes()
    if got != want:
        diff = difflib.unified_diff(
            want.decode(errors="replace").splitlines(keepends=True),
            got.decode(errors="replace").splitlines(keepends=True),
            f"tests/golden/{golden.relative_to(GOLDEN)}", name)
        raise Failure(f"{name} differs from its golden:\n" + "".join(diff))


def table(stdout, heading):
    """The header and data rows of the first table after == heading ==."""
    lines = stdout.splitlines()
    if f"== {heading} ==" not in lines:
        raise Failure(f"no '== {heading} ==' in stdout")
    rows, started = [], False
    for line in lines[lines.index(f"== {heading} ==") + 1:]:
        if line.startswith("+"):
            started = True
        elif line.startswith("|") and started:
            rows.append([cell.strip() for cell in line[1:-1].split("|")])
        elif started:
            break
    if not rows:
        raise Failure(f"no table under '== {heading} =='")
    return rows[0], rows[1:]


def check_anchor(stdout, a):
    where = " / ".join(f"{k}={v}" for k, v in a["where"].items())
    spot = f"anchor [{a['section']}] '{a['heading']}' {where} {a['column']}"
    header, rows = table(stdout, a["heading"])
    for col in list(a["where"]) + [a["column"]]:
        if col not in header:
            raise Failure(f"{spot}: no column '{col}'")
    hits = [r for r in rows if all(r[header.index(k)] == v
                                   for k, v in a["where"].items())]
    if len(hits) != 1:
        raise Failure(f"{spot}: selects {len(hits)} rows, not 1")
    cell = hits[0][header.index(a["column"])]
    number = NUMBER.search(cell)
    if not number:
        raise Failure(f"{spot}: cell '{cell}' holds no number")
    value, paper = float(number.group()), a["paper"]
    relation = a.get("relation")
    if relation:
        if not RELATIONS[relation](value, paper):
            raise Failure(f"{spot}: measured {value:g}, paper "
                          f"{relation} {paper:g}")
    elif abs(value - paper) > a["tol"]:
        raise Failure(f"{spot}: measured {value:g}, paper {paper:g} "
                      f"± {a['tol']:g}")


def binary(build, name):
    for sub in ("bench", "examples", "tools"):
        if (build / sub / name).is_file():
            return str(build / sub / name)
    raise Failure(f"no '{name}' under {build}/{{bench,examples,tools}}")


def run_point(row, build, out, fill):
    """Run one axis point of @p row: (argvs, failures, payloads)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    for name, text in row.get("inputs", {}).items():
        (out / name).write_text(text)
    commands = [row["cmd"]] + row.get("then", [])
    argvs = [[binary(build, c[0])] + [fill(a) for a in c[1:]]
             for c in commands]
    stdout = None
    for argv in argvs:
        proc = subprocess.run(argv, capture_output=True)
        if proc.returncode != 0:
            return argvs, [f"exit status {proc.returncode}: "
                           f"{shlex.join(argv)}\n"
                           + proc.stderr.decode(errors="replace")[-4000:]], 0
        stdout = proc.stdout if stdout is None else stdout
    checks = []
    if "stdout" in row:
        checks.append(lambda: compare("stdout", stdout,
                                      GOLDEN / row["stdout"]))
    for name, golden in row.get("artifacts", {}).items():
        checks.append(lambda n=name, g=golden: compare(
            n, drop_manifest((out / n).read_bytes()), GOLDEN / g))
    payloads = len(checks)
    for e in row.get("expect", []):
        checks.append(lambda e=e: expect(out / e["file"], e, fill))
    for a in row.get("anchors", []):
        checks.append(lambda a=a: check_anchor(stdout.decode(), a))
    failures = []
    for check in checks:
        try:
            check()
        except (Failure, OSError) as err:
            failures.append(str(err))
    return argvs, failures, payloads


def expect(path, e, fill):
    text = path.read_text(errors="replace")
    if "match" in e and not re.search(fill(e["match"]), text):
        raise Failure(f"{path.name}: no match for /{fill(e['match'])}/")
    if "absent" in e and (hit := re.search(fill(e["absent"]), text)):
        raise Failure(f"{path.name}: /{fill(e['absent'])}/ matches "
                      f"'{hit.group()}'")


def run_row(row, build, out_root, git_sha):
    """Run every axis point of @p row; return its payload count or None."""
    payloads, ok = 0, True
    for jobs, threads in itertools.product(row.get("jobs", [None]),
                                           row.get("sim_threads", [None])):
        axes = [(flag, v) for flag, v in (("--jobs", jobs),
                                          ("--sim-threads", threads))
                if v is not None]
        point = " ".join(f"{flag} {v}" for flag, v in axes)
        out = out_root / row["name"] / (
            "_".join(f"{flag[2:]}{v}" for flag, v in axes) or "run")
        subst = {"{jobs}": str(jobs), "{threads}": str(threads),
                 "{git_sha}": git_sha, "{out}": str(out)}

        def fill(arg):
            for key, value in subst.items():
                arg = arg.replace(key, value)
            return arg
        try:
            argvs, failures, n = run_point(row, build, out, fill)
        except Failure as err:
            argvs, failures, n = [], [str(err)], 0
        payloads += n
        if failures:
            ok = False
            print(f"FAIL check.{row['name']} {point}".rstrip(),
                  file=sys.stderr)
            for argv in argvs:
                print(f"  $ {shlex.join(argv)}", file=sys.stderr)
            for failure in failures:
                print(failure, file=sys.stderr)
    return payloads if ok else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--build-dir", type=Path, default=REPO / "build")
    parser.add_argument("rows", nargs="*")
    args = parser.parse_args()
    rows = json.loads((REPO / "tests" / "checks.json").read_text())["rows"]
    names = [r["name"] for r in rows]
    unknown = [n for n in args.rows if n not in names]
    if unknown:
        parser.error(f"no row {', '.join(unknown)} in tests/checks.json")
    selected = [r for r in rows if not args.rows or r["name"] in args.rows]
    build = args.build_dir.resolve()
    version = (build / "generated/obs/version.hh").read_text()
    git_sha = re.search(r'IMSIM_GIT_SHA "(.*)"', version).group(1)
    payloads, anchors, failed = 0, 0, []
    for row in selected:
        n = run_row(row, build, build / "checks", git_sha)
        if n is None:
            failed.append(row["name"])
            continue
        payloads += n
        anchors += len(row.get("anchors", []))
    if failed:
        print(f"checks: FAILED {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"checks: OK (rows {len(selected)}, payloads compared "
          f"{payloads}, anchors {anchors})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
