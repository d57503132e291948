"""Write one BENCH_<n>.json entry from the benchmark's .bench_out/ records.

    python3 tools/bench_record.py --tier1 TIER1.xml --out BENCH_<n>.json

The records must come from the tree being recorded, made beforehand:

    for w in bitleak-sweep psi-mixed circuit-recovery cli-1024; do
      for s in 1 2 3; do python3 perfbench/run.py --workload $w --seed $s --seconds 25 --trace 0; done
      python3 perfbench/run.py --workload $w --seed 0 --seconds 10 --trace 1
    done
    PYTHONPATH=src python3 -m pytest -q --junitxml=TIER1.xml

A record older than the newest src/ file is refused and named, since it
may come from another tree.  The entry holds the commit, whether src/ or
tests/ differed from it, a digest of the measured src/ files and the
line count of src/bfvlab/*.py with and without docstrings, comments
and blank lines, per workload the median and the runs of
each end-to-end metric over the seeds with each run's attempted op count,
the traced per-layer counts, the machine record, and the Tier-1 wall time with its five slowest tests.
Nothing is gated on it; a later entry is diffed against it.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tokenize
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = [1, 2, 3]  # untraced runs whose end-to-end metrics are summarised
TRACE_SEED = 0  # the traced run that gives the per-layer counts


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _src_files() -> list[Path]:
    return sorted((ROOT / "src").rglob("*.py"))


def src_digest() -> str:
    """sha256 over the path and bytes of every Python file under src/."""
    digest = hashlib.sha256()
    for path in _src_files():
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def src_lines() -> int:
    """Total line count of src/bfvlab/*.py, as `wc -l` counts it."""
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "bfvlab").glob("*.py"))


# token types that make no line a code line
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of one module that hold a token other than a comment, a newline or
    an indent, and lie outside every docstring: a string-constant expression
    that is the first statement of the module, a class or a function."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def src_code_lines() -> int:
    """code_lines summed over src/bfvlab/*.py: src_lines without proof text."""
    return sum(code_lines(path.read_text()) for path in (ROOT / "src" / "bfvlab").glob("*.py"))


def _load(records: Path, workload: str, seed: int, trace: int) -> dict:
    path = records / f"{workload}-seed{seed}-trace{trace}.json"
    if path.stat().st_mtime < max(src.stat().st_mtime for src in _src_files()):
        raise ValueError(f"{path} is older than the newest src/ file; rerun it on this tree")
    record = json.loads(path.read_text())
    if not record["result"]["correct"]:
        raise ValueError(f"{path} records a run whose checks failed")
    return record


def tier1_summary(junit: Path) -> dict:
    """Wall time, counts and the five slowest test cases of a pytest JUnit XML report."""
    suite = ET.parse(junit).getroot()
    if suite.tag == "testsuites":
        suite = suite.find("testsuite")
    cases = [
        (float(case.get("time", 0)), f"{case.get('classname')}::{case.get('name')}")
        for case in suite.iter("testcase")
    ]
    cases.sort(reverse=True)
    return {
        "wall_s": float(suite.get("time")),
        **{key: int(suite.get(key)) for key in ("tests", "failures", "errors", "skipped")},
        "slowest": [{"test": name, "s": round(s, 2)} for s, name in cases[:5]],
    }


def _summary(runs: list[dict], name: str) -> dict:
    values = [r["result"]["metrics"][name]["value"] for r in runs]
    unit = runs[0]["result"]["metrics"][name]["unit"]
    return {"median": statistics.median(values), "unit": unit, "runs": values}


def build_entry(records: Path, junit: Path) -> dict:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in benchmark["end_to_end"]]
    machines = []
    workloads = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = [_load(records, workload, seed, 0) for seed in SEEDS]
        traced = _load(records, workload, TRACE_SEED, 1)
        machines += [r["machine"] for r in (*runs, traced)]
        workloads[workload] = {
            "end_to_end": {name: _summary(runs, name) for name in end_to_end},
            # each run's op count, which peak_rss_mb grows with
            "attempted": [r["result"]["attempted"] for r in runs],
            "per_layer": {
                name: metric["value"] for name, metric in traced["result"]["metrics"].items()
            },
        }
    if any(m != machines[0] for m in machines):
        raise ValueError("the records were made on different machines")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--", "src", "tests")),
        "src_sha256": src_digest(),
        "src_lines": src_lines(),
        "src_code_lines": src_code_lines(),
        "seeds": SEEDS,
        "trace_seed": TRACE_SEED,
        "machine": machines[0],
        "workloads": workloads,
        "tier1": tier1_summary(junit),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier1", type=Path, required=True, help="pytest --junitxml report")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    parser.add_argument(
        "--records", type=Path, default=ROOT / ".bench_out", help="perfbench record directory"
    )
    args = parser.parse_args(argv)
    try:
        entry = build_entry(args.records, args.tier1)
    except (OSError, ValueError, KeyError, ET.ParseError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(entry, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
