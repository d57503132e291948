"""Run alternating parent/change pairs of the benchmark and print their table.

    python3 tools/bench_pairs.py --workload circuit-recovery --pairs 10 \\
        --seconds 25 --seed-base 800 [--parent REV] [--change REV] [--scratch DIR]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once on each side, with the same seed, each side from a new export of its
tree: ``git archive REV`` for a revision, or a copy of the working tree's
tracked and untracked, not ignored, files when ``--change`` is omitted.  The
side that runs first alternates: the change on odd pairs, the parent on even
ones.  The process layout varies from pair to pair and is the same for both
sides of a pair: the export directories' names grow by a pair-dependent
suffix and a ``PAD`` environment variable of 250 to 2500 bytes is set, since
one fixed layout can move a reading by several percent.

The table has, per workload and end-to-end metric of ``BENCHMARK.json``,
the parent's and the change's median [min, max], the change in the median,
the pairs the change won (strictly better in the metric's direction) and the
metric's bound.  A line per pair lists each side's attempted ops,
``ops_per_s``, ``peak_rss_mb`` and ``setup_s``, and a line per workload sets the median
gain in ``ops_per_s`` against the parent's interquartile range.
The exit code is 1 when any run's checks failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Per pair: extra characters in both export directories' names, and PAD bytes.
NAME_SUFFIXES = (0, 7, 19, 41)
PAD_BYTES = tuple(range(250, 2501, 250))


def layout(pair: int) -> tuple[int, int]:
    """(name suffix length, PAD bytes) of pair 1, 2, ...: both cycle, at coprime periods."""
    return NAME_SUFFIXES[(pair - 1) % len(NAME_SUFFIXES)], PAD_BYTES[(pair - 1) % len(PAD_BYTES)]


def order(pair: int) -> tuple[str, str]:
    """The sides of pair 1, 2, ... in the order they run: the change first on odd pairs."""
    return ("change", "parent") if pair % 2 else ("parent", "change")


def run_pairs(workload: str, pairs: int, seconds: float, seed_base: int, runner) -> list[dict]:
    """Run every pair through runner(side, workload, seed, seconds, pair) -> result,
    where a result is run.py's last output line; one record per pair."""
    records = []
    for pair in range(1, pairs + 1):
        seed = seed_base + pair
        record = {"pair": pair, "seed": seed, "layout": layout(pair), "first": order(pair)[0]}
        for side in order(pair):
            record[side] = runner(side, workload, seed, seconds, pair)
        records.append(record)
    return records


def _values(records: list[dict], side: str, metric: str) -> list[float]:
    return [r[side]["metrics"][metric]["value"] for r in records]


def summarise(records: list[dict], benchmark: dict) -> list[dict]:
    """One row per end-to-end metric: both sides' runs, the median change and the wins."""
    rows = []
    for spec in benchmark["end_to_end"]:
        name, higher = spec["name"], spec["better"] == "higher"
        parent, change = (_values(records, side, name) for side in SIDES)
        base = statistics.median(parent)
        delta = statistics.median(change) - base
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        rows.append({
            "metric": name, "parent": parent, "change": change,
            "relative": delta / base if base else 0.0, "wins": wins, "bound": spec["bound"],
        })
    return rows


def _spread(values: list[float]) -> str:
    return f"{statistics.median(values):.4g} [{min(values):.4g}, {max(values):.4g}]"


def table(workload: str, seconds: float, rows: list[dict]) -> list[str]:
    lines = []
    for row in rows:
        label = f"{workload} ({len(row['parent'])}, {seconds:g} s)"
        lines.append(
            f"| {label} | {row['metric']} | {_spread(row['parent'])} | {_spread(row['change'])}"
            f" | {row['relative']:+.1%} | {row['wins']}/{len(row['parent'])}"
            f" | {row['bound']:.0%} |"
        )
    return lines


def pair_lines(workload: str, records: list[dict]) -> list[str]:
    lines = []
    for r in records:
        sides = []
        for side in SIDES:
            result = r[side]
            metrics = result["metrics"]
            sides.append(
                f"{side} {result['attempted']} ops {metrics['ops_per_s']['value']:.4g}/s"
                f" {metrics['peak_rss_mb']['value']:.4g} MB"
                f" setup {metrics['setup_s']['value']:.3g} s"
            )
        suffix, pad = r["layout"]
        lines.append(
            f"{workload} pair {r['pair']} seed {r['seed']} (+{suffix} name chars, PAD {pad} B,"
            f" {r['first']} first): " + "; ".join(sides)
        )
    return lines


def claim_line(workload: str, rows: list[dict], metric: str = "ops_per_s") -> str:
    row = next(r for r in rows if r["metric"] == metric)
    parent = row["parent"]
    low, _, high = statistics.quantiles(parent, n=4)
    gain = statistics.median(row["change"]) - statistics.median(parent)
    return (
        f"{workload} {metric}: median change {gain:+.4g} against the parent's"
        f" interquartile range {high - low:.4g} (quartiles {low:.4g}-{high:.4g});"
        f" change won {row['wins']}/{len(parent)}"
    )


def _git(*args: str, **kwargs):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kwargs)


def export(rev: str | None, dest: Path) -> None:
    """A new copy of revision rev, or of the working tree when rev is None, at dest."""
    dest.mkdir(parents=True)
    if rev is None:
        listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
        for name in filter(None, listed.decode().split("\0")):
            source = ROOT / name
            if source.is_file():  # a deleted tracked file is listed too
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, dest / name)
        return
    archive = _git("archive", "--format=tar", rev).stdout
    with tempfile.TemporaryFile() as raw:
        raw.write(archive)
        raw.seek(0)
        with tarfile.open(fileobj=raw) as tar:
            tar.extractall(dest, filter="data")


class Runner:
    """Runs one side of one pair from a new export under scratch, then removes it."""

    def __init__(self, revs: dict, scratch: Path) -> None:
        self.revs, self.scratch = revs, scratch

    def __call__(self, side: str, workload: str, seed: int, seconds: float, pair: int) -> dict:
        suffix, pad = layout(pair)
        tree = self.scratch / f"pair{pair}-{side}{'x' * suffix}"
        shutil.rmtree(tree, ignore_errors=True)
        export(self.revs[side], tree)
        command = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        try:
            done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                                  env={**os.environ, "PAD": "x" * pad})
        finally:
            shutil.rmtree(tree, ignore_errors=True)
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"{side} {workload} seed {seed} printed nothing: "
                               f"{done.stderr[-500:]}")
        return json.loads(lines[-1])


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--seed-base", type=int, required=True, help="pair k runs seed base + k")
    parser.add_argument("--parent", default="HEAD", help="revision of the parent side")
    parser.add_argument("--change", default=None, help="revision of the change side "
                        "(default: the working tree)")
    parser.add_argument("--scratch", type=Path, default=None, help="directory for the exports")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the parent's quartiles")
    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner({"parent": args.parent, "change": args.change}, scratch)
    rows_md, failed = [], 0
    for workload in args.workload:
        records = run_pairs(workload, args.pairs, args.seconds, args.seed_base, runner)
        failed += sum(not r[side]["correct"] for r in records for side in SIDES)
        rows = summarise(records, benchmark)
        rows_md += table(workload, args.seconds, rows)
        print("\n".join([*pair_lines(workload, records), claim_line(workload, rows)]), flush=True)
    print("| workload (pairs, run length) | metric | parent median [min, max]"
          " | change median [min, max] | change | change wins | bound |")
    print("|---|---|---|---|---|---|---|")
    print("\n".join(rows_md))
    if failed:
        print(f"error: {failed} runs failed their checks", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
