"""tools/bench_pairs.py alternates parent and change runs and summarises them."""

import importlib.util
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(side, pair, attempted=100):
    # the change is 10 ops/s faster on every pair but the third, uses 1 MB
    # more memory, and both sides share ok_ratio 1.0
    ops = 50.0 + pair + (10.0 if side == "change" and pair != 3 else 0.0)
    values = {
        "ops_per_s": ops, "latency_p50_ms": 1000 / ops, "latency_p99_ms": 2000 / ops,
        "ok_ratio": 1.0, "setup_s": 0.2, "peak_rss_mb": 40.0 + (side == "change"),
    }
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()}}


def test_pairs_alternate_and_the_table_holds_medians_wins_and_bounds():
    calls = []

    def runner(side, workload, seed, seconds, pair):
        calls.append((pair, side, seed, seconds, workload))
        return _result(side, pair)

    records = bench_pairs.run_pairs("circuit-recovery", 6, 25.0, 800, runner)
    # both sides of a pair run the same seed, one after the other, and the
    # side that runs first alternates, the change first on odd pairs
    assert [(pair, side) for pair, side, *_ in calls] == [
        (1, "change"), (1, "parent"), (2, "parent"), (2, "change"), (3, "change"), (3, "parent"),
        (4, "parent"), (4, "change"), (5, "change"), (5, "parent"), (6, "parent"), (6, "change"),
    ]
    assert {(pair, seed) for pair, _, seed, *_ in calls} == {(p, 800 + p) for p in range(1, 7)}
    assert {(s, w) for *_, s, w in calls} == {(25.0, "circuit-recovery")}
    assert [r["first"] for r in records] == ["change", "parent"] * 3
    # the layout differs from pair to pair in both its parts
    layouts = [r["layout"] for r in records]
    assert len({suffix for suffix, _ in layouts}) == 4 and len({pad for _, pad in layouts}) == 6
    assert [bench_pairs.layout(p) for p in (1, 5, 10, 11)] == [
        (0, 250), (0, 1250), (7, 2500), (19, 250),
    ]

    rows = {row["metric"]: row for row in bench_pairs.summarise(records, BENCHMARK)}
    assert list(rows) == [m["name"] for m in BENCHMARK["end_to_end"]]
    ops = rows["ops_per_s"]
    assert ops["parent"] == [51.0, 52.0, 53.0, 54.0, 55.0, 56.0]
    assert ops["change"] == [61.0, 62.0, 53.0, 64.0, 65.0, 66.0]
    assert statistics.median(ops["change"]) == 63.0
    assert ops["relative"] == (63.0 - 53.5) / 53.5
    # a tie is no win; lower is better for latency and memory
    assert (ops["wins"], rows["latency_p50_ms"]["wins"], rows["ok_ratio"]["wins"]) == (5, 5, 0)
    assert (rows["peak_rss_mb"]["wins"], rows["peak_rss_mb"]["relative"]) == (0, 1 / 40)
    assert {name: row["bound"] for name, row in rows.items()} == {
        m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]
    }

    lines = bench_pairs.table("circuit-recovery", 25.0, list(rows.values()))
    assert lines[0] == (
        "| circuit-recovery (6, 25 s) | ops_per_s | 53.5 [51, 56] | 63 [53, 66]"
        " | +17.8% | 5/6 | 15% |"
    )
    assert "| +2.5% | 0/6 | 10% |" in lines[-1]
    claim = bench_pairs.claim_line("circuit-recovery", list(rows.values()), "ops_per_s")
    assert claim.startswith("circuit-recovery ops_per_s: median change +9.5 against")
    pairs = bench_pairs.pair_lines("circuit-recovery", records)
    assert pairs[1] == (
        "circuit-recovery pair 2 seed 802 (+7 name chars, PAD 500 B, parent first): "
        "parent 100 ops 52/s 40 MB setup 0.2 s; change 100 ops 62/s 41 MB setup 0.2 s"
    )
