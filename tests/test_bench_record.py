"""tools/bench_record.py summarises benchmark records into one entry."""

import importlib.util
import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
MACHINE = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}


def _write_record(records, workload, seed, trace, metrics, attempted=3):
    result = {"correct": True, "attempted": attempted, "failed": 0,
              "metrics": {name: {"value": v, "unit": "u"} for name, v in metrics.items()}}
    record = {"workload": workload, "seed": seed, "trace": trace, "machine": MACHINE,
              "result": result}
    (records / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_entry_holds_medians_layers_machine_and_tier1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_record, "_git", lambda *args: "abc123")
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    for w in BENCHMARK["workloads"]:
        for seed, value in ((1, 5.0), (2, 1.0), (3, 3.0)):
            _write_record(tmp_path, w["name"], seed, 0, {n: value for n in names}, 100 * seed)
        _write_record(tmp_path, w["name"], 0, 1, {"ring.sample.calls": 4.0})
    junit = tmp_path / "tier1.xml"
    cases = "".join(
        f'<testcase classname="tests.test_x" name="t{i}" time="{i}.0"/>' for i in range(7)
    )
    junit.write_text(
        '<testsuites><testsuite name="pytest" tests="7" failures="0" errors="0" '
        f'skipped="0" time="21.5">{cases}</testsuite></testsuites>'
    )
    entry = bench_record.build_entry(tmp_path, junit)
    assert (entry["commit"], entry["machine"]) == ("abc123", MACHINE)
    sources = (ROOT / "src" / "bfvlab").glob("*.py")
    assert entry["src_lines"] == sum(len(path.read_text().splitlines()) for path in sources) > 0
    assert 0 < entry["src_code_lines"] < entry["src_lines"]
    for w in BENCHMARK["workloads"]:
        summary = entry["workloads"][w["name"]]
        assert {n: s["median"] for n, s in summary["end_to_end"].items()} == dict.fromkeys(names, 3.0)
        assert summary["end_to_end"][names[0]]["runs"] == [5.0, 1.0, 3.0]
        # each run's op count sits beside its metrics, in seed order
        assert summary["attempted"] == [100, 200, 300]
        assert summary["per_layer"] == {"ring.sample.calls": 4.0}
    tier1 = entry["tier1"]
    assert (tier1["wall_s"], tier1["tests"], tier1["failures"]) == (21.5, 7, 0)
    assert [c["test"] for c in tier1["slowest"]] == [f"tests.test_x::t{i}" for i in (6, 5, 4, 3, 2)]

    # a record older than the newest src/ file may come from another tree:
    # it is refused and named
    out = tmp_path / "BENCH.json"
    stale = tmp_path / "cli-1024-seed3-trace0.json"
    mtime = stale.stat().st_mtime
    os.utime(stale, (0, 0))
    argv = ["--tier1", str(junit), "--out", str(out), "--records", str(tmp_path)]
    assert bench_record.main(argv) == 1
    assert str(stale) in capsys.readouterr().err
    assert not out.exists()
    os.utime(stale, (mtime, mtime))

    # a record whose checks failed is refused, not summarised
    _write_record(tmp_path, "psi-mixed", 2, 0, dict.fromkeys(names, 1.0))
    failed = json.loads((tmp_path / "psi-mixed-seed2-trace0.json").read_text())
    failed["result"]["correct"] = False
    (tmp_path / "psi-mixed-seed2-trace0.json").write_text(json.dumps(failed))
    assert bench_record.main(argv) == 1
    assert not out.exists()


# nine code lines: the import, the def, the string that is not a docstring, the
# four lines of the split call, the class line and its assignment
FIXTURE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
def join(x):
    """A function docstring
    over three
    lines."""
    "a string expression after the docstring, which is code"
    return os.path.join(
        x,
        "y",
    )


class Box:
    """A class docstring."""

    value = 1
'''


def test_src_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path, monkeypatch):
    package = tmp_path / "src" / "bfvlab"
    package.mkdir(parents=True)
    (package / "fixture.py").write_text(FIXTURE)
    (package / "empty.py").write_text("# only a comment\n\n")
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.src_lines() == len(FIXTURE.splitlines()) + 2 == 24
    assert bench_record.src_code_lines() == 9
