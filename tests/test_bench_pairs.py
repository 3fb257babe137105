import importlib.util
import io
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_paired_ratio_resolves_a_drifting_parent():
    # the machine slows from pair to pair, and the change is 10% slower in
    # every pair: the parent's spread hides that from the unpaired verdict
    parent = [100.0 + 15.0 * i for i in range(10)]
    change = [1.1 * p for p in parent]
    s = bench_pairs.summary(parent, change, "lower", 0.25)
    assert s["unresolved"] and s["within_bound"]
    assert s["paired_ratios"] == pytest.approx([1.1] * 10)
    assert s["paired_ratio_median"] == pytest.approx(1.1)
    assert s["paired_ratio_quartiles"] == pytest.approx([1.1, 1.1])
    assert s["paired_within_bound"]
    # 30% slower in every pair is beyond the bound, paired
    assert not bench_pairs.summary(parent, [1.3 * p for p in parent], "lower",
                                   0.25)["paired_within_bound"]
    # higher is better: a constant ratio of 0.9 is a 10% worsening
    s = bench_pairs.summary(parent, [0.9 * p for p in parent], "higher", 0.05)
    assert not s["paired_within_bound"]
    assert bench_pairs.summary(parent, [0.9 * p for p in parent], "higher",
                               0.1 + 1e-9)["paired_within_bound"]


def test_unpaired_fields_unchanged():
    parent = [1.0, 1.2, 0.9, 1.1, 1.0, 1.3, 0.95, 1.05, 1.0, 1.1]
    change = [0.8 * p for p in parent]
    s = bench_pairs.summary(parent, change, "lower", 0.25)
    assert s["change_wins"] == 10 and s["gain_resolved"]
    assert s["within_bound"] and not s["unresolved"]


def test_summarise_reads_committed_files(tmp_path):
    parent = [100.0 + 15.0 * i for i in range(10)]
    row = {"workload": "sweep", "seed": 1,
           "metrics": {"wall_s": {"parent": parent, "change": [1.1 * p for p in parent],
                                  "bound": 0.25}}}
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps({"results": [row]}))
    out = io.StringIO()
    bench_pairs.summarise([path], out)
    assert out.getvalue() == ("BENCH_0.json sweep seed 1 wall_s: unpaired +10.0% unresolved, "
                              "paired +10.0% [+10.0%, +10.0%] within bound 0.25, wins 0/10\n")


def test_run_once_counts_faults_and_passes(tmp_path):
    # a stand-in perfbench that touches 8 MiB (2,048 pages) in 4 passes
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "touched = b'x' * (8 << 20)\n"
        "print('passes 4')\n"
        "print('output_sha256 ab12')\n"
        "print(json.dumps({'correct': True, 'failed': 0,\n"
        "                  'metrics': {'wall_s': {'value': 0.5, 'unit': 's'}}}))\n")
    metrics, digests, ok, run = bench_pairs.run_once(tmp_path, "sweep", 1, 1)
    assert metrics == {"wall_s": 0.5} and digests == ["ab12"] and ok
    assert run["passes"] == 4 and run["minflt"] >= 2048
    assert bench_pairs.faults_per_pass([run, {"minflt": 0, "passes": 1},
                                        {"minflt": 30, "passes": 3}]) == 10.0


def test_summarise_prints_faults_per_pass(tmp_path):
    parent = [1.0, 1.2, 0.9, 1.1]
    row = {"workload": "transfer_long", "seed": 6,
           "faults": {"parent": [{"minflt": 9000, "passes": 10}, {"minflt": 500, "passes": 1}],
                      "change": [{"minflt": 100, "passes": 10}, {"minflt": 300, "passes": 10}]},
           "metrics": {"wall_s": {"parent": parent, "change": parent, "bound": 0.25}}}
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps({"results": [row]}))
    out = io.StringIO()
    bench_pairs.summarise([path], out)
    assert out.getvalue().splitlines()[-1] == (
        "BENCH_0.json transfer_long seed 6 minor faults per pass: parent 700.0, change 20.0")
