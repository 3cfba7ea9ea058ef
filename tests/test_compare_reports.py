"""The report comparison of tools/compare_reports.py on hand-made reports."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _TOOL)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _report(verdict=True, defect=1e-3, cylinder=(1e-15, 2e-15), command="check-partition"):
    return {
        "verdict": verdict,
        "defects": {"worst_parallelism_defect": defect, "worst_cylinder_defect": max(cylinder)},
        "data": {"levels": [0.0, 0.5], "cylinder_match_defects": list(cylinder), "unreached": 0},
        "manifest": {"command": command},
    }


def _write(root: Path, report, codes=None, manifest_time=1.0, csv_rows=((0.0, 1.0),)):
    (root / "run").mkdir(parents=True)
    (root / "run" / "x-check-partition.json").write_text(json.dumps(report))
    (root / "run" / "x-check-partition-manifest.json").write_text(
        json.dumps({"wall_time_s": manifest_time})
    )
    (root / "run" / "x-trajectory.csv").write_text(
        "t,x0\n" + "".join(f"{t!r},{x!r}\n" for t, x in csv_rows)
    )
    (root / "exit_codes.json").write_text(json.dumps(codes or {"run": 0}))
    return root


def test_identical_runs_agree_and_manifests_are_left_out(tmp_path):
    a = _write(tmp_path / "a", _report(), manifest_time=1.0)
    b = _write(tmp_path / "b", _report(), manifest_time=7.5)
    result = compare_reports.compare_dirs(a, b)
    assert compare_reports.failures(result) == []
    assert result["numbers"] == []


def test_numbers_within_tolerance_agree(tmp_path):
    a = _write(tmp_path / "a", _report(defect=1e-3), csv_rows=((0.0, 1.0),))
    b = _write(tmp_path / "b", _report(defect=1e-3 * (1 + 5e-13)), csv_rows=((0.0, 1.0 + 1e-16),))
    assert compare_reports.failures(compare_reports.compare_dirs(a, b, rtol=1e-12)) == []
    tight = compare_reports.compare_dirs(a, b, rtol=1e-14)
    assert [d[0] for d in tight["numbers"]] == [
        "run/x-check-partition.json/defects/worst_parallelism_defect"
    ]


def test_worst_difference_first_and_ignored_keys_do_not_fail(tmp_path):
    a = _write(tmp_path / "a", _report(defect=1e-3, cylinder=(1e-15, 2e-15)))
    b = _write(tmp_path / "b", _report(defect=1.1e-3, cylinder=(3e-14, 2e-15)))
    result = compare_reports.compare_dirs(
        a, b, rtol=1e-12, atol=1e-16,
        ignore=("cylinder_match_defects", "worst_cylinder_defect"),
    )
    paths = [d[0] for d in result["numbers"]]
    assert paths[-1] == "run/x-check-partition.json/defects/worst_parallelism_defect"
    assert "run/x-check-partition.json/data/cylinder_match_defects[0]" in paths
    failing = compare_reports.failures(result)
    assert [d[0] for d in failing] == [
        "run/x-check-partition.json/defects/worst_parallelism_defect"
    ]
    path, old, new, diff, rel, ignored = result["numbers"][-1]
    assert (old, new, ignored) == (1e-3, 1.1e-3, False)
    assert diff == pytest.approx(1e-4) and rel == pytest.approx(1e-4 / 1.1e-3)
    # the atol floor absorbs differences at rounding level
    loose = compare_reports.compare_dirs(a, b, rtol=1e-12, atol=1e-13)
    assert [d[0] for d in loose["numbers"]] == [paths[-1]]


def test_verdict_exit_code_and_missing_files_are_reported(tmp_path):
    a = _write(tmp_path / "a", _report(verdict=True), codes={"run": 0})
    b = _write(tmp_path / "b", _report(verdict=False), codes={"run": 1})
    (b / "run" / "extra.json").write_text("{}")
    result = compare_reports.compare_dirs(a, b)
    assert result["changes"] == [
        ("exit_codes.json/run", 0, 1),
        ("run/x-check-partition.json/verdict", True, False),
    ]
    assert result["missing"] == ["run/extra.json"]
    assert len(compare_reports.failures(result)) == 3


def test_changed_structure_is_reported(tmp_path):
    a = _write(tmp_path / "a", _report(cylinder=(1e-15, 2e-15)))
    b = _write(tmp_path / "b", _report(cylinder=(1e-15,)))
    result = compare_reports.compare_dirs(a, b)
    assert ("run/x-check-partition.json/data/cylinder_match_defects/len", 2, 1) in result["changes"]


def test_timings_are_left_out(tmp_path):
    a = _write(tmp_path / "a", _report())
    b = _write(tmp_path / "b", _report())
    (a / compare_reports.TIMINGS).write_text(json.dumps({"run": {"wall_s": 0.9}}))
    (b / compare_reports.TIMINGS).write_text(json.dumps({"run": {"wall_s": 0.3}, "x": {}}))
    result = compare_reports.compare_dirs(a, b)
    assert compare_reports.failures(result) == [] and result["numbers"] == []


def test_differing_stderr_is_one_other_change(tmp_path):
    a = _write(tmp_path / "a", _report())
    b = _write(tmp_path / "b", _report())
    for root, text in ((a, "numerical failure: EvalError: 'h'\n"), (b, "")):
        (root / "run" / compare_reports.STDERR).write_text(text)
    assert compare_reports.failures(compare_reports.compare_dirs(a, a)) == []
    result = compare_reports.compare_dirs(a, b)
    assert result["changes"] == [("run/stderr.txt", "numerical failure: EvalError: 'h'\n", "")]
    assert result["numbers"] == [] and result["missing"] == []


TIMED_CALLS = """\
import json, sys
import importlib.util
spec = importlib.util.spec_from_file_location("compare_reports", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
big = "b = bytearray(100 * 2**20); b[::4096] = b'x' * len(b[::4096])"
small = "import sys; print('ok'); sys.exit(3)"
print(json.dumps([tool._timed_call([sys.executable, "-c", c], None, None) for c in (big, small)]))
"""


def test_timed_call_reports_its_own_process():
    # the exit code, stdout, and the peak RSS of that process, not of the largest child so
    # far; from a small launcher, as a child's peak starts at its launcher's
    done = subprocess.run([sys.executable, "-c", TIMED_CALLS, str(_TOOL)], capture_output=True,
                          text=True, timeout=60)
    (code, out, wall, rss), (code2, out2, wall2, rss2) = json.loads(done.stdout)
    assert (code, out, code2, out2) == (0, "", 3, "ok\n")
    assert wall > 0 and wall2 > 0
    assert rss > 100 and 0 < rss2 < 50


def test_sheared_disc_is_the_pulled_back_disc(sheared_disc_text):
    # the file run writes is disc-radial pulled back by the shear in tests/conftest.py
    assert compare_reports.SHEARED_DISC_TEXT == sheared_disc_text
