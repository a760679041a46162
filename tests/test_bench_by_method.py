"""``scripts/bench_by_method.py`` splits perfbench calls by method."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_by_method.py"
spec = importlib.util.spec_from_file_location("bench_by_method", SCRIPT)
bench_by_method = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_by_method)


def write_summary(path, trace, calls):
    path.mkdir(parents=True)
    (path / "summary.json").write_text(json.dumps(
        {"args": {"workload": "baselines", "trace": trace}, "result": {"calls": calls}}))


def call(method, recon_s):
    return {"method": method, "recon_s": recon_s, "wall_s": recon_s + 0.001}


def test_medians_and_quartiles_per_method_over_untraced_runs(tmp_path, capsys):
    write_summary(tmp_path / "a", 0, [call("nn", 0.010), call("lin", 0.200), call("nn", 0.030)])
    write_summary(tmp_path / "b", 0, [call("nn", 0.020), {"method": "lin", "wall_s": 9.0}])
    write_summary(tmp_path / "c", 1, [call("nn", 5.0)])  # traced: skipped
    assert bench_by_method.main([str(tmp_path)]) == 0
    rows = {line.split()[2]: line.split()[3:] for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["nn"] == ["3", "20.00", "[", "15.00,", "25.00]", "21.00", "[", "16.00,", "26.00]"]
    assert rows["lin"] == ["1", "200.00", "[", "200.00,", "200.00]", "201.00", "[", "201.00,", "201.00]"]


def test_no_summary_exits_1(tmp_path):
    assert bench_by_method.main([str(tmp_path)]) == 1
