"""Self-test of the benchmark at tiny sizes: ``python3 -m pytest bench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tfsam import machine, terms  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, seed=1):
    if name == "parse-ambig":
        return workloads.ParseAmbig(seed, lengths=range(3, 6))
    if name == "parse-deep":
        return workloads.ParseDeep(seed, lengths=range(3, 6), per_length=4)
    return workloads.UnifyPairs(seed, n_hierarchies=3, per_hierarchy=4)


def result_line(capsys):
    out = capsys.readouterr().out.splitlines()
    return out, json.loads(out[-1])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(name, trace, capsys):
    run.report(tiny(name), 1, 0.05, trace)
    out, result = result_line(capsys)
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in want + ([{"name": "error_rate", "unit": "ratio"}] if not trace else []):
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in out), m["name"]


def _break_reference(wl):
    if wl.name == "unify-pairs":
        k = next(i for i, e in enumerate(wl.expected) if e is not None)
        wl.expected[k] = None
    else:
        k = next(i for i, e in enumerate(wl.expected) if e is not None)
        wl.expected[k] = wl.expected[k].replace("sg", "@").replace("pl", "sg").replace("@", "pl")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_wrong_expected_answer_raises_error_rate(name, capsys):
    wl = tiny(name)
    wl.setup()
    metrics, attempted, failed, _ = run.end_to_end(wl, 0.05)
    assert failed == 0 and metrics["error_rate"][0] == 0
    _break_reference(wl)
    metrics, attempted, failed, _ = run.end_to_end(wl, 0.05)
    assert failed > 0 and metrics["error_rate"][0] == failed / attempted > 0
    run.report(wl, 1, 0.05, 0)
    _, result = result_line(capsys)
    assert not result["correct"] and result["failed"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_input_digest_follows_seed(name):
    assert tiny(name, 1).digest == tiny(name, 1).digest
    assert tiny(name, 1).digest != tiny(name, 2).digest


def test_parse_deep_references_match_the_parser():
    wl = workloads.ParseDeep(3)
    wl.setup()
    assert sum(e is None for e in wl.expected) == len(wl.ops) // 4
    for i in range(len(wl.ops)):
        assert wl.check(i, wl.run(i)), wl.ops[i]


def test_tracer_restores_the_package():
    before = machine.MachineState.unify, terms.iso
    with tracing.Tracer() as tr:
        assert machine.MachineState.unify is not before[0]
        wl = tiny("unify-pairs")
        wl.setup()
        wl.run(0)
    assert (machine.MachineState.unify, terms.iso) == before
    calls, self_s, incl_s = tr.summarize()
    assert calls["machine.unify"] == 1 and calls["machine.build"] == 2
    assert incl_s["machine.build"] >= self_s["machine.build"] > 0


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(SPEC["command"] + ["--workload", "parse-ambig", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
