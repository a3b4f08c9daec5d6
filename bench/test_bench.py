"""Tests of the benchmark itself, on small versions of each workload.

A clean run must report no failed operation; a wrong answer planted in
the library must make the run report one.  Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import pstats
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "suite": {"argv": ("suite", "--json", "--max-monoid", "2", "--max-act", "3")},
    "classify": {"strata": ((2, 0, 5, 25, 2), (3, 3, 5, 8, 2))},
    "lattice": {"strata": ((2, 0, 6, 31, 2), (3, 0, 6, 21, 2))},
    "construct": {
        "max_act_size": {1: 3, 2: 3, 3: 2},
        "zmod_sizes": (8,),
        "family": ((2, 2),),
    },
}


@pytest.fixture
def probe():
    p = speed.Probe()
    p.start()
    yield p
    p.stop()


def runner(name, tmp_path, probe):
    workload = workloads.WORKLOADS[name](7, tmp_path, **SMALL[name])
    for path, text in workload.files.items():
        path.write_text(text, encoding="utf-8")
    workload.bind(run.fresh_import())
    return run.Runner(workload, probe)


def plant(lib, module, name, replace):
    """Rebind module.name to replace(original) in every namespace holding it."""
    original = getattr(getattr(lib, module), name)
    fake = replace(original)
    for ns in [lib.package] + [getattr(lib, layer) for layer in tracing.LAYERS]:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, fake)


def drop_last(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs)[:-1]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_clean_run_has_no_failed_operation(name, tmp_path, probe):
    r = runner(name, tmp_path, probe)
    r.one_pass()
    r.one_pass()
    assert r.attempted == 2 * len(r.workload.items)
    assert (r.failed, r.errors, r.wrong) == (0, [], [])


def test_one_endomorphism_too_few_fails_classify(tmp_path, probe):
    r = runner("classify", tmp_path, probe)
    plant(r.workload.lib, "deciders", "chain_reports", drop_last)
    r.one_pass()
    assert r.failed == len(r.workload.items)
    assert "exactly the endomorphisms" in r.wrong[0]


def test_end_size_off_by_one_fails_classify(tmp_path, probe):
    r = runner("classify", tmp_path, probe)

    def smaller_end(classify_act):
        def planted(*args, **kwargs):
            report = classify_act(*args, **kwargs)
            return dataclasses.replace(report, end_size=report.end_size - 1)
        return planted

    plant(r.workload.lib, "deciders", "classify_act", smaller_end)
    r.one_pass()
    assert r.failed == len(r.workload.items)
    assert "end_size" in r.wrong[0]


def test_dropped_congruence_fails_lattice(tmp_path, probe):
    r = runner("lattice", tmp_path, probe)
    plant(r.workload.lib, "congruence", "enumerate_congruences", drop_last)
    r.one_pass()
    assert r.failed == len(r.workload.items)
    assert "1 missing" in r.wrong[0]


def test_off_by_one_act_count_fails_construct(tmp_path, probe):
    r = runner("construct", tmp_path, probe)
    plant(r.workload.lib, "harness", "enumerate_acts", drop_last)
    r.one_pass()
    assert r.failed >= 1
    assert any("acts of size" in why for why in r.wrong)


def test_off_by_one_act_count_fails_suite(tmp_path, probe):
    r = runner("suite", tmp_path, probe)
    plant(r.workload.lib, "harness", "enumerate_acts", drop_last)
    r.one_pass()
    assert r.failed == 1
    assert "acts of size" in r.wrong[0]


def test_failed_verdict_fails_suite(tmp_path, probe):
    r = runner("suite", tmp_path, probe)
    registry = r.workload.lib.harness.REGISTRY
    title, kind, _ = registry["T3"]
    registry["T3"] = (title, kind, lambda ctx, inst: (True, False, {"planted": True}, {}))
    r.one_pass()
    assert r.failed == 1
    assert "T3" in r.wrong[0]


def test_changed_suite_bytes_fail_the_second_pass(tmp_path, probe):
    r = runner("suite", tmp_path, probe)
    r.one_pass()
    r.workload.first = r.workload.first.replace('"passed": true', '"passed": false', 1)
    r.one_pass()
    assert r.failed == 1
    assert "differ" in r.wrong[0]


def test_non_zero_exit_is_a_failed_operation_not_a_wrong_answer(tmp_path, probe):
    r = runner("classify", tmp_path, probe)
    plant(r.workload.lib, "cli", "main", lambda main: lambda argv: 3)
    r.one_pass()
    assert r.failed == len(r.workload.items)
    assert r.wrong == [] and "exit code 3" in r.errors[0]


def test_traced_call_counts_match_cprofile(tmp_path, probe):
    r = runner("suite", tmp_path, probe)
    profile = cProfile.Profile()
    profile.runcall(r.one_pass)
    profiled = {}
    for (path, _, func), (_, ncalls, *_rest) in pstats.Stats(profile).stats.items():
        layer = Path(path).stem
        if "monact" in path:
            profiled[f"{layer}.{func}"] = profiled.get(f"{layer}.{func}", 0) + ncalls
    tracer = tracing.Tracer()
    tracer.install(r.workload.lib)
    try:
        r.one_pass()
    finally:
        tracer.uninstall()
    for name in ("endo.end_monoid", "monoid.validate_monoid",
                 "congruence.enumerate_congruences", "endo.homomorphisms"):
        assert tracer.stat(name).calls == profiled[name] > 0, name
    assert r.failed == 0


def test_run_without_library_sources_exits_non_zero(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"attempted"' not in done.stdout


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    passes = types.SimpleNamespace(pass_s=[1.0], pass_raw_s=[1.0])
    e2e = run.end_to_end(passes, 1.0)
    layers = run.per_layer(tracing.Tracer(), passes, passes)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    for section, reported in (("end_to_end", e2e), ("per_layer", layers)):
        for m in spec[section]:
            assert m["unit"] == reported[m["name"]][1], m["name"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_unreadable_output_is_a_wrong_answer(tmp_path, probe):
    r = runner("classify", tmp_path, probe)
    plant(r.workload.lib, "cli", "main", lambda main: lambda argv: print("not json") or 0)
    r.one_pass()
    assert r.failed == len(r.workload.items)
    assert r.errors == [] and "unreadable output" in r.wrong[0]
