"""Fast checks of the benchmark itself: each workload at a tiny size."""

import json

import pytest

from perfbench import compare, run

with open(run.os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def tiny(name, trace, seed=1):
    return run.measure(name, seed, seconds=0.01, trace=trace, tiny=True)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_emitted_with_unit(name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        record = tiny(name, trace)
        assert record["attempted"] >= 1
        summary = run.summary(record, BENCH)
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        for metric in BENCH[key]:
            emitted = summary["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"], metric["name"]
            assert isinstance(emitted["value"], (int, float))
        if trace:
            assert record["absent"] == []
            assert record["design_counts"]["traced"] == record["design_counts"]["design"]
        if name == "mrb_fast_n20":
            # at a size that runs in seconds, BiRB and MRB at 20 qubits cannot
            # meet their 0.10 gate; only those gates may fail
            assert all("UnitFailure: birb" in f or "UnitFailure: mrb" in f for f in record["failures"])
        else:
            assert record["correct"], record["failures"]


def test_traced_self_times_within_wall():
    tracer_mod, workloads = run._import_program()
    wl = workloads.WORKLOADS["accredit_fast_n3"](1, str(run.WORKDIR), tiny=True)
    wl.setup()
    wl.prepare_checks()
    tr = tracer_mod.Tracer()
    t0 = run.time.perf_counter()
    with run.traced(tr):
        wl.unit(0)
    wall = run.time.perf_counter() - t0
    selfs = tr.self_times()
    assert all(v >= 0 for v in selfs.values())
    assert 0 < sum(selfs.values()) <= wall
    assert tr.counts["device.fast_circuits"] == wl.unit_counts[0]


def test_counts_repeat_exactly():
    names = ["cliffords.tableau_calls", "cliffords.inverse_calls", "device.fast_circuits", "device.fast_shots"]
    a, b = (tiny("accredit_fast_n3", True, seed=4) for _ in range(2))
    assert [a["metrics"][n]["value"] for n in names] == [b["metrics"][n]["value"] for n in names]


def test_absent_names_are_recorded(monkeypatch):
    tracer_mod, _ = run._import_program()
    import qcvv.rb

    original = qcvv.rb.crb_circuits
    monkeypatch.setattr(tracer_mod, "SPANS", tracer_mod.SPANS + [("rb.generate", "qcvv.rb", "gone_function")])
    monkeypatch.setattr(
        tracer_mod, "COUNTS", tracer_mod.COUNTS + [("x", "qcvv.cliffords", "CliffordTableau.gone_method")]
    )
    tr = tracer_mod.Tracer()
    with run.traced(tr):
        assert qcvv.rb.crb_circuits is not original
    assert tr.absent == ["qcvv.rb.gone_function", "qcvv.cliffords.CliffordTableau.gone_method"]
    assert qcvv.rb.crb_circuits is original


def _records(values):
    return {"w": [{"seed": i, "failed": 0, "metrics": {"m": {"value": v}}} for i, v in enumerate(values)]}


def test_compare_verdicts():
    bench = {"workloads": [{"name": "w"}], "end_to_end": [{"name": "m", "unit": "s", "better": "lower", "bound": 0.1}]}
    parent = _records([1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00])

    def verdict(change):
        return compare.compare(parent, _records(change), bench)[0][2].split("  ")[-1]

    assert verdict([0.80, 0.81, 0.79, 0.80, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80]) == "gain"
    assert verdict([1.20, 1.21, 1.19, 1.20, 1.22, 1.18, 1.20, 1.21, 1.19, 1.20]) == "regression"
    assert verdict([1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]) == "no change"
    assert verdict([0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.5, 1.5, 0.6, 1.4]) == "unresolved"
