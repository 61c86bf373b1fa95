import json
import os

import numpy as np
import pytest

from qcvv import device as dv
from qcvv.cli import build_model, main


def run_cli(tmp_path, command, config, name="cfg.json", env_seed=None, monkeypatch=None):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    if env_seed is not None:
        monkeypatch.setenv("QCVV_SEED", str(env_seed))
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    return code, out


BASE_MODEL = {"n": 1, "noise": [{"match": "1q", "channel": {"kind": "depolarizing", "p": 0.002}}]}


def test_rb_pipeline_and_byte_reproducibility(tmp_path):
    cfg = {
        "model": BASE_MODEL,
        "design": {"qubits": [0], "depths": [0, 4, 16, 64], "circuits_per_depth": 8, "shots": 100},
        "seed": 17,
    }
    code, out = run_cli(tmp_path, "rb", cfg)
    assert code == 0
    fit = json.loads((out / "rb_fit.json").read_text())
    assert fit["fit"]["f"] == pytest.approx(0.998, abs=0.003)
    assert "config_sha256" in fit and "qcvv_version" in fit
    first_json = (out / "rb_fit.json").read_bytes()
    first_csv = (out / "rb_decay.csv").read_bytes()
    code2, out2 = run_cli(tmp_path, "rb", cfg)
    assert code2 == 0
    assert (out2 / "rb_fit.json").read_bytes() == first_json
    assert (out2 / "rb_decay.csv").read_bytes() == first_csv
    assert (out / "rb_fit.json.meta.json").exists()  # timestamps live separately


def test_missing_field_exits_2_with_pointer(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "rb", {"model": {"n": 1}})
    assert code == 2
    assert "/design" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{not json")
    assert main(["rb", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


def test_unknown_channel_kind_exits_2(tmp_path, capsys):
    cfg = {
        "model": {"n": 1, "noise": [{"match": "1q", "channel": {"kind": "bogus"}}]},
        "design": {"qubits": [0], "depths": [0, 2, 4], "circuits_per_depth": 2, "shots": 10},
        "seed": 1,
    }
    code, _ = run_cli(tmp_path, "rb", cfg)
    assert code == 2
    assert "/model/noise/0/channel/kind" in capsys.readouterr().err


def test_env_seed_override(tmp_path, monkeypatch):
    cfg = {
        "model": BASE_MODEL,
        "design": {"qubits": [0], "depths": [0, 2, 4], "circuits_per_depth": 3, "shots": 20},
    }
    code, out = run_cli(tmp_path, "rb", cfg, env_seed=99, monkeypatch=monkeypatch)
    assert code == 0


def test_simulate_counts_and_statevector(tmp_path):
    circ = {"width": 2, "layers": [[["H", [0]]], [["CNOT", [0, 1]]]]}
    cfg = {"model": {"n": 2}, "circuit": circ, "shots": 1000, "seed": 3}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 0
    counts = json.loads((out / "counts.json").read_text())["counts"]
    assert set(counts) == {"00", "11"}

    cfg2 = dict(cfg)
    cfg2["backend"] = "statevector"
    code, out = run_cli(tmp_path, "simulate", cfg2, name="cfg2.json")
    amps = json.loads((out / "statevector.json").read_text())["amplitudes"]
    assert abs(amps[0][0] - 1 / np.sqrt(2)) < 1e-9


def test_simulate_takes_the_protocol_backend_names(tmp_path):
    circ = {"width": 2, "layers": [[["X", [0]]], [["CNOT", [0, 1]]], [["X", [1]]]]}
    model = {"n": 2, "noise": [{"match": "1q", "channel": {"kind": "depolarizing", "p": 0.05}}]}
    cfg = {"model": model, "circuit": circ, "shots": 500, "seed": 9, "backend": "fast"}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 0
    counts = json.loads((out / "counts.json").read_text())["counts"]
    expected = dv.pauli_fastpath_sample(build_model(model), dv.Circuit.from_json(json.dumps(circ)), 500, 9)
    assert counts == expected.counts
    code, _ = run_cli(tmp_path, "simulate", dict(cfg, backend="pauli-fast"), name="cfg2.json")
    assert code == 2


def test_confusion_config_outside_register_and_width_sweep(tmp_path):
    conf = {str(q): [[0.98, 0.02], [0.02, 0.98]] for q in range(3)}
    circ = {"width": 2, "layers": [[["X", [0]]]]}
    code, _ = run_cli(tmp_path, "simulate", {"model": {"n": 2, "confusion": conf}, "circuit": circ, "shots": 10, "seed": 1})
    assert code == 2
    cfg = {
        "model": {"n": 3, "confusion": conf},
        "family": "randomized-mirror",
        "widths": [2, 3],
        "depths": [2],
        "circuits_per_cell": 2,
        "shots": 20,
        "seed": 4,
    }
    code, out = run_cli(tmp_path, "volumetric", cfg, name="cfg2.json")
    assert code == 0
    assert [c["width"] for c in json.loads((out / "volumetric.json").read_text())["cells"]] == [2, 3]


def test_tomo_state_and_truth_table(tmp_path):
    cfg = {
        "model": {"n": 1},
        "kind": "state",
        "circuit": {"width": 1, "layers": [[["X", [0]]]]},
        "shots": 4000,
        "seed": 5,
    }
    code, out = run_cli(tmp_path, "tomo", cfg)
    assert code == 0
    rho = json.loads((out / "tomo.json").read_text())["rho"]
    assert rho[1][1][0] == pytest.approx(1.0, abs=0.02)

    cfg2 = {
        "model": {"n": 1},
        "kind": "measurement",
        "shots": 4000,
        "seed": 7,
    }
    code, out = run_cli(tmp_path, "tomo", cfg2, name="cfg2.json")
    payload = json.loads((out / "tomo.json").read_text())
    assert payload["readout_fidelity"] == pytest.approx(1.0, abs=0.01)

    cnot = {"width": 2, "layers": [[["CNOT", [0, 1]]]]}
    cfg3 = {"model": {"n": 2}, "kind": "truth-table", "circuit": cnot, "shots": 200, "seed": 3}
    code, out = run_cli(tmp_path, "tomo", cfg3, name="cfg3.json")
    assert code == 0 and json.loads((out / "tomo.json").read_text())["f_tt"] == 1.0


def test_tomo_linear_process(tmp_path):
    cfg = {"model": {"n": 1}, "kind": "process", "method": "linear", "circuit": {"width": 1, "layers": [[["X", [0]]]]}, "shots": 4000, "seed": 5}
    code, out = run_cli(tmp_path, "tomo", cfg)
    assert code == 0
    ptm = np.array(json.loads((out / "tomo.json").read_text())["ptm"])
    assert np.abs(ptm - np.diag([1, 1, -1, -1])).max() < 0.1


def test_cb_and_cer_pipeline(tmp_path):
    model = {
        "n": 2,
        "noise": [{"match": "CZ", "channel": {"kind": "stochastic_pauli", "probs": {"IZ": 0.01}}}],
    }
    cfg = {
        "model": model,
        "cycle": [["CZ", [0, 1]]],
        "bodies": [[0], [1]],
        "design": {"depths": [2, 4, 8], "circuits_per_depth": 4, "shots": 300},
        "seed": 9,
    }
    code, out = run_cli(tmp_path, "cer", cfg)
    assert code == 0
    rows = (out / "cer_heatmap.csv").read_text().strip().splitlines()
    assert rows[0] == "bodies,pauli,rate,stderr,degeneracy_group"
    payload = json.loads((out / "cer.json").read_text())
    z1 = [r for r in payload["rates"] if r["bodies"] == [1] and r["pauli"] == "Z"][0]
    assert z1["rate"] == pytest.approx(0.01, abs=0.005)


def test_qv_pipeline(tmp_path):
    cfg = {"model": {"n": 2}, "width": 2, "circuits": 40, "shots": 200, "seed": 11}
    code, out = run_cli(tmp_path, "qv", cfg)
    assert code == 0
    payload = json.loads((out / "qv.json").read_text())
    assert payload["passed"] is True


def test_timedomain_pipeline(tmp_path):
    cfg = {
        "kind": "t1",
        "times": list(np.linspace(1, 300, 40)),
        "params": {"t1": 80.0},
        "shots": 500,
        "seed": 13,
    }
    code, out = run_cli(tmp_path, "timedomain", cfg)
    assert code == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["params"]["t1"] == pytest.approx(80.0, rel=0.1)
    assert (out / "signal.csv").exists()


def test_timedomain_fit_failure_exits_3(tmp_path, monkeypatch):
    from qcvv import timedomain

    def fail(*args):
        raise RuntimeError("fit did not converge")

    monkeypatch.setattr(timedomain, "_curve_fit", fail)
    cfg = {"kind": "rabi", "times": list(np.linspace(0.1, 5, 40)), "params": {"rabi_freq": 1.5}, "shots": 500, "seed": 13}
    code, _ = run_cli(tmp_path, "timedomain", cfg)
    assert code == 3


def test_rpe_pipeline(tmp_path):
    cfg = {
        "kind": "rpe",
        "times": [],
        "params": {"theta_true": 0.7, "k_max": 32, "shots_per_generation": 60, "n_trials": 40},
        "seed": 15,
    }
    code, out = run_cli(tmp_path, "timedomain", cfg)
    assert code == 0
    payload = json.loads((out / "rpe.json").read_text())
    assert payload["rms_error"] <= payload["bound"]


def test_report_merges_inputs(tmp_path):
    cfg = {"model": {"n": 1}, "width": 2}
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"x": 1}))
    cfg = {"inputs": [str(a)]}
    code, out = run_cli(tmp_path, "report", cfg)
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["inputs"]["a.json"] == {"x": 1}


def test_lgst_pipeline(tmp_path):
    cfg = {"model": {"n": 1}, "gates": ["X90", "Y90"], "seed": 3}
    code, out = run_cli(tmp_path, "lgst", cfg)
    assert code == 0
    payload = json.loads((out / "lgst.json").read_text())
    assert payload["gauge_cost"] < 1e-6
    fixed = np.array(payload["gates_gauge_fixed"]["X90"])
    from qcvv.channels import Channel
    from qcvv.device import GATE_UNITARIES

    target = Channel.from_unitary(GATE_UNITARIES["X90"]).ptm
    assert np.abs(fixed - target).max() < 1e-4
