"""Batch front door: build models, run any protocol against the simulator or
ingested datasets, emit plot-ready tables and JSON reports.

Every run is driven by a JSON config naming the model, design, seed, and
output paths.  Outputs are byte-reproducible for a fixed config and seed;
wall-clock timestamps go to a separate ``<out>.meta.json`` so the data
files stay deterministic.  Exit codes: 0 success, 2 config/design error,
3 fit failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import channels, cycles, device, fidelity, rb, timedomain, tomography, volumetrics
from .linalg import pauli_label
from .paulis import PauliString


class ConfigError(Exception):
    def __init__(self, pointer, message):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def _need(cfg, pointer, key, kind=None):
    here = f"{pointer}/{key}"
    if key not in cfg:
        raise ConfigError(here, "missing required field")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(here, f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _channel_from_config(spec, pointer):
    kind = _need(spec, pointer, "kind", str)
    if kind == "depolarizing":
        return channels.depolarizing(_need(spec, pointer, "p", (int, float)), n=spec.get("n", 1))
    if kind == "dephasing":
        return channels.dephasing(_need(spec, pointer, "p", (int, float)))
    if kind == "amplitude_damping":
        return channels.amplitude_damping(_need(spec, pointer, "p", (int, float)))
    if kind == "coherent":
        return channels.coherent(_need(spec, pointer, "axis", str), _need(spec, pointer, "theta", (int, float)))
    if kind == "stochastic_pauli":
        probs = _need(spec, pointer, "probs", dict)
        return channels.stochastic_pauli(probs)
    raise ConfigError(f"{pointer}/kind", f"unknown channel kind {kind!r}")


def build_model(cfg) -> device.GateSetModel:
    """The noisy model a config's ``model`` object describes."""
    pointer = "/model"
    n = _need(cfg, pointer, "n", int)
    rules = cfg.get("noise", [])
    compiled = []
    for i, rule in enumerate(rules):
        here = f"{pointer}/noise/{i}"
        match = _need(rule, here, "match", str)
        chan = _channel_from_config(_need(rule, here, "channel", dict), f"{here}/channel")
        compiled.append((match, chan))

    def noise_rule(label, arity):
        for match, chan in compiled:
            if match == "1q" and arity == 1:
                return chan
            if match == "2q" and arity == 2:
                return chan
            if match == label:
                return chan
        return None

    confusion = {}
    for q, mat in cfg.get("confusion", {}).items():
        confusion[int(q)] = np.asarray(mat, dtype=float)
    idle = None
    if "idle" in cfg:
        idle = _channel_from_config(cfg["idle"], f"{pointer}/idle")
    return device.noisy_model(n, noise_rule, confusion=confusion or None, idle=idle)


def _dump_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True, indent=1, default=_jsonable)
        f.write("\n")


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def _report(payload, config_text, out_path):
    payload = dict(payload)
    payload["config_sha256"] = hashlib.sha256(config_text.encode()).hexdigest()
    payload["qcvv_version"] = __version__
    _dump_json(out_path, payload)
    _dump_json(out_path + ".meta.json", {"written_at": time.time(), "output": out_path})


def _fit_payload(fit):
    return {
        "A": fit.a,
        "f": fit.f,
        "B": fit.b,
        "f_stderr": fit.f_err,
        "chi2": fit.chi2,
        "dof": fit.dof,
        "fixed_B": fit.fixed_b,
    }


def _decay_rows(data):
    rows = []
    for m in data.depths:
        for v in data.values[m]:
            rows.append((m, float(v)))
    return rows


# -- subcommand handlers ----------------------------------------------------------

def cmd_model(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    _report({"n": model.n, "valid": True}, config_text, os.path.join(out, "model.json"))


def cmd_simulate(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    circ = device.Circuit.from_json(json.dumps(_need(cfg, "", "circuit", dict)))
    shots = _need(cfg, "", "shots", int)
    seed = _need(cfg, "", "seed", int)
    backend = cfg.get("backend", "dense")
    if backend == "statevector":
        amps = device.statevector_run(circ, model)
        _report({"amplitudes": [[z.real, z.imag] for z in amps]}, config_text, os.path.join(out, "statevector.json"))
        return
    rec = device.sample(model, circ, shots, seed, backend)
    _report({"counts": rec.counts, "shots": rec.shots}, config_text, os.path.join(out, "counts.json"))


def _design_from(cfg, default_variant):
    d = _need(cfg, "", "design", dict)
    return rb.RBDesign(
        tuple(_need(d, "/design", "qubits", list)),
        tuple(_need(d, "/design", "depths", list)),
        _need(d, "/design", "circuits_per_depth", int),
        _need(d, "/design", "shots", int),
        _need(cfg, "", "seed", int),
        d.get("variant", default_variant),
    )


def cmd_rb(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    design = _design_from(cfg, "crb")
    data, fit = rb.run_crb(model, design, backend=cfg.get("backend", "dense"))
    d = 2 ** len(design.qubits)
    _write_csv(os.path.join(out, "rb_decay.csv"), ["depth", "success"], _decay_rows(data))
    _report(
        {"fit": _fit_payload(fit), "epc_e_F": rb.epc(fit, d), "epc_r": rb.epc(fit, d, "r")},
        config_text,
        os.path.join(out, "rb_fit.json"),
    )


def cmd_irb(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    design = _design_from(cfg, "irb")
    gate = _need(cfg, "", "gate", str)
    res = rb.interleaved_rb(model, design, gate, backend=cfg.get("backend", "dense"))
    _report(
        {
            "reference_fit": _fit_payload(res["reference_fit"]),
            "interleaved_fit": _fit_payload(res["interleaved_fit"]),
            "e_F": res["e_F"],
            "bounds_e_F": list(res["bounds_e_F"]),
        },
        config_text,
        os.path.join(out, "irb.json"),
    )


def cmd_xrb(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    design = _design_from(cfg, "xrb")
    res = rb.xrb(model, design)
    _report({"u": res["u"], "u_stderr": res["u_err"], "e_S": res["e_S"]}, config_text, os.path.join(out, "xrb.json"))


def cmd_birb(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    design = _design_from(cfg, "birb")
    sampler = _sampler_from(cfg, model.n)
    res = rb.birb(model, design, sampler, backend=cfg.get("backend", "fast"))
    _write_csv(os.path.join(out, "birb_decay.csv"), ["depth", "polarization"], _decay_rows(res["data"]))
    _report({"fit": _fit_payload(res["fit"])}, config_text, os.path.join(out, "birb.json"))


def cmd_mrb(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    design = _design_from(cfg, "mrb")
    sampler = _sampler_from(cfg, model.n)
    res = rb.mrb(model, design, sampler, backend=cfg.get("backend", "fast"))
    _write_csv(os.path.join(out, "mrb_decay.csv"), ["depth", "adjusted_success"], _decay_rows(res["data"]))
    _report({"fit": _fit_payload(res["fit"])}, config_text, os.path.join(out, "mrb.json"))


def _sampler_from(cfg, n):
    s = cfg.get("sampler", {})
    return rb.LayerSampler(
        n,
        edges=s.get("edges"),
        twoq_gate=s.get("twoq_gate", "CNOT"),
        twoq_density=s.get("twoq_density", 0.5),
    )


def cmd_xeb(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    design = _design_from(cfg, "xeb")
    sampler = rb.haar_su4_layer_sampler(model.n, _need(cfg, "", "seed", int) + 1)
    res = rb.xeb(model, design, sampler, min_depth=cfg.get("min_depth", 0))
    payload = {"fit": _fit_payload(res["fit"]), "per_depth_f_xeb": res["per_depth_f_xeb"], "min_depth": res["min_depth"]}
    if cfg.get("speckle", False):
        sp = rb.speckle_purity(res["bitstring_probs"], design.shots, 2**model.n)
        payload["speckle"] = {"eps": sp["eps"], "u": sp["u"]}
    _report(payload, config_text, os.path.join(out, "xeb.json"))


def cmd_cb(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    cycle = [tuple((g, tuple(q)) for g, q in _need(cfg, "", "cycle", list))]
    paulis = cfg.get("paulis") or [pauli_label(i, model.n) for i in range(1, min(4**model.n, 21))]
    design = _need(cfg, "", "design", dict)
    ds = cycles.cycle_benchmark(
        model,
        cycle[0],
        paulis,
        tuple(_need(design, "/design", "depths", list)),
        _need(design, "/design", "circuits_per_depth", int),
        _need(design, "/design", "shots", int),
        _need(cfg, "", "seed", int),
        backend=cfg.get("backend", "fast"),
    )
    rows = [(lab, d.a, d.f, d.f_err) for lab, d in sorted(ds.decays.items())]
    _write_csv(os.path.join(out, "cb_decays.csv"), ["pauli", "A", "f", "f_stderr"], rows)
    _report({"process_fidelity": ds.process_fidelity()}, config_text, os.path.join(out, "cb.json"))


def cmd_cer(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    cycle = tuple((g, tuple(q)) for g, q in _need(cfg, "", "cycle", list))
    bodies = [tuple(b) for b in _need(cfg, "", "bodies", list)]
    design = _need(cfg, "", "design", dict)
    need = set()
    for b in bodies:
        for i in range(1, 4 ** len(b)):
            need.add(PauliString.from_index(i, len(b)).embed(model.n, b).label)
    ds = cycles.cycle_benchmark(
        model,
        cycle,
        sorted(need),
        tuple(_need(design, "/design", "depths", list)),
        _need(design, "/design", "circuits_per_depth", int),
        _need(design, "/design", "shots", int),
        _need(cfg, "", "seed", int),
        backend=cfg.get("backend", "fast"),
    )
    tab = cycles.cycle_tableau(model, cycle)
    rates = cycles.cer(ds, model.n, tab, bodies)
    rows = [
        ("+".join(map(str, r.bodies)), r.pauli, r.rate, r.stderr, r.degeneracy_group) for r in rates
    ]
    _write_csv(
        os.path.join(out, "cer_heatmap.csv"),
        ["bodies", "pauli", "rate", "stderr", "degeneracy_group"],
        rows,
    )
    _report({"rates": [r.as_row() for r in rates]}, config_text, os.path.join(out, "cer.json"))


def cmd_aces(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    layers = [tuple((g, tuple(q)) for g, q in layer) for layer in _need(cfg, "", "gate_layers", list)]
    res = cycles.aces(
        model,
        layers,
        n_circuits=cfg.get("n_circuits", 20),
        depth=cfg.get("depth", 3),
        paulis_per_circuit=cfg.get("paulis_per_circuit", 4),
        shots=_need(cfg, "", "shots", int),
        seed=_need(cfg, "", "seed", int),
        assume_ideal_spam=cfg.get("assume_ideal_spam", True),
    )
    rows = [
        (lbl, "+".join(map(str, qs)), plab, float(est), float(err))
        for (lbl, qs, plab), est, err in zip(res.parameters, res.estimates, res.stderrs)
    ]
    _write_csv(os.path.join(out, "aces_eigenvalues.csv"), ["gate", "qubits", "pauli", "estimate", "stderr"], rows)
    _report(
        {"design_rank": res.design_rank, "n_parameters": len(res.parameters), "null_dim": int(res.nullspace.shape[0])},
        config_text,
        os.path.join(out, "aces.json"),
    )


def cmd_tomo(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    kind = _need(cfg, "", "kind", str)
    shots = _need(cfg, "", "shots", int)
    seed = _need(cfg, "", "seed", int)
    circ = device.Circuit.from_json(json.dumps(cfg.get("circuit", {"width": model.n, "layers": []})))
    if kind == "state":
        ds = tomography.qst_dataset(model, circ, shots, seed)
        rho = tomography.qst(ds, model.n, method=cfg.get("method", "mle"))
        payload = {"rho": [[[z.real, z.imag] for z in row] for row in rho]}
    elif kind == "process":
        ds = tomography.qpt_dataset(model, circ, shots, seed)
        chan = tomography.qpt(ds, model.n, method=cfg.get("method", "mle"))
        payload = {"ptm": chan.ptm.tolist()}
    elif kind == "measurement":
        ds = tomography.qmt_dataset(model, shots, seed)
        r = tomography.response_matrix(ds, model.n)
        payload = {"response": r.tolist(), "readout_fidelity": float(np.trace(r) / r.shape[0])}
    elif kind == "truth-table":
        s, f_tt = tomography.truth_table(model, circ, shots, seed)
        payload = {"stochastic_matrix": s.tolist(), "f_tt": f_tt}
    else:
        raise ConfigError("/kind", f"unknown tomography kind {kind!r}")
    _report(payload, config_text, os.path.join(out, "tomo.json"))


def cmd_lgst(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    labels = _need(cfg, "", "gates", list)
    shots = cfg.get("shots")
    res = tomography.run_lgst(model, labels, shots=shots, seed=_need(cfg, "", "seed", int), exact=shots is None)
    payload = {
        "gram_condition": res.gram_condition,
        "gates": {lbl: res.gates[lbl].tolist() for lbl in labels},
        "n_nongauge_params": tomography.lgst_nongauge_params(res),
    }
    if cfg.get("gauge_optimize", True):
        targets = {lbl: channels.Channel.from_unitary(model.ideal_unitary(lbl)).ptm for lbl in labels}
        m, fixed, cost = tomography.gauge_optimize(res, targets, model.n)
        payload["gauge_cost"] = cost
        payload["gates_gauge_fixed"] = {lbl: fixed[lbl].tolist() for lbl in labels}
    _report(payload, config_text, os.path.join(out, "lgst.json"))


def cmd_dfe(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    circ = device.Circuit.from_json(json.dumps(_need(cfg, "", "circuit", dict)))
    target = cfg.get("stabilizers")
    if target is None:
        raise ConfigError("/stabilizers", "stabilizer target description required")
    res = fidelity.dfe(
        model,
        circ,
        target,
        epsilon=_need(cfg, "", "epsilon", (int, float)),
        delta=_need(cfg, "", "delta", (int, float)),
        seed=_need(cfg, "", "seed", int),
        backend=cfg.get("backend", "dense"),
    )
    _report(
        {
            "estimate": res.estimate,
            "stderr": res.stderr,
            "sampled_bases": res.sampled_bases,
            "total_shots": res.total_shots,
        },
        config_text,
        os.path.join(out, "dfe.json"),
    )


def cmd_mcfe(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    layers = [tuple((g, tuple(q)) for g, q in layer) for layer in _need(cfg, "", "target_layers", list)]
    res = fidelity.mcfe(
        model,
        layers,
        k_ensemble=cfg.get("k_ensemble", 40),
        shots=_need(cfg, "", "shots", int),
        seed=_need(cfg, "", "seed", int),
        backend=cfg.get("backend", "fast"),
    )
    _report(
        {"f": res.f, "F_e": res.f_e, "stderr": res.stderr, "gammas": [res.gamma_m1, res.gamma_m2, res.gamma_m3]},
        config_text,
        os.path.join(out, "mcfe.json"),
    )


def cmd_accredit(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    layers = [tuple((g, tuple(q)) for g, q in layer) for layer in _need(cfg, "", "target_layers", list)]
    res = fidelity.accredit(
        model,
        layers,
        theta=_need(cfg, "", "theta", (int, float)),
        alpha=_need(cfg, "", "alpha", (int, float)),
        seed=_need(cfg, "", "seed", int),
        backend=cfg.get("backend", "fast"),
    )
    _report(
        {
            "F_lower": res.f_lower,
            "F_upper": res.f_upper,
            "N_unsuccessful": res.n_unsuccessful,
            "N_traps": res.n_traps,
        },
        config_text,
        os.path.join(out, "accredit.json"),
    )


def cmd_qv(cfg, out, config_text):
    model = build_model(_need(cfg, "", "model", dict))
    res = volumetrics.qv_test(
        model,
        _need(cfg, "", "width", int),
        _need(cfg, "", "circuits", int),
        _need(cfg, "", "shots", int),
        _need(cfg, "", "seed", int),
    )
    _report(
        {"width": res.width, "hbar": res.hbar, "lower_bound": res.lower_bound, "passed": res.passed},
        config_text,
        os.path.join(out, "qv.json"),
    )


def cmd_volumetric(cfg, out, config_text):
    model_cfg = _need(cfg, "", "model", dict)

    def builder(w):
        # a device-wide confusion config covers every width of the sweep
        confusion = {q: c for q, c in model_cfg.get("confusion", {}).items() if int(q) < w}
        return build_model(dict(model_cfg, n=w, confusion=confusion))

    grid = volumetrics.volumetric_run(
        builder,
        _need(cfg, "", "family", str),
        tuple(_need(cfg, "", "widths", list)),
        tuple(_need(cfg, "", "depths", list)),
        cfg.get("circuits_per_cell", 10),
        _need(cfg, "", "shots", int),
        _need(cfg, "", "seed", int),
        backend=cfg.get("backend", "fast"),
    )
    rows = volumetrics.grid_to_rows(grid)
    _write_csv(
        os.path.join(out, "volumetric.csv"),
        ["width", "depth", "min", "mean", "max", "class"],
        [(r["width"], r["depth"], r["min"], r["mean"], r["max"], r["class"]) for r in rows],
    )
    _report({"cells": rows}, config_text, os.path.join(out, "volumetric.json"))


def cmd_timedomain(cfg, out, config_text):
    kind = _need(cfg, "", "kind", str)
    times = np.asarray(_need(cfg, "", "times", list), dtype=float)
    params = _need(cfg, "", "params", dict)
    if kind == "rpe":
        rms, _ = timedomain.rpe_trials(
            params["theta_true"],
            params["k_max"],
            params.get("shots_per_generation", 100),
            params.get("n_trials", 100),
            _need(cfg, "", "seed", int),
        )
        _report({"rms_error": rms, "bound": np.pi / (2 * params["k_max"])}, config_text, os.path.join(out, "rpe.json"))
        return
    signal = timedomain.synth(kind, params, times, shots=cfg.get("shots"), seed=cfg.get("seed"))
    fitres = timedomain.fit(kind, times, signal, **({"detunings": params.get("detunings")} if kind == "chevron" else {}))
    rows = list(zip(times.tolist(), np.atleast_2d(signal).reshape(len(times), -1)[:, 0].tolist()))
    _write_csv(os.path.join(out, "signal.csv"), ["time", "value"], rows)
    _report({"params": fitres.params, "stderrs": fitres.stderrs, "residual_rms": fitres.residual_rms}, config_text, os.path.join(out, "fit.json"))


def cmd_report(cfg, out, config_text):
    inputs = _need(cfg, "", "inputs", list)
    merged = {}
    for path in inputs:
        with open(path) as f:
            merged[os.path.basename(path)] = json.load(f)
    _report({"inputs": merged}, config_text, os.path.join(out, "report.json"))


_COMMANDS = {
    "model": cmd_model,
    "simulate": cmd_simulate,
    "rb": cmd_rb,
    "irb": cmd_irb,
    "xrb": cmd_xrb,
    "birb": cmd_birb,
    "mrb": cmd_mrb,
    "xeb": cmd_xeb,
    "cb": cmd_cb,
    "cer": cmd_cer,
    "aces": cmd_aces,
    "tomo": cmd_tomo,
    "lgst": cmd_lgst,
    "dfe": cmd_dfe,
    "mcfe": cmd_mcfe,
    "accredit": cmd_accredit,
    "qv": cmd_qv,
    "volumetric": cmd_volumetric,
    "timedomain": cmd_timedomain,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qcvv", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as f:
            config_text = f.read()
        cfg = json.loads(config_text)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: /: cannot read config: {exc}", file=sys.stderr)
        return 2
    if "seed" not in cfg and os.environ.get("QCVV_SEED"):
        cfg["seed"] = int(os.environ["QCVV_SEED"])
    os.makedirs(args.out, exist_ok=True)
    try:
        _COMMANDS[args.command](cfg, args.out, config_text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: invalid design: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: fit failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
