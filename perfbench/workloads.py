"""The four benchmark workloads.

Each workload repeats a fixed *unit* of protocol calls.  Unit ``i`` takes its
seeds from ``unit_seed(i)``, which depends only on the run's ``--seed``, so a
seed fixes every input.  ``setup`` builds what every unit shares (models and
the program's first-use tables, reached through a small warm-up call of the
same protocols); ``prepare_checks`` computes the closed-loop oracles outside
every timed region; ``unit`` raises :class:`UnitFailure` when its gate fails.

Circuit and shot counts per unit are computed here from the design, not read
back from the program; a traced run cross-checks them against the device
counters.

The program is reached only through module attributes (``rb.birb``, never a
name imported into this module), so the tracer's patches see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

from qcvv import channels as ch
from qcvv import cli
from qcvv import device as dv
from qcvv import fidelity as fd
from qcvv import linalg
from qcvv import metrics as mt
from qcvv import rb

WARMUP_SEED = 7
# unit_seed streams for per-run inputs, kept apart from unit indices
ORACLE_STREAM = 2**32 - 1
ONCE_STREAM = 2**32 - 2


def unit_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1, dtype=np.uint32)[0])


class UnitFailure(Exception):
    """A unit's closed-loop gate did not hold."""


class Workload:
    name = ""
    trace_units = 1  # units per phase of a traced run; fixed so counts repeat
    run_once = None  # optional per-run call made before the units of a phase

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def setup(self):
        pass

    def prepare_checks(self):
        pass

    def unit(self, i: int):
        raise NotImplementedError

    def finish(self):
        """Aggregate gate over the run's units; raises UnitFailure."""

    @property
    def unit_counts(self):
        """(circuits, shots) simulated by one unit."""
        raise NotImplementedError


def _finite(*values):
    return all(math.isfinite(float(v)) for v in values)


def _require(ok, detail):
    if not ok:
        raise UnitFailure(detail)


def _design_counts(depths, circuits, shots):
    return len(depths) * circuits, len(depths) * circuits * shots


# -- rb_dense ---------------------------------------------------------------------

class RBDense(Workload):
    """Criterion-05 interleaved RB (stochastic and coherent models) plus 2q
    standard RB over the 11,520-element group, on the dense PTM backend.

    Models are built inside the unit, as criterion 05 draws fresh noise per
    trial; the 2q group enumeration is a process-wide table and lands in
    set-up through the warm-up call.
    """

    name = "rb_dense"
    trace_units = 4
    P2 = 0.01

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        if tiny:
            self.irb = ((0, 8, 24), 4, 100)
            self.crb2 = ((0, 2, 4), 4, 50)
        else:
            self.irb = ((0, 4, 16, 48), 25, 200)
            self.crb2 = ((0, 2, 4, 8, 16), 20, 100)

    def _model2(self):
        noise = ch.depolarizing(self.P2, n=2)
        return dv.noisy_model(2, lambda label, arity: noise if arity == 2 else None)

    def setup(self):
        warm = (0, 1, 2)
        rb.run_crb(self._model2(), rb.RBDesign((0, 1), warm, 1, 1, seed=WARMUP_SEED))
        model = dv.noisy_model(1, lambda label, arity: ch.depolarizing(1e-3))
        rb.interleaved_rb(model, rb.RBDesign((0,), warm, 1, 1, seed=WARMUP_SEED), "S")

    def prepare_checks(self):
        noise = ch.depolarizing(self.P2, n=2)
        self.f2_true = float((np.trace(noise.ptm) - 1) / 15)

    @property
    def unit_counts(self):
        c1, s1 = _design_counts(*self.irb)
        c2, s2 = _design_counts(*self.crb2)
        return 4 * c1 + c2, 4 * s1 + s2

    def unit(self, i):
        gen = np.random.default_rng(unit_seed(self.seed, i))
        pc = float(gen.uniform(5e-4, 4e-3))
        pg = tuple(gen.uniform(5e-4, 5e-3, size=3))
        theta = float(gen.uniform(0.01, 0.05))
        s_stoch, s_coh, s_crb = (int(s) for s in gen.integers(2**31, size=3))
        depths, circuits, shots = self.irb

        gate_noise = ch.stochastic_pauli(pg)
        model = dv.noisy_model(
            1, lambda label, arity: gate_noise if label == "S" else ch.depolarizing(pc)
        )
        irb_stoch = rb.interleaved_rb(model, rb.RBDesign((0,), depths, circuits, shots, seed=s_stoch), "S")

        gate_noise_c = ch.Channel(ch.coherent("z", theta).ptm @ gate_noise.ptm)
        ref_noise_c = ch.Channel(ch.coherent("z", theta / 3).ptm @ ch.depolarizing(pc).ptm)
        model_c = dv.noisy_model(1, lambda label, arity: gate_noise_c if label == "S" else ref_noise_c)
        irb_coh = rb.interleaved_rb(model_c, rb.RBDesign((0,), depths, circuits, shots, seed=s_coh), "S")

        depths2, circuits2, shots2 = self.crb2
        _, fit = rb.run_crb(self._model2(), rb.RBDesign((0, 1), depths2, circuits2, shots2, seed=s_crb))

        # gates only after every call, so a failed gate leaves the unit's
        # simulated circuits equal to the design's
        self._irb_gate(irb_stoch, gate_noise, "stochastic")
        self._irb_gate(irb_coh, gate_noise_c, "coherent")
        _require(_finite(fit.f, fit.f_err), f"2q CRB fit is not finite: f={fit.f}, err={fit.f_err}")
        _require(
            abs(fit.f - self.f2_true) <= 3 * fit.f_err,
            f"2q CRB f {fit.f:.5f} not within 3 sigma ({3 * fit.f_err:.5f}) of {self.f2_true:.5f}",
        )

    @staticmethod
    def _irb_gate(res, gate_noise, kind):
        true_ef = 1 - gate_noise.to_chi()[0, 0].real
        lo, hi = res["bounds_e_F"]
        _require(_finite(lo, hi, res["e_F"]), f"IRB ({kind}) result is not finite")
        _require(lo <= true_ef <= hi, f"IRB ({kind}) bounds [{lo:.2e}, {hi:.2e}] miss e_F {true_ef:.2e}")


# -- mrb_fast_n20 ---------------------------------------------------------------------

def _scalable_noise(label, arity):
    if arity == 1:
        return ch.stochastic_pauli((4e-4, 3e-4, 5e-4))
    return ch.stochastic_pauli({"XI": 2e-3, "IZ": 1.5e-3, "YY": 1e-3})


class MRBFast(Workload):
    """Criterion-09 BiRB then MRB at n = 20 on the fault-propagation path.

    BiRB gets more circuits than MRB because its estimate scatters more per
    circuit; both designs keep the 0.10 relative-error gate several standard
    deviations away.
    """

    name = "mrb_fast_n20"
    N = 20

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        if tiny:
            self.birb_design = ((0, 2, 4), 2, 10)
            self.mrb_design = ((0, 2, 4), 2, 10)
        else:
            self.birb_design = ((0, 16, 32), 80, 100)
            self.mrb_design = ((0, 16, 32), 20, 100)

    def setup(self):
        self.model = dv.noisy_model(self.N, _scalable_noise)
        self.sampler = rb.LayerSampler(self.N, twoq_density=0.5)
        warm = rb.RBDesign((0,), (0, 2, 4), 1, 1, seed=WARMUP_SEED)
        rb.birb(self.model, warm, self.sampler)
        rb.mrb(self.model, warm, self.sampler)

    def prepare_checks(self):
        # Criterion 09's oracle is the mean layer polarization over sampled
        # layers.  The model's noise depends only on gate arity, so a layer's
        # polarization depends only on its 2q gate count; memoizing on it
        # allows enough samples that the oracle's own scatter is negligible.
        gen = np.random.default_rng(unit_seed(self.seed, ORACLE_STREAM))
        memo = {}
        total = 0.0
        samples = 2000 if self.tiny else 20000
        for _ in range(samples):
            oneq, twoq = self.sampler.sample(gen)
            if len(twoq) not in memo:
                memo[len(twoq)] = self.sampler.layer_polarization(self.model, oneq, twoq)
            total += memo[len(twoq)]
        self.f_oracle = total / samples

    @property
    def unit_counts(self):
        cb, sb = _design_counts(*self.birb_design)
        cm, sm = _design_counts(*self.mrb_design)
        return cb + cm, sb + sm

    def unit(self, i):
        s = unit_seed(self.seed, i)
        outs = [
            (proto, proto(self.model, rb.RBDesign((0,), *design, seed=s + k), self.sampler))
            for k, (proto, design) in enumerate(((rb.birb, self.birb_design), (rb.mrb, self.mrb_design)))
        ]
        for proto, out in outs:  # gates after both calls, as in rb_dense
            _require(_finite(out["f"], out["f_err"]), f"{proto.__name__} result is not finite")
            rel = abs(out["f"] - self.f_oracle) / (1 - self.f_oracle)
            _require(rel <= 0.10, f"{proto.__name__} f {out['f']:.5f} rel error {rel:.3f} > 0.10")


# -- accredit_fast_n3 -----------------------------------------------------------------

def _pauli_noise(label, arity):
    if arity == 1:
        return ch.stochastic_pauli((0.003, 0.002, 0.004))
    return ch.stochastic_pauli({"XZ": 0.01, "ZI": 0.008})


class AccreditFast(Workload):
    """Criterion-13 accreditation (theta 0.15, alpha 0.95: 328 one-shot traps
    per call) on the fast path.  One MCFE call per run (per phase when
    traced) is checked and timed on its own, outside the unit figures."""

    name = "accredit_fast_n3"
    trace_units = 4
    N = 3

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.theta, self.alpha = (0.6, 0.95) if tiny else (0.15, 0.95)
        self.k_ensemble, self.mcfe_shots = (10, 100) if tiny else (40, 300)
        self.contained = []

    def setup(self):
        self.model = dv.noisy_model(self.N, _pauli_noise)
        sampler = rb.LayerSampler(self.N, twoq_density=0.6, twoq_gate="CZ")
        # criterion 13's own target; its size sets the cost of every trap, so
        # the run seed varies only the trap and MCFE draws
        gen = linalg.rng(1313)
        target = []
        for _ in range(3):
            oneq, twoq = sampler.sample(gen)
            target += [oneq, twoq]
        target.append(tuple((rb.clifford_label(1, int(gen.integers(24))), (q,)) for q in range(self.N)))
        self.target = target
        fd.accredit(self.model, self.target, theta=1.0, alpha=0.5, seed=WARMUP_SEED)

    def prepare_checks(self):
        self.f_oracle = fd.circuit_polarization_oracle(self.model, self.target)
        self.fe_true = mt.convert_metric(self.f_oracle, "f", "F_e", 2**self.N)
        self.n_traps = fd.trap_count(self.theta, self.alpha)

    def once_counts(self):
        """(circuits, shots) simulated by ``run_once``."""
        circuits = 3 * self.k_ensemble
        return circuits, circuits * self.mcfe_shots

    def run_once(self):
        res = fd.mcfe(self.model, self.target, self.k_ensemble, self.mcfe_shots, seed=unit_seed(self.seed, ONCE_STREAM))
        _require(_finite(res.f, res.stderr), "MCFE result is not finite")
        _require(
            abs(res.f - self.f_oracle) <= 0.10 * self.f_oracle,
            f"MCFE f {res.f:.4f} not within 10% of oracle {self.f_oracle:.4f}",
        )

    @property
    def unit_counts(self):
        return self.n_traps, self.n_traps

    def unit(self, i):
        acc = fd.accredit(self.model, self.target, self.theta, self.alpha, seed=unit_seed(self.seed, i))
        _require(acc.n_traps == self.n_traps, f"{acc.n_traps} traps, expected {self.n_traps}")
        _require(
            _finite(acc.f_lower, acc.f_upper) and 0 <= acc.f_lower <= acc.f_upper <= 1,
            f"accreditation bounds out of order: [{acc.f_lower}, {acc.f_upper}]",
        )
        self.contained.append(acc.f_lower - acc.theta <= self.fe_true <= acc.f_upper + acc.theta)

    def finish(self):
        rate = sum(self.contained) / max(len(self.contained), 1)
        _require(rate >= 0.95, f"accreditation containment {sum(self.contained)}/{len(self.contained)} < 95%")


# -- cli_analysis -----------------------------------------------------------------------

ACES_NOISE = {"XI": 0.01, "IZ": 0.006, "YY": 0.004}


def cli_configs(tiny: bool):
    """The fixed analysis configs, in run order (report comes last).

    They do not depend on the run seed: every unit of every run does the
    same work and must write the same bytes (criterion 15).
    """
    cnot_noise = {"match": "CNOT", "channel": {"kind": "depolarizing", "p": 0.02, "n": 2}}
    oneq_noise = {"match": "1q", "channel": {"kind": "depolarizing", "p": 0.01}}
    return [
        ("aces", "aces", {
            "model": {"n": 2, "noise": [{"match": "CNOT", "channel": {"kind": "stochastic_pauli", "probs": ACES_NOISE}}]},
            "gate_layers": [[["CNOT", [0, 1]]]],
            "n_circuits": 2 if tiny else 20,
            "depth": 3,
            "paulis_per_circuit": 6,
            "shots": 800,
            "seed": 808,
        }),
        ("tomo", "tomo_process", {
            "model": {"n": 2, "noise": [cnot_noise]},
            "kind": "process",
            "method": "linear" if tiny else "mle",
            "circuit": {"width": 2, "layers": [[["CNOT", [0, 1]]]]},
            "shots": 1000,
            "seed": 5,
        }),
        ("tomo", "tomo_state", {
            "model": {"n": 3, "noise": [oneq_noise, cnot_noise]},
            "kind": "state",
            "circuit": {"width": 3, "layers": [[["H", [0]]], [["CNOT", [0, 1]]], [["CNOT", [1, 2]]]]},
            "shots": 200 if tiny else 2000,
            "seed": 5,
        }),
        ("lgst", "lgst", {
            "model": {"n": 1, "noise": [{"match": "X90", "channel": {"kind": "coherent", "axis": "z", "theta": 0.0174533}}]},
            "gates": ["X90", "Y90"],
            "seed": 5,
        }),
    ]


def _no_constants(token):
    raise ValueError(f"non-finite value {token} in output")


class CLIAnalysis(Workload):
    """In-process ``qcvv.cli.main`` over fixed configs: ACES, 2q CNOT process
    MLE, 3q GHZ state MLE, LGST with gauge optimization, then a report of
    their outputs.  Every unit's bytes must match the first unit's; a traced
    run always makes two units (one per phase), so it always compares."""

    name = "cli_analysis"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.first_digest = None

    def _calls(self, tag, configs):
        base = os.path.join(self.workdir, f"cli-{tag}")
        calls = []
        for command, out, cfg in configs:
            cfg_path = os.path.join(base, f"{out}.json")
            os.makedirs(base, exist_ok=True)
            with open(cfg_path, "w") as f:
                json.dump(cfg, f, sort_keys=True)
            calls.append((command, cfg_path, os.path.join(base, out)))
        inputs = [os.path.join(base, "aces", "aces.json"), os.path.join(base, "tomo_process", "tomo.json"),
                  os.path.join(base, "lgst", "lgst.json")]
        report_cfg = os.path.join(base, "report.json")
        with open(report_cfg, "w") as f:
            json.dump({"inputs": inputs}, f)
        calls.append(("report", report_cfg, os.path.join(base, "report")))
        return calls

    def setup(self):
        warm = [(c, o, dict(cfg)) for c, o, cfg in cli_configs(True)]
        for _, out, cfg in warm:
            if out == "tomo_process":
                cfg["method"] = "linear"
        for command, cfg_path, out in self._calls("warmup", warm):
            if cli.main([command, "--config", cfg_path, "--out", out]) != 0:
                raise RuntimeError(f"warm-up {command} failed")
        self.configs = cli_configs(self.tiny)
        self.calls = self._calls("unit", self.configs)

    def prepare_checks(self):
        self.aces_truth = np.diag(ch.stochastic_pauli(ACES_NOISE).ptm)

    @property
    def unit_counts(self):
        aces, qpt, qst, _ = (cfg for _, _, cfg in self.configs)
        aces_circuits = 15 + aces["n_circuits"] * aces["paulis_per_circuit"]
        circuits = aces_circuits + 16 * 9 + 27 + 12 * 3
        shots = aces_circuits * aces["shots"] + 16 * 9 * qpt["shots"] + 27 * qst["shots"]
        return circuits, shots

    def unit(self, i):
        for command, cfg_path, out in self.calls:
            code = cli.main([command, "--config", cfg_path, "--out", out])
            _require(code == 0, f"qcvv {command} exited with {code}")
        digest = hashlib.sha256()
        for _, _, out in self.calls:
            for fname in sorted(os.listdir(out)):
                if fname.endswith(".meta.json"):
                    continue  # wall-clock timestamps live here by design
                path = os.path.join(out, fname)
                with open(path, "rb") as f:
                    blob = f.read()
                if fname.endswith(".json"):
                    json.loads(blob, parse_constant=_no_constants)
                digest.update(fname.encode() + b"\0" + blob)
        if self.first_digest is None:
            self.first_digest = digest.hexdigest()
        _require(digest.hexdigest() == self.first_digest, "CLI outputs differ from the first unit's bytes")
        with open(os.path.join(self.calls[0][2], "aces_eigenvalues.csv")) as f:
            for row in csv.DictReader(f):
                est, err = float(row["estimate"]), float(row["stderr"])
                _require(_finite(est, err), f"ACES {row['pauli']} is not finite")
                pull = abs(est - self.aces_truth[linalg.pauli_index(row["pauli"])]) / max(err, 1e-5)
                _require(pull <= 3, f"ACES {row['pauli']} pull {pull:.2f} > 3")


WORKLOADS = {w.name: w for w in (RBDense, MRBFast, AccreditFast, CLIAnalysis)}
