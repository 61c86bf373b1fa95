"""Seeded-output regression for the scalable fast path.

Every value below was recorded with the tableau-based implementation that
the 1q index tables and the compiled fast path replaced (n-qubit tableaux
for circuit generation, one random draw per noisy gate in simulation).
Equality is exact: any change to circuit generation, the random stream or
the order of fault injection shows up here.
"""

import hashlib

import numpy as np

from qcvv import channels as ch
from qcvv import cycles as cy
from qcvv import device as dv
from qcvv import fidelity as fd
from qcvv import rb
from qcvv.linalg import rng


def _noise(lbl, ar):
    if ar == 1:
        return ch.stochastic_pauli((4e-3, 2e-3, 6e-3))
    return ch.stochastic_pauli({"XI": 1e-2, "IZ": 8e-3, "YY": 4e-3})


def _values(data):
    return {m: [float(v) for v in data.values[m]] for m in data.depths}


def _mirror_digest(n, twoq_gate, seed, count=4, depth=6):
    sampler = rb.LayerSampler(n, twoq_density=0.7, twoq_gate=twoq_gate)
    gen = rng(seed)
    h = hashlib.sha256()
    for _ in range(count):
        h.update(rb.mirror_circuit(sampler, depth, gen).to_json().encode())
    return h.hexdigest()


BIRB_N4 = {
    0: [0.95, 1.0, 0.95], 2: [0.8, 0.6, 0.95], 4: [0.6, 0.7, 0.5],
}
BIRB_N4_READOUT = {
    0: [0.95, 1.0, 0.8], 2: [0.75, 0.7, 0.8], 4: [0.35, 0.6, 0.6],
}
MRB_N4 = {
    0: [0.9623529411764706, 1.0, 1.0],
    2: [0.7741176470588235, 0.7929411764705881, 0.8305882352941176],
    4: [0.7741176470588235, 0.7176470588235294, 0.708235294117647],
}
MIRROR_DIGESTS = {
    "CNOT": "6cd935dda829e89db0f60da42e03059a88e2d76117b533ca2ae0a3a5a3cc8979",
    "CZ": "49f73d0cf7174c54b71348218a4a81155d9ba26cda2ba050d8a15387dbd4f57b",
    "ISWAP": "72e60d14037bee1fb913fcfdb88d99e8cde2cb0134656d57554c5716862022a4",
    "SWAP": "c81e265bfe449f9096d13ef84cdc18c4da025c3cc2df193196f457d28a23f68b",
}
CB_3Q_ESTIMATES = {
    "IYZ": [0.9111111111111111, 0.8555555555555555],
    "XIX": [0.8666666666666667, 0.7666666666666666],
    "ZZI": [1.0, 0.9222222222222222],
}
ACCREDIT_N3 = (6, 0.8208955223880597, 0.9104477611940298)
IDLE_COUNTS = {
    "00000": 175, "00001": 31, "00010": 29, "00011": 7, "00100": 25, "00101": 5, "00110": 3,
    "00111": 2, "01000": 35, "01001": 7, "01010": 7, "01011": 2, "01100": 14, "01101": 4,
    "01111": 3, "10000": 26, "10001": 2, "10010": 3, "10011": 3, "10100": 7, "10110": 1,
    "10111": 1, "11000": 3, "11001": 1, "11010": 1, "11011": 1, "11100": 2,
}
PRE_GATE_COUNTS = {
    "00000": 211, "00001": 40, "00010": 19, "00011": 12, "00100": 27, "00101": 3, "00110": 5,
    "00111": 3, "01000": 18, "01001": 6, "01010": 1, "01011": 3, "01100": 15, "01110": 2,
    "10000": 17, "10001": 2, "10010": 2, "10011": 2, "10100": 4, "10101": 1, "10110": 2,
    "10111": 1, "11000": 1, "11001": 1, "11010": 1, "11100": 1,
}


def test_birb_mrb_values_fast_backend():
    n = 4
    model = dv.noisy_model(n, _noise)
    sampler = rb.LayerSampler(n, twoq_density=0.5)
    design = rb.RBDesign((0,), (0, 2, 4), 3, 40, seed=301)
    assert _values(rb.birb(model, design, sampler)["data"]) == BIRB_N4
    assert _values(rb.mrb(model, design, sampler)["data"]) == MRB_N4


def test_birb_values_with_idle_noise_and_symmetric_readout():
    n = 4
    idle = ch.stochastic_pauli((6e-3, 4e-3, 2e-3))
    model = dv.noisy_model(n, _noise, idle=idle, confusion={2: [[0.96, 0.04], [0.04, 0.96]]})
    sampler = rb.LayerSampler(n, twoq_density=0.5, twoq_gate="ISWAP")
    design = rb.RBDesign((0,), (0, 2, 4), 3, 40, seed=302)
    assert _values(rb.birb(model, design, sampler)["data"]) == BIRB_N4_READOUT


def test_mirror_circuits_byte_identical():
    for k, gate in enumerate(sorted(MIRROR_DIGESTS)):
        assert _mirror_digest(6, gate, seed=310 + k) == MIRROR_DIGESTS[gate], gate


def test_accredit_outcome():
    n = 3
    model = dv.noisy_model(n, _noise)
    sampler = rb.LayerSampler(n, twoq_density=0.6, twoq_gate="CZ")
    g = rng(320)
    layers = []
    for _ in range(3):
        oneq, twoq = sampler.sample(g)
        layers.extend([oneq, twoq])
    layers.append(tuple((rb.clifford_label(1, int(g.integers(24))), (q,)) for q in range(n)))
    res = fd.accredit(model, layers, theta=0.3, alpha=0.9, seed=321)
    assert (res.n_unsuccessful, res.f_lower, res.f_upper) == ACCREDIT_N3


def _sample_counts(**model_kw):
    n = 5
    model = dv.noisy_model(n, _noise, **model_kw)
    sampler = rb.LayerSampler(n, twoq_density=0.6)
    circ = rb.mirror_circuit(sampler, 8, rng(330))
    return dv.pauli_fastpath_sample(model, circ, 400, 331, ideal_bits=np.zeros(n, dtype=np.uint8)).counts


def test_fastpath_counts_with_idle_noise():
    idle = ch.stochastic_pauli((6e-3, 4e-3, 2e-3))
    assert _sample_counts(idle=idle, confusion={1: [[0.95, 0.1], [0.05, 0.9]]}) == IDLE_COUNTS


def test_fastpath_counts_with_pre_gate_noise():
    idle = ch.stochastic_pauli((2e-3, 0.0, 4e-3))
    assert _sample_counts(idle=idle, pre_gate_noise=True) == PRE_GATE_COUNTS


def test_cycle_benchmark_estimates_with_three_qubit_faults():
    # a 3-qubit error channel: 64 fault outcomes per draw
    noise = ch.stochastic_pauli({"IIZ": 0.02, "XIY": 0.01, "ZZZ": 0.005})
    c = ch.Channel(noise.ptm)
    c.unitary = np.eye(8, dtype=complex)
    model = dv.GateSetModel(3, gates={"CYC": (c, 3)})
    ds = cy.cycle_benchmark(model, (("CYC", (0, 1, 2)),), ["IYZ", "XIX", "ZZI"], (2, 4), 3, 60, seed=340)
    assert {p: [float(v) for v in d.estimates] for p, d in sorted(ds.decays.items())} == CB_3Q_ESTIMATES
