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
from qcvv import volumetrics as vm
from qcvv.linalg import haar_random_unitary, rng


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


# Pins of the dense paths and the remaining protocol call sites, recorded
# while each protocol still chose its simulator itself; they hold once the
# protocols reach the simulators through ``device.sample`` and
# ``device.parity_mean``.

BIRB_N3_DENSE = {0: [1.0, 1.0, 0.6], 2: [0.8, 0.55, 0.75], 4: [0.65, 0.55, 0.6]}
XRB_N1 = {
    0: [0.6919540229885058, 1.174712643678161],
    2: [0.8896551724137933, 1.1149425287356323],
    4: [1.1333333333333335, 0.8758620689655174],
}
SRB_DENSE = {
    (0,): (
        {0: [1.0, 1.0, 0.9666666666666667], 2: [0.9666666666666667, 1.0, 0.9666666666666667],
         6: [0.9333333333333333, 0.9, 0.9666666666666667]},
        {0: [0.9666666666666667, 1.0, 0.9333333333333333], 2: [1.0, 0.9333333333333333, 0.9666666666666667],
         6: [1.0, 0.9666666666666667, 0.9]},
    ),
    (2,): (
        {0: [0.9666666666666667, 1.0, 1.0], 2: [0.9333333333333333, 0.9666666666666667, 1.0],
         6: [0.9666666666666667, 0.9666666666666667, 1.0]},
        {0: [1.0, 1.0, 1.0], 2: [0.9, 0.9, 0.9666666666666667], 6: [1.0, 0.9333333333333333, 0.9]},
    ),
}
SRB_FAST = {
    (0,): (
        {0: [1.0, 0.9666666666666667, 1.0], 2: [0.9666666666666667, 1.0, 0.9666666666666667],
         6: [0.9666666666666667, 0.9333333333333333, 0.9666666666666667]},
        {0: [1.0, 1.0, 0.9666666666666667], 2: [1.0, 1.0, 1.0],
         6: [0.9666666666666667, 0.9333333333333333, 0.9666666666666667]},
    ),
    (2,): (
        {0: [1.0, 1.0, 1.0], 2: [1.0, 0.9666666666666667, 0.9666666666666667],
         6: [0.9666666666666667, 0.9333333333333333, 0.9666666666666667]},
        {0: [1.0, 0.9666666666666667, 1.0], 2: [1.0, 0.9666666666666667, 1.0],
         6: [1.0, 1.0, 0.9333333333333333]},
    ),
}
CB_2Q_DENSE = {
    "XI": [0.9733333333333333, 0.96],
    "YX": [0.8266666666666667, 0.8133333333333334],
    "ZZ": [0.9466666666666667, 0.84],
}
ACES_FAST = (
    [
        0.989320094346693, 0.98, 0.98, 0.9666564704527002, 0.98, 1.0, 1.0069338233882295,
        0.9419433086195583, 0.98, 0.96, 0.9615671275491324, 0.94, 0.9691298883396176, 0.88, 0.98,
        0.9997612115196649, 1.0011136592846694, 1.0001022492043437, 0.9998896083521607,
        0.9902042056555477, 1.010252024413251,
    ],
    [
        0.024181047167829355, 0.027729677693590127, 0.027729677693590134, 0.025408769717168867,
        0.027729677693590127, 0.01970563847278602, 0.020046540191285097, 0.029611716206306114,
        0.02772967769359012, 0.033791544979635456, 0.027391976782909146, 0.03882154877102612,
        0.027380546560641632, 0.050563909640108325, 0.027729677693590124, 0.012566321171634165,
        0.006126108088632806, 0.011450196632406574, 0.0048192658319205816, 0.013173638290341717,
        0.015383611511570796,
    ],
)
ACES_DENSE = (
    [
        0.9410034728502934, 0.98, 0.98, 1.0000767916570292, 0.96, 0.9400000000000001,
        1.0000767916570292, 0.9817276569898069, 0.88, 0.9, 0.9616923986838926, 0.88,
        1.002373264557921, 0.94, 1.0, 1.0020437097621053, 1.0031490612200011, 0.9962106178055147,
        0.9997696604061357, 0.9938839879771076, 1.0094179745451204,
    ],
    [
        0.03405423598480161, 0.027729677693590127, 0.027729677693590134, 0.01616903642328061,
        0.03379154497963547, 0.03882154877102612, 0.016169036423280627, 0.025411087800499194,
        0.05056390964010832, 0.04705882352941175, 0.02798443053734168, 0.05056390964010833,
        0.025892803727407463, 0.03882154877102612, 0.019705638472786023, 0.012598192701897973,
        0.006245524175003575, 0.011426047760911141, 0.00476389911125897, 0.012745734998902972,
        0.01539627503175475,
    ],
)
DFE_GHZ2_DENSE = (0.8239999999999998, 0.004902021464989396, 4, 500)
MCFE_N3_DENSE = (
    0.807290075511361, 0.810301168081496, 0.6285714285714287, 0.6228571428571428, 0.9733333333333333,
    0.04238968339476649,
)
ACCREDIT_N3_DENSE = (3, 0.8421052631578947, 0.9210526315789473)
PERIODIC_MIRROR_FAST = {
    (2, 2): [0.904, 0.888, 0.872],
    (2, 4): [0.84, 0.952, 0.9359999999999999],
    (3, 2): [0.7561904761904761, 0.8476190476190475, 0.9085714285714284],
    (3, 4): [0.7561904761904761, 0.817142857142857, 0.8476190476190475],
}


def _cz_target(n, seed):
    sampler = rb.LayerSampler(n, twoq_density=0.6, twoq_gate="CZ")
    g = rng(seed)
    layers = []
    for _ in range(3):
        oneq, twoq = sampler.sample(g)
        layers.extend([oneq, twoq])
    layers.append(tuple((rb.clifford_label(1, int(g.integers(24))), (q,)) for q in range(n)))
    return layers


def _czd_model():
    noise = ch.stochastic_pauli({"XI": 0.02, "IZ": 0.01, "YY": 0.01})
    czn = ch.Channel(noise.ptm @ ch.Channel.from_unitary(dv.GATE_UNITARIES["CZ"]).ptm)
    czn.unitary = dv.GATE_UNITARIES["CZ"]
    return dv.GateSetModel(2, gates={"CZD": (czn, 2)})


def test_birb_values_dense_backend_with_asymmetric_readout():
    model = dv.noisy_model(3, _noise, confusion={1: [[0.95, 0.1], [0.05, 0.9]]})
    design = rb.RBDesign((0,), (0, 2, 4), 3, 40, seed=350)
    res = rb.birb(model, design, rb.LayerSampler(3, twoq_density=0.5), backend="dense")
    assert _values(res["data"]) == BIRB_N3_DENSE


def test_xrb_values():
    design = rb.RBDesign((0,), (0, 2, 4), 2, 30, seed=351)
    assert _values(rb.xrb(dv.noisy_model(1, _noise), design)["data"]) == XRB_N1


def test_simultaneous_rb_values_dense_and_fast():
    model = dv.noisy_model(3, _noise)
    design = rb.RBDesign((0,), (0, 2, 6), 3, 30, seed=352)
    for backend, pinned in (("dense", SRB_DENSE), ("fast", SRB_FAST)):
        res = rb.simultaneous_rb(model, [(0,), (2,)], design, backend=backend)
        got = {sub: (_values(r["isolated_data"]), _values(r["simultaneous_data"])) for sub, r in res.items()}
        assert got == pinned, backend


def test_cycle_benchmark_estimates_dense_backend():
    ds = cy.cycle_benchmark(
        _czd_model(), (("CZD", (0, 1)),), ["XI", "ZZ", "YX"], (2, 4), 3, 50, seed=353, backend="dense"
    )
    assert {p: [float(v) for v in d.estimates] for p, d in ds.decays.items()} == CB_2Q_DENSE


def test_aces_estimates_and_stderrs_fast_and_dense():
    layers = [(("CZD", (0, 1)),), (("X90", (0,)), ("H", (1,)))]
    for backend, pinned in (("fast", ACES_FAST), ("dense", ACES_DENSE)):
        res = cy.aces(
            _czd_model(), layers, n_circuits=4, depth=2, paulis_per_circuit=3, shots=100, seed=354, backend=backend
        )
        assert ([float(v) for v in res.estimates], [float(v) for v in res.stderrs]) == pinned, backend


def test_dfe_mcfe_accredit_dense_backend():
    model = dv.noisy_model(2, lambda lbl, ar: ch.depolarizing(0.1, n=ar))
    res = fd.dfe(model, fd.ghz_circuit(2), fd.ghz_stabilizers(2), epsilon=0.1, delta=0.2, seed=355)
    assert (res.estimate, res.stderr, res.sampled_bases, res.total_shots) == DFE_GHZ2_DENSE
    model = dv.noisy_model(3, _noise)
    res = fd.mcfe(model, _cz_target(3, 356), k_ensemble=4, shots=50, seed=357, backend="dense")
    assert (res.f, res.f_e, res.gamma_m1, res.gamma_m2, res.gamma_m3, res.stderr) == MCFE_N3_DENSE
    res = fd.accredit(model, _cz_target(3, 358), theta=0.4, alpha=0.9, seed=359, backend="dense")
    assert (res.n_unsuccessful, res.f_lower, res.f_upper) == ACCREDIT_N3_DENSE


def test_periodic_mirror_volumetric_values_fast_backend():
    def builder(w):
        return dv.noisy_model(w, _noise)

    grid = vm.volumetric_run(builder, "periodic-mirror", (2, 3), (2, 4), 3, 50, seed=360)
    assert {key: [float(v) for v in cell.values] for key, cell in grid.items()} == PERIODIC_MIRROR_FAST


# Pins of the Clifford group builders, the 1q tables and CRB generation,
# recorded while group elements were identified by composing tableaux;
# they hold once every element is identified from its unitary.

GROUP_1Q_DIGEST = "7edaffde698c7fa2796166e9fb7b66495a603d7d8877b22b17c4c33bc0bf8a43"
GROUP_2Q_DIGEST = "5a42366a4640346a5c9919ca1d5c35c67850aa76339cab48063a091f49f107d0"
TABLES_1Q_DIGEST = "515f1e5615bd7bcf57dd8d2dc4aea669539bebbb138077d1a9deedd3777e0599"
CRB_DIGESTS = {
    ((0,), None, 370): "fa5a51018dc6d77fdd7f9881f36bd6d1aff3e05f8e170f4ae0fe3559a086a01e",
    ((0,), "S", 371): "3195cbaa7f5e68cf0a8c0fe12e1904c7d7e2949ef8515755a372a7fcad5e2167",
    ((0, 1), None, 372): "f70a3965d21479e2785109a919aea042e8ef47d561fd2185284ec0237d719ef4",
    ((0, 1), "CNOT", 373): "86ae62664b13b4d6f2437a29f3f38eed3cd7246845ceb74f13a4e00232fd2e05",
}
RUN_CRB_2Q_DENSE = (
    {0: [0.975, 1.0, 0.95], 2: [0.95, 0.95, 0.975], 4: [0.925, 0.85, 0.875]},
    (0.7345603053209663, 0.9677296710418011, 0.022733910837870706),
)
IRB_1Q_DENSE = (0.9999962115049286, 0.9762301994780189, 0.01782457654850267, 0.011883051032335112, 0.003148560037679976)


def _group_digest(group):
    h = hashlib.sha256()
    for e in group:
        h.update(e.unitary.tobytes())
        h.update(repr(e.word).encode())
        h.update(repr(e.tableau.key()).encode())
    return h.hexdigest()


def test_clifford_groups_and_1q_tables_byte_identical():
    from qcvv import cliffords as cl

    assert _group_digest(cl.clifford_group_1q()) == GROUP_1Q_DIGEST
    assert _group_digest(cl.clifford_group_2q()) == GROUP_2Q_DIGEST
    t = cl.clifford_1q_tables()
    h = hashlib.sha256()
    h.update(t.compose.tobytes())
    h.update(t.inverse.tobytes())
    h.update(repr(sorted(t.gate_index.items())).encode())
    h.update(repr((t.pauli_index, t.identity)).encode())
    assert h.hexdigest() == TABLES_1Q_DIGEST


def test_crb_circuits_byte_identical():
    for (qubits, interleave, seed), digest in CRB_DIGESTS.items():
        design = rb.RBDesign(qubits, (0, 1, 3, 6), 5, 10, seed=seed)
        h = hashlib.sha256()
        for m, circ, bits in rb.crb_circuits(design, interleave=interleave):
            h.update(f"{m}|{bits}|".encode())
            h.update(circ.to_json().encode())
        assert h.hexdigest() == digest, (qubits, interleave)


def test_run_crb_2q_and_interleaved_rb_1q_dense_values():
    data, fit = rb.run_crb(dv.noisy_model(2, _noise), rb.RBDesign((0, 1), (0, 2, 4), 3, 40, seed=374))
    assert (_values(data), (fit.a, fit.f, fit.f_err)) == RUN_CRB_2Q_DENSE
    res = rb.interleaved_rb(dv.noisy_model(1, _noise), rb.RBDesign((0,), (0, 4, 8), 3, 40, seed=375), "S")
    got = (res["reference_fit"].f, res["interleaved_fit"].f, res["e_F"], res["r"], float(res["stat_err_r"]))
    assert got == IRB_1Q_DENSE


# Pins of the paths that resolve gates through a circuit's ``gate_defs``
# (quantum volume, XEB, a statevector run) and of the tomography datasets
# and exact LGST, which evolve dense ensembles; values hashed where long.

def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _qv_pin():
    model = dv.noisy_model(3, lambda lbl, ar: ch.depolarizing(0.02, n=ar))
    res = vm.qv_test(model, 3, 4, 200, seed=380)
    return res.hbar, res.lower_bound, res.passed, res.per_circuit


def _xeb_pin():
    design = rb.RBDesign((0, 1), (1, 2, 4), 3, 100, seed=381)
    res = rb.xeb(dv.noisy_model(2, _noise), design, rb.haar_su4_layer_sampler(2, 382))
    return res["per_depth_f_xeb"], res["f"], res["f_err"]


def _qpt_dataset_pin():
    from qcvv import tomography as tg

    gate = dv.Circuit(2, ((("CNOT", (0, 1)),), (("H", (1,)),)))
    data = tg.qpt_dataset(dv.noisy_model(2, _noise), gate, 50, seed=383)
    return hashlib.sha256(repr(sorted((i, sorted(d.items())) for i, d in data.items())).encode()).hexdigest()


def _lgst_pin():
    from qcvv import tomography as tg

    model = dv.noisy_model(1, lambda lbl, ar: ch.depolarizing(0.03))
    res = tg.run_lgst(model, ["X90", "Y90"], exact=True)
    return _digest(res.gates["X90"], res.gates["Y90"], res.rho, res.gram), res.gram_condition


def _statevector_pin():
    defs = {"u": haar_random_unitary(4, 384)}
    circ = dv.Circuit(3, ((("H", (0,)), ("u", (1, 2))), (("CNOT", (0, 2)),), (("u", (2, 0)), ("X90", (1,)))), defs)
    return _digest(dv.statevector_run(circ, dv.noisy_model(3, _noise)))


QV_N3 = (0.84125, 0.7452500611029925, True, [0.725, 1.0, 0.845, 0.795])
XEB_N2 = ([0.9300829405541141, 1.0508367204287008, 0.7232619055365845], 0.9157113634528695, 0.014899916826615593)
QPT_DATASET_DIGEST = "325cf57805c7809a3001615cdadfeb5f23fdd1acd29b1c2eaaa6fff094fee2b7"
LGST_1Q = ("0b0701e8842f7fe7d7c822700e46b7335c2cd120f322ac631e34e5ed6dfc7c36", 5.406315281025969)
STATEVECTOR_DIGEST = "29f3a4046f0fa33414e4186ed8d658972f1f79c02ba2b71a494bb18192f7ae9b"


def test_qv_and_xeb_values_with_gate_defs():
    assert _qv_pin() == QV_N3
    assert _xeb_pin() == XEB_N2


def test_tomography_dataset_and_exact_lgst_values():
    assert _qpt_dataset_pin() == QPT_DATASET_DIGEST
    assert _lgst_pin() == LGST_1Q


def test_statevector_amplitudes_byte_identical():
    assert _statevector_pin() == STATEVECTOR_DIGEST
