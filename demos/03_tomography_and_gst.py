"""State, process, measurement, and linear gate-set tomography closed loops.

Reconstructs a Bell state, a dephasing process, and a confused readout (its
response matrix and its MLE POVM) from simulated counts; then runs linear GST on a gate set with an injected
1-degree coherent error and recovers the error-generator coefficient after
gauge optimization.

Run: python3 demos/03_tomography_and_gst.py
"""

import numpy as np

from qcvv import channels as ch
from qcvv import device as dv
from qcvv import metrics as mt
from qcvv import tomography as tg
from qcvv.device import Circuit
from qcvv.linalg import ket, projector

np.set_printoptions(precision=4, suppress=True)

print("== quantum state tomography of a Bell state (1e4 shots/setting) ==")
bell_circ = Circuit(2, ((("H", (0,)),), (("CNOT", (0, 1)),)))
ds = tg.qst_dataset(dv.ideal_model(2), bell_circ, shots=10000, seed=5)
rho = tg.qst(ds, 2, method="mle")
bell = projector((ket("00") + ket("11")) / np.sqrt(2))
print(f"fidelity to |Phi+>: {mt.state_fidelity(rho, bell):.5f}")

print("\n== process tomography of injected dephasing p = 0.05 ==")
model = dv.noisy_model(
    1,
    lambda l, a: ch.dephasing(0.05) if l == "TGT" else None,
    gate_factory=lambda l: np.eye(2, dtype=complex) if l == "TGT" else None,
)
dsq = tg.qpt_dataset(model, Circuit(1, ((("TGT", (0,)),),)), shots=200000, seed=7)
chan = tg.qpt(dsq, 1, method="mle")
print("recovered PTM diagonal:", np.diag(chan.ptm), "(expected 1, 0.95, 0.95, 1)")

print("\n== measurement tomography with a confused readout ==")
conf_model = dv.ideal_model(1).with_confusion({0: [[0.99, 0.05], [0.01, 0.95]]})
dm = tg.qmt_dataset(conf_model, shots=50000, seed=11)
r = tg.response_matrix(dm, 1)
print("response matrix:\n", r)
print(f"readout fidelity Tr(R)/d = {mt.readout_fidelity(r):.4f}")
povm = tg.qmt(dm, 1, method="mle")
print("MLE effect of outcome 0 (PSD; the effects sum to I):\n", povm["0"].real)

print("\n== truth-table tomography of CNOT with a 2% target-bit flip ==")
tt_model = dv.noisy_model(
    2, lambda l, a: ch.identity_channel(1).tensor(ch.stochastic_pauli((0.02, 0, 0))) if l == "CNOT" else None
)
s_exp, f_tt = tg.truth_table(tt_model, Circuit(2, ((("CNOT", (0, 1)),),)), shots=100000, seed=13)
print("stochastic matrix:\n", s_exp)
print(f"F_tt = {f_tt:.4f} (expected ~0.98)")

print("\n== linear GST + gauge optimization: 1 degree Z over-rotation on X90 ==")
theta = np.pi / 180
rot_model = dv.noisy_model(1, lambda l, a: ch.coherent("z", theta) if l == "X90" else None)
res = tg.run_lgst(rot_model, ["X90", "Y90"], exact=True)
print(f"Gram condition number: {res.gram_condition:.2f}")
targets = {l: ch.Channel.from_unitary(dv.GATE_UNITARIES[l]).ptm for l in ("X90", "Y90")}
gauge, fixed, cost = tg.gauge_optimize(res, targets, 1)
err = ch.Channel(fixed["X90"] @ np.linalg.inv(targets["X90"]))
hz = ch.error_generator(err).rate("H", 3)
print(f"recovered h_Z = {hz:.6f} rad (injected theta/2 = {theta / 2:.6f})")
print(f"non-gauge parameter count: {tg.lgst_nongauge_params(res)}")
