"""Synthetic time-domain characterization and robust phase estimation.

Generates Rabi chevron, Ramsey, T1, and echo signals with shot noise, fits
each one back, and demonstrates RPE's Heisenberg-like scaling and its
robustness to additive probability perturbations up to sqrt(3/32).

Run: python3 demos/06_timedomain_and_rpe.py
"""

import numpy as np

from qcvv import timedomain as td

print("== T1 ==")
times = np.linspace(1, 400, 50)
sig = td.synth_t1(times, t1=100.0, shots=1000, seed=4)
fit = td.fit_t1(times, sig)
print(f"fitted T1 = {fit.params['t1']:.1f} (truth 100, 1000 shots/point)")

print("\n== Ramsey with artificial detunings ==")
times2 = np.linspace(0.1, 30, 150)
true_det = 0.695
arts = np.array([-2.0, -1.0, 1.0, 2.0])
measured = []
for i, a in enumerate(arts):
    s = td.synth_ramsey(times2, detuning=true_det + a, t2=20.0, shots=4000, seed=50 + i)
    measured.append(td.fit_ramsey(times2, s).params["frequency"])
vertex = td.fit_ramsey_detuning(arts, measured)
print("measured |freq| per artificial detuning:", [round(m, 3) for m in measured])
print(f"absolute-value vertex -> detuning = {vertex.params['detuning']:.4f} (truth {true_det})")

print("\n== Rabi chevron ==")
dets = np.linspace(-3, 3, 21)
grid = td.synth_rabi_chevron(times2, dets, rabi_freq=1.2, shots=3000, seed=6)
chev = td.fit_chevron(times2, dets, grid)
print(f"peak-period detuning = {chev.params['detuning']:.3f}, Rabi frequency = {chev.params['rabi_frequency']:.3f}")

print("\n== Hahn echo and the T2 <= 2 T1 bound ==")
sig_e = td.synth_echo(times, t2e=160.0, shots=2000, seed=7)
fit_e = td.fit_echo(times, sig_e)
print(f"fitted T2E = {fit_e.params['t2e']:.1f} (truth 160)")
p1, coh = td.bloch_redfield_populations(times, t1=100.0, t2=160.0)
print("joint generator enforces T2 <= 2 T1:", 160.0 <= 2 * 100.0)

print("\n== robust phase estimation ==")
res = td.rpe(0.8, 64, None, seed=1)
print(f"exact probabilities: theta_hat = {res.theta_hat} (machine precision)")
rms, _ = td.rpe_trials(0.8, 64, 100, n_trials=200, seed=9, delta_fn=lambda k, w: 0.25)
print(f"|delta| = 0.25 (< sqrt(3/32) = {td.RPE_DELTA_THRESHOLD:.3f}): RMS = {rms:.5f} <= pi/128 = {np.pi / 128:.5f}")
print("k_max scaling (Heisenberg-like):")
for km in (4, 16, 64, 256):
    r, _ = td.rpe_trials(0.8, km, 200, n_trials=40, seed=31)
    print(f"  k_max {km:4d}: RMS {r:.5f}")
