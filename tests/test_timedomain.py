import numpy as np
import pytest

from qcvv import timedomain as td


def test_t1_closed_loop():
    times = np.linspace(1, 400, 50)
    sig = td.synth_t1(times, t1=100.0, shots=1000, seed=4)
    fit = td.fit_t1(times, sig)
    assert fit.params["t1"] == pytest.approx(100.0, rel=0.05)


def test_strictly_increasing_times_required():
    with pytest.raises(ValueError):
        td.fit_t1(np.array([0.0, 1.0, 1.0]), np.array([1.0, 0.9, 0.8]))


def test_rabi_on_resonance_full_contrast():
    times = np.linspace(0, 20, 200)
    sig = td.synth_rabi(times, rabi_freq=1.5)
    assert sig.max() == pytest.approx(1.0, abs=1e-3)
    fit = td.fit_rabi(times, sig)
    assert fit.params["effective_frequency"] == pytest.approx(1.5, rel=1e-3)
    assert fit.params["contrast"] == pytest.approx(1.0, abs=1e-3)


def test_rabi_detuned_effective_frequency():
    times = np.linspace(0, 20, 300)
    sig = td.synth_rabi(times, rabi_freq=1.5, detuning=0.8)
    fit = td.fit_rabi(times, sig)
    assert fit.params["effective_frequency"] == pytest.approx(np.sqrt(1.5**2 + 0.8**2), rel=1e-3)
    assert fit.params["contrast"] < 1.0


def test_damped_rabi_matches_its_closed_form():
    """With ``t2``, P1(t) = c/2 - (c/2) cos(W' t) exp(-t/t2), c = (W/W')^2:
    zero at t = 0, half the contrast long after t2, the undamped curve as
    t2 grows without bound, and shot noise around it with a seed."""
    w, delta, t2 = 1.5, 0.8, 3.0
    w_eff, times = np.sqrt(w**2 + delta**2), np.linspace(0, 20, 201)
    contrast = (w / w_eff) ** 2
    damped = td.synth_rabi(times, rabi_freq=w, detuning=delta, t2=t2)
    closed = contrast / 2 - contrast / 2 * np.cos(w_eff * times) * np.exp(-times / t2)
    assert damped == pytest.approx(closed, abs=1e-12)
    assert damped[0] == 0.0
    late = td.synth_rabi(np.linspace(200 * t2, 210 * t2, 11), rabi_freq=w, detuning=delta, t2=t2)
    assert late == pytest.approx(np.full(11, contrast / 2), abs=1e-12)
    undamped = td.synth_rabi(times, rabi_freq=w, detuning=delta)
    assert td.synth_rabi(times, rabi_freq=w, detuning=delta, t2=1e12) == pytest.approx(undamped, abs=1e-9)
    shots = 2000
    noisy = td.synth_rabi(times, rabi_freq=w, detuning=delta, t2=t2, shots=shots, seed=3)
    assert np.array_equal(noisy, td.synth_rabi(times, rabi_freq=w, detuning=delta, t2=t2, shots=shots, seed=3))
    assert np.array_equal(noisy * shots, np.round(noisy * shots))
    assert np.all(np.abs(noisy - closed) <= 5 * np.sqrt(closed * (1 - closed) / shots) + 1e-12)


def test_chevron_locates_detuning():
    times = np.linspace(0.1, 25, 120)
    dets = np.linspace(-3, 3, 21) + 0.4  # true qubit sits at detuning -0.4 in drive frame
    grid = td.synth_rabi_chevron(times, dets, rabi_freq=1.2, shots=3000, seed=6)
    fit = td.fit_chevron(times, dets, grid)
    assert fit.params["detuning"] == pytest.approx(0.0, abs=0.15)
    assert fit.params["rabi_frequency"] == pytest.approx(1.2, rel=0.05)


def test_ramsey_closed_loop():
    times = np.linspace(0.1, 30, 150)
    sig = td.synth_ramsey(times, detuning=2.1, t2=12.0, shots=3000, seed=5)
    fit = td.fit_ramsey(times, sig)
    assert fit.params["frequency"] == pytest.approx(2.1, rel=0.05)
    assert fit.params["t2"] == pytest.approx(12.0, rel=0.05)


def test_ramsey_artificial_detuning_vertex():
    times = np.linspace(0.1, 30, 150)
    true_det = 0.695
    arts = np.array([-2.0, -1.0, 1.0, 2.0])
    measured = []
    for i, a in enumerate(arts):
        sig = td.synth_ramsey(times, detuning=true_det + a, t2=20.0, shots=4000, seed=50 + i)
        measured.append(td.fit_ramsey(times, sig).params["frequency"])
    fit = td.fit_ramsey_detuning(arts, measured)
    assert fit.params["detuning"] == pytest.approx(true_det, abs=0.05)


def test_echo_fit():
    times = np.linspace(1, 300, 40)
    sig = td.synth_echo(times, t2e=80.0, shots=2000, seed=7)
    fit = td.fit_echo(times, sig)
    assert fit.params["t2e"] == pytest.approx(80.0, rel=0.08)


def test_bloch_redfield_t2_bound():
    with pytest.raises(ValueError):
        td.bloch_redfield_populations(np.linspace(0, 1, 5), t1=10.0, t2=25.0)
    times = np.linspace(0, 50, 20)
    p1, coh = td.bloch_redfield_populations(times, t1=50.0, t2=60.0)
    # joint fits: T1 from populations, T2 from the coherence envelope
    f1 = td.fit_t1(times[1:], p1[1:] / p1[0])
    ts = np.linspace(1, 120, 60)
    _, coh2 = td.bloch_redfield_populations(ts, t1=50.0, t2=60.0)
    decay = -np.polyfit(ts, np.log(coh2), 1)[0]
    assert 1 / decay == pytest.approx(60.0, rel=0.02)
    assert 1 / decay <= 2 * 50.0 + 1e-9


def test_bloch_redfield_populations_closed_form():
    times = np.linspace(0, 80, 9)
    p1, coh = td.bloch_redfield_populations(times, t1=50.0, t2=60.0, alpha=0.6)
    assert np.allclose(p1, 0.64 * np.exp(-times / 50.0), rtol=1e-14, atol=0)
    assert np.allclose(coh, 0.48 * np.exp(-times / 60.0), rtol=1e-14, atol=0)


@pytest.mark.parametrize("fit", [td.fit_rabi, td.fit_ramsey])
def test_oscillation_fits_raise_when_no_start_converges(monkeypatch, fit):
    def fail(*args):
        raise RuntimeError("fit did not converge")

    times = np.linspace(0.1, 5, 40)
    signal = td.synth_rabi(times, rabi_freq=1.5)
    monkeypatch.setattr(td, "_curve_fit", fail)
    with pytest.raises(RuntimeError, match="fit failed at every frequency initialization"):
        fit(times, signal)


def test_fitters_consistent_as_shots_grow():
    times = np.linspace(1, 400, 50)
    errs = []
    for shots in (100, 10000):
        sig = td.synth_t1(times, t1=100.0, shots=shots, seed=9)
        errs.append(abs(td.fit_t1(times, sig).params["t1"] - 100.0))
    assert errs[1] < errs[0]


def test_synth_dispatch_and_unknown_kind():
    times = np.linspace(0.1, 5, 10)
    assert td.synth("t1", {"t1": 10.0}, times).shape == (10,)
    with pytest.raises(ValueError):
        td.synth("nope", {}, times)
    with pytest.raises(ValueError):
        td.fit("nope", times, np.zeros(10))


# -- robust phase estimation -----------------------------------------------------

def test_rpe_exact_probabilities_machine_precision():
    res = td.rpe(0.8, 64, None, seed=1)
    assert res.theta_hat == pytest.approx(0.8, abs=1e-12)
    assert res.rms_bound == np.pi / 128  # pi / (2 k_max), the bound the perturbed trials meet


def test_rpe_requires_power_of_two():
    with pytest.raises(ValueError):
        td.rpe(0.5, 48, None, seed=1)


def test_rpe_robustness_threshold_value():
    assert td.RPE_DELTA_THRESHOLD == pytest.approx(np.sqrt(3 / 32))
    assert td.RPE_DELTA_THRESHOLD == pytest.approx(0.306, abs=5e-4)


def test_rpe_rms_bound_under_perturbation():
    # |delta| = 0.25 < sqrt(3/32): RMS error stays below pi / (2 k_max)
    rms, errs = td.rpe_trials(
        0.8, 64, 100, n_trials=200, seed=9, delta_fn=lambda k, w: 0.25
    )
    assert rms <= np.pi / 128


def test_rpe_heisenberg_scaling():
    kms = [4, 16, 64, 256]
    rmss = []
    for km in kms:
        r, _ = td.rpe_trials(0.8, km, 200, n_trials=40, seed=31)
        rmss.append(r)
    slope = np.polyfit(np.log(kms), np.log(rmss), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.15)


def test_rpe_sample_budget():
    # ~176 total samples at k_max = 4096 reach the few-1e-4 error scale
    k_max = 4096
    generations = int(np.log2(k_max)) + 1
    shots = max(1, int(round(176 / (2 * generations))))
    rms, errs = td.rpe_trials(0.8, k_max, shots, n_trials=60, seed=33)
    res = td.rpe(0.8, k_max, shots, seed=3)
    assert res.total_samples == 2 * generations * shots
    assert res.total_samples <= 190
    assert np.median(np.abs(errs)) <= 8e-4


def test_signal_csv_round_trip(tmp_path):
    times = np.linspace(1, 50, 20)
    sig = td.synth_t1(times, t1=30.0, shots=500, seed=11)
    path = tmp_path / "sig.csv"
    td.write_signal_csv(path, times, sig)
    t2, v2, s2 = td.read_signal_csv(path)
    assert np.allclose(t2, times) and np.allclose(v2, sig) and np.allclose(s2, 0)
    stderrs = np.sqrt(sig * (1 - sig) / 500)
    td.write_signal_csv(path, times, sig, stderrs=stderrs)
    assert np.array_equal(td.read_signal_csv(path)[2], stderrs)
