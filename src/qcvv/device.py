"""Gate-set device model and circuit-execution backends.

Three backends cover complementary regimes:

* ``circuit_probabilities`` / ``sample_counts``: dense propagation of the
  state's normalized-Pauli superket (width <= 6);
* ``statevector_run``: pure-state amplitudes for unitary circuits
  (width <= 14), used for ideal XEB/QV probabilities;
* ``pauli_fastpath_sample`` / ``pauli_fastpath_signs``: stochastic fault
  propagation through Clifford circuits for models whose noise is
  stochastic-Pauli, vectorized over shots (tens of qubits).

Protocols reach the dense and fast backends through two calls that take the
backend by name, ``"dense"`` or ``"fast"``, and raise a ValueError for any
other name: ``sample`` returns a circuit's bit-string counts and
``parity_mean`` the mean measured +/-1 parity of a Z-type Pauli.

Noise attaches to gate labels: a model resolves each label into one
:class:`GateRecord` (ideal unitary, noisy channel, error channel), which all
three backends read.  Labels resolve in one order: the model's explicit
``gates``, its ``gate_factory``, the circuit's ``gate_defs``, the builtin
names.  The error channel of a gate outside ``gates`` is the model's
``noise_rule`` channel itself, composed as post-gate error by default
(``G = E Gbar``), pre-gate behind a flag; an explicit gate's is derived from
its channel and ideal unitary.  Idle qubits in a layer receive the model's
explicit idle channel (default: identity).  Barriers between layers are hard;
nothing is ever compiled across them.

Readout confusion matrices are column-stochastic, ``C[i, j] = p(read i |
true j)``, applied after the ideal POVM.

The dense and statevector backends share one local-operator kernel,
``_apply_local``: a k-qubit operator acts on a state tensor as one matrix
product over the gate's axes.  Every backend call simulates one circuit; the
benchmark's tracer counts circuits per ``circuit_probabilities``,
``pauli_fastpath_sample`` and ``pauli_fastpath_signs`` call, so a stacked or
ensemble entry point first needs its own benchmark change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .channels import Channel, identity_channel
from .cliffords import (
    GATE_UNITARIES,
    CliffordTableau,
    clifford_gate_factory,
    conjugation_table,
    pauli_codes,
    tableau_from_unitary,
)
from .linalg import child_seeds, kron_all, rng
from .paulis import PauliString


@dataclass(frozen=True)
class Circuit:
    """Ordered layers of (gate label, qubit tuple) with disjoint supports.

    ``gate_defs`` carries inline unitaries for ad-hoc labels (e.g. sampled
    SU(4) gates); it is excluded from equality so circuits compare by
    structure.
    """

    width: int
    layers: tuple
    gate_defs: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self):
        norm = []
        for layer in self.layers:
            layer = tuple((str(lbl), tuple(int(q) for q in qs)) for lbl, qs in layer)
            used = [q for _, qs in layer for q in qs]
            if len(used) != len(set(used)):
                raise ValueError("overlapping gate supports within a layer")
            if used and (min(used) < 0 or max(used) >= self.width):
                raise ValueError("qubit index out of range")
            norm.append(layer)
        object.__setattr__(self, "layers", tuple(norm))

    @property
    def depth(self) -> int:
        return len(self.layers)

    def then(self, other: "Circuit") -> "Circuit":
        defs = dict(self.gate_defs)
        defs.update(other.gate_defs)
        return Circuit(max(self.width, other.width), self.layers + other.layers, defs)

    def to_json(self) -> str:
        return json.dumps(
            {"width": self.width, "layers": [[[lbl, list(qs)] for lbl, qs in layer] for layer in self.layers]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        payload = json.loads(text)
        layers = tuple(tuple((lbl, tuple(qs)) for lbl, qs in layer) for layer in payload["layers"])
        return cls(payload["width"], layers)


@dataclass(frozen=True)
class ShotRecord:
    circuit_id: str
    counts: dict
    shots: int
    seed: int
    timestamp_index: int = 0

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to shots")

    def to_json(self) -> str:
        return json.dumps(
            {
                "circuit_id": self.circuit_id,
                "counts": dict(sorted(self.counts.items())),
                "shots": self.shots,
                "seed": self.seed,
                "timestamp_index": self.timestamp_index,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ShotRecord":
        return cls(**json.loads(text))


class GateRecord:
    """One gate label resolved under a model.

    ``ideal`` is the target unitary and ``error`` the error channel relative
    to it: ``noisy = error ideal`` (``ideal error`` with pre-gate noise).  An
    explicit gate supplies ``noisy`` and derives ``error``; any other gate
    takes ``error`` from the noise rule (identity when the rule gives None).
    Every field past ``ideal`` is built on first use, so the statevector
    backend builds no channel and the dense backend no ``tableau``,
    ``conjugation`` or ``faults``.
    """

    def __init__(self, label: str, arity: int, ideal, explicit: Channel, noise_rule, pre_gate_noise: bool):
        self.label = label
        self.arity = arity
        self._ideal = ideal
        self._explicit = explicit
        self._noise_rule = noise_rule
        self._pre = pre_gate_noise

    @property
    def ideal(self) -> np.ndarray:
        if self._ideal is None:
            raise KeyError(f"gate {self.label!r} has no known unitary")
        return self._ideal

    @cached_property
    def _noise(self) -> Channel:
        return self._noise_rule(self.label, self.arity) if self._noise_rule else None

    @cached_property
    def noisy(self) -> Channel:
        if self._explicit is not None:
            return self._explicit
        ideal = Channel.from_unitary(self.ideal)
        if self._noise is None:
            return ideal
        return ideal.compose(self._noise) if self._pre else self._noise.compose(ideal)

    @cached_property
    def error(self) -> Channel:
        if self._explicit is None:
            return identity_channel(self.arity) if self._noise is None else self._noise
        ideal = Channel.from_unitary(self.ideal).ptm
        noisy = self._explicit.ptm
        return Channel(ideal.T @ noisy if self._pre else noisy @ ideal.T)

    @cached_property
    def tableau(self) -> CliffordTableau:
        return tableau_from_unitary(self.ideal)

    @cached_property
    def conjugation(self):
        return conjugation_table(self.tableau)

    @cached_property
    def faults(self):
        return _noise_dist(self.error.ptm, self.label)


class GateSetModel:
    """Native preparation, labeled gate channels, POVM, optional confusion.

    Each label resolves into one :class:`GateRecord`, through one order:
    ``gates`` (label -> (Channel, arity), explicitly modeled gates), then
    ``gate_factory`` (label -> unitary or None; default: the
    enumerated-Clifford ``c1_<i>``/``c2_<i>`` factory), then a circuit's
    inline ``gate_defs``, then the builtin Clifford names.  The model keeps
    each record, except for labels that the circuit's ``gate_defs`` name,
    which are resolved afresh.  Outside ``gates`` the error channel is
    ``noise_rule(label, arity)`` itself (identity when it returns None),
    attached to the ideal unitary.  An explicit gate's ideal unitary is its
    channel's ``unitary`` or, failing that, the one the rest of the order
    gives; its error channel is derived as noisy * ideal^-1.
    """

    def __init__(
        self,
        n: int,
        gates: dict = None,
        noise_rule=None,
        gate_factory=None,
        confusion: dict = None,
        idle: Channel = None,
        pre_gate_noise: bool = False,
        preparation: np.ndarray = None,
    ):
        self.n = n
        self.gates = dict(gates or {})
        self.noise_rule = noise_rule
        self.gate_factory = clifford_gate_factory if gate_factory is None else gate_factory
        self.confusion = {}
        self.idle = idle
        self.pre_gate_noise = pre_gate_noise
        self._records = {}
        self._prep = None if preparation is None else np.asarray(preparation, dtype=float).reshape(-1)
        self._effect_transform = None
        for q, c in (confusion or {}).items():
            c = np.asarray(c, dtype=float)
            if c.shape != (2, 2) or np.any(np.abs(c.sum(axis=0) - 1) > 1e-9):
                raise ValueError(f"confusion matrix for qubit {q} must be 2x2 column-stochastic")
            self.confusion[int(q)] = c

    # -- resolution --------------------------------------------------------
    def record(self, label: str, arity: int = None, gate_defs: dict = None) -> GateRecord:
        """The label's :class:`GateRecord`, checked against ``arity`` when given."""
        adhoc = bool(gate_defs) and label in gate_defs
        rec = None if adhoc else self._records.get(label)
        if rec is None:
            rec = self._build(label, gate_defs)
            if not adhoc:
                self._records[label] = rec
        if arity is not None and arity != rec.arity:
            raise ValueError(f"gate {label!r} acts on {rec.arity} qubits, used on {arity}")
        return rec

    def _unitary(self, label: str, gate_defs):
        """The label's unitary from ``gate_factory``, ``gate_defs`` or the
        builtin names, in that order, or None."""
        u = self.gate_factory(label) if self.gate_factory else None
        if u is None and gate_defs and label in gate_defs:
            u = gate_defs[label]
        return GATE_UNITARIES.get(label) if u is None else u

    def _build(self, label: str, gate_defs) -> GateRecord:
        explicit = None
        if label in self.gates:
            explicit, arity = self.gates[label]
            if explicit.dim != 2**arity:
                raise ValueError(f"gate {label!r} dimension does not match its support")
            u = self._unitary(label, gate_defs) if explicit.unitary is None else explicit.unitary
        else:
            u = self._unitary(label, gate_defs)
            if u is None:
                raise KeyError(f"unknown gate label {label!r}")
            arity = len(u).bit_length() - 1
        u = None if u is None else np.asarray(u, dtype=complex)
        return GateRecord(label, arity, u, explicit, self.noise_rule, self.pre_gate_noise)

    @cached_property
    def _idle_faults(self):
        return None if self.idle is None else _noise_dist(self.idle.ptm, "idle")

    @cached_property
    def _superket(self) -> np.ndarray:
        """The read-only initial state, shaped ``(4,) * n``."""
        state = _initial_state(self)
        state.flags.writeable = False
        return state

    @cached_property
    def _effects(self) -> np.ndarray:
        """The read-only effect rows of :func:`_effect_rows`."""
        rows = _effect_rows(self.n, self.confusion)
        rows.flags.writeable = False
        return rows

    def resolve(self, label: str, arity: int, gate_defs: dict = None) -> Channel:
        return self.record(label, arity, gate_defs).noisy

    def ideal_unitary(self, label: str, gate_defs: dict = None) -> np.ndarray:
        return self.record(label, None, gate_defs).ideal

    def error_channel(self, label: str, arity: int, gate_defs: dict = None) -> Channel:
        """The gate's error channel relative to its ideal unitary."""
        return self.record(label, arity, gate_defs).error

    # -- variants ----------------------------------------------------------
    def replace(self, **kwargs) -> "GateSetModel":
        base = dict(
            n=self.n,
            gates=self.gates,
            noise_rule=self.noise_rule,
            gate_factory=self.gate_factory,
            confusion=self.confusion,
            idle=self.idle,
            pre_gate_noise=self.pre_gate_noise,
            preparation=self._prep,
        )
        base.update(kwargs)
        return GateSetModel(**base)

    def with_confusion(self, confusion: dict) -> "GateSetModel":
        return self.replace(confusion=confusion)


def ideal_model(n: int) -> GateSetModel:
    return GateSetModel(n)


def noisy_model(
    n: int, noise_rule, confusion=None, idle=None, pre_gate_noise=False, gate_factory=None
) -> GateSetModel:
    """Model whose every gate resolves to noise attached to its ideal unitary."""
    return GateSetModel(
        n,
        noise_rule=noise_rule,
        confusion=confusion,
        idle=idle,
        pre_gate_noise=pre_gate_noise,
        gate_factory=gate_factory,
    )


# -- dense superket backend ---------------------------------------------------

_PREP0 = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)  # |0><0| in normalized Paulis
_MEAS = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0]]) / np.sqrt(2)

DENSE_WIDTH_CAP = 6
STATEVECTOR_WIDTH_CAP = 14


@lru_cache(maxsize=None)
def _axis_order(ndim: int, qubits: tuple):
    """The transpose that brings ``qubits`` to the front, and its inverse."""
    perm = qubits + tuple(a for a in range(ndim) if a not in qubits)
    return perm, tuple(int(a) for a in np.argsort(perm))


def _apply_local(state: np.ndarray, op: np.ndarray, qubits) -> np.ndarray:
    """Apply the (d^k, d^k) matrix ``op`` to the axes ``qubits`` of a tensor
    whose every axis has size d, as one matrix product.

    ``np.dot`` copies a strided operand before its gemm, as a tensor
    contraction over those axes does, so the result is the same to the bit;
    ``@`` would run a non-BLAS loop on such an operand and round otherwise.
    """
    perm, inverse = _axis_order(state.ndim, tuple(qubits))
    moved = state.transpose(perm)
    out = np.dot(op, moved.reshape(op.shape[1], -1))
    return out.reshape(moved.shape).transpose(inverse)


def _layer_apply(model: GateSetModel, state: np.ndarray, layer, gate_defs) -> np.ndarray:
    busy = set()
    for label, qubits in layer:
        ch = model.resolve(label, len(qubits), gate_defs)
        state = _apply_local(state, ch.ptm, qubits)
        busy.update(qubits)
    if model.idle is not None:
        for q in range(model.n):
            if q not in busy:
                state = _apply_local(state, model.idle.ptm, (q,))
    return state


def _initial_state(model: GateSetModel) -> np.ndarray:
    if model._prep is not None:
        return model._prep.reshape((4,) * model.n).copy()
    return kron_all([_PREP0.reshape(1, -1)] * model.n).real.reshape((4,) * model.n)


def _effect_rows(n: int, confusion: dict) -> np.ndarray:
    """Rows: normalized-Pauli superbras of the 2**n computational effects."""
    out = np.ones((1, 1))
    for q in range(n):
        m = _MEAS if q not in confusion else confusion[q] @ _MEAS
        out = np.kron(out, m)
    return out


def circuit_probabilities(model: GateSetModel, circuit: Circuit):
    """Outcome distribution over bit strings from the dense PTM backend."""
    if circuit.width != model.n:
        raise ValueError("circuit width does not match the model")
    if model.n > DENSE_WIDTH_CAP:
        raise ValueError(f"dense backend capped at width {DENSE_WIDTH_CAP}")
    state = model._superket
    for layer in circuit.layers:
        state = _layer_apply(model, state, layer, circuit.gate_defs)
    flat = state.reshape(-1)
    if model._effect_transform is not None:
        flat = model._effect_transform @ flat
    probs = model._effects @ flat
    total = probs.sum()
    if abs(total - 1.0) > 1e-7:
        raise ValueError(f"distribution normalizes to {total}; model is not TP")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    from .metrics import ProbDist

    labels = [format(i, f"0{model.n}b") for i in range(2**model.n)]
    return ProbDist(labels, probs)


def sample_counts(model: GateSetModel, circuit: Circuit, shots: int, seed) -> ShotRecord:
    """Multinomial draw from the dense backend's distribution."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    dist = circuit_probabilities(model, circuit)
    gen = rng(seed)
    draws = gen.multinomial(shots, dist.probs)
    counts = {lbl: int(c) for lbl, c in zip(dist.outcomes, draws) if c}
    seed_val = int(seed) if not isinstance(seed, np.random.Generator) else -1
    return ShotRecord(circuit.to_json(), counts, shots, seed_val)


def sample_counts_drifting(model_at, circuit: Circuit, shots: int, seed, segments: int = 16) -> ShotRecord:
    """Drift fixture: ``model_at(t)`` gives the model at scaled time t in [0, 1].

    Shots are split into ``segments`` equal batches along the schedule; this
    is a test harness for rastering and model-violation studies, not a
    physics claim.
    """
    seeds = child_seeds(seed, segments)
    per = [shots // segments] * segments
    for i in range(shots - sum(per)):
        per[i] += 1
    counts = {}
    for i, (s, n_i) in enumerate(zip(seeds, per)):
        if n_i == 0:
            continue
        rec = sample_counts(model_at(i / max(segments - 1, 1)), circuit, n_i, s)
        for k, v in rec.counts.items():
            counts[k] = counts.get(k, 0) + v
    return ShotRecord(circuit.to_json(), counts, shots, seed)


# -- statevector backend ------------------------------------------------------

def statevector_run(circuit: Circuit, model: GateSetModel = None) -> np.ndarray:
    """Amplitudes of a unitary circuit applied to |0...0>."""
    n = circuit.width
    if n > STATEVECTOR_WIDTH_CAP:
        raise ValueError(f"statevector backend capped at width {STATEVECTOR_WIDTH_CAP}")
    if model is None:
        model = GateSetModel(n)
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for layer in circuit.layers:
        for label, qubits in layer:
            u = model.record(label, len(qubits), circuit.gate_defs).ideal
            psi = _apply_local(psi, u, qubits)
    return psi.reshape(-1)


def ideal_probabilities(circuit: Circuit, model: GateSetModel = None):
    amps = statevector_run(circuit, model)
    from .metrics import ProbDist

    labels = [format(i, f"0{circuit.width}b") for i in range(2**circuit.width)]
    p = np.abs(amps) ** 2
    return ProbDist(labels, p / p.sum())


# -- stochastic-Pauli fast path ------------------------------------------------

# Frames hold one 2-bit letter code per qubit, ``x << 1 | z`` (I=0, Z=1,
# X=2, Y=3); a k-qubit gate reads the codes of its support as one 2k-bit
# index, qubit i of the support in bits 2i+1 (x) and 2i (z), which is the
# layout of :func:`qcvv.cliffords.conjugation_table`.

def _pack(layers):
    """Flatten per-layer ``(qubits, item)`` operations by arity k.

    Items are numbered per arity by identity.  Returns, per layer, the spans
    ``(k, start, stop)`` of its k-qubit operations in the flat arrays; per
    arity, the (N, k) supports, the (N,) item numbers and the (N,) positions
    of the operations in their layer's order; and per arity, the distinct
    items.
    """
    numbers, items, flat, spans = {}, {}, {}, []
    for ops in layers:
        starts = {k: len(f[1]) for k, f in flat.items()}
        for row, (qubits, item) in enumerate(ops):
            k = len(qubits)
            f = flat.get(k)
            if f is None:
                f = flat[k] = ([], [], [])
                items[k] = []
                starts[k] = 0
            slot = numbers.get(id(item))
            if slot is None:
                slot = numbers[id(item)] = len(items[k])
                items[k].append(item)
            f[0].extend(qubits)
            f[1].append(slot)
            f[2].append(row)
        spans.append([(k, a, len(flat[k][1])) for k, a in starts.items() if len(flat[k][1]) > a])
    arrays = {
        k: (np.array(qs, dtype=np.intp).reshape(-1, k), np.array(slots, dtype=np.intp), np.array(rows, dtype=np.intp))
        for k, (qs, slots, rows) in flat.items()
    }
    return spans, arrays, items


def _gate_layers(model: GateSetModel, circuit: Circuit):
    """Per layer, ``(qubits, record)`` for each gate, with one
    :class:`GateRecord` per distinct label of the circuit."""
    records = {}
    layers = []
    for layer in circuit.layers:
        ops = []
        for label, qubits in layer:
            key = (label, len(qubits))
            rec = records.get(key)
            if rec is None:
                rec = records[key] = model.record(label, len(qubits), circuit.gate_defs)
            ops.append((qubits, rec))
        layers.append(ops)
    return layers


def _compile_gates(gate_layers):
    """Per layer of :func:`_gate_layers`, the gates grouped by arity k as
    ``(qubits, offsets, codes, phases)``: the (g, k) supports, each gate's
    offset into the flat image-code and phase-exponent tables of the
    circuit's distinct k-qubit gates, and those tables."""
    spans, arrays, items = _pack([[(qubits, rec.conjugation) for qubits, rec in ops] for ops in gate_layers])
    flat = {
        k: (
            supports,
            slots * 4**k,
            np.concatenate([codes for codes, _ in items[k]]),
            np.concatenate([phases for _, phases in items[k]]),
        )
        for k, (supports, slots, _) in arrays.items()
    }
    return [
        [(flat[k][0][a:b], flat[k][1][a:b], flat[k][2], flat[k][3]) for k, a, b in layer_spans]
        for layer_spans in spans
    ]


def _apply_gate_layer(frame: np.ndarray, groups, phase: np.ndarray = None):
    """Conjugate every row of a (rows, n) code frame by one compiled layer,
    adding the image phase exponents to ``phase`` when it is given."""
    for qubits, offsets, codes, phases in groups:
        index = offsets + frame[:, qubits[:, 0]]
        for i in range(1, qubits.shape[1]):
            index += frame[:, qubits[:, i]].astype(np.intp) << (2 * i)
        if phase is not None:
            phase += phases[index].sum(axis=1)
        image = codes[index]
        for i in range(qubits.shape[1]):
            frame[:, qubits[:, i]] = (image >> (2 * i)) & 3


class _FastPathProgram:
    """Compiled circuit: per layer, the gate groups of :func:`_compile_gates`
    and the layer's noisy operations (gate errors in gate order, then idle
    qubits in qubit order) grouped by arity k as ``(rows, qubits, cdfs,
    bases, top, faults, offsets)``: each operation's row in the layer's
    random draw; the (g, k) supports; the cumulative fault probabilities,
    without the last entry, of the circuit's distinct k-qubit distributions
    laid end to end, and each operation's offset into them less one; the
    (3, 1, g) entries that the first level of the fault search compares (see
    :func:`_inject_faults`); the distributions' fault letter codes laid end
    to end, and each operation's offset into them.  Faults are drawn from
    each gate's *error* channel."""

    def __init__(self, model: GateSetModel, circuit: Circuit):
        if circuit.width != model.n:
            raise ValueError("circuit width does not match the model")
        self.n = model.n
        self.pre_gate_noise = model.pre_gate_noise
        gate_layers = _gate_layers(model, circuit)
        self.gates = _compile_gates(gate_layers)
        idle = model._idle_faults
        layers = []
        for gates in gate_layers:
            ops = [(qubits, rec.faults) for qubits, rec in gates if rec.faults is not None]
            if idle is not None:
                busy = {q for qubits, _ in gates for q in qubits}
                ops.extend(((q,), idle) for q in range(model.n) if q not in busy)
            layers.append(ops)
        spans, arrays, items = _pack(layers)
        per_arity = {}
        for k, (supports, slots, rows) in arrays.items():
            cdfs = np.concatenate([cdf[:-1] for cdf, _ in items[k]])
            bases = slots * (4**k - 1) - 1
            top = cdfs[bases + _DIGITS * 4 ** (k - 1)]
            faults = np.concatenate([codes for _, codes in items[k]])
            per_arity[k] = (rows, supports, cdfs, bases, top, faults, slots * 4**k)
        self.noise = []
        for ops, layer_spans in zip(layers, spans):
            groups = []
            for k, a, b in layer_spans:
                rows, supports, cdfs, bases, top, faults, offsets = per_arity[k]
                groups.append((rows[a:b], supports[a:b], cdfs, bases[a:b], top[..., a:b], faults, offsets[a:b]))
            self.noise.append((len(ops), groups))


_DIGITS = np.arange(1, 4).reshape(3, 1, 1)


def _inject_faults(frame: np.ndarray, noise, gen):
    """Multiply one layer's sampled Pauli faults into the frame.

    A single ``(ops, shots)`` draw consumes the generator exactly as one
    ``gen.random(shots)`` call per operation in order would.  A fault's
    index is the number of cdf entries but the last at or below its draw,
    which equals ``min(searchsorted(cdf, draw, side="right"), len(cdf) - 1)``.
    A k-qubit distribution has 4**k - 1 such entries, searched in k base-4
    levels: each level counts how many of three entries, a quarter of the
    remaining range apart, lie at or below the draw.  Operations with
    different distributions share every step, an operation costs O(k) at any
    arity, and the search holds O(ops * shots) memory.
    """
    n_ops, groups = noise
    if not n_ops:
        return
    draws = gen.random((n_ops, frame.shape[0]))
    for rows, qubits, cdfs, bases, top, faults, offsets in groups:
        draw = draws[rows].T
        idx = (top <= draw).sum(axis=0)
        for level in range(qubits.shape[1] - 2, -1, -1):
            idx *= 4
            idx += (cdfs[bases + (idx + _DIGITS) * 4**level] <= draw).sum(axis=0)
        codes = faults[idx + offsets]
        for i in range(qubits.shape[1]):
            frame[:, qubits[:, i]] ^= (codes >> (2 * i)) & 3


def _propagate_faults(program: _FastPathProgram, shots: int, gen) -> np.ndarray:
    """Per-shot x bits (shots, n) of the propagated fault frame."""
    frame = np.zeros((shots, program.n), dtype=np.uint8)
    pre = program.pre_gate_noise
    for groups, noise in zip(program.gates, program.noise):
        if pre:
            _inject_faults(frame, noise, gen)
        _apply_gate_layer(frame, groups)
        if not pre:
            _inject_faults(frame, noise, gen)
    return frame >> 1


def _frame_of(paulis, n: int) -> np.ndarray:
    frame = np.zeros((len(paulis), n), dtype=np.uint8)
    for r, p in enumerate(paulis):
        for q in range(n):
            frame[r, q] = (((p.xbits >> q) & 1) << 1) | ((p.zbits >> q) & 1)
    return frame


def _paulis_of(frame: np.ndarray, phase: np.ndarray):
    n = frame.shape[1]
    out = []
    for row, k in zip(frame.tolist(), phase.tolist()):
        x = sum(((c >> 1) & 1) << q for q, c in enumerate(row))
        z = sum((c & 1) << q for q, c in enumerate(row))
        out.append(PauliString(n, x, z, k))
    return out


def _propagate_paulis(gates, n: int, paulis):
    """Images, with phases, of ``paulis`` under the compiled gate layers."""
    frame = _frame_of(paulis, n)
    phase = np.array([p.phase for p in paulis], dtype=np.int64)
    for groups in gates:
        _apply_gate_layer(frame, groups, phase)
    return _paulis_of(frame, phase)


def ideal_outcome_bits(model: GateSetModel, circuit: Circuit):
    """Definite ideal outcome bits of a Clifford circuit on |0...0>, or None.

    The output state's stabilizer generators are the forward images of the
    Z_q; the outcome is definite iff every image is Z-type, and the bits
    follow by solving for each +-Z_q in the group over GF(2).
    """
    return _ideal_bits(_compile_gates(_gate_layers(model, circuit)), model.n)


def _ideal_bits(gates, n: int):
    """:func:`ideal_outcome_bits` of the compiled gate layers of an n-qubit circuit."""
    imgs = _propagate_paulis(gates, n, [PauliString(n, 0, 1 << q, 0) for q in range(n)])
    if any(img.xbits for img in imgs):
        return None
    bits = np.zeros(n, dtype=np.uint8)
    # Gaussian elimination over GF(2) with pivot tracking; the member mask
    # records which images multiply into each reduced row
    work = [(img.zbits, 1 << i) for i, img in enumerate(imgs)]
    pivots = []
    for col in range(n):
        pidx = None
        for i, (zb, _) in enumerate(work):
            if (zb >> col) & 1 and all(p != i for p, _ in pivots):
                pidx = i
                break
        if pidx is None:
            return None
        pivots.append((pidx, col))
        pz, pm = work[pidx]
        for i in range(len(work)):
            if i != pidx and (work[i][0] >> col) & 1:
                work[i] = (work[i][0] ^ pz, work[i][1] ^ pm)
    for pidx, col in pivots:
        zb, mask = work[pidx]
        if zb != (1 << col):
            return None
        acc = PauliString.identity(n)
        for i in range(n):
            if (mask >> i) & 1:
                acc = acc * imgs[i]
        sign = acc.sign
        if abs(sign.imag) > 1e-12:
            return None
        bits[col] = 1 if sign.real < 0 else 0
    return bits


def propagate_pauli(model: GateSetModel, circuit: Circuit, p: PauliString) -> PauliString:
    """Conjugate a Pauli through a Clifford circuit's ideal action, with sign.

    Cost is O(depth * gates); uses per-gate lookup tables, so it stays cheap
    at large width.
    """
    return _propagate_paulis(_compile_gates(_gate_layers(model, circuit)), model.n, [p])[0]


def _noise_dist(err_ptm: np.ndarray, label: str):
    """(cdf, fault letter codes) over local Pauli faults of an error channel."""
    diag = np.diag(err_ptm)
    if not np.allclose(err_ptm - np.diag(diag), 0, atol=1e-8):
        raise ValueError(f"noise on gate {label!r} is not stochastic Pauli")
    from .cycles import walsh_hadamard

    probs = walsh_hadamard(diag, "eigenvalues-to-rates")
    if probs.min() < -1e-9:
        raise ValueError(f"gate {label!r} diagonal is not a Pauli channel")
    probs = np.clip(probs, 0, None)
    probs /= probs.sum()
    if probs[0] > 1 - 1e-15:
        return None
    k = (probs.size.bit_length() - 1) // 2
    codes = np.zeros(probs.size, dtype=np.uint16)
    # qubit i of the local support sits in bits 2i+1, 2i of the code
    for idx in range(probs.size):
        for i, c in enumerate(pauli_codes(idx, k)):
            codes[idx] |= c << (2 * i)
    return np.cumsum(probs), codes


def pauli_fastpath_sample(
    model: GateSetModel, circuit: Circuit, shots: int, seed, ideal_bits=None
) -> ShotRecord:
    """Fault-propagation sampler for definite-outcome Clifford circuits.

    Requires every gate Clifford, every error channel stochastic Pauli,
    preparation |0...0>, and a circuit whose ideal action fixes the
    computational outcome (mirror/motion-reversal structure).  The marginal
    outcome distribution matches the dense backend's.  Callers that know
    the ideal outcome (e.g. mirror generators) may pass ``ideal_bits`` to
    skip its derivation.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    program = _FastPathProgram(model, circuit)
    bits0 = np.asarray(ideal_bits, dtype=np.uint8) if ideal_bits is not None else _ideal_bits(program.gates, model.n)
    if bits0 is None:
        raise ValueError("circuit outcome is not definite; use pauli_fastpath_signs")
    gen = rng(seed)
    bits = bits0[None, :] ^ _propagate_faults(program, shots, gen)
    for q in range(model.n):
        if q in model.confusion:
            c = model.confusion[q]
            pflip = np.where(bits[:, q] == 1, c[0, 1], c[1, 0])
            bits[:, q] ^= (gen.random(shots) < pflip).astype(np.uint8)
    ints = np.zeros(shots, dtype=np.int64)
    for q in range(model.n):
        ints = (ints << 1) | bits[:, q]
    labels, cts = np.unique(ints, return_counts=True)
    counts = {format(int(v), f"0{model.n}b"): int(c) for v, c in zip(labels, cts)}
    seed_val = int(seed) if not isinstance(seed, np.random.Generator) else -1
    return ShotRecord(circuit.to_json(), counts, shots, seed_val)


def pauli_fastpath_signs(
    model: GateSetModel, circuit: Circuit, measured: PauliString, shots: int, seed, ideal_sign: int
) -> np.ndarray:
    """Per-shot +/-1 parity samples of a Z-type Pauli after a Clifford circuit.

    The caller supplies the measured Pauli (already rotated to Z-type by the
    circuit's final layer) and its ideal eigenvalue ``ideal_sign`` on the
    noiseless output state; returned samples are absolute measured parities,
    matching what the dense backend's counts would give.  Readout confusion
    on a measured qubit must be symmetric (``c[0, 1] == c[1, 0]``): a parity
    sample does not carry the qubit's true bit, so an asymmetric flip cannot
    be applied here, and a ValueError points to :func:`sample_counts`.
    """
    if measured.xbits != 0:
        raise ValueError("measured Pauli must be Z-type")
    read = [q for q in range(model.n) if (measured.zbits >> q) & 1]
    for q in read:
        c = model.confusion.get(q)
        if c is not None and c[0, 1] != c[1, 0]:
            raise ValueError(
                f"asymmetric readout confusion on qubit {q} needs each shot's outcome; use sample_counts"
            )
    program = _FastPathProgram(model, circuit)
    gen = rng(seed)
    fx = _propagate_faults(program, shots, gen)
    signs = np.full(shots, ideal_sign, dtype=np.int8)
    for q in read:
        signs *= 1 - 2 * fx[:, q].astype(np.int8)
        if q in model.confusion:
            pflip = model.confusion[q][0, 1]
            signs *= np.where(gen.random(shots) < pflip, -1, 1).astype(np.int8)
    return signs


# -- protocol-facing calls ---------------------------------------------------------

def _check_backend(backend: str):
    if backend not in ("dense", "fast"):
        raise ValueError(f"unknown backend {backend!r}; use 'dense' or 'fast'")


def sample(model: GateSetModel, circuit: Circuit, shots: int, seed, backend: str, ideal_bits=None) -> ShotRecord:
    """Bit-string counts of a circuit: :func:`sample_counts` on ``"dense"``,
    :func:`pauli_fastpath_sample` on ``"fast"``, which takes the circuit's
    definite ideal outcome from ``ideal_bits`` when given (the dense
    backend does not use it)."""
    _check_backend(backend)
    if backend == "fast":
        return pauli_fastpath_sample(model, circuit, shots, seed, ideal_bits=ideal_bits)
    return sample_counts(model, circuit, shots, seed)


def parity_from_counts(record: ShotRecord, pauli: PauliString) -> float:
    """Mean +/-1 parity of the bits on ``pauli``'s support over a record's counts."""
    val = 0.0
    for bstr, c in record.counts.items():
        par = sum(int(bstr[q]) for q in range(pauli.n) if (pauli.pattern >> q) & 1) % 2
        val += c * (1 - 2 * par)
    return val / record.shots


def parity_mean(
    model: GateSetModel, circuit: Circuit, measured: PauliString, shots: int, seed, backend: str, ideal_sign
) -> float:
    """Mean measured +/-1 parity of the Z-type Pauli ``measured`` after a circuit.

    ``ideal_sign`` is the parity's value on the noiseless output.  The dense
    backend reads parities off :func:`sample_counts` and does not use it.
    The fast backend (:func:`pauli_fastpath_signs`) starts every shot from
    it, so it must be +1 or -1, as it is when the noiseless output is an
    eigenstate of ``measured``; any other value raises a ValueError.
    """
    _check_backend(backend)
    if backend == "dense":
        return parity_from_counts(sample_counts(model, circuit, shots, seed), measured)
    if abs(abs(ideal_sign) - 1) > 1e-9:
        raise ValueError(f"ideal parity {ideal_sign} is not +1 or -1; the fast path needs an eigenstate")
    sign = 1 if ideal_sign > 0 else -1
    return pauli_fastpath_signs(model, circuit, measured, shots, seed, ideal_sign=sign).mean()


# -- gauge transformations -------------------------------------------------------

def apply_gauge(model: GateSetModel, m: np.ndarray) -> GateSetModel:
    """Similarity-transform a full-width model by an invertible PTM-basis matrix.

    Gates map to ``M G M^-1``, the preparation to ``M |rho>>`` and effects to
    ``<<E| M^-1``; all circuit probabilities are unchanged.  Only models
    whose explicit gates span the full register are supported (local gates
    would need a tensor-product gauge).
    """
    m = np.asarray(m, dtype=float)
    d2 = 4**model.n
    if m.shape != (d2, d2):
        raise ValueError("gauge matrix must be d**2 x d**2 for the full register")
    try:
        minv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError("gauge matrix is singular") from exc
    gates = {}
    for label, (ch, ar) in model.gates.items():
        if ar != model.n:
            raise ValueError("gauge transforms require full-width gates")
        gates[label] = (Channel(m @ ch.ptm @ minv), ar)
    if model.noise_rule is not None:
        raise ValueError("gauge transforms require fully explicit gate dictionaries")
    prep = model._superket.reshape(-1)
    out = GateSetModel(model.n, gates=gates, confusion=model.confusion, preparation=m @ prep)
    out._effect_transform = minv
    return out
