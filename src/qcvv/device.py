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

The ideal channel of a fixed label, a builtin name or a ``c1_<i>`` label
that the default factory resolves, is built once per process and shared,
read-only, by every model (``_fixed_ideal``); a label that ``gates``, a
custom ``gate_factory`` or a circuit's ``gate_defs`` defines never reads it.
The 11,520 ``c2_<i>`` labels are built per model, as a process-wide table of
their PTMs would take about 24 MB.

Readout confusion matrices are column-stochastic, ``C[i, j] = p(read i |
true j)``, applied after the ideal POVM.

The dense and statevector backends share one local-operator kernel,
``_apply_local``: a k-qubit operator acts on a state tensor as one matrix
product over the gate's axes.  A gate on the leading axes in order, as a
gate on the whole register is, skips the identity transpose, and a layer
looks for idle qubits only when the model has an idle channel; both give the
same bits as the general path.

The fast path pays per fault, not per layer: a circuit's compile builds its
draw rows, and its per-layer gate tables only on first use.  The frame stays
the all-identity frame, which every gate maps to itself, until the first
layer that draws a fault, so a circuit that draws none builds no gate table
and conjugates nothing.

One Pauli propagator serves every ideal-action question:
:class:`CliffordProgram` compiles a Clifford circuit once into the fast
path's per-layer gate tables and propagates Paulis through them with exact
phase, recording the frame after every layer when asked.
:func:`propagate_pauli` goes through it, the fast path's ideal outcome runs
the same tables through the same loop, and ACES (:func:`qcvv.cycles.aces`)
compiles each circuit prefix once and reads its design rows off the
recorded frames.

Every backend call simulates one circuit; the benchmark's tracer counts
circuits per ``circuit_probabilities``, ``pauli_fastpath_sample`` and
``pauli_fastpath_signs`` call, so a stacked or ensemble entry point (one
compile for a whole ensemble of circuits) first needs its own benchmark
change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .channels import Channel, identity_channel, walsh_hadamard
from .cliffords import (
    GATE_UNITARIES,
    CliffordTableau,
    clifford_gate_factory,
    conjugation_table,
    pauli_codes,
    tableau_from_unitary,
)
from .linalg import child_seeds, kron_all, rng
from .metrics import ProbDist
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
        layers = tuple([tuple([(str(lbl), tuple(map(int, qs))) for lbl, qs in layer]) for layer in self.layers])
        used = [list(chain.from_iterable([qs for _, qs in layer])) for layer in layers]
        if any(len(qubits) != len(set(qubits)) for qubits in used):
            raise ValueError("overlapping gate supports within a layer")
        flat = list(chain.from_iterable(used))
        if flat and (min(flat) < 0 or max(flat) >= self.width):
            raise ValueError("qubit index out of range")
        object.__setattr__(self, "layers", layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def then(self, other: "Circuit") -> "Circuit":
        """``self`` followed by ``other``.  Each was checked when it was built,
        against a width no larger than the result's, so the joined layers are
        not checked again."""
        defs = dict(self.gate_defs)
        defs.update(other.gate_defs)
        out = object.__new__(Circuit)
        object.__setattr__(out, "width", max(self.width, other.width))
        object.__setattr__(out, "layers", self.layers + other.layers)
        object.__setattr__(out, "gate_defs", defs)
        return out

    def to_json(self) -> str:
        # the layers are normalised tuples, which json writes as it writes lists
        return json.dumps({"width": self.width, "layers": self.layers}, sort_keys=True)

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
    ``conjugation`` or ``faults``.  A ``fixed`` record (a builtin name or a
    ``c1_<i>`` label of the default factory) takes its ideal channel from
    the process-wide :func:`_fixed_ideal`.
    """

    def __init__(self, label: str, arity: int, ideal, explicit: Channel, noise_rule, pre_gate_noise: bool, fixed: bool):
        self.label = label
        self.arity = arity
        self._ideal = ideal
        self._explicit = explicit
        self._noise_rule = noise_rule
        self._pre = pre_gate_noise
        self._fixed = fixed

    @property
    def ideal(self) -> np.ndarray:
        if self._ideal is None:
            raise KeyError(f"gate {self.label!r} has no known unitary")
        return self._ideal

    @cached_property
    def _noise(self) -> Channel:
        return self._noise_rule(self.label, self.arity) if self._noise_rule else None

    def _ideal_channel(self) -> Channel:
        return _fixed_ideal(self.label) if self._fixed else Channel.from_unitary(self.ideal)

    @cached_property
    def noisy(self) -> Channel:
        if self._explicit is not None:
            return self._explicit
        ideal = self._ideal_channel()
        if self._noise is None:
            return ideal
        return ideal.compose(self._noise) if self._pre else self._noise.compose(ideal)

    @cached_property
    def error(self) -> Channel:
        if self._explicit is None:
            return identity_channel(self.arity) if self._noise is None else self._noise
        ideal = self._ideal_channel().ptm
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
    gives; its error channel is derived as noisy * ideal^-1.  ``confusion``
    maps qubits ``0..n-1`` to readout matrices; any other key is a ValueError.
    A gauged model (:func:`apply_gauge`) resolves only its explicit gates and
    takes no idle channel.
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
            q, c = int(q), np.asarray(c, dtype=float)
            if c.shape != (2, 2) or np.any(np.abs(c.sum(axis=0) - 1) > 1e-9):
                raise ValueError(f"confusion matrix for qubit {q} must be 2x2 column-stochastic")
            if not 0 <= q < n:
                raise ValueError(f"confusion matrix for qubit {q} is outside the {n}-qubit register")
            self.confusion[q] = c

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
        builtin names, in that order, or None; and whether the label is fixed
        (see :func:`_fixed_ideal`)."""
        u = self.gate_factory(label) if self.gate_factory else None
        if u is not None:
            return u, self.gate_factory is clifford_gate_factory and label.startswith("c1_")
        u = gate_defs.get(label) if gate_defs else None
        if u is not None:
            return u, False
        u = GATE_UNITARIES.get(label)
        return u, u is not None

    def _build(self, label: str, gate_defs) -> GateRecord:
        explicit, fixed = None, False
        if self._effect_transform is not None and label not in self.gates:
            raise ValueError(f"a gauged model resolves only its explicit gates, not {label!r}")
        if label in self.gates:
            explicit, arity = self.gates[label]
            if explicit.dim != 2**arity:
                raise ValueError(f"gate {label!r} dimension does not match its support")
            u = self._unitary(label, gate_defs)[0] if explicit.unitary is None else explicit.unitary
        else:
            u, fixed = self._unitary(label, gate_defs)
            if u is None:
                raise KeyError(f"unknown gate label {label!r}")
            arity = len(u).bit_length() - 1
        u = None if u is None else np.asarray(u, dtype=complex)
        return GateRecord(label, arity, u, explicit, self.noise_rule, self.pre_gate_noise, fixed)

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
        if self._effect_transform is not None and base["idle"] is not None:
            raise ValueError("a gauged model cannot take an idle channel")
        out = GateSetModel(**base)
        out._effect_transform = self._effect_transform  # a gauged model stays gauged
        return out

    def with_confusion(self, confusion: dict) -> "GateSetModel":
        return self.replace(confusion=confusion)


@lru_cache(maxsize=None)
def _fixed_ideal(label: str) -> Channel:
    """The ideal channel of a builtin name or of a ``c1_<i>`` label as the
    default factory resolves it, built once per process and shared by every
    model.  Its PTM is read-only, so no model can change it for another."""
    u = GATE_UNITARIES.get(label)
    chan = Channel.from_unitary(clifford_gate_factory(label) if u is None else u)
    chan.ptm.flags.writeable = False
    return chan


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
    """The transpose that brings ``qubits`` to the front, and its inverse;
    None when ``qubits`` are already the leading axes, in order."""
    perm = qubits + tuple(a for a in range(ndim) if a not in qubits)
    if perm == tuple(range(ndim)):
        return None
    return perm, tuple(int(a) for a in np.argsort(perm))


def _apply_local(state: np.ndarray, op: np.ndarray, qubits) -> np.ndarray:
    """Apply the (d^k, d^k) matrix ``op`` to the axes ``qubits`` of a tensor
    whose every axis has size d, as one matrix product.

    ``np.dot`` copies a strided operand before its gemm, as a tensor
    contraction over those axes does, so the result is the same to the bit;
    ``@`` would run a non-BLAS loop on such an operand and round otherwise.
    On the leading axes in order (a gate on the whole register, for one) the
    transpose is the identity and is skipped: the same product on the same
    memory.
    """
    order = _axis_order(state.ndim, tuple(qubits))
    if order is None:
        return np.dot(op, state.reshape(op.shape[1], -1)).reshape(state.shape)
    perm, inverse = order
    moved = state.transpose(perm)
    out = np.dot(op, moved.reshape(op.shape[1], -1))
    return out.reshape(moved.shape).transpose(inverse)


def _layer_apply(model: GateSetModel, state: np.ndarray, layer, gate_defs) -> np.ndarray:
    for label, qubits in layer:
        state = _apply_local(state, model.resolve(label, len(qubits), gate_defs).ptm, qubits)
    if model.idle is not None:
        busy = set(chain.from_iterable([qubits for _, qubits in layer]))
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
    labels = [format(i, f"0{circuit.width}b") for i in range(2**circuit.width)]
    p = np.abs(amps) ** 2
    return ProbDist(labels, p / p.sum())


# -- stochastic-Pauli fast path ------------------------------------------------

# Frames hold one 2-bit letter code per qubit, ``x << 1 | z`` (I=0, Z=1,
# X=2, Y=3), as an (n, shots) uint8 array, so that a gate's gather reads and
# writes whole rows.  A k-qubit gate reads the codes of its support as one
# 2k-bit index, qubit i of the support in bits 2i+1 (x) and 2i (z), and
# gathers each support qubit's new code from that qubit's uint8 image table,
# the layout of :func:`qcvv.cliffords.conjugation_table`.

def _walk(model: GateSetModel, circuit: Circuit):
    """One pass over a circuit's operations, in circuit order.

    Returns the circuit's distinct :class:`GateRecord` s, in order of first
    use, and, for its N operations, the (N,) record numbers, arities and
    layer indices and the (N, levels) supports, padded with the spare index
    n; ``levels`` is the largest arity, at least 1.
    """
    ops = [op for layer in circuit.layers for op in layer]
    supports = [qubits for _, qubits in ops]
    arity = list(map(len, supports))
    keys = list(zip([label for label, _ in ops], arity))
    numbers = {key: g for g, key in enumerate(dict.fromkeys(keys))}
    records = [model.record(label, k, circuit.gate_defs) for label, k in numbers]
    slots = np.fromiter(map(numbers.__getitem__, keys), dtype=np.intp, count=len(keys))
    levels = max(arity, default=1)
    arity = np.array(arity, dtype=np.intp)
    layer_idx = np.repeat(np.arange(circuit.depth), [len(layer) for layer in circuit.layers])
    padded = np.full((len(keys), levels), circuit.width, dtype=np.intp)
    # a boolean-mask write fills the supports row by row, in circuit order
    padded[np.arange(levels) < arity[:, None]] = np.fromiter(
        chain.from_iterable(supports), dtype=np.intp, count=int(arity.sum())
    )
    return records, slots, arity, layer_idx, padded


def _gate_tables(walk, depth: int):
    """Per layer, the gates of :func:`_walk` grouped by arity k as ``(rows,
    offsets, images, phases)``: k row arrays of the g gates' support qubits,
    row i holding each gate's support qubit i; each gate's (g, 1) offset into
    the flat tables of the circuit's distinct k-qubit gates; and those
    tables, as k uint8 image tables, table i holding the new letter code of
    support qubit i, and the phase exponents.  Gates in one layer act on
    disjoint qubits, so the order of a layer's groups does not matter."""
    records, slots, arity, layer_idx, supports = walk
    layers = [[] for _ in range(depth)]
    local = np.zeros(len(records), dtype=np.intp)  # a record's number among those of its arity
    for k in sorted({rec.arity for rec in records}):
        numbers = [g for g, rec in enumerate(records) if rec.arity == k]
        local[numbers] = np.arange(len(numbers))
        tables = [records[g].conjugation for g in numbers]
        images = tuple(np.concatenate([i for i, _ in tables], axis=1))
        phases = np.concatenate([p for _, p in tables])
        sel = np.flatnonzero(arity == k)
        offsets = (local[slots[sel]] * 4**k)[:, None]
        rows = list(np.ascontiguousarray(supports[sel, :k].T))
        bounds = np.searchsorted(layer_idx[sel], np.arange(depth + 1)).tolist()
        for t, (a, b) in enumerate(zip(bounds, bounds[1:])):
            if a < b:
                layers[t].append((tuple([row[a:b] for row in rows]), offsets[a:b], images, phases))
    return layers


def _apply_gate_layer(frame: np.ndarray, groups, phase: np.ndarray = None):
    """Conjugate every column of an (n, columns) code frame by one compiled
    layer, adding the image phase exponents to ``phase`` when it is given.

    Each gate's support codes form its table index; every support qubit's
    new code is then one gather from that qubit's image table."""
    for rows, offsets, images, phases in groups:
        index = offsets + frame[rows[0]]
        for i in range(1, len(rows)):
            index += frame[rows[i]].astype(np.intp) << (2 * i)
        if phase is not None:
            phase += phases[index].sum(axis=0)
        for row, image in zip(rows, images):
            frame[row] = image[index]


class _FastPathProgram:
    """Compiled circuit, from one :func:`_walk`: the circuit's noisy
    operations as draw rows and, built on first use, per layer the gate
    groups of :func:`_gate_tables` (``gates``).

    Faults are drawn from each gate's *error* channel and from the model's
    idle channel on every qubit that no gate of a layer touches.  Rows run
    layer by layer, and within a layer through the noisy gates in gate order,
    then the idle qubits in qubit order, which is the order the generator is
    consumed in.  Per row: ``identity``, its identity probability (the first
    cdf entry); ``dists``, its distribution's number; ``layer``; and
    ``qubits``, its support padded to ``levels`` columns with the spare index
    n.  ``starts[t]`` is layer t's first row.  Per distribution: ``cdfs``,
    the cumulative probabilities without the last entry, padded with inf to
    ``4**levels - 1``; ``letters``, the letter code of each fault on each
    support qubit, padded with zeros.
    """

    def __init__(self, model: GateSetModel, circuit: Circuit):
        if circuit.width != model.n:
            raise ValueError("circuit width does not match the model")
        n, depth = model.n, circuit.depth
        self.n = n
        self.depth = depth
        self.pre_gate_noise = model.pre_gate_noise
        self._walk = records, slots, _, layer_idx, supports = _walk(model, circuit)
        dists, dist_of = [], []
        for rec in records:
            dist_of.append(-1 if rec.faults is None else len(dists))
            if rec.faults is not None:
                dists.append(rec.faults)
        numbers = np.array(dist_of, dtype=np.intp)[slots]
        noisy = numbers >= 0
        self.dists, self.layer, self.qubits = numbers[noisy], layer_idx[noisy], supports[noisy]
        levels = supports.shape[1]
        if model._idle_faults is not None:
            busy = np.zeros((depth, n + 1), dtype=bool)
            busy[layer_idx[:, None], supports] = True
            idle_layer, idle_qubits = np.nonzero(~busy[:, :n])
            idle_supports = np.full((len(idle_qubits), levels), n)
            idle_supports[:, 0] = idle_qubits
            # the gate rows come first, in circuit order, and the idle rows in
            # (layer, qubit) order, so a stable sort by layer puts each idle
            # row after every gate row of its layer
            layer = np.concatenate([self.layer, idle_layer])
            order = np.argsort(layer, kind="stable")
            self.layer = layer[order]
            self.dists = np.concatenate([self.dists, np.full(len(idle_qubits), len(dists))])[order]
            self.qubits = np.concatenate([self.qubits, idle_supports])[order]
            dists.append(model._idle_faults)
        self.starts = np.searchsorted(self.layer, np.arange(depth + 1))
        self.levels = levels
        self.cdfs = np.full((len(dists), 4**levels - 1), np.inf)
        self.letters = np.zeros((len(dists), 4**levels, levels), dtype=np.uint8)
        for d, (cdf, letters) in enumerate(dists):
            self.cdfs[d, : len(cdf) - 1] = cdf[:-1]
            self.letters[d, : len(letters), : letters.shape[1]] = letters
        self.identity = self.cdfs[self.dists, 0]

    @cached_property
    def gates(self):
        return _gate_tables(self._walk, self.depth)


# Doubles drawn per block of layers in :func:`_propagate_faults`; it also
# bounds the block's fault frame, in bytes.
_DRAW_BUDGET = 1 << 18

_DIGITS = np.arange(1, 4).reshape(3, 1)


def _search_hits(draws: np.ndarray, identity: np.ndarray, dists: np.ndarray, cdfs: np.ndarray, levels: int):
    """Rows, columns and fault indices of the hits of a (rows, shots) draw.

    A hit is an entry at or above its row's identity probability; every
    other entry draws fault index 0, the identity.  A hit's index is the
    number of its distribution's ``cdfs`` entries at or below its draw,
    which equals ``min(searchsorted(cdf, draw, side="right"), len(cdf) - 1)``.
    The 4**levels - 1 entries are searched in ``levels`` base-4 levels: each
    level counts how many of three entries, a quarter of the remaining range
    apart, lie at or below the draw, so a hit costs O(levels) whatever its
    distribution.
    """
    rows, cols = np.nonzero(draws >= identity[:, None])
    if not len(rows):
        return rows, cols, rows  # no hit: the empty rows serve as the empty indices
    u = draws[rows, cols]
    d = dists[rows]
    idx = np.zeros(len(u), dtype=np.intp)
    for level in range(levels - 1, -1, -1):
        idx *= 4
        idx += (cdfs[d, (idx + _DIGITS) * 4**level - 1] <= u).sum(axis=0)
    return rows, cols, idx


def _propagate_faults(program: _FastPathProgram, shots: int, gen) -> np.ndarray:
    """Per-shot x bits (n, shots) of the propagated fault frame.

    Layers run in blocks of ``_DRAW_BUDGET // (n * shots)`` layers (at least
    one); a layer has at most n draw rows, so a block draws at most that
    many doubles.  Each block draws all its rows in one ``gen.random((rows,
    shots))`` call, the same stream as one call per layer, and writes the
    letters of its hits (see :func:`_search_hits`) into a (layers, n + 1,
    shots) fault frame, whose spare row n takes the padded support columns.
    Each layer then XORs its faults into the frame before its gates
    (pre-gate noise) or after them.  Gates map the all-identity frame to
    itself, so the layers before the first hit are skipped, and a circuit
    without a hit never builds its gate tables.
    """
    n, depth = program.n, program.depth
    frame = np.zeros((n, shots), dtype=np.uint8)
    span = max(1, _DRAW_BUDGET // (n * shots))
    hit = False
    for t0 in range(0, depth, span):
        t1 = min(t0 + span, depth)
        r0, r1 = program.starts[t0], program.starts[t1]
        draws = gen.random((r1 - r0, shots))
        rows, cols, idx = _search_hits(
            draws, program.identity[r0:r1], program.dists[r0:r1], program.cdfs, program.levels
        )
        rows += r0
        if not hit:
            if not len(rows):
                continue
            hit = True
            t0 = int(program.layer[rows[0]])  # hits come in row order, so this is the first hit's layer
        faults = np.zeros((t1 - t0, n + 1, shots), dtype=np.uint8)
        faults[(program.layer[rows] - t0)[:, None], program.qubits[rows], cols[:, None]] = program.letters[
            program.dists[rows], idx
        ]
        for t in range(t0, t1):
            if program.pre_gate_noise:
                frame ^= faults[t - t0, :n]
            _apply_gate_layer(frame, program.gates[t])
            if not program.pre_gate_noise:
                frame ^= faults[t - t0, :n]
    return frame >> 1


def _frame_of(paulis, n: int) -> np.ndarray:
    frame = np.zeros((n, len(paulis)), dtype=np.uint8)
    for r, p in enumerate(paulis):
        for q in range(n):
            frame[q, r] = (((p.xbits >> q) & 1) << 1) | ((p.zbits >> q) & 1)
    return frame


def _paulis_of(frame: np.ndarray, phase: np.ndarray):
    n = frame.shape[0]
    out = []
    for col, k in zip(frame.T.tolist(), phase.tolist()):
        x = sum(((c >> 1) & 1) << q for q, c in enumerate(col))
        z = sum((c & 1) << q for q, c in enumerate(col))
        out.append(PauliString(n, x, z, k))
    return out


def _propagate_paulis(gates, n: int, paulis, history: np.ndarray = None):
    """Images, with phases, of ``paulis`` under the compiled gate layers,
    writing each layer's output frame into ``history[t]`` when it is given."""
    frame = _frame_of(paulis, n)
    phase = np.array([p.phase for p in paulis], dtype=np.int64)
    for t, groups in enumerate(gates):
        _apply_gate_layer(frame, groups, phase)
        if history is not None:
            history[t] = frame
    return _paulis_of(frame, phase)


class CliffordProgram:
    """A Clifford circuit's ideal action, compiled once into the per-layer
    gate tables of :func:`_gate_tables` (``gates``), through which Paulis
    propagate with exact phase.

    Compile a circuit once and propagate as many Paulis through it as
    needed: ACES compiles each prefix once for all of its rows.  This is the
    one Pauli propagator; :func:`propagate_pauli` goes through it, and
    :func:`ideal_outcome_bits` and the fast path's ideal outcome run the
    2n generators through the same tables into the circuit's
    :class:`~qcvv.cliffords.CliffordTableau`.
    """

    def __init__(self, model: GateSetModel, circuit: Circuit):
        self.n = model.n
        self.gates = _gate_tables(_walk(model, circuit), circuit.depth)

    def propagate(self, paulis, history: bool = False):
        """Images, with phases, of ``paulis``.  With ``history``, also each
        image's letter codes after every layer, as a (depth, n, len(paulis))
        uint8 array of codes ``x << 1 | z`` (I=0, Z=1, X=2, Y=3)."""
        if not history:
            return _propagate_paulis(self.gates, self.n, paulis)
        codes = np.empty((len(self.gates), self.n, len(paulis)), dtype=np.uint8)
        return _propagate_paulis(self.gates, self.n, paulis, codes), codes


def ideal_outcome_bits(model: GateSetModel, circuit: Circuit):
    """Definite ideal outcome bits of a Clifford circuit C on |0...0>, or None.

    The outcome is definite iff every row ``C^dag Z_j C`` of the inverse of
    the circuit's tableau is Z-type.  |0...0> is then an eigenstate of each,
    and bit j is 1 where that eigenvalue is -1 (phase exponent 2).
    """
    return _ideal_bits(CliffordProgram(model, circuit).gates, model.n)


def _ideal_bits(gates, n: int):
    """:func:`ideal_outcome_bits` of the compiled gate layers of an n-qubit
    circuit: the 2n generators X_0..X_{n-1}, Z_0..Z_{n-1} propagate as one
    frame into the circuit's :class:`CliffordTableau`."""
    eye = np.eye(n, dtype=np.uint8)
    frame = np.hstack([2 * eye, eye])  # letter codes: X_q in column q, Z_q in column n + q
    phase = np.zeros(2 * n, dtype=np.int64)
    for groups in gates:
        _apply_gate_layer(frame, groups, phase)
    inverse = CliffordTableau(np.vstack([frame >> 1, frame & 1]).T, phase).inverse()
    if inverse.bits[n:, :n].any():
        return None
    return (inverse.phases[n:] // 2).astype(np.uint8)


def propagate_pauli(model: GateSetModel, circuit: Circuit, p: PauliString) -> PauliString:
    """Conjugate a Pauli through a Clifford circuit's ideal action, with sign.

    Cost is O(depth * gates); uses per-gate lookup tables, so it stays cheap
    at large width.  To propagate several Paulis through one circuit,
    compile it once as a :class:`CliffordProgram`.
    """
    return CliffordProgram(model, circuit).propagate([p])[0]


def _noise_dist(err_ptm: np.ndarray, label: str):
    """(cdf, letters) over the local Pauli faults of an error channel:
    ``letters[f, i]`` is fault f's letter code on qubit i of the support."""
    diag = np.diag(err_ptm)
    if not np.allclose(err_ptm - np.diag(diag), 0, atol=1e-8):
        raise ValueError(f"noise on gate {label!r} is not stochastic Pauli")
    probs = walsh_hadamard(diag, "eigenvalues-to-rates")
    if probs.min() < -1e-9:
        raise ValueError(f"gate {label!r} diagonal is not a Pauli channel")
    probs = np.clip(probs, 0, None)
    probs /= probs.sum()
    if probs[0] > 1 - 1e-15:
        return None
    k = (probs.size.bit_length() - 1) // 2
    letters = np.array([pauli_codes(idx, k) for idx in range(probs.size)], dtype=np.uint8)
    return np.cumsum(probs), letters


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
    bits = bits0[:, None] ^ _propagate_faults(program, shots, gen)
    for q in range(model.n):
        if q in model.confusion:
            c = model.confusion[q]
            pflip = np.where(bits[q] == 1, c[0, 1], c[1, 0])
            bits[q] ^= (gen.random(shots) < pflip).astype(np.uint8)
    ints = (1 << np.arange(model.n - 1, -1, -1, dtype=np.int64)) @ bits  # qubit 0 is the leading bit
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
        signs *= 1 - 2 * fx[q].astype(np.int8)
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
    ``<<E| M^-1``; all circuit probabilities are unchanged.  Gauging a
    gauged model composes the two transforms.  Only models whose explicit
    gates span the full register are supported (local gates would need a
    tensor-product gauge), so a model with a noise rule or an idle channel
    is a ValueError, and the gauged model resolves no label outside its
    explicit gates: a builtin name, a ``c1_<i>`` label or a circuit's
    ``gate_defs`` gate would act ungauged.
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
    if model.idle is not None:
        raise ValueError("gauge transforms do not cover an idle channel")
    prep = model._superket.reshape(-1)
    out = GateSetModel(model.n, gates=gates, confusion=model.confusion, preparation=m @ prep)
    prior = model._effect_transform
    out._effect_transform = minv if prior is None else prior @ minv
    return out
