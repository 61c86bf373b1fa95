"""Gate-set device model and circuit-execution backends.

Three backends cover complementary regimes:

* ``circuit_probabilities`` / ``sample_counts``: dense propagation of the
  state's normalized-Pauli superket (width <= 6);
* ``statevector_run``: pure-state amplitudes for unitary circuits
  (width <= 14), used for ideal XEB/QV probabilities;
* ``pauli_fastpath_sample`` / ``pauli_fastpath_signs``: stochastic fault
  propagation through Clifford circuits for models whose noise is
  stochastic-Pauli, vectorized over shots (tens of qubits).

Protocols reach the dense and fast backends through calls that take the
backend by name, ``"dense"`` or ``"fast"``, and raise a ValueError for any
other name: ``sample`` returns a circuit's bit-string counts and
``parity_mean`` the mean measured +/-1 parity of a Z-type Pauli, and their
ensemble forms, ``_sample_all`` and ``_parity_all``, do the same for many
circuits at once.

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

Every circuit carries one flat form, which no model enters
(:class:`_Flat`): its distinct ``(label, arity)`` keys and, per operation,
a key number and a support.  ``Circuit`` builds it in the one pass that
checks the operations, which keeps layers the generators built normalised
as they are and normalises any other input first, and ``Circuit.then``
joins two flat forms instead of walking the operations again.  The arrays
that the Clifford paths index (padded supports and layer numbers) belong
to the flat form's :class:`_Skeleton`, its shape without labels.  They and
the idle-qubit mask are built on first use, so a circuit that is only
joined to another, or that the dense backend runs on a model without an
idle channel, builds none.  A backend call resolves one :class:`GateRecord`
per key and reads everything else off the flat form.

The generators whose circuits share one shape build them on one skeleton
(:meth:`Circuit._on_skeleton`): accreditation builds one per call and CRB
one per depth.  The first circuit is checked through ``Circuit(width,
layers)`` and the rest take its skeleton unchecked, so each adds only its
labels' key numbers, and they share the skeleton's arrays.  Their draws are
those of a circuit built at a time, in the same order.  The dense backend
groups circuits by skeleton.

The dense backend builds the noisy channels a circuit's records still lack
in one stacked pass (:func:`_build_noisy`): per arity, one stack of ideal
PTMs from the unitaries (:func:`qcvv.channels.unitary_ptms`) and one
stacked product with the noise PTMs.  A fresh model's ``c2_<i>`` labels and
inline ``gate_defs`` are thus built as one batch per call: per circuit for
:func:`circuit_probabilities`, per ensemble for :func:`_ensemble_states`.

The dense and statevector backends share one local-operator kernel,
``_apply_stacked``: a k-qubit operator acts on every item of a stack of
state tensors as one ``np.matmul`` over the gate's axes, each item taking
its own operator or all of them one.  A single state is a one-item stack.
A gate on the leading axes in order, as a gate on the whole register is,
skips the identity transpose; both give the same bits as the general path.
The dense loop applies the model's idle channel only when there is one, to
the qubits the idle mask marks.

One compiled program, :class:`CliffordProgram`, serves every Clifford path.
It compiles a circuit, or circuits side by side, against a model from its
flat form and builds two parts, each on first use: the per-layer gate
tables, through which Paulis propagate with exact phase, and the fast
path's draw rows.  :func:`propagate_pauli` runs Paulis through the gate
tables, and ACES (:func:`qcvv.cycles.aces`) compiles each circuit prefix
once and reads its design rows off the frames of its Paulis, propagated as
one column block.

The fast path pays per fault, not per layer, and one kernel,
:func:`_fault_parities`, turns its hits into bits: a fault flips a measured
Z-type Pauli iff it anticommutes with that Pauli pulled back to where the
fault acts, so a shot's bit is a count over its hits, and no fault frame
is propagated.  BiRB, cycle benchmarking and ACES propagate the prepared
Pauli through their bodies anyway, to choose the readout; that
propagation's history is the pull-back, so :func:`_eigenstate_parities`
passes it along and their joined circuits build draw rows only.
Otherwise the kernel tallies each hit against the 2n generators of every
circuit, walked from the first hit's layer, and one GF(2) product per
circuit with its final generator images gives its n output bits, of
which a derived parity is the XOR on its read qubits.  A stack that draws no fault builds no gate table and
conjugates nothing.  The same walk from layer 0 gives each circuit's ideal
outcome (:func:`ideal_outcome_bits`) without a tableau inverse.

The dense backend has one superket loop, :func:`_dense_states`.  It
evolves a stack of circuits of one shape (layer lengths and per-operation
supports, hence idle qubits), one ``np.matmul`` per operation on the
circuits' PTMs, gathered from C-ordered tables keyed by gate record; a
single circuit (:func:`circuit_probabilities`) is a one-item stack.  RB
decay runs, simultaneous RB, MRB, MCFE, accreditation, state tomography's
settings and the parity circuits of :func:`_eigenstate_parities` hand the
circuits of a design, with their seeds, to :func:`_sample_ensemble`; LGST
hands its dataset to :func:`_ensemble_states`, which both share.  It
resolves each circuit's records in circuit order, groups the circuits by
shape and evolves each group as one stack, each item bit for bit the state
that the circuit's own call gives.  Each superket then goes back through
:func:`sample_counts` and :func:`circuit_probabilities`, so each circuit
draws from its own generator, as a call per circuit does, and a run still
makes one ``circuit_probabilities`` call, with its shots, per circuit,
which is what a tracer that wraps those two names counts.

BiRB, cycle benchmarking and ACES estimate a Pauli eigenvalue one way,
and only this module builds their circuits: :func:`_eigenstate_parities`
takes each circuit's drawn preparation, body and shot seed and its
prepared Pauli's propagation, joins the readout rotation of the image,
derives the ideal sign and the pulled-back rows (:func:`_pulled_back_rows`)
and samples them all in one :func:`_parity_all` call.  ACES calls it per
prefix, whose rows propagate as one column block; BiRB and cycle
benchmarking call :func:`_eigenstate_stacks` with a ``draw()`` per
circuit, which draws a stack of circuits and propagates their bodies side
by side first.

Propagation and fast-path sampling are stacked.  :func:`_eigenstate_stacks`
compiles the bodies of one depth side by side, as one program on a
register of k * n qubits (:meth:`CliffordProgram._side_by_side`), and
walks their k prepared Paulis through it as one column, in stacks that
``_STACK_BUDGET`` bounds; each body's image, sign and history come out as
its own program would give them.  Fast-path sampling compiles the circuits
of one depth side by side (:func:`_fast_stacks`) and lets each circuit
draw its rows from its own generator.  Accreditation, MCFE, MRB, RB decays
and volumetric grids hand their circuits, with their seeds, to
:func:`_fast_ensemble`, which compiles each stack once, derives the
stack's ideal bits from it when the caller gives none and tallies the
stack's output bits in one :func:`_fault_parities` call; each circuit's
bits and generator then go back through :func:`pauli_fastpath_sample`,
which draws the readout flips and tallies.  :func:`_eigenstate_parities`
and DFE hand their circuits, measured Paulis and, but for DFE,
pulled-back rows to :func:`_parity_all`, which tallies each stack with the
same kernel; each circuit's bits and generator then go back through
:func:`pauli_fastpath_signs`, which draws the readout flips.  Either way
the seeded stream and the per-call circuit count are those of one circuit
at a time, and a single circuit is a one-item stack on its own program:
:func:`pauli_fastpath_sample` and :func:`pauli_fastpath_signs` are
one-item calls of the kernel.  :func:`_sample_all` and :func:`_parity_all`
are the ensemble entry points of both backends, and :func:`sample` and
:func:`parity_mean` are their one-item calls.

A :class:`ShotRecord` keeps the circuit it was sampled from and writes the
circuit's JSON only when ``circuit_id`` is read.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import chain, count, islice, repeat
from operator import itemgetter

import numpy as np

from .channels import Channel, identity_channel, unitary_ptms, walsh_hadamard
from .cliffords import (
    GATE_UNITARIES,
    CliffordTableau,
    _pack,
    _unpack,
    clifford_gate_factory,
    conjugation_table,
    pauli_codes,
    readout_layer,
    readout_pauli,
    tableau_from_unitary,
)
from .linalg import child_seeds, kron_all, rng
from .metrics import ProbDist
from .paulis import PauliString


class _Skeleton:
    """The shape of a circuit without its labels: its width, each
    operation's support in circuit order (``supports``) and each layer's
    operation count (``lengths``).

    Every :class:`_Flat` has one, built from its own lists on first use; the
    generators of one call build their circuits on one skeleton, checked
    once (:meth:`Circuit._on_skeleton`), so those circuits share it and its
    arrays.  Skeletons hash and compare by value, so circuits of one shape
    that were built apart still group together.  Built on first use:
    ``arrays``, an :class:`_Arrays` without keys (``key`` None)."""

    def __init__(self, width: int, supports, lengths):
        self.width, self.supports, self.lengths = width, supports, lengths

    @cached_property
    def _value(self) -> tuple:
        return self.width, tuple(self.lengths), tuple(self.supports)

    def __hash__(self):
        return hash(self._value)

    def __eq__(self, other):
        return self is other or (isinstance(other, _Skeleton) and self._value == other._value)

    @cached_property
    def arities(self) -> list:
        return list(map(len, self.supports))

    @cached_property
    def arrays(self) -> "_Arrays":
        arity = np.fromiter(self.arities, dtype=np.intp, count=len(self.supports))
        levels = int(arity.max(initial=1))
        supports = np.full((len(self.supports), levels), self.width, dtype=np.intp)
        # a boolean-mask write fills the supports row by row, in circuit order
        supports[np.arange(levels) < arity[:, None]] = np.fromiter(chain.from_iterable(self.supports), dtype=np.intp)
        layer = np.repeat(np.arange(len(self.lengths)), self.lengths)
        for a in (arity, supports, layer):
            a.flags.writeable = False  # shared by every circuit of the skeleton
        return _Arrays(None, arity, supports, layer)


class _Flat(namedtuple("_Flat", "width keys key supports lengths")):
    """A circuit's operations in one flat form, independent of any model.

    ``keys`` are the distinct ``(label, arity)`` pairs in order of first
    use; ``key`` holds each operation's key number and ``supports`` its
    qubits, in circuit order; ``lengths`` counts each layer's operations,
    empty layers included.  Built from these on first use: the circuit's
    :class:`_Skeleton` (``skeleton``), unless the circuit was built on one;
    the arrays that the Clifford paths index (``arrays``, an
    :class:`_Arrays`), the skeleton's with the key numbers added; and
    ``idle``, the (depth, width) mask of the qubits that no gate of a layer
    touches.
    """

    @classmethod
    def of(cls, width: int, layers) -> "_Flat":
        """The flat form of normalised layers, or None when ``layers`` are
        not normalised: a tuple of tuples of ``(str, tuple of int)`` pairs,
        each of its exact type.  A qubit outside the register or used twice
        in one layer is a ValueError.

        Each list's types are checked as one set, the outer tuple's before
        any layer is iterated, so a generator of layers comes back
        unconsumed and can be normalised."""
        if type(layers) is not tuple or set(map(type, layers)) - {tuple}:
            return None
        ops = list(chain.from_iterable(layers))
        if set(map(type, ops)) - {tuple} or set(map(len, ops)) - {2}:
            return None
        labels = list(map(itemgetter(0), ops))
        supports = list(map(itemgetter(1), ops))
        if set(map(type, labels)) - {str} or set(map(type, supports)) - {tuple}:
            return None
        qubits = list(chain.from_iterable(supports))
        if set(map(type, qubits)) - {int}:
            return None
        key, keys = _numbered(labels, map(len, supports))
        if qubits and (min(qubits) < 0 or max(qubits) >= width):
            raise ValueError("qubit index out of range")
        # a layer that uses a qubit twice has fewer distinct qubits than uses
        if sum(map(len, map(set, map(chain.from_iterable, map(partial(map, itemgetter(1)), layers))))) < len(qubits):
            raise ValueError("overlapping gate supports within a layer")
        return cls(width, keys, key, supports, list(map(len, layers)))

    @classmethod
    def on(cls, skeleton: _Skeleton, labels) -> "_Flat":
        """The flat form of operations with ``labels``, in circuit order, on
        ``skeleton``'s supports; nothing is checked."""
        key, keys = _numbered(labels, skeleton.arities)
        flat = cls(skeleton.width, keys, key, skeleton.supports, skeleton.lengths)
        flat.__dict__["skeleton"] = skeleton
        return flat

    @classmethod
    def side_by_side(cls, flats, n: int) -> "_Flat":
        """The flat forms of circuits on n qubits each, side by side on one
        register of ``len(flats) * n`` qubits: circuit i acts on qubits
        ``i * n`` to ``(i + 1) * n - 1``, and one shorter than the longest
        ends in empty layers.  The keys are numbered in order of first use
        across the circuits, and the operations run layer by layer, circuit
        by circuit within a layer (a stable sort by layer).  Only ``keys``,
        ``lengths`` and ``arrays`` are built, in one pass over the
        circuits' lists, as a skeleton builds one circuit's arrays; ``key``
        and ``supports`` are None, so the result is never joined."""
        keys = tuple(dict.fromkeys(chain.from_iterable(flat.keys for flat in flats)))
        number = dict(zip(keys, count()))
        # circuit i's key numbers index its own run of ``renumber``, which
        # starts at ``first[i]``
        renumber = np.fromiter(map(number.__getitem__, chain.from_iterable(flat.keys for flat in flats)), dtype=np.intp)
        first = np.cumsum([0] + [len(flat.keys) for flat in flats[:-1]])
        ops = [len(flat.key) for flat in flats]
        circuit = np.repeat(np.arange(len(flats)), ops)
        local = np.fromiter(chain.from_iterable(flat.key for flat in flats), dtype=np.intp, count=len(circuit))
        supports = list(chain.from_iterable(flat.supports for flat in flats))
        arity = np.fromiter(map(len, supports), dtype=np.intp, count=len(circuit))
        width, levels = len(flats) * n, int(arity.max(initial=1))
        padded = np.full((len(circuit), levels), width, dtype=np.intp)
        qubits = np.fromiter(chain.from_iterable(supports), dtype=np.intp)
        padded[np.arange(levels) < arity[:, None]] = qubits + np.repeat(circuit * n, arity)
        depth = max(len(flat.lengths) for flat in flats)
        layer = np.repeat(
            np.fromiter(chain.from_iterable(map(range, (len(flat.lengths) for flat in flats))), dtype=np.intp),
            np.fromiter(chain.from_iterable(flat.lengths for flat in flats), dtype=np.intp),
        )
        order = np.argsort(layer, kind="stable")
        out = cls(width, keys, None, None, np.bincount(layer, minlength=depth).tolist())
        out.__dict__["arrays"] = _Arrays(renumber[local + first[circuit]][order], arity[order], padded[order], layer[order])
        return out

    def then(self, other: "_Flat") -> "_Flat":
        """``self`` followed by ``other``, on the wider of the two registers;
        ``other``'s keys are renumbered after ``self``'s."""
        keys = tuple(dict.fromkeys(self.keys + other.keys))
        number = dict(zip(keys, count()))
        renumber = [number[pair] for pair in other.keys]
        key = self.key + list(map(renumber.__getitem__, other.key))
        return _Flat(max(self.width, other.width), keys, key, self.supports + other.supports, self.lengths + other.lengths)

    @cached_property
    def skeleton(self) -> _Skeleton:
        return _Skeleton(self.width, self.supports, self.lengths)

    @cached_property
    def arrays(self) -> "_Arrays":
        return self.skeleton.arrays._replace(key=np.array(self.key, dtype=np.intp))

    @cached_property
    def idle(self) -> np.ndarray:
        busy = np.zeros((len(self.lengths), self.width + 1), dtype=bool)
        busy[self.arrays.layer[:, None], self.arrays.supports] = True
        return ~busy[:, : self.width]


def _numbered(labels, arities):
    """Each operation's key number and the distinct ``(label, arity)`` keys,
    each pair numbered by the count of distinct pairs before its first use."""
    # the pairs are streamed, not listed, so a wide circuit leaves the
    # garbage collector no extra objects to track
    number = {}
    key = list(map(number.setdefault, zip(labels, arities), map(len, repeat(number))))
    return key, tuple(number)


class _Arrays(namedtuple("_Arrays", "key arity supports layer")):
    """A flat form as arrays, per operation: its key number, its arity, its
    support padded to ``levels`` columns (the largest arity, at least 1)
    with the spare index ``width``, and its layer."""


@dataclass(frozen=True)
class Circuit:
    """Ordered layers of (gate label, qubit tuple) with disjoint supports.

    ``gate_defs`` carries inline unitaries for ad-hoc labels (e.g. sampled
    SU(4) gates); it is excluded from equality so circuits compare by
    structure.  Construction builds the circuit's :class:`_Flat` form
    (``_flat``), which every backend reads, and checks every operation.
    Layers that are already normalised, tuples of ``(str, tuple of int)``
    pairs as the generators build them, are kept as they are; any other
    input has every label and qubit normalised first.

    The generators whose circuits share one shape (accreditation traps, the
    CRB circuits of one depth) check it once: they build one circuit through
    this constructor and the rest on its :class:`_Skeleton`
    (:meth:`_on_skeleton`), which numbers each circuit's labels and checks
    nothing.  Either way the circuit, its equality, hash, pickle and JSON
    are the same.
    """

    width: int
    layers: tuple
    gate_defs: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self):
        flat = _Flat.of(self.width, self.layers)
        if flat is None:  # some container, label or qubit is not of its normalised type
            layers = tuple([tuple([(str(lbl), tuple(map(int, qs))) for lbl, qs in layer]) for layer in self.layers])
            object.__setattr__(self, "layers", layers)
            flat = _Flat.of(self.width, layers)
        object.__setattr__(self, "_flat", flat)

    @classmethod
    def _on_skeleton(cls, skeleton: _Skeleton, layers) -> "Circuit":
        """A circuit of normalised ``layers`` whose supports and layer
        lengths are ``skeleton``'s, which a checked circuit of the same
        generator call gave; nothing is checked again."""
        out = object.__new__(cls)
        object.__setattr__(out, "width", skeleton.width)
        object.__setattr__(out, "layers", layers)
        object.__setattr__(out, "gate_defs", {})
        object.__setattr__(out, "_flat", _Flat.on(skeleton, map(itemgetter(0), chain.from_iterable(layers))))
        return out

    @property
    def depth(self) -> int:
        return len(self.layers)

    def then(self, other: "Circuit") -> "Circuit":
        """``self`` followed by ``other``.  Each was checked when it was built,
        against a width no larger than the result's, so the joined layers are
        not checked again, and their flat forms are joined, not rebuilt."""
        defs = dict(self.gate_defs)
        defs.update(other.gate_defs)
        out = object.__new__(Circuit)
        object.__setattr__(out, "width", max(self.width, other.width))
        object.__setattr__(out, "layers", self.layers + other.layers)
        object.__setattr__(out, "gate_defs", defs)
        object.__setattr__(out, "_flat", self._flat.then(other._flat))
        return out

    def to_json(self) -> str:
        # the layers are normalised tuples, which json writes as it writes lists
        return json.dumps({"width": self.width, "layers": self.layers}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        payload = json.loads(text)
        layers = tuple(tuple((lbl, tuple(qs)) for lbl, qs in layer) for layer in payload["layers"])
        return cls(payload["width"], layers)


class ShotRecord:
    """One circuit's sampled counts: ``circuit_id`` (the circuit's JSON),
    ``counts``, ``shots``, ``seed`` and ``timestamp_index``.

    The samplers pass the :class:`Circuit` itself as ``circuit_id``; the
    record keeps it and writes its JSON on first read, so a record that is
    never read or written never serialises its circuit.  Records are
    immutable and compare by their five fields, ``circuit_id`` as text.
    """

    __slots__ = ("_circuit", "counts", "shots", "seed", "timestamp_index")

    def __init__(self, circuit_id: "str | Circuit", counts: dict, shots: int, seed: int, timestamp_index: int = 0):
        if sum(counts.values()) != shots:
            raise ValueError("counts do not sum to shots")
        for name, value in zip(self.__slots__, (circuit_id, counts, shots, seed, timestamp_index)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __reduce__(self):  # copy and pickle through __init__, which __setattr__ leaves the only way in
        return ShotRecord, (self._circuit, self.counts, self.shots, self.seed, self.timestamp_index)

    @property
    def circuit_id(self) -> str:
        if isinstance(self._circuit, Circuit):
            object.__setattr__(self, "_circuit", self._circuit.to_json())
        return self._circuit

    def _fields(self) -> tuple:
        return self.circuit_id, self.counts, self.shots, self.seed, self.timestamp_index

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # the counts are a dict

    def __repr__(self) -> str:
        names = ("circuit_id",) + self.__slots__[1:]
        return "ShotRecord(" + ", ".join(f"{k}={v!r}" for k, v in zip(names, self._fields())) + ")"

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
    ``conjugation`` or ``faults``.  The dense backend builds ``noisy`` per
    call, one circuit's or one ensemble's, for every record that has none
    yet, in one stacked pass (:func:`_build_noisy`); read alone, ``noisy``
    runs the same pass on its one record.  A ``fixed`` record (a builtin
    name or a ``c1_<i>`` label of the default factory) takes its ideal
    channel from the process-wide :func:`_fixed_ideal`.
    """

    def __init__(self, label: str, arity: int, ideal, explicit: Channel, noise_rule, pre_gate_noise: bool, fixed: bool):
        self.label = label
        self.arity = arity
        self._ideal = ideal
        self._explicit = explicit
        self._noise_rule = noise_rule
        self._pre = pre_gate_noise
        self._fixed = fixed
        self._noisy = None

    @property
    def ideal(self) -> np.ndarray:
        if self._ideal is None:
            raise KeyError(f"gate {self.label!r} has no known unitary")
        return self._ideal

    @cached_property
    def _noise(self) -> Channel:
        return self._noise_rule(self.label, self.arity) if self._noise_rule else None

    @property
    def noisy(self) -> Channel:
        if self._noisy is None:
            _build_noisy([self])
        return self._noisy

    @cached_property
    def error(self) -> Channel:
        if self._explicit is None:
            return identity_channel(self.arity) if self._noise is None else self._noise
        ideal = unitary_ptms(self.ideal[None])[0]  # an explicit record is never fixed
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
        prep = kron_all([_PREP0.reshape(1, -1)] * self.n).real if self._prep is None else self._prep
        state = prep.reshape((4,) * self.n).copy()
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


# PTM entries that one stacked pass of :func:`_build_noisy` builds at most:
# 64 two-qubit or 1,024 one-qubit channels.  It is smaller than
# ``_ENSEMBLE_BUDGET`` because each entry of one stacked
# :func:`qcvv.channels.unitary_ptms` call holds about ten floats of complex
# temporaries while it is built
_NOISY_BUDGET = 1 << 14


def _build_noisy(records):
    """Build the noisy channel of each record that has none yet, in one pass.

    An explicit record's channel is its own, and a record whose noise rule
    gives None takes its ideal channel: :func:`_fixed_ideal`'s shared one,
    or :meth:`Channel.from_unitary`.  Per arity, the ideal PTMs of the rest
    come from one stacked :func:`unitary_ptms` call, fixed labels taking
    :func:`_fixed_ideal`'s, and one stacked product composes them with the
    noise PTMs, ``noise @ ideal`` (``ideal @ noise`` with pre-gate noise),
    in stacks of at most ``_NOISY_BUDGET`` PTM entries, so an ensemble's
    records take no more memory at a time than a few circuits' do.  Each
    record gets a channel carrying the unitary that :meth:`Channel.compose`
    gives.
    """
    groups = {}
    for rec in records:
        if rec._noisy is not None:
            continue
        if rec._explicit is not None:
            rec._noisy = rec._explicit
        elif rec._noise is None:
            rec._noisy = _fixed_ideal(rec.label) if rec._fixed else Channel.from_unitary(rec.ideal)
        else:
            groups.setdefault((rec.arity, rec._pre), []).append(rec)
    for (arity, pre), group in groups.items():
        size = max(1, _NOISY_BUDGET // 16**arity)
        for recs in (group[start : start + size] for start in range(0, len(group), size)):
            fresh = [rec.ideal for rec in recs if not rec._fixed]
            fresh = iter(unitary_ptms(np.stack(fresh)) if fresh else ())
            ideals = np.stack([_fixed_ideal(rec.label).ptm if rec._fixed else next(fresh) for rec in recs])
            noises = np.stack([rec._noise.ptm for rec in recs])
            for rec, ptm in zip(recs, ideals @ noises if pre else noises @ ideals):
                u = rec._noise.unitary
                if u is not None:
                    u = rec.ideal @ u if pre else u @ rec.ideal
                rec._noisy = Channel(ptm, u)


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
    """The transpose of a ``(k,) + (d,) * ndim`` stack that brings ``qubits``
    to the front behind the stack axis, and its inverse; None when
    ``qubits`` are already the leading axes, in order."""
    perm = qubits + tuple(a for a in range(ndim) if a not in qubits)
    if perm == tuple(range(ndim)):
        return None
    perm = (0,) + tuple(a + 1 for a in perm)
    return perm, tuple(int(a) for a in np.argsort(perm))


def _resolved_records(model: GateSetModel, circuit: Circuit):
    """The circuit's records, one per key of its flat form, with or without
    their noisy channels; a circuit the dense backend cannot run raises."""
    if circuit.width != model.n:
        raise ValueError("circuit width does not match the model")
    if model.n > DENSE_WIDTH_CAP:
        raise ValueError(f"dense backend capped at width {DENSE_WIDTH_CAP}")
    return [model.record(label, k, circuit.gate_defs) for label, k in circuit._flat.keys]


def _dense_records(model: GateSetModel, circuit: Circuit):
    """The circuit's records, each with its noisy channel built."""
    records = _resolved_records(model, circuit)
    _build_noisy(records)
    return records


def _idle_qubits(model: GateSetModel, flat: _Flat):
    """Per layer, the qubits that take the model's idle channel, in qubit
    order: none without one."""
    if model.idle is None:
        return [()] * len(flat.lengths)
    return [np.flatnonzero(row).tolist() for row in flat.idle]


def _apply_stacked(states: np.ndarray, ops: np.ndarray, qubits) -> np.ndarray:
    """Apply an operator on the axes ``qubits`` to each item of a
    ``(k,) + (d,) * n`` stack of state tensors, as one ``np.matmul``: item i
    takes ``ops[i]`` of a (k, D, D) stack, or every item one (D, D) ``ops``,
    with D = d ** len(qubits).

    Behind the stack axis, the moved items reshape to C-ordered operands, or
    to F-ordered views after some transposes, which ``np.matmul`` hands BLAS
    as transposed operands; a C-ordered copy would round otherwise, so the
    views are kept.  On the leading axes in order (a gate on the whole
    register, for one) the transpose is the identity and is skipped: the
    same product on the same memory."""
    k, d = len(states), ops.shape[-1]
    order = _axis_order(states.ndim - 1, tuple(qubits))
    if order is None:
        return np.matmul(ops, states.reshape(k, d, -1)).reshape(states.shape)
    perm, inverse = order
    moved = states.transpose(perm)
    out = np.matmul(ops, moved.reshape(k, d, -1))
    return out.reshape(moved.shape).transpose(inverse)


def _dense_states(model: GateSetModel, circuits, records) -> np.ndarray:
    """The superkets, shaped ``(k,) + (4,) * n``, that k circuits of one
    shape (the same layer lengths and per-operation supports) leave, given
    each circuit's :func:`_dense_records`; one circuit is a one-item stack.

    Each record's PTM enters one C-ordered table per arity, keyed by the
    record, so circuits whose ``gate_defs`` give one label different gates
    keep their own.  At each operation the circuits' PTMs are gathered from
    the table into a (k, d, d) stack and applied by :func:`_apply_stacked`;
    each layer's gates apply in order, then the model's idle channel, if
    any, on the shape's idle qubits in qubit order."""
    flat, k = circuits[0]._flat, len(circuits)
    tables, number = {}, {}
    for rec in chain.from_iterable(records):
        if rec not in number:
            number[rec] = len(tables.setdefault(rec.arity, []))
            tables[rec.arity].append(rec.noisy.ptm)
    tables = {arity: np.stack(ptms) for arity, ptms in tables.items()}
    index = np.array([[number[recs[g]] for g in c._flat.key] for c, recs in zip(circuits, records)], dtype=np.intp)
    states = np.repeat(model._superket[None], k, axis=0)
    ops = iter(enumerate(flat.supports))
    for length, idle_qubits in zip(flat.lengths, _idle_qubits(model, flat)):
        for j, qubits in islice(ops, length):
            states = _apply_stacked(states, tables[len(qubits)][index[:, j]], qubits)
        for q in idle_qubits:
            states = _apply_stacked(states, model.idle.ptm, (q,))
    return states


def _effect_rows(n: int, confusion: dict) -> np.ndarray:
    """Rows: normalized-Pauli superbras of the 2**n computational effects."""
    out = np.ones((1, 1))
    for q in range(n):
        m = _MEAS if q not in confusion else confusion[q] @ _MEAS
        out = np.kron(out, m)
    return out


def _outcome_labels(n: int):
    """The 2**n bit strings of n qubits, in outcome order."""
    return [format(i, f"0{n}b") for i in range(2**n)]


def circuit_probabilities(model: GateSetModel, circuit: Circuit, *, superket: np.ndarray = None):
    """Outcome distribution over bit strings from the dense PTM backend.

    ``superket`` is the state the circuit leaves, when the caller evolved it
    already (:func:`_sample_ensemble`); otherwise the circuit evolves as a
    one-item stack (:func:`_dense_states`)."""
    if superket is None:
        superket = _dense_states(model, [circuit], [_dense_records(model, circuit)])[0]
    flat = superket.reshape(-1)
    if model._effect_transform is not None:
        flat = model._effect_transform @ flat
    probs = model._effects @ flat
    total = probs.sum()
    if abs(total - 1.0) > 1e-7:
        raise ValueError(f"distribution normalizes to {total}; model is not TP")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return ProbDist(_outcome_labels(model.n), probs)


def _seed_value(seed) -> int:
    """The seed a :class:`ShotRecord` stores: the integer, or -1 for a Generator."""
    return -1 if isinstance(seed, np.random.Generator) else int(seed)


def sample_counts(model: GateSetModel, circuit: Circuit, shots: int, seed, *, superket: np.ndarray = None) -> ShotRecord:
    """Multinomial draw from the dense backend's distribution; ``superket``
    passes to :func:`circuit_probabilities`."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    dist = circuit_probabilities(model, circuit, superket=superket)
    gen = rng(seed)
    draws = gen.multinomial(shots, dist.probs)
    counts = {lbl: int(c) for lbl, c in zip(dist.outcomes, draws) if c}
    return ShotRecord(circuit, counts, shots, _seed_value(seed))


# Doubles that one stack of :func:`_sample_ensemble` holds per array: its
# superkets, or the PTMs gathered for one operation.
_ENSEMBLE_BUDGET = 1 << 16


def _sample_ensemble(model: GateSetModel, circuits, shots: int, seeds):
    """:func:`sample_counts` of each circuit with its seed, as a list in
    circuit order, with the dense states evolved side by side
    (:func:`_ensemble_states`).  Each superket goes through
    :func:`sample_counts`, which draws from the circuit's own generator, so
    each record is the one that a call per circuit gives, and each circuit
    is one ``circuit_probabilities`` call.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    out = [None] * len(circuits)
    for i, state in _ensemble_states(model, circuits):
        out[i] = sample_counts(model, circuits[i], shots, seeds[i], superket=state)
    return out


def _ensemble_states(model: GateSetModel, circuits):
    """Each circuit's index and the superket it leaves, stack by stack, each
    bit for bit the state of the circuit's own :func:`circuit_probabilities`
    call.

    The circuits' records resolve first, circuit by circuit in order, as
    one call per circuit resolves them, and the noisy channels that any of
    them lacks are then built in one :func:`_build_noisy` pass, bit for bit
    those of a pass per circuit.  Circuits of one :class:`_Skeleton`, the
    same layer lengths and per-operation supports and hence the same idle
    qubits, then evolve as one superket stack
    (:func:`_dense_states`), in stacks that ``_ENSEMBLE_BUDGET`` bounds; a
    circuit alone in its shape is a one-item stack.  A stack is evolved
    only when the previous one's states have all been yielded.
    """
    records = [_resolved_records(model, circuit) for circuit in circuits]
    _build_noisy(dict.fromkeys(chain.from_iterable(records)))
    groups = {}
    for i, circuit in enumerate(circuits):
        groups.setdefault(circuit._flat.skeleton, []).append(i)
    for skeleton, members in groups.items():
        arity = max(skeleton.arities, default=0)
        size = max(1, _ENSEMBLE_BUDGET // max(4**model.n, 16**arity))
        for start in range(0, len(members), size):
            chunk = members[start : start + size]
            yield from zip(chunk, _dense_states(model, [circuits[i] for i in chunk], [records[i] for i in chunk]))


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
    return ShotRecord(circuit, counts, shots, _seed_value(seed))


# -- statevector backend ------------------------------------------------------

def statevector_run(circuit: Circuit, model: GateSetModel = None) -> np.ndarray:
    """Amplitudes of a unitary circuit applied to |0...0>."""
    n = circuit.width
    if n > STATEVECTOR_WIDTH_CAP:
        raise ValueError(f"statevector backend capped at width {STATEVECTOR_WIDTH_CAP}")
    if model is None:
        model = GateSetModel(n)
    psi = np.zeros((1,) + (2,) * n, dtype=complex)
    psi.flat[0] = 1.0
    unitaries = [model.record(label, k, circuit.gate_defs).ideal for label, k in circuit._flat.keys]
    for qubits, g in zip(circuit._flat.supports, circuit._flat.key):
        psi = _apply_stacked(psi, unitaries[g], qubits)
    return psi.reshape(-1)


def ideal_probabilities(circuit: Circuit, model: GateSetModel = None):
    amps = statevector_run(circuit, model)
    p = np.abs(amps) ** 2
    return ProbDist(_outcome_labels(circuit.width), p / p.sum())


# -- stochastic-Pauli fast path ------------------------------------------------

# Frames hold one 2-bit letter code per qubit, ``x << 1 | z`` (I=0, Z=1,
# X=2, Y=3), as an (n, shots) uint8 array, so that a gate's gather reads and
# writes whole rows.  A k-qubit gate reads the codes of its support as one
# 2k-bit index, qubit i of the support in bits 2i+1 (x) and 2i (z), and
# gathers each support qubit's new code from that qubit's uint8 image table,
# the layout of :func:`qcvv.cliffords.conjugation_table`.

def _gate_tables(records, flat: _Flat):
    """Per layer, a circuit's gates grouped by arity k as ``(rows, offsets,
    images, phases)``, from its flat form and one :class:`GateRecord` per
    key: k row arrays of the g gates' support qubits, row i holding each
    gate's support qubit i; each gate's (g, 1) offset into the flat tables
    of the circuit's distinct k-qubit gates; and those tables, as k uint8
    image tables, table i holding the new letter code of support qubit i,
    and the phase exponents.  Gates in one layer act on disjoint qubits, so
    the order of a layer's groups does not matter."""
    layers, arrays = [[] for _ in flat.lengths], flat.arrays
    local = np.zeros(len(records), dtype=np.intp)  # a record's number among those of its arity
    for k in sorted({rec.arity for rec in records}):
        numbers = [g for g, rec in enumerate(records) if rec.arity == k]
        local[numbers] = np.arange(len(numbers))
        tables = [records[g].conjugation for g in numbers]
        images = tuple(np.concatenate([i for i, _ in tables], axis=1))
        phases = np.concatenate([p for _, p in tables])
        sel = np.flatnonzero(arrays.arity == k)
        offsets = (local[arrays.key[sel]] * 4**k)[:, None]
        rows = list(np.ascontiguousarray(arrays.supports[sel, :k].T))
        bounds = np.searchsorted(arrays.layer[sel], np.arange(len(layers) + 1)).tolist()
        for t, (a, b) in enumerate(zip(bounds, bounds[1:])):
            if a < b:
                layers[t].append((tuple([row[a:b] for row in rows]), offsets[a:b], images, phases))
    return layers


def _apply_gate_layer(frame: np.ndarray, groups, phase: np.ndarray = None):
    """Conjugate every column of an (n, columns) code frame by one compiled
    layer.  When an (n, columns) ``phase`` is given, each gate adds its
    image phase exponents to the row of its first support qubit, so the
    exponents of the gates on a block of qubits sum over that block's rows.

    Each gate's support codes form its table index; every support qubit's
    new code is then one gather from that qubit's image table.  The gates
    of a layer act on disjoint qubits, so no two write one phase row."""
    for rows, offsets, images, phases in groups:
        index = offsets + frame[rows[0]]
        for i in range(1, len(rows)):
            index += frame[rows[i]].astype(np.intp) << (2 * i)
        if phase is not None:
            phase[rows[0]] += phases[index]
        for row, image in zip(rows, images):
            frame[row] = image[index]


# Doubles drawn per block of layers in :func:`_hit_blocks`.
_DRAW_BUDGET = 1 << 18

# Qubit-layer slots, each holding at most one operation, of the circuits
# that one stacked program (:func:`_propagate_side_by_side`) holds; it bounds
# the stack's flat arrays and gate tables, and the circuits a caller keeps
# alive for one stack.
_STACK_BUDGET = 1 << 14

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
    distribution.  Hits come in row-major order, as ``np.nonzero`` gives them.
    """
    rows, cols = divmod(np.flatnonzero(draws >= identity[:, None]), draws.shape[1])
    if not len(rows):
        return rows, cols, rows  # no hit: the empty rows serve as the empty indices
    u = draws[rows, cols]
    d = dists[rows]
    idx = np.zeros(len(u), dtype=np.intp)
    for level in range(levels - 1, -1, -1):
        idx *= 4
        idx += (cdfs[d, (idx + _DIGITS) * 4**level - 1] <= u).sum(axis=0)
    return rows, cols, idx


def _hit_blocks(program: "CliffordProgram", shots: int, gens):
    """The hits (see :func:`_search_hits`) of a stack's draws, block by block.

    ``program`` holds ``len(gens)`` circuits of ``program._model.n`` qubits
    each, side by side (:meth:`CliffordProgram._side_by_side`), all of one
    depth; one circuit is a one-item stack on its own program.  Layers run
    in blocks of ``_DRAW_BUDGET // (width * shots)`` layers (at least one),
    width the stacked register's; a layer has at most width draw rows, so
    a block draws at most that many doubles.  In each block every circuit
    draws its own rows from its own generator, in one ``gen.random((rows,
    shots))`` call, the same stream as one call per layer: each circuit
    draws what its own program draws.  A stable partition of the stacked
    rows by block (``qubits[:, 0] // n``) gives each circuit's rows in its
    own order, since within a layer the stacked rows run through the gates
    circuit by circuit, then through the idle qubits in qubit order.  Each
    block yields its hits' rows (numbered across the stack), columns and
    fault indices.
    """
    width, depth, d = program.n, program.depth, program.draws
    span = max(1, _DRAW_BUDGET // (width * shots))
    owner = d.qubits[:, 0] // program._model.n if len(gens) > 1 else None
    for t0 in range(0, depth, span):
        t1 = min(t0 + span, depth)
        r0, r1 = d.starts[t0], d.starts[t1]
        if owner is None:
            draws = gens[0].random((r1 - r0, shots))
        else:
            # each circuit's draws go straight to its rows, so the block
            # holds one array of draws, not a second, permuted copy
            block = owner[r0:r1]
            order = np.argsort(block, kind="stable")
            bounds = np.cumsum(np.bincount(block, minlength=len(gens))).tolist()
            draws = np.empty((r1 - r0, shots))
            for g, a, b in zip(gens, [0] + bounds, bounds):
                draws[order[a:b]] = g.random((b - a, shots))
        rows, cols, idx = _search_hits(draws, d.identity[r0:r1], d.dists[r0:r1], d.cdfs, d.levels)
        del draws  # freed before the next block's are drawn, so one block's draws are held at a time
        yield rows + r0, cols, idx


def _fault_parities(program: "CliffordProgram", pulled_back, shots: int, gens) -> np.ndarray:
    """Per circuit of a stack (see :func:`_hit_blocks`), each drawing from
    its generator in ``gens``, the per-shot bits (0 or 1) that its faults
    flip, as a (k, columns, shots) uint8 array: the one kernel that turns
    hits into bits.

    A fault flips a column's bit iff it anticommutes, on its support, with
    the column's row where it acts: row t for pre-gate noise at layer t,
    row t + 1 for post-gate noise.  Idle faults sit on qubits that no gate
    of their layer touches, where the two rows agree.  A hit counts for the
    circuit whose block of n = ``model.n`` qubits holds its support
    (``qubits[:, 0] // n``), and a bit is its circuit's count of flipping
    hits, mod 2; no frame is propagated, and a stack without a hit builds no
    gate tables and walks no layer.

    ``pulled_back`` holds each circuit's rows of one Z-type measured Pauli
    (see :func:`pauli_fastpath_signs`): one column, the measured parity.
    When None, the columns are the circuit's n output bits.  Then the rows
    are the 2n generators of every block, walked from the first hit's layer
    t0 (:meth:`CliffordProgram._generators`).  Output bit j flips iff the
    faults anticommute with Z_j pulled back, which is, up to phase, the
    product of the generators that the input Pauli Q_j = U^dag Z_j U selects
    (U the layers from t0 on).  Conjugation keeps the symplectic form, so
    Q_j's x bit on qubit q is the form of Z_j with U Z_q U^dag, the x bit on
    qubit j of that image, and its z bit on q is the same with X_q: one GF(2)
    product per circuit with the x bits of its final generator images maps
    its 2n generator parities to its n output bits.
    """
    d, n, k = program.draws, program._model.n, len(gens)
    shift = 0 if program._model.pre_gate_noise else 1
    codes = None
    for rows, cols, idx in _hit_blocks(program, shots, gens):
        if not len(rows):
            continue
        if codes is None:
            # row t - t0 of ``codes`` is row t; its spare qubit, all identity, takes the padding
            if pulled_back is None:
                # hits come in row order: no later hit reads a row before this layer
                t0 = int(d.layer[rows[0]])
                frame = np.vstack([program._generators(), np.zeros((1, 2 * n), dtype=np.uint8)])
                codes = program._walk(frame, None, True, t0)
            else:
                t0, spare = 0, np.zeros((program.depth + 1, 1), dtype=np.uint8)
                codes = np.hstack([*pulled_back, spare])[:, :, None]
            columns = codes.shape[2]
            flips = np.zeros(k * columns * shots, dtype=np.intp)
        fault = d.letters[d.dists[rows], idx][:, :, None]
        qubits = d.qubits[rows]
        row = codes[(d.layer[rows] + shift - t0)[:, None], qubits]
        # letter codes x << 1 | z anticommute iff x_f z_r + z_f x_r is odd
        hit, column = np.nonzero((((fault >> 1) & row) ^ (fault & (row >> 1))).sum(axis=1) & 1)
        flips += np.bincount((qubits[hit, 0] // n * columns + column) * shots + cols[hit], minlength=len(flips))
    if codes is None:
        return np.zeros((k, n if pulled_back is None else 1, shots), dtype=np.uint8)
    flips = (flips & 1).reshape(k, columns, shots)
    if pulled_back is not None:
        return flips.astype(np.uint8)
    # X_q is selected by Z_q's image, Z_q by X_q's; the sums are small
    # integers, which a float32 product gives exactly
    select = np.roll((codes[-1, :-1] >> 1).reshape(k, n, 2 * n), n, axis=2).astype(np.float32)
    return ((select @ flips.astype(np.float32)) % 2).astype(np.uint8)


def _frame_of(paulis, n: int) -> np.ndarray:
    """The (n, len(paulis)) letter codes ``x << 1 | z`` of n-qubit Paulis,
    one column each, signs dropped."""
    x, z = _unpack([p.xbits for p in paulis], n), _unpack([p.zbits for p in paulis], n)
    return np.ascontiguousarray((x << 1 | z).T)


def _paulis_of(frame: np.ndarray, phase: np.ndarray):
    """The Paulis of an (n, columns) code frame's columns, with the phase
    exponents ``phase``: :func:`_frame_of` reversed."""
    n, columns = frame.shape[0], frame.T
    return [PauliString(n, x, z, k) for x, z, k in zip(_pack(columns >> 1), _pack(columns & 1), phase.tolist())]


class _Draws(namedtuple("_Draws", "identity dists layer qubits starts levels cdfs letters")):
    """A compiled circuit's noisy operations as the fast path's draw rows.

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


class CliffordProgram:
    """A Clifford circuit compiled against a model: the circuit's flat form
    and one :class:`GateRecord` per distinct gate, from which two parts are
    each built on first use.  ``gates`` holds per layer the gate groups of
    :func:`_gate_tables`, through which Paulis propagate with exact phase;
    ``draws`` holds the fast path's draw rows (:class:`_Draws`).

    Compile a circuit once and propagate as many Paulis through it as
    needed: ACES compiles each prefix once and propagates all of its rows'
    Paulis as one column block.  A program of circuits side by side
    (:meth:`_side_by_side`) serves stacked propagation and the fast path's
    stacked sampling and parities.  This is the one Pauli propagator;
    :func:`propagate_pauli` goes through it, and one walk of the 2n
    generators of every block through the same tables
    (:meth:`_generators`) gives each circuit's ideal outcome
    (:meth:`_ideal_bits`) and, from the first hit's layer on, the rows
    against which :func:`_fault_parities` tallies its output bits.
    """

    def __init__(self, model: GateSetModel, circuit: Circuit):
        if circuit.width != model.n:
            raise ValueError("circuit width does not match the model")
        self._compile(model, circuit._flat, circuit.gate_defs)

    def _compile(self, model: GateSetModel, flat: _Flat, gate_defs):
        self.n, self.depth, self._model, self._flat = flat.width, len(flat.lengths), model, flat
        self._records = [model.record(label, k, gate_defs) for label, k in flat.keys]

    @classmethod
    def _side_by_side(cls, model: GateSetModel, circuits) -> "CliffordProgram":
        """One program of ``circuits`` side by side (:meth:`_Flat.side_by_side`),
        on a register of ``len(circuits) * model.n`` qubits.  Its keys resolve
        through the same ``model.record`` calls as each circuit's own
        program.  A circuit with ``gate_defs`` is a ValueError: two circuits
        could define one label differently, and a stack has one record per
        label."""
        for circuit in circuits:
            if circuit.width != model.n:
                raise ValueError("circuit width does not match the model")
            if circuit.gate_defs:
                raise ValueError("circuits with gate_defs cannot be stacked")
        program = object.__new__(cls)
        program._compile(model, _Flat.side_by_side([circuit._flat for circuit in circuits], model.n), None)
        return program

    @cached_property
    def gates(self):
        return _gate_tables(self._records, self._flat)

    @cached_property
    def draws(self) -> _Draws:
        flat, n, idle_faults = self._flat.arrays, self.n, self._model._idle_faults
        dists, dist_of = [], []
        for rec in self._records:
            dist_of.append(-1 if rec.faults is None else len(dists))
            if rec.faults is not None:
                dists.append(rec.faults)
        numbers = np.array(dist_of, dtype=np.intp)[flat.key]
        noisy = numbers >= 0
        layer = flat.layer[noisy]
        numbers, qubits = numbers[noisy], flat.supports[noisy]
        levels = flat.supports.shape[1]
        if idle_faults is not None:
            idle_layer, idle_qubits = np.nonzero(self._flat.idle)
            idle_supports = np.full((len(idle_qubits), levels), n)
            idle_supports[:, 0] = idle_qubits
            # the gate rows come first, in circuit order, and the idle rows in
            # (layer, qubit) order, so a stable sort by layer puts each idle
            # row after every gate row of its layer
            layer = np.concatenate([layer, idle_layer])
            order = np.argsort(layer, kind="stable")
            layer = layer[order]
            numbers = np.concatenate([numbers, np.full(len(idle_qubits), len(dists))])[order]
            qubits = np.concatenate([qubits, idle_supports])[order]
            dists.append(idle_faults)
        cdfs = np.full((len(dists), 4**levels - 1), np.inf)
        letters = np.zeros((len(dists), 4**levels, levels), dtype=np.uint8)
        for d, (cdf, codes) in enumerate(dists):
            cdfs[d, : len(cdf) - 1] = cdf[:-1]
            letters[d, : len(codes), : codes.shape[1]] = codes
        starts = np.searchsorted(layer, np.arange(self.depth + 1))
        return _Draws(cdfs[numbers, 0], numbers, layer, qubits, starts, levels, cdfs, letters)

    def _walk(self, frame: np.ndarray, phase: np.ndarray, history: bool, start: int = 0):
        """Conjugate an (n, columns) code frame in place by every layer from
        layer ``start`` on, adding the image phase exponents to the (n,
        columns) ``phase``, unless it is None, each gate's to the row of its
        first support qubit (see :func:`_apply_gate_layer`).  With
        ``history``, return the frame before each of those layers and after
        the last, as a (depth + 1 - start, n, columns) uint8 array; else
        None.  Rows past the register's n qubits, which no gate touches,
        stay as they are."""
        codes = np.empty((self.depth + 1 - start,) + frame.shape, dtype=np.uint8) if history else None
        if history:
            codes[0] = frame
        for t, groups in enumerate(self.gates[start:]):
            _apply_gate_layer(frame, groups, phase)
            if history:
                codes[t + 1] = frame
        return codes

    def propagate(self, paulis, history: bool = False):
        """Images, with phases, of ``paulis``.  With ``history``, also each
        Pauli's letter codes ``x << 1 | z`` (I=0, Z=1, X=2, Y=3) before
        every layer and after the last, as a (depth + 1, n, len(paulis))
        uint8 array: row 0 holds ``paulis``, row depth their images."""
        frame = _frame_of(paulis, self.n)
        phase = np.zeros(frame.shape, dtype=np.int64)
        codes = self._walk(frame, phase, history)
        images = _paulis_of(frame, np.array([p.phase for p in paulis], dtype=np.int64) + phase.sum(axis=0))
        return (images, codes) if history else images

    def _generators(self) -> np.ndarray:
        """The 2n generators X_0..X_{n-1}, Z_0..Z_{n-1} of every block of
        n = ``model.n`` qubits as one (width, 2n) code frame, each block's
        generator g in column g, which :meth:`_walk` conjugates as one.  No
        gate crosses a block, so each block's images are those its
        circuit's own program gives."""
        n = self._model.n
        eye = np.eye(n, dtype=np.uint8)
        return np.tile(np.hstack([2 * eye, eye]), (self.n // n, 1))  # X_q in column q, Z_q in column n + q

    def _ideal_bits(self) -> list:
        """Per circuit of the program, its ideal outcome bits on |0...0>
        (see :func:`ideal_outcome_bits`), or None, from one walk of the
        generators.

        The outcome is definite iff every Z_q image is Z-type: |0...0> then
        goes to the computational state that those images, with their
        signs, stabilize.  The symplectic form makes the x bits of the X_q
        images the inverse transpose of the Z_q images' z bits, so Z_j is
        the product of the Z_q images whose X_q image has an x bit on qubit
        j, and bit j is the XOR of their sign bits."""
        n, frame = self._model.n, self._generators()
        phase = np.zeros(frame.shape, dtype=np.int64)
        self._walk(frame, phase, history=False)
        x = (frame >> 1).reshape(-1, n, 2 * n)  # x[i, j, g]: the x bit on qubit j of block i's image of g
        signs = (phase.reshape(-1, n, 2 * n).sum(axis=1)[:, n:, None] >> 1) & 1  # a block's phase sums its rows
        bits = ((x[:, :, :n].astype(np.int64) @ signs)[:, :, 0] & 1).astype(np.uint8)
        return [None if xi[:, n:].any() else b for xi, b in zip(x, bits)]


def _propagate_side_by_side(model: GateSetModel, circuits, paulis):
    """Per circuit, the image of its Pauli and that Pauli's letter codes
    before each layer and after the last, as a (depth + 1, n) array: what
    ``CliffordProgram(model, circuit).propagate([p], history=True)`` gives,
    with its history's one column.  The circuits run side by side as one
    program (:meth:`CliffordProgram._side_by_side`), their Paulis as one
    column on the stacked register, so each layer is walked once for all of
    them; each circuit's phase is the sum over its block of phase rows."""
    n, k = model.n, len(circuits)
    program = CliffordProgram._side_by_side(model, circuits)
    frame = _frame_of(paulis, n).T.reshape(k * n, 1)  # circuit i's Pauli on rows i * n to (i + 1) * n - 1
    phase = np.zeros((k * n, 1), dtype=np.int64)
    codes = program._walk(frame, phase, history=True).reshape(-1, k, n)
    start = np.array([p.phase for p in paulis], dtype=np.int64)
    images = _paulis_of(frame.reshape(k, n).T, start + phase.reshape(k, n).sum(axis=1))
    return [(image, codes[: circuit.depth + 1, i]) for i, (image, circuit) in enumerate(zip(images, circuits))]


def _stack_size(n: int, depth: int) -> int:
    """How many circuits of n qubits and at most ``depth`` layers one stacked
    program takes: ``_STACK_BUDGET // (n * depth)``, at least one."""
    return max(1, _STACK_BUDGET // (n * max(depth, 1)))


def ideal_outcome_bits(model: GateSetModel, circuit: Circuit):
    """Definite ideal outcome bits of a Clifford circuit C on |0...0>, or None.

    The outcome is definite iff every image ``C Z_q C^dag`` is Z-type;
    bit j is then the XOR of the sign bits of the Z_q images whose X_q
    image has an x bit on qubit j (:meth:`CliffordProgram._ideal_bits`).
    """
    return CliffordProgram(model, circuit)._ideal_bits()[0]


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
    model: GateSetModel, circuit: Circuit, shots: int, seed, ideal_bits=None, *, faults=None
) -> ShotRecord:
    """Fault-propagation sampler for definite-outcome Clifford circuits.

    Requires every gate Clifford, every error channel stochastic Pauli,
    preparation |0...0>, and a circuit whose ideal action fixes the
    computational outcome (mirror/motion-reversal structure).  The marginal
    outcome distribution matches the dense backend's.  Callers that know
    the ideal outcome (e.g. mirror generators) may pass ``ideal_bits`` to
    skip its derivation.

    ``faults`` is the circuit's (n, shots) output-bit flips and the
    generator, seeded by ``seed``, that drew them, when the caller drew
    them already (:func:`_fast_ensemble`), with ``ideal_bits``; otherwise
    the circuit is compiled here and draws them as a one-item stack of
    :func:`_fault_parities`.  Either way the generator then draws the
    readout flips.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    if faults is None:
        program = CliffordProgram(model, circuit)
        if ideal_bits is None:
            ideal_bits = program._ideal_bits()[0]
            if ideal_bits is None:
                raise ValueError("circuit outcome is not definite; use pauli_fastpath_signs")
        gen = rng(seed)
        faults = _fault_parities(program, None, shots, [gen])[0], gen
    x, gen = faults
    bits = np.asarray(ideal_bits, dtype=np.uint8)[:, None] ^ x
    for q in range(model.n):
        if q in model.confusion:
            c = model.confusion[q]
            pflip = np.where(bits[q] == 1, c[0, 1], c[1, 0])
            bits[q] ^= (gen.random(shots) < pflip).astype(np.uint8)
    # each shot's outcome as a Python int, qubit 0 the leading bit, so any
    # width fits; the counts run in ascending outcome order, which callers
    # that sum over them read
    tally = Counter(_pack(bits[::-1].T))
    counts = {format(v, f"0{model.n}b"): c for v, c in sorted(tally.items())}
    return ShotRecord(circuit, counts, shots, _seed_value(seed))


def _fast_ensemble(model: GateSetModel, circuits, shots: int, seeds, ideal_bits=None):
    """:func:`pauli_fastpath_sample` of each circuit with its seed, as a list
    in circuit order, with the faults drawn and tallied side by side.
    ``ideal_bits`` are the ideal outcome bits that every circuit shares, as
    mirror circuits and traps do; when None, each circuit's are derived.

    Without ``ideal_bits``, every stack of :func:`_fast_stacks` derives its
    circuits' bits first (:meth:`CliffordProgram._ideal_bits`), so an
    indefinite outcome raises before anything is drawn, and the stacks'
    programs are kept for the draws: one compile per stack either way.
    Each stack then draws once (:func:`_fault_parities`), every circuit
    from its own generator, and each circuit's output-bit flips and
    generator go back through :func:`pauli_fastpath_sample`, which draws
    its readout flips.  Each record is thus the one a call per circuit
    gives, and each circuit is one ``pauli_fastpath_sample`` call with its
    shots.  The seeds are integers, or one generator per circuit.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    stacks = _fast_stacks(model, circuits, shots)
    bits = [ideal_bits] * len(circuits)
    if ideal_bits is None:
        stacks = list(stacks)
        for chunk, program in stacks:
            for i, b in zip(chunk, program._ideal_bits()):
                if b is None:
                    raise ValueError("circuit outcome is not definite; use pauli_fastpath_signs")
                bits[i] = b
    out = [None] * len(circuits)
    for chunk, program in stacks:
        gens = [rng(seeds[i]) for i in chunk]
        x = _fault_parities(program, None, shots, gens)
        for i, xi, gen in zip(chunk, x, gens):
            out[i] = pauli_fastpath_sample(model, circuits[i], shots, seeds[i], bits[i], faults=(xi, gen))
    return out


def _fast_stacks(model: GateSetModel, circuits, shots: int):
    """The stacks in which the fast path runs ``circuits`` with ``shots``
    each: per stack, its circuits' indices and one program.

    Circuits of one depth run as one stacked program
    (:meth:`CliffordProgram._side_by_side`), in stacks of at most
    :func:`_stack_size` circuits whose one layer of draws fits
    ``_DRAW_BUDGET``; circuits of other depths never share a stack, as a
    shorter circuit's padded layers would draw idle faults.  A circuit with
    ``gate_defs``, or alone in its stack, runs on its own program.  Stacks
    are built one at a time, as they are taken, so a caller that does not
    keep them holds one program at a time."""
    groups = {}
    for i, circuit in enumerate(circuits):
        groups.setdefault((circuit.depth, i if circuit.gate_defs else -1), []).append(i)
    for (depth, _), members in groups.items():
        size = max(1, min(_stack_size(model.n, depth), _DRAW_BUDGET // (model.n * shots)))
        for start in range(0, len(members), size):
            chunk = members[start : start + size]
            stack = [circuits[i] for i in chunk]
            program = CliffordProgram(model, stack[0]) if len(stack) == 1 else CliffordProgram._side_by_side(model, stack)
            yield chunk, program


def pauli_fastpath_signs(
    model: GateSetModel,
    circuit: Circuit,
    measured: PauliString,
    shots: int,
    seed,
    ideal_sign: int,
    pulled_back: np.ndarray = None,
    *,
    flips=None,
) -> np.ndarray:
    """Per-shot +/-1 parity samples of a Z-type Pauli after a Clifford circuit.

    The caller supplies the measured Pauli (already rotated to Z-type by the
    circuit's final layer) and its ideal eigenvalue ``ideal_sign`` on the
    noiseless output state; returned samples are absolute measured parities,
    matching what the dense backend's counts would give.  Readout confusion
    on a measured qubit must be symmetric (``c[0, 1] == c[1, 0]``): a parity
    sample does not carry the qubit's true bit, so an asymmetric flip cannot
    be applied here, and a ValueError points to :func:`sample_counts`.

    Each shot's parity comes from its hits alone: a fault flips it iff the
    fault anticommutes, on its support, with ``measured`` pulled back to
    where the fault acts.  ``pulled_back`` gives those Paulis as a (depth +
    1, n) uint8 array of letter codes ``x << 1 | z`` (I=0, Z=1, X=2, Y=3),
    signs dropped: row t is ``measured`` pulled back through layers t to
    depth - 1, to just before layer t, and row depth is ``measured`` itself.
    Pre-gate noise at layer t reads row t and post-gate noise row t + 1.  A
    caller that has propagated the prepared Pauli through the circuit holds
    these rows already (see :func:`_pulled_back_rows`); then
    the circuit is compiled into its draw rows only.  Without them, the
    parity is the XOR, on the read qubits, of the output-bit flips that
    :func:`_fault_parities` tallies against the 2n generators, walked
    through the circuit's gate tables from the first hit: a circuit
    without one builds none.

    ``flips`` is the circuit's bits of :func:`_fault_parities` (the parity,
    or the output bits without ``pulled_back``) and the generator, seeded
    by ``seed``, that drew its faults, when the caller drew them already
    (:func:`_parity_all`); otherwise the circuit draws them as a one-item
    stack.  Either way the generator is consumed as
    :func:`pauli_fastpath_sample` consumes it: the fault draws, block by
    block, then one readout-flip draw per confused measured qubit, in qubit
    order.
    """
    read = _parity_reads(model, circuit, measured, pulled_back)
    if flips is None:
        gen = rng(seed)
        rows = None if pulled_back is None else [pulled_back]
        flips = _fault_parities(CliffordProgram(model, circuit), rows, shots, [gen])[0], gen
    bits, gen = flips
    signs = np.full(shots, ideal_sign, dtype=np.int8)
    signs[np.bitwise_xor.reduce(bits if pulled_back is not None else bits[read], axis=0) == 1] *= -1
    for q in read:
        if q in model.confusion:
            pflip = model.confusion[q][0, 1]
            signs *= np.where(gen.random(shots) < pflip, -1, 1).astype(np.int8)
    return signs


def _parity_reads(model: GateSetModel, circuit: Circuit, measured: PauliString, pulled_back) -> list:
    """The qubits a fast-path parity reads, after the checks of
    :func:`pauli_fastpath_signs`: ``measured`` is Z-type, the readout
    confusion of each qubit it reads is symmetric, and ``pulled_back``, if
    given, has one row per layer and one after the last."""
    if measured.xbits != 0:
        raise ValueError("measured Pauli must be Z-type")
    read = [q for q in range(model.n) if (measured.zbits >> q) & 1]
    for q in read:
        c = model.confusion.get(q)
        if c is not None and c[0, 1] != c[1, 0]:
            raise ValueError(
                f"asymmetric readout confusion on qubit {q} needs each shot's outcome; use sample_counts"
            )
    if pulled_back is not None and np.shape(pulled_back) != (circuit.depth + 1, model.n):
        raise ValueError(f"pulled_back must have shape {(circuit.depth + 1, model.n)}, not {np.shape(pulled_back)}")
    return read


# -- protocol-facing calls ---------------------------------------------------------

def _check_backend(backend: str):
    if backend not in ("dense", "fast"):
        raise ValueError(f"unknown backend {backend!r}; use 'dense' or 'fast'")


def sample(model: GateSetModel, circuit: Circuit, shots: int, seed, backend: str, ideal_bits=None) -> ShotRecord:
    """Bit-string counts of a circuit: :func:`sample_counts` on ``"dense"``,
    :func:`pauli_fastpath_sample` on ``"fast"``, which takes the circuit's
    definite ideal outcome from ``ideal_bits`` when given (the dense
    backend does not use it).  This is a one-item call of
    :func:`_sample_all`."""
    return _sample_all(model, [circuit], shots, [seed], backend, ideal_bits)[0]


def _sample_all(model: GateSetModel, circuits, shots: int, seeds, backend: str, ideal_bits=None):
    """:func:`sample` of each circuit with its seed, as a list in circuit
    order: on ``"dense"`` one ensemble (:func:`_sample_ensemble`), on
    ``"fast"`` one fast-path ensemble (:func:`_fast_ensemble`), which reads
    the ``ideal_bits`` all the circuits share, if given.  Each circuit gets the
    record of its own call, and no seed is drawn here, so a protocol draws
    all its circuits and seeds first and then samples them in one call."""
    _check_backend(backend)
    if backend == "fast":
        return _fast_ensemble(model, circuits, shots, seeds, ideal_bits)
    return _sample_ensemble(model, circuits, shots, seeds)


def parity_from_counts(record: ShotRecord, pauli: PauliString) -> float:
    """Mean +/-1 parity of the bits on ``pauli``'s support over a record's counts."""
    val = 0.0
    for bstr, c in record.counts.items():
        par = sum(int(bstr[q]) for q in range(pauli.n) if (pauli.pattern >> q) & 1) % 2
        val += c * (1 - 2 * par)
    return val / record.shots


def parity_mean(
    model: GateSetModel,
    circuit: Circuit,
    measured: PauliString,
    shots: int,
    seed,
    backend: str,
    ideal_sign,
    pulled_back: np.ndarray = None,
) -> float:
    """Mean measured +/-1 parity of the Z-type Pauli ``measured`` after a circuit.

    ``ideal_sign`` is the parity's value on the noiseless output.  The dense
    backend reads parities off :func:`sample_counts` and uses neither it nor
    ``pulled_back``.  The fast backend (:func:`pauli_fastpath_signs`) starts
    every shot from it, so it must be +1 or -1, as it is when the noiseless
    output is an eigenstate of ``measured``; any other value raises a
    ValueError.  ``pulled_back``, when given, holds ``measured`` pulled back
    to before each layer and after the last, as (depth + 1, n) letter codes
    ``x << 1 | z``: row t is ``measured`` pulled back to just before layer t
    and row depth is ``measured`` (see :func:`pauli_fastpath_signs`).  This
    is a one-item call of :func:`_parity_all`.
    """
    rows = None if pulled_back is None else [pulled_back]
    return _parity_all(model, [circuit], [measured], shots, [seed], backend, [ideal_sign], rows)[0]


def _parity_all(
    model: GateSetModel, circuits, measured, shots: int, seeds, backend: str, ideal_signs, pulled_back=None
):
    """:func:`parity_mean` of each circuit with its measured Pauli, seed,
    ideal sign and, unless ``pulled_back`` is None, its pulled-back rows, as
    a list in circuit order: the one parity entry point of both backends.

    On ``"dense"`` the circuits are one ensemble (:func:`_sample_ensemble`)
    and each parity is read off its counts (:func:`parity_from_counts`).
    On ``"fast"`` every circuit is checked first, so a bad ideal sign or an
    asymmetric confusion raises before anything is drawn.  Each stack of
    :func:`_fast_stacks` then draws once (:func:`_fault_parities`), every
    circuit from its own generator, and each circuit's bits (its parity, or
    its output bits without ``pulled_back``) and generator go back through :func:`pauli_fastpath_signs`, which draws its
    readout flips.  Each mean is thus the one a call per circuit gives, and
    each circuit is one ``pauli_fastpath_signs`` call with its shots.  No
    seed is drawn here, so a protocol draws all its circuits and seeds
    first and then samples them in one call."""
    _check_backend(backend)
    if backend == "dense":
        records = _sample_ensemble(model, circuits, shots, seeds)
        return [parity_from_counts(rec, m) for rec, m in zip(records, measured)]
    rows = [None] * len(circuits) if pulled_back is None else pulled_back
    signs = []
    for circuit, m, sign, r in zip(circuits, measured, ideal_signs, rows):
        if abs(abs(sign) - 1) > 1e-9:
            raise ValueError(f"ideal parity {sign} is not +1 or -1; the fast path needs an eigenstate")
        signs.append(1 if sign > 0 else -1)
        _parity_reads(model, circuit, m, r)
    out = [None] * len(circuits)
    for chunk, program in _fast_stacks(model, circuits, shots):
        gens = [rng(seeds[i]) for i in chunk]
        stack_rows = None if pulled_back is None else [rows[i] for i in chunk]
        bits = _fault_parities(program, stack_rows, shots, gens)
        for i, b, gen in zip(chunk, bits, gens):
            signed = pauli_fastpath_signs(
                model, circuits[i], measured[i], shots, seeds[i], signs[i], rows[i], flips=(b, gen)
            )
            out[i] = signed.mean()
    return out


def _pulled_back_rows(history: np.ndarray, readout: bool) -> np.ndarray:
    """The ``pulled_back`` rows (see :func:`pauli_fastpath_signs`) of a
    circuit that prepares an eigenstate of p by
    :func:`qcvv.cliffords.eigenstate_layer`, runs a body and, with
    ``readout``, ends in the :func:`qcvv.cliffords.readout_layer` of p's
    image.  ``history`` holds p's letter codes before each body layer and
    after the last, as a (body depth + 1, n) array, p in row 0.

    The measured Pauli pulled back to before the readout layer is the image,
    up to sign, and to before body layer t it is row t of ``history``; the
    preparation acts only on p's support, rotating Z onto each letter, so
    before it the measured Pauli is ``readout_pauli(p)``."""
    support = (history != 0).astype(np.uint8)  # per row, its readout_pauli's codes (Z = 1)
    return np.concatenate([support[:1], history] + ([support[-1:]] if readout else []))


def _eigenstate_parities(
    model: GateSetModel, drawn, propagated, shots: int, backend: str, keep_empty_readout: bool = False
):
    """The signed parity means of eigenstate-parity circuits, the estimates
    of BiRB, cycle benchmarking and ACES, as a list in circuit order.

    ``drawn`` holds per circuit its prepared Pauli p, the preparation layer
    and sign of :func:`qcvv.cliffords.eigenstate_layer`, its body and its
    shot seed; ``propagated`` holds per circuit p's image through the body
    and p's letter codes before each body layer and after the last, as a
    (body depth + 1, n) array.  Each circuit joins the preparation, the body
    and the :func:`qcvv.cliffords.readout_layer` of the image, left out when
    empty unless ``keep_empty_readout`` (BiRB keeps it, so idle qubits still
    take its noise).  Its ideal sign is the preparation's times the
    image's, which must be real, and its pulled-back rows come from the
    history (:func:`_pulled_back_rows`).  The circuits are sampled in one
    :func:`_parity_all` call, and each mean comes back times its ideal sign.
    """
    n = model.n
    circuits, measured, signs, rows = [], [], [], []
    for (_, prep, sign, body, _), (image, history) in zip(drawn, propagated):
        if abs(image.sign.imag) > 1e-9:
            raise RuntimeError("propagated Pauli has a complex sign")
        signs.append(sign * (1 if image.sign.real > 0 else -1))
        readout = readout_layer(image)
        keep = keep_empty_readout or bool(readout)
        circuit = Circuit(n, (prep,)).then(body)
        circuits.append(circuit.then(Circuit(n, (readout,))) if keep else circuit)
        rows.append(_pulled_back_rows(history, readout=keep))
        measured.append(readout_pauli(image))
    seeds = [seed for *_, seed in drawn]
    parities = _parity_all(model, circuits, measured, shots, seeds, backend, signs, rows)
    return [sign * mean for sign, mean in zip(signs, parities)]


def _eigenstate_stacks(
    model: GateSetModel, draw, count: int, depth: int, shots: int, backend: str, keep_empty_readout: bool = False
):
    """:func:`_eigenstate_parities` of ``count`` circuits whose bodies have at
    most ``depth`` layers, each drawn by one ``draw()`` call, which returns
    its ``drawn`` entry.  The circuits go in stacks of :func:`_stack_size`:
    a stack's circuits are drawn in turn, their bodies propagate side by
    side (:func:`_propagate_side_by_side`) and they are sampled together.
    Nothing else draws from the caller's generator, so each circuit's draws
    keep their order whatever the stack size."""
    size = _stack_size(model.n, depth)
    out = []
    for start in range(0, count, size):
        drawn = [draw() for _ in range(min(size, count - start))]
        propagated = _propagate_side_by_side(model, [body for *_, body, _ in drawn], [p for p, *_ in drawn])
        out.extend(_eigenstate_parities(model, drawn, propagated, shots, backend, keep_empty_readout))
    return out


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
