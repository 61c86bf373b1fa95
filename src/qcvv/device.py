"""Gate-set device model and circuit-execution backends.

Three backends cover complementary regimes:

* ``circuit_probabilities`` / ``sample_counts``: dense propagation of the
  state's normalized-Pauli superket (width <= 6);
* ``statevector_run``: pure-state amplitudes for unitary circuits
  (width <= 14), used for ideal XEB/QV probabilities, whose designs gather
  every circuit's unitaries in one pass (``_statevectors``);
* ``pauli_fastpath_sample`` / ``pauli_fastpath_signs``: stochastic fault
  propagation through Clifford circuits for models whose noise is
  stochastic-Pauli, vectorized over shots (tens of qubits).

Protocols reach the dense and fast backends through calls that take the
backend by name, ``"dense"`` or ``"fast"``, and raise a ValueError for any
other name: ``sample`` returns a circuit's bit-string counts and
``parity_mean`` the mean measured +/-1 parity of a Z-type Pauli, and their
ensemble forms, ``_sample_all`` and ``_parity_all``, do the same for many
circuits at once.

Noise attaches to gate labels.  Labels resolve in one order: the model's
explicit ``gates``, its ``gate_factory``, the circuit's ``gate_defs``, the
builtin names.  The error channel of a gate outside ``gates`` is the model's
``noise_rule`` channel itself, composed as post-gate error by default
(``G = E Gbar``), pre-gate behind a flag; an explicit gate's is derived from
its channel and ideal unitary.  Idle qubits in a layer receive the model's
explicit idle channel (default: identity).  Barriers between layers are hard;
nothing is ever compiled across them.

Every ``(label, arity)`` pair that a circuit uses is numbered once per
process, in order of first use, as an integer key (``_KEYS``); only the
names are kept, never a unitary.  A model compiles what the backends read
into one table per field (:meth:`GateSetModel._compiled`, ``_FIELDS``): the
ideal unitary, the error channel, the noisy PTM, the conjugation images and
phases through which Paulis propagate, and the fast path's fault
distribution.  A field
is built when a backend first reads it, for the keys of that call that it
lacks, in one pass in first-use order; a table is never written, only
replaced by a grown one.  The 11,520 ``c2_<i>`` labels are thus built per
model, and only those that its runs use, as a process-wide table of their
PTMs would take about 24 MB.  Each backend gathers its rows by key
(:func:`_gathered`), and ``resolve``, ``ideal_unitary`` and
``error_channel`` read compiled entries.  A label that a circuit's
``gate_defs`` name is built for that call alone, on a copy of the model
that resolves through them, as two circuits may define one label
differently and a table keyed by unitaries would grow without bound; the
circuits of a call that give every label they share one unitary are built
in one pass, on one copy, after the model's rows.  As keys are numbered per
process, a circuit pickles as its width, layers and ``gate_defs`` and
numbers its labels again when it is loaded, and a model pickles without its
compiled tables.

The noisy field holds, per arity, one C-ordered stack of PTMs, built for
the keys that a call lacks as one stack of ideal PTMs
(:func:`qcvv.channels.unitary_ptms`) and one stacked product with the noise
PTMs (:func:`_noisy_field`); it keeps no channel, so no PTM is held twice.
``resolve`` builds a noisy gate's channel on its PTM.  An explicit gate
resolves to its own channel, and a gate without noise to the ideal channel
of its unitary (:meth:`Channel.from_unitary`), built per call.

Readout confusion matrices are column-stochastic, ``C[i, j] = p(read i |
true j)``, applied after the ideal POVM.

Every circuit carries one flat form, which no model enters
(:class:`_Flat`): per operation its key and its support.  ``Circuit``
builds it in the one pass that checks the operations, which keeps layers
the generators built normalised as they are and normalises any other input
first; ``Circuit.then`` joins two flat forms and ``_Flat.side_by_side``
stacks several, and neither renumbers a key.  The arrays that the Clifford
paths index (padded supports and layer numbers) and the idle-qubit mask
are built from the flat form's lists on first use, so a circuit that is
only joined to another, or that the dense backend runs on a model without
an idle channel, builds none.

Every layer from outside the library goes through ``Circuit(width,
layers)``.  Circuits that library code assembles from valid parts are
built by :meth:`Circuit._assembled`, which numbers the labels and checks
nothing: BiRB bodies and mirror circuits (:class:`qcvv.rb.LayerSampler`
checks its edges once instead), eigenstate preparations and readouts, CRB
circuits (element layers of one per-width table), and the MCFE circuits
and accreditation traps built from a target checked once.  The dense
backend groups circuits by shape, their layer lengths and per-operation
supports.

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
circuits' PTMs, gathered by row from the noisy field's C-ordered PTM
stacks; a single circuit (:func:`circuit_probabilities`) is a one-item
stack.  RB
decay runs, simultaneous RB, MRB, MCFE, accreditation, state tomography's
settings and the parity circuits of :func:`_eigenstate_parities` hand the
circuits of a design, with their seeds, to :func:`_sample_ensemble`; LGST
hands its dataset to :func:`_ensemble_states`, which both share.  The
model compiles the keys that the circuits lack first, in one pass; the
circuits are then grouped by shape and each group evolves as one stack,
each item bit for bit the state that the circuit's own call gives.  Each superket then goes back through
:func:`sample_counts` and :func:`circuit_probabilities`, so each circuit
draws its seed's stream, as a call per circuit does, from the one
generator of the ensemble's :class:`_Streams`, re-keyed per circuit, and
a run still makes one ``circuit_probabilities`` call, with its shots, per
circuit, which is what a tracer that wraps those two names counts.

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
of one depth side by side (:func:`_fast_stacks`), and every circuit of a
stack draws its seed's stream from the stack's one generator
(:class:`_Streams`): re-keyed to the circuit's seed before its first
block of draws, and, where more draws follow after other circuits have
drawn, parked as its Philox state and restored for them.
Accreditation, MCFE, MRB, RB decays and volumetric grids hand their
circuits, with their seeds, to
:func:`_fast_ensemble`, which compiles each stack once, derives the
stack's ideal bits from it when the caller gives none and tallies the
stack's output bits in one :func:`_fault_parities` call; each circuit's
bits and, when readout flips follow, the generator restored to its
stream then go back through :func:`pauli_fastpath_sample`, which draws
the readout flips and tallies.  :func:`_eigenstate_parities` and DFE
hand their circuits, measured Paulis and, but for DFE, pulled-back rows
to :func:`_parity_all`, whose fast half, :func:`_fast_signs`, tallies
each stack with the same kernel; each circuit's bits and, when a read
qubit is confused, its restored stream then go back through
:func:`pauli_fastpath_signs`, which draws the readout flips.  Either way
each circuit draws the stream of ``rng(seed)``, and the per-call circuit
count is that of one circuit at a time.

A single circuit is a one-item stack.  :func:`sample_counts`,
:func:`pauli_fastpath_sample` and :func:`pauli_fastpath_signs`, called
without the keyword through which an ensemble hands a circuit back, are
one-item calls of :func:`_sample_ensemble`, :func:`_fast_ensemble` and
:func:`_fast_signs`; :func:`ideal_outcome_bits` is one of
:func:`_ideal_outcomes`.  :func:`_sample_all` and :func:`_parity_all` are
the ensemble entry points of both backends, and :func:`sample` and
:func:`parity_mean` are their one-item calls.  A one-item stack compiles
on its circuit's own flat form, ``gate_defs`` included
(:meth:`CliffordProgram._side_by_side`).

A :class:`ShotRecord` keeps the circuit it was sampled from and writes the
circuit's JSON only when ``circuit_id`` is read.
"""

from __future__ import annotations

import copy
import json
from collections import Counter, namedtuple
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import chain, islice, repeat
from operator import itemgetter

import numpy as np

from .channels import Channel, identity_channel, unitary_ptms, walsh_hadamard
from .cliffords import (
    GATE_UNITARIES,
    _pack,
    _tableau,
    _tableau_keys,
    _unpack,
    clifford_gate_factory,
    conjugation_table,
    pauli_codes,
    readout_layer,
    readout_pauli,
)
from .linalg import _rekeyed, child_seeds, kron_all, rng
from .metrics import ProbDist
from .paulis import PauliString


# Every (label, arity) pair that a circuit uses, numbered once per process in
# order of first use: the keys that flat forms and compiled tables hold.  Only
# the names are kept; ``_PAIRS[key]`` is a key's pair.
_KEYS = {}
_PAIRS = []


def _numbered(labels, arities) -> list:
    """Each operation's key, a new ``(label, arity)`` pair taking the next."""
    # the pairs are streamed, not listed, so a wide circuit leaves the
    # garbage collector no extra objects to track
    key = list(map(_KEYS.setdefault, zip(labels, arities), map(len, repeat(_KEYS))))
    if len(_PAIRS) < len(_KEYS):
        _PAIRS.extend(islice(_KEYS, len(_PAIRS), None))
    return key


class _Flat(namedtuple("_Flat", "width key supports lengths")):
    """A circuit's operations in one flat form, independent of any model.

    ``key`` holds each operation's key (see ``_KEYS``) and ``supports`` its
    qubits, in circuit order; ``lengths`` counts each layer's operations,
    empty layers included.  Built from these on first use: the read-only
    arrays that the Clifford paths index (``arrays``, an :class:`_Arrays`)
    and ``idle``, the (depth, width) mask of the qubits that no gate of a
    layer touches.
    """

    @classmethod
    def of(cls, width: int, layers) -> "_Flat":
        """The flat form of normalised layers, or None when ``layers`` are
        not normalised: a tuple of tuples of ``(str, tuple of int)`` pairs,
        each of its exact type, the tuples given.  A qubit outside the
        register or used twice in one layer is a ValueError.  Each list's
        types are checked as one set."""
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
        if qubits and (min(qubits) < 0 or max(qubits) >= width):
            raise ValueError("qubit index out of range")
        # a layer that uses a qubit twice has fewer distinct qubits than uses
        if sum(map(len, map(set, map(chain.from_iterable, map(partial(map, itemgetter(1)), layers))))) < len(qubits):
            raise ValueError("overlapping gate supports within a layer")
        return cls._built(width, layers, labels, supports)

    @classmethod
    def _built(cls, width: int, layers, labels, supports) -> "_Flat":
        """The flat form of normalised ``layers``, given their operations'
        ``labels`` (any iterable) and ``supports`` (a list) in circuit
        order; nothing is checked."""
        return cls(width, _numbered(labels, map(len, supports)), supports, list(map(len, layers)))

    @classmethod
    def side_by_side(cls, flats, n: int) -> "_Flat":
        """The flat forms of circuits on n qubits each, side by side on one
        register of ``len(flats) * n`` qubits: circuit i acts on qubits
        ``i * n`` to ``(i + 1) * n - 1``, and one shorter than the longest
        ends in empty layers.  The operations run layer by layer, circuit by
        circuit within a layer (a stable sort by layer).  Only ``lengths``
        and the read-only ``arrays`` are built, in one pass over the
        circuits' lists; ``key`` and ``supports`` are None, so the result is
        never joined.  One circuit's own ``arrays`` are those of it alone."""
        ops = [len(flat.key) for flat in flats]
        circuit = np.repeat(np.arange(len(flats)), ops)
        key = np.fromiter(chain.from_iterable(flat.key for flat in flats), dtype=np.intp, count=len(circuit))
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
        out = cls(width, None, None, np.bincount(layer, minlength=depth).tolist())
        out.__dict__["arrays"] = arrays = _Arrays(key[order], arity[order], padded[order], layer[order])
        for a in arrays:
            a.flags.writeable = False  # cached with the flat form
        return out

    def then(self, other: "_Flat") -> "_Flat":
        """``self`` followed by ``other``, on the wider of the two registers."""
        return _Flat(max(self.width, other.width), self.key + other.key, self.supports + other.supports, self.lengths + other.lengths)

    @cached_property
    def arrays(self) -> "_Arrays":
        return _Flat.side_by_side([self], self.width).arrays

    @cached_property
    def idle(self) -> np.ndarray:
        busy = np.zeros((len(self.lengths), self.width + 1), dtype=bool)
        busy[self.arrays.layer[:, None], self.arrays.supports] = True
        return ~busy[:, : self.width]


class _Arrays(namedtuple("_Arrays", "key arity supports layer")):
    """A flat form as arrays, per operation: its key, its arity, its
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
    pairs as the generators build them, are kept as they are.  Any other
    sequence or iterable of layers becomes a tuple of tuples first, and
    only when a label or qubit is not of its normalised type is every
    label and qubit normalised.

    A circuit is built one of two ways, or joined from two by
    :meth:`then`, and the circuit, its flat form, equality, hash, pickle and
    JSON are the same whichever it takes:

    * ``Circuit(width, layers)`` checks every operation, as above; every
      layer that comes from outside the library goes through it;
    * :meth:`_assembled` numbers the labels of normalised layers that
      library code assembled from valid parts (BiRB bodies, mirror and CRB
      circuits, eigenstate preparations and readouts, MCFE circuits and
      accreditation traps) and checks nothing.
    """

    width: int
    layers: tuple
    gate_defs: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self):
        layers = self.layers
        if type(layers) is not tuple or set(map(type, layers)) - {tuple}:
            layers = tuple(map(tuple, layers))  # any iterable of layers, each any iterable
        flat = _Flat.of(self.width, layers)
        if flat is None:  # some label or qubit is not of its normalised type
            layers = tuple([tuple([(str(lbl), tuple(map(int, qs))) for lbl, qs in layer]) for layer in layers])
            flat = _Flat.of(self.width, layers)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "_flat", flat)

    @classmethod
    def _assembled(cls, width: int, layers, gate_defs=None) -> "Circuit":
        """A circuit of normalised ``layers`` that library code assembled
        from valid parts; nothing is checked, and its flat form is the one
        the checked constructor builds."""
        ops = list(chain.from_iterable(layers))
        flat = _Flat._built(width, layers, map(itemgetter(0), ops), list(map(itemgetter(1), ops)))
        return cls._unchecked(width, layers, flat, gate_defs)

    def __reduce__(self):  # keys are numbered per process, so a loaded circuit numbers its labels again
        return Circuit._assembled, (self.width, self.layers, self.gate_defs)

    @classmethod
    def _unchecked(cls, width: int, layers, flat: _Flat, gate_defs=None) -> "Circuit":
        """A circuit with these fields, set as given."""
        out = object.__new__(cls)
        object.__setattr__(out, "width", width)
        object.__setattr__(out, "layers", layers)
        object.__setattr__(out, "gate_defs", {} if gate_defs is None else gate_defs)
        object.__setattr__(out, "_flat", flat)
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
        return Circuit._unchecked(max(self.width, other.width), self.layers + other.layers, self._flat.then(other._flat), defs)

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


class _Table(namedtuple("_Table", "row entries")):
    """One compiled field of a model.  ``entries`` holds, per arity, the
    field's arrays, each with one entry per compiled key along its first
    axis; ``row[key]`` is the key's entry in its arity's arrays, or -1, for
    every key registered when the table was last grown.  A table is never
    written: the model replaces it with a grown one."""



def _objects(items) -> np.ndarray:
    return np.fromiter(items, dtype=object, count=len(items))


class GateSetModel:
    """Native preparation, labeled gate channels, POVM, optional confusion.

    Each label resolves through one order: ``gates`` (label -> (Channel,
    arity), explicitly modeled gates), then ``gate_factory`` (label ->
    unitary or None; default: the enumerated-Clifford ``c1_<i>``/``c2_<i>``
    factory), then a circuit's inline ``gate_defs``, then the builtin
    Clifford names.  Outside ``gates`` the error channel is
    ``noise_rule(label, arity)`` itself (identity when it returns None),
    attached to the ideal unitary.  An explicit gate's ideal unitary is its
    channel's ``unitary`` or, failing that, the one the rest of the order
    gives; its error channel is derived as noisy * ideal^-1.  ``confusion``
    maps qubits ``0..n-1`` to readout matrices; any other key is a ValueError.
    A gauged model (:func:`apply_gauge`) resolves only its explicit gates and
    takes no idle channel.

    The model compiles what the backends read into one table per field
    (:meth:`_compiled`, see ``_FIELDS``), built for the keys that a call
    uses when it first reads them; a label that a circuit's ``gate_defs``
    name is built for that call alone (:func:`_gathered`).
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
        self._defs = None  # the gate_defs that a copy of :meth:`_defined` resolves through
        self._tables = {}
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
    def _spec(self, label: str, arity: int = None):
        """The label's unitary (None when unknown), its explicit channel
        (None outside ``gates``) and its arity, checked against ``arity``
        when given."""
        if self._effect_transform is not None and label not in self.gates:
            raise ValueError(f"a gauged model resolves only its explicit gates, not {label!r}")
        if label in self.gates:
            explicit, k = self.gates[label]
            if explicit.dim != 2**k:
                raise ValueError(f"gate {label!r} dimension does not match its support")
            u = self._unitary(label) if explicit.unitary is None else explicit.unitary
        else:
            explicit, u = None, self._unitary(label)
            if u is None:
                raise KeyError(f"unknown gate label {label!r}")
            k = len(u).bit_length() - 1
        if arity is not None and arity != k:
            raise ValueError(f"gate {label!r} acts on {k} qubits, used on {arity}")
        return (None if u is None else np.asarray(u, dtype=complex)), explicit, k

    def _unitary(self, label: str):
        """The label's unitary from ``gate_factory``, ``gate_defs`` or the
        builtin names, in that order, or None."""
        u = self.gate_factory(label) if self.gate_factory else None
        if u is not None:
            return u
        u = self._defs.get(label) if self._defs else None
        if u is not None:
            return u
        return GATE_UNITARIES.get(label)

    def _defined(self, gate_defs) -> "GateSetModel":
        """A copy of this model, with no compiled table, that resolves labels
        through ``gate_defs`` too."""
        out = copy.copy(self)
        out._defs = gate_defs
        return out

    def __getstate__(self):  # compiled rows are indexed by this process's keys (``_KEYS``)
        return {**self.__dict__, "_tables": {}}

    def _compiled(self, field: str, keys) -> _Table:
        """The table of ``field``, after the keys among ``keys`` that it
        lacks are built, in one pass, in first-use order (``_FIELDS``)."""
        table, keys = self._tables.get(field, _Table(np.zeros(0, dtype=np.intp), {})), np.asarray(keys, dtype=np.intp)
        if len(table.row) == len(_KEYS) and (table.row[keys] >= 0).all():
            return table
        row = np.concatenate([table.row, np.full(len(_KEYS) - len(table.row), -1, dtype=np.intp)])
        entries, groups = dict(table.entries), {}
        for key in dict.fromkeys(keys[row[keys] < 0].tolist()):
            groups.setdefault(_PAIRS[key][1], []).append(key)
        for arity, group in groups.items():
            built, old = _FIELDS[field](self, group, arity), entries.get(arity)
            row[group] = np.arange(len(group)) + (0 if old is None else len(old[0]))
            entries[arity] = built if old is None else tuple(map(np.concatenate, zip(old, built)))
        table = self._tables[field] = _Table(row, entries)
        return table

    def _entry(self, field: str, label: str, arity: int, gate_defs: dict = None):
        """The label's compiled entry of ``field`` (:func:`_firsts`)."""
        return _firsts(self, field, _numbered([label], [arity]), gate_defs)[0]

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
        """The gate's noisy channel: an explicit gate's own; without noise,
        :meth:`Channel.from_unitary`'s; else one built on its compiled PTM,
        with the unitary that :meth:`Channel.compose` gives."""
        u, explicit, _ = (self._defined(gate_defs) if gate_defs else self)._spec(label, arity)
        if explicit is not None:
            return explicit
        error = self._entry("error", label, arity, gate_defs)
        if error is None:
            return Channel.from_unitary(u)
        v = error.unitary
        return Channel(self._entry("noisy", label, arity, gate_defs), None if v is None else u @ v if self.pre_gate_noise else v @ u)

    def ideal_unitary(self, label: str, gate_defs: dict = None) -> np.ndarray:
        arity = (self._defined(gate_defs) if gate_defs else self)._spec(label)[2]
        return self._entry("ideal", label, arity, gate_defs)

    def error_channel(self, label: str, arity: int, gate_defs: dict = None) -> Channel:
        """The gate's error channel relative to its ideal unitary."""
        error = self._entry("error", label, arity, gate_defs)
        return identity_channel(arity) if error is None else error

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


def _ideal_field(model: GateSetModel, keys, arity: int):
    ideal = [model._spec(_PAIRS[key][0], arity)[0] for key in keys]
    for key, u in zip(keys, ideal):
        if u is None:
            raise KeyError(f"gate {_PAIRS[key][0]!r} has no known unitary")
    return (_objects(ideal),)


def _error_field(model: GateSetModel, keys, arity: int):
    """Per key, its error channel, or None where the noise rule gives none."""
    out = []
    for key in keys:
        explicit = model._spec(_PAIRS[key][0], arity)[1]
        if explicit is None:
            out.append(model.noise_rule(_PAIRS[key][0], arity) if model.noise_rule else None)
        else:
            ideal = unitary_ptms(_firsts(model, "ideal", [key])[0][None])[0]
            out.append(Channel(ideal.T @ explicit.ptm if model.pre_gate_noise else explicit.ptm @ ideal.T))
    return (_objects(out),)


# PTM entries that one stacked product of :func:`_noisy_field` builds at
# most: 64 two-qubit or 1,024 one-qubit channels.  It is smaller than
# ``_ENSEMBLE_BUDGET`` because each entry of one stacked
# :func:`qcvv.channels.unitary_ptms` call holds about ten floats of complex
# temporaries while it is built
_NOISY_BUDGET = 1 << 14


def _noisy_field(model: GateSetModel, keys, arity: int):
    """Per key, its noisy PTM, as one C-ordered stack: an explicit gate's
    own, and for any other gate its ideal PTM, from stacked
    :func:`unitary_ptms` calls (slice for slice those of
    :meth:`Channel.from_unitary`), composed with its noise PTM, if any, by
    stacked products, ``noise @ ideal`` (``ideal @ noise`` with pre-gate
    noise), in stacks of at most ``_NOISY_BUDGET`` PTM entries.  No channel
    is kept; :meth:`GateSetModel.resolve` builds one on its PTM."""
    specs, pre = [model._spec(_PAIRS[key][0], arity) for key in keys], model.pre_gate_noise
    plain = [i for i, (_, explicit, _) in enumerate(specs) if explicit is None]
    noise = dict(zip(plain, _firsts(model, "error", [keys[i] for i in plain])))
    ptms = np.empty((len(keys), 4**arity, 4**arity))
    for i, (_, explicit, _) in enumerate(specs):
        if explicit is not None:
            ptms[i] = explicit.ptm
    size = max(1, _NOISY_BUDGET // 16**arity)
    for chunk in (plain[start : start + size] for start in range(0, len(plain), size)):
        ptms[chunk] = unitary_ptms(np.stack([specs[i][0] for i in chunk]))
        composed = [i for i in chunk if noise[i] is not None]
        if composed:
            noises = np.stack([noise[i].ptm for i in composed])
            ptms[composed] = ptms[composed] @ noises if pre else noises @ ptms[composed]
    return (ptms,)


def _conjugation_field(model: GateSetModel, keys, arity: int):
    """Per key, the uint8 image table of each support qubit and the phase
    exponents of :func:`qcvv.cliffords.conjugation_table`, one array each,
    from the tableau keys of all the keys' ideal unitaries in one pass."""
    tables = [conjugation_table(_tableau(arity, key)) for key in _tableau_keys(np.stack(_firsts(model, "ideal", keys)))]
    return tuple(map(np.stack, zip(*[(*images, phases) for images, phases in tables])))


def _faults_field(model: GateSetModel, keys, arity: int):
    """Per key, the fast path's fault distribution of its error channel
    (:func:`_noise_dist`), or None."""
    errors = _firsts(model, "error", keys)
    return (_objects([_noise_dist((identity_channel(arity) if e is None else e).ptm, _PAIRS[key][0]) for key, e in zip(keys, errors)]),)


# Each compiled field and its builder, ``build(model, keys, arity)``, which
# returns per key of one arity its entries, one array per item.  Fields read
# other fields: ``noisy`` and ``faults`` read ``error``, and ``conjugation``
# and an explicit gate's ``error`` read ``ideal``.
_FIELDS = {
    "ideal": _ideal_field, "error": _error_field, "noisy": _noisy_field,
    "conjugation": _conjugation_field, "faults": _faults_field,
}


def _gathered(model: GateSetModel, field: str, parts):
    """``field``'s arrays, per arity, for one call, and per part the row of
    each of its keys in them.

    ``parts`` holds, per circuit or per stack of circuits without
    ``gate_defs``, its operations' keys and its ``gate_defs``.  The model
    compiles every key of every part in one pass (:meth:`GateSetModel._compiled`),
    but for a key whose label the part's ``gate_defs`` name.  Those are
    built for this call alone, after the model's rows, on a copy of the
    model that resolves through the ``gate_defs`` (:meth:`GateSetModel._defined`):
    one copy and one pass for each run of parts that give every label they
    share the same unitary, so the parts of a QV or XEB ensemble, whose
    labels differ, take one."""
    parts = [(np.asarray(keys, dtype=np.intp), defs) for keys, defs in parts]
    own = [np.array([_PAIRS[key][0] in defs for key in keys.tolist()] if defs else [False] * len(keys), dtype=bool) for keys, defs in parts]
    table = model._compiled(field, np.concatenate([np.zeros(0, dtype=np.intp)] + [keys[~mine] for (keys, _), mine in zip(parts, own)]))
    rows, runs = [table.row[keys] for keys, _ in parts], []  # per run, its labels' unitaries and its parts
    for i, ((keys, defs), mine) in enumerate(zip(parts, own)):
        used = {_PAIRS[key][0]: defs[_PAIRS[key][0]] for key in keys[mine].tolist()} if defs else None
        if used and (not runs or any(runs[-1][0].get(label, u) is not u for label, u in used.items())):
            runs.append(({}, []))
        if used:
            runs[-1][0].update(used)
            runs[-1][1].append(i)
    entries = {arity: [arrays] for arity, arrays in table.entries.items()}
    for used, members in runs:
        built = model._defined(used)._compiled(field, np.concatenate([parts[i][0][own[i]] for i in members]))
        start = {arity: sum(len(arrays[0]) for arrays in entries.setdefault(arity, [])) for arity in built.entries}
        for arity, arrays in built.entries.items():
            entries[arity].append(arrays)
        for i in members:
            rows[i][own[i]] = [built.row[key] + start[_PAIRS[key][1]] for key in parts[i][0][own[i]].tolist()]
    return {arity: arrays[0] if len(arrays) == 1 else tuple(map(np.concatenate, zip(*arrays))) for arity, arrays in entries.items()}, rows


def _firsts(model: GateSetModel, field: str, keys, gate_defs: dict = None) -> list:
    """Per key, its entry of ``field``'s first array (:func:`_gathered`)."""
    entries, (rows,) = _gathered(model, field, [(keys, gate_defs)])
    return [entries[_PAIRS[key][1]][0][row] for key, row in zip(keys, rows.tolist())]


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


def _dense_rows(model: GateSetModel, circuits):
    """The noisy entries of ``circuits``, per arity, and per circuit the row
    of each of its operations in them (:func:`_gathered`); a circuit the
    dense backend cannot run raises."""
    if any(circuit.width != model.n for circuit in circuits):
        raise ValueError("circuit width does not match the model")
    if circuits and model.n > DENSE_WIDTH_CAP:
        raise ValueError(f"dense backend capped at width {DENSE_WIDTH_CAP}")
    return _gathered(model, "noisy", [(circuit._flat.key, circuit.gate_defs) for circuit in circuits])


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


def _dense_states(model: GateSetModel, circuits, entries, rows) -> np.ndarray:
    """The superkets, shaped ``(k,) + (4,) * n``, that k circuits of one
    shape (the same layer lengths and per-operation supports) leave; one
    circuit is a one-item stack.  ``entries`` and ``rows`` are the noisy
    entries and the circuits' rows of :func:`_dense_rows`, so circuits
    whose ``gate_defs`` give one label different gates keep their own.

    At each operation the circuits' PTMs are gathered from the stack of its
    arity into a C-ordered (k, d, d) stack and applied by
    :func:`_apply_stacked`; each layer's gates apply in order, then the
    model's idle channel, if any, on the shape's idle qubits in qubit
    order."""
    flat, k, index = circuits[0]._flat, len(circuits), np.array(rows)
    states = np.repeat(model._superket[None], k, axis=0)
    ops = iter(enumerate(flat.supports))
    for length, idle_qubits in zip(flat.lengths, _idle_qubits(model, flat)):
        for j, qubits in islice(ops, length):
            states = _apply_stacked(states, entries[len(qubits)][0][index[:, j]], qubits)
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


@lru_cache(maxsize=None)
def _outcome_labels(n: int) -> tuple:
    """The 2**n bit strings of n qubits, in outcome order."""
    return tuple(format(i, f"0{n}b") for i in range(2**n))


def circuit_probabilities(model: GateSetModel, circuit: Circuit, *, superket: np.ndarray = None):
    """Outcome distribution over bit strings from the dense PTM backend.

    ``superket`` is the state the circuit leaves, when the caller evolved it
    already (:func:`_sample_ensemble`); otherwise the circuit evolves as a
    one-item stack (:func:`_dense_states`).  The probabilities must sum to
    1 within 1e-7, a NaN sum failing too; they are then clipped at 0 and
    normalised, so the distribution skips :class:`ProbDist`'s re-check."""
    if superket is None:
        superket = _dense_states(model, [circuit], *_dense_rows(model, [circuit]))[0]
    flat = superket.reshape(-1)
    if model._effect_transform is not None:
        flat = model._effect_transform @ flat
    probs = model._effects @ flat
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-7:
        raise ValueError(f"distribution normalizes to {total}; model is not TP")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return ProbDist._checked(list(_outcome_labels(model.n)), probs)


def _seed_value(seed) -> int:
    """The seed a :class:`ShotRecord` stores: the integer, or -1 for a Generator."""
    return -1 if isinstance(seed, np.random.Generator) else int(seed)


class _Streams:
    """The streams of ``seeds`` from one Philox generator.  ``at(j)`` is a
    generator that draws as ``rng(seeds[j])`` does from where seed j's draws
    left off: the one generator, re-keyed (:func:`qcvv.linalg._rekeyed`)
    for seed j's first draw or restored to its parked state for a later
    one.  ``park(j, last)`` keeps that state, a ``bit_generator.state``
    read, while other seeds draw; it parks nothing after a ``last`` draw
    unless ``tail[j]`` says more draws follow (readout flips), and nothing
    for a Generator seed, which ``at`` returns as it is.
    """

    def __init__(self, seeds, tail=()):
        self._seeds, self._tail, self._parked, self._gen = seeds, tail, {}, rng(0)

    def at(self, j: int) -> np.random.Generator:
        state = self._parked.pop(j, None)
        if state is None:
            return _rekeyed(self._gen, self._seeds[j])
        self._gen.bit_generator.state = state
        return self._gen

    def park(self, j: int, last: bool):
        if not isinstance(self._seeds[j], np.random.Generator) and (not last or self._tail[j]):
            self._parked[j] = self._gen.bit_generator.state


def sample_counts(model: GateSetModel, circuit: Circuit, shots: int, seed, *, superket: tuple = None) -> ShotRecord:
    """Multinomial draw from the dense backend's distribution, with the
    generator of ``rng(seed)``: a one-item call of :func:`_sample_ensemble`.

    ``superket`` is the state the circuit leaves and a generator that
    draws as ``rng(seed)`` does, with which the ensemble hands each circuit
    back here; the state passes to :func:`circuit_probabilities`.  The
    record stores ``seed``."""
    if superket is None:
        return _sample_ensemble(model, [circuit], shots, [seed])[0]
    state, gen = superket
    dist = circuit_probabilities(model, circuit, superket=state)
    draws = gen.multinomial(shots, dist.probs)
    counts = {lbl: c for lbl, c in zip(dist.outcomes, draws.tolist()) if c}
    return ShotRecord(circuit, counts, shots, _seed_value(seed))


# Doubles that one stack of :func:`_sample_ensemble` holds per array: its
# superkets, or the PTMs gathered for one operation.
_ENSEMBLE_BUDGET = 1 << 16


def _sample_ensemble(model: GateSetModel, circuits, shots: int, seeds):
    """:func:`sample_counts` of each circuit with its seed, as a list in
    circuit order, with the dense states evolved side by side
    (:func:`_ensemble_states`).  Each superket goes through
    :func:`sample_counts` with its circuit's stream (:class:`_Streams`):
    for an integer seed, the one generator of this call re-keyed to that
    seed, as each circuit's draw ends before the next one's starts, so no
    state is parked; a Generator seed as it is.  Each record is thus the
    one that a call per circuit gives, and each circuit is one
    ``circuit_probabilities`` call.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    out, streams = [None] * len(circuits), _Streams(seeds)
    for i, state in _ensemble_states(model, circuits):
        out[i] = sample_counts(model, circuits[i], shots, seeds[i], superket=(state, streams.at(i)))
    return out


def _ensemble_states(model: GateSetModel, circuits):
    """Each circuit's index and the superket it leaves, stack by stack, each
    bit for bit the state of the circuit's own :func:`circuit_probabilities`
    call.

    The model compiles the noisy PTMs that the circuits' keys lack first,
    in one pass (:func:`_dense_rows`), bit for bit those of a pass per
    circuit.  Circuits of one shape, the same layer lengths and
    per-operation supports and hence the same idle qubits, then evolve as
    one superket stack (:func:`_dense_states`), in stacks that
    ``_ENSEMBLE_BUDGET`` bounds; a circuit alone in its shape is a one-item
    stack.  A stack is evolved only when the previous one's states have all
    been yielded.
    """
    entries, rows = _dense_rows(model, circuits)
    groups = {}
    for i, circuit in enumerate(circuits):
        groups.setdefault((tuple(circuit._flat.lengths), tuple(circuit._flat.supports)), []).append(i)
    for (_, supports), members in groups.items():
        arity = max(map(len, supports), default=0)
        size = max(1, _ENSEMBLE_BUDGET // max(4**model.n, 16**arity))
        for start in range(0, len(members), size):
            chunk = members[start : start + size]
            yield from zip(chunk, _dense_states(model, [circuits[i] for i in chunk], entries, [rows[i] for i in chunk]))


def sample_counts_drifting(model_at, circuit: Circuit, shots: int, seed, segments: int = 16) -> ShotRecord:
    """Drift fixture: ``model_at(t)`` gives the model at scaled time t in [0, 1].

    Shots are split into ``segments`` equal batches along the schedule; this
    is a test harness for rastering and model-violation studies, not a
    physics claim.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
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

def _statevectors(model: GateSetModel, circuits):
    """Each circuit's :func:`statevector_run` amplitudes, in circuit order;
    the ideal unitaries of all of them are gathered in one pass
    (:func:`_gathered`), so the inline gates of a QV or XEB design are
    resolved on one copy of the model."""
    if any(circuit.width > STATEVECTOR_WIDTH_CAP for circuit in circuits):
        raise ValueError(f"statevector backend capped at width {STATEVECTOR_WIDTH_CAP}")
    entries, rows = _gathered(model, "ideal", [(circuit._flat.key, circuit.gate_defs) for circuit in circuits])
    for circuit, row in zip(circuits, rows):
        psi = np.zeros((1,) + (2,) * circuit.width, dtype=complex)
        psi.flat[0] = 1.0
        for qubits, r in zip(circuit._flat.supports, row.tolist()):
            psi = _apply_stacked(psi, entries[len(qubits)][0][r], qubits)
        yield psi.reshape(-1)


def statevector_run(circuit: Circuit, model: GateSetModel = None) -> np.ndarray:
    """Amplitudes of a unitary circuit applied to |0...0>."""
    return next(_statevectors(GateSetModel(circuit.width) if model is None else model, [circuit]))


def _ideal_distributions(model: GateSetModel, circuits):
    """Each circuit's :func:`ideal_probabilities`, from :func:`_statevectors`."""
    for circuit, amps in zip(circuits, _statevectors(model, circuits)):
        p = np.abs(amps) ** 2
        yield ProbDist(list(_outcome_labels(circuit.width)), p / p.sum())


def ideal_probabilities(circuit: Circuit, model: GateSetModel = None):
    return next(_ideal_distributions(GateSetModel(circuit.width) if model is None else model, [circuit]))


# -- stochastic-Pauli fast path ------------------------------------------------

# Frames hold one 2-bit letter code per qubit, ``x << 1 | z`` (I=0, Z=1,
# X=2, Y=3), as an (n, shots) uint8 array, so that a gate's gather reads and
# writes whole rows.  A k-qubit gate reads the codes of its support as one
# 2k-bit index, qubit i of the support in bits 2i+1 (x) and 2i (z), and
# gathers each support qubit's new code from that qubit's uint8 image table,
# the layout of :func:`qcvv.cliffords.conjugation_table`.

def _gate_tables(entries, rows, flat: _Flat):
    """Per layer, a circuit's gates grouped by arity k as ``(rows, offsets,
    images, phases)``, from its flat form and, per arity, the compiled
    conjugation tables of :func:`_conjugation_field` with each operation's
    row in them (:func:`_gathered`): k row arrays of the g gates' support
    qubits, row i holding each gate's support qubit i; each gate's (g, 1)
    offset into the flat tables of the k-qubit gates; and those tables, as
    k uint8 image tables, table i holding the new letter code of support
    qubit i, and the phase exponents.  Gates in one layer act on disjoint
    qubits, so the order of a layer's groups does not matter."""
    layers, arrays = [[] for _ in flat.lengths], flat.arrays
    for k in sorted(entries):
        *images, phases = (a.reshape(-1) for a in entries[k])
        sel = np.flatnonzero(arrays.arity == k)
        offsets = (rows[sel] * 4**k)[:, None]
        support = list(np.ascontiguousarray(arrays.supports[sel, :k].T))
        bounds = np.searchsorted(arrays.layer[sel], np.arange(len(layers) + 1)).tolist()
        for t, (a, b) in enumerate(zip(bounds, bounds[1:])):
            if a < b:
                layers[t].append((tuple([row[a:b] for row in support]), offsets[a:b], images, phases))
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
    distribution.  Hits come in row-major order of ``draws``, as
    ``np.nonzero`` gives them; :func:`_hit_blocks` searches rows in an order
    of its own and maps them back, so its callers get hits in no set order.
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


def _hit_blocks(program: "CliffordProgram", shots: int, streams):
    """The hits (see :func:`_search_hits`) of a stack's draws, block by block.

    ``program`` holds k circuits of ``program._model.n`` qubits each, side
    by side (:meth:`CliffordProgram._side_by_side`), all of one depth; one
    circuit is a one-item stack on its own program.  ``streams`` is the
    stack's :class:`_Streams`, circuit j's at ``streams.at(j)``, or a list
    of k generators, each drawn from as it is.  Layers run in blocks of
    ``_DRAW_BUDGET // (width * shots)`` layers (at least one), width the
    stacked register's; a layer has at most width draw rows, so a block
    draws at most that many doubles.  In each block every circuit draws
    its own rows from its own stream, in one ``random`` call, the same
    stream as one call per layer: each circuit draws what its own program
    draws.  The stack's one generator passes from circuit to circuit, so
    each circuit's stream is parked after its run of a block, unless the
    block is the last and no readout flips follow (``park(j, last)``).  A
    stable partition of the stacked rows by block (``qubits[:, 0] // n``),
    ``order``, gives each circuit's rows in its own order, since within a
    layer the stacked rows run through the gates circuit by circuit, then
    through the idle qubits in qubit order.  Each circuit draws in place,
    ``streams.at(j).random(out=draws[a:b])``, into its own
    contiguous run of the block's draws, which thus hold the stacked rows
    ``order``; they are searched against ``identity[order]`` and
    ``dists[order]``, and each hit's row maps back as ``order[row]``.  Each
    block yields its hits' rows (numbered across the stack, grouped by
    circuit, so in no layer order), columns and fault indices; every
    block's hits lie in later layers than any earlier block's.
    """
    if not isinstance(streams, _Streams):  # a list of generators, each drawn from as it is
        streams = _Streams(streams)
    width, depth, d, n = program.n, program.depth, program.draws, program._model.n
    span = max(1, _DRAW_BUDGET // (width * shots))
    owner = d.qubits[:, 0] // n
    for t0 in range(0, depth, span):
        t1 = min(t0 + span, depth)
        r0, r1 = d.starts[t0], d.starts[t1]
        # row i of ``draws`` is stacked row order[i]: each circuit's rows,
        # in its own order, form one contiguous run, into which it draws
        order = np.argsort(owner[r0:r1], kind="stable") + r0
        bounds = np.cumsum(np.bincount(owner[r0:r1], minlength=width // n)).tolist()
        draws = np.empty((r1 - r0, shots))
        for j, (a, b) in enumerate(zip([0] + bounds, bounds)):
            streams.at(j).random(out=draws[a:b])
            streams.park(j, t1 == depth)
        rows, cols, idx = _search_hits(draws, d.identity[order], d.dists[order], d.cdfs, d.levels)
        del draws  # freed before the next block's are drawn, so one block's draws are held at a time
        yield order[rows], cols, idx


def _fault_parities(program: "CliffordProgram", pulled_back, shots: int, streams) -> np.ndarray:
    """Per circuit of a stack (see :func:`_hit_blocks`), each drawing its
    stream of ``streams``, the per-shot bits (0 or 1) that its faults
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
    are the 2n generators of every block, walked from the earliest hit's
    layer t0 (:meth:`CliffordProgram._generators`): the least layer of the
    first block's hits, which come grouped by circuit, not by layer, while
    later blocks hold later layers only.  Output bit j flips iff the
    faults anticommute with Z_j pulled back, which is, up to phase, the
    product of the generators that the input Pauli Q_j = U^dag Z_j U selects
    (U the layers from t0 on).  Conjugation keeps the symplectic form, so
    Q_j's x bit on qubit q is the form of Z_j with U Z_q U^dag, the x bit on
    qubit j of that image, and its z bit on q is the same with X_q: one GF(2)
    product per circuit with the x bits of its final generator images maps
    its 2n generator parities to its n output bits.
    """
    d, n, k = program.draws, program._model.n, program.n // program._model.n
    shift = 0 if program._model.pre_gate_noise else 1
    codes = None
    for rows, cols, idx in _hit_blocks(program, shots, streams):
        if not len(rows):
            continue
        if codes is None:
            # row t - t0 of ``codes`` is row t; its spare qubit, all identity, takes the padding
            if pulled_back is None:
                # a later block's hits all lie in later layers than this block's
                t0 = int(d.layer[rows].min())
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
    """A Clifford circuit compiled against a model: the circuit's flat form,
    from which two parts are each built on first use, from the model's
    compiled tables (:func:`_gathered`).  ``gates`` holds per layer the gate
    groups of :func:`_gate_tables`, through which Paulis propagate with
    exact phase; ``draws`` holds the fast path's draw rows (:class:`_Draws`).

    Compile a circuit once and propagate as many Paulis through it as
    needed: ACES compiles each prefix once and propagates all of its rows'
    Paulis as one column block.  A program of circuits side by side
    (:meth:`_side_by_side`) serves stacked propagation and the fast path's
    stacked sampling and parities.  This is the one Pauli propagator and
    the one code that composes gates into a Clifford:
    :func:`propagate_pauli` goes through it,
    :func:`qcvv.cycles.cycle_tableau` reads a layer's tableau off the
    images of the 2n generators, and one walk of the 2n
    generators of every block through the same tables
    (:meth:`_generators`) gives each circuit's ideal outcome
    (:meth:`_ideal_bits`) and, from the first hit's layer on, the rows
    against which :func:`_fault_parities` tallies its output bits.
    """

    def __init__(self, model: GateSetModel, circuit: Circuit):
        self._compile(model, [circuit])

    def _compile(self, model: GateSetModel, circuits):
        """Compile ``circuits`` side by side (see :meth:`_side_by_side`)."""
        if any(circuit.width != model.n for circuit in circuits):
            raise ValueError("circuit width does not match the model")
        if len(circuits) > 1 and any(circuit.gate_defs for circuit in circuits):
            raise ValueError("circuits with gate_defs cannot be stacked")
        flat = circuits[0]._flat if len(circuits) == 1 else _Flat.side_by_side([circuit._flat for circuit in circuits], model.n)
        # a stack of two or more has no gate_defs, so the first circuit's are the stack's
        self.n, self.depth, self._model, self._flat = flat.width, len(flat.lengths), model, flat
        self._defs = circuits[0].gate_defs

    @classmethod
    def _side_by_side(cls, model: GateSetModel, circuits) -> "CliffordProgram":
        """One program of ``circuits`` side by side (:meth:`_Flat.side_by_side`),
        on a register of ``len(circuits) * model.n`` qubits, whose keys
        read the same compiled entries as each circuit's own program.  One
        circuit is a one-item stack on its own flat form and ``gate_defs``:
        the program ``CliffordProgram(model, circuit)`` builds.  Two or more
        with ``gate_defs`` are a ValueError: two circuits could define one
        label differently, and a stack has one entry per key."""
        program = object.__new__(cls)
        program._compile(model, circuits)
        return program

    @cached_property
    def gates(self):
        entries, (rows,) = _gathered(self._model, "conjugation", [(self._flat.arrays.key, self._defs)])
        return _gate_tables(entries, rows, self._flat)

    @cached_property
    def draws(self) -> _Draws:
        flat, n, idle_faults = self._flat.arrays, self.n, self._model._idle_faults
        levels = flat.supports.shape[1]
        keys, inverse = np.unique(flat.key, return_inverse=True)
        dists, dist_of = [], []
        for faults in _firsts(self._model, "faults", keys.tolist(), self._defs):
            dist_of.append(-1 if faults is None else len(dists))
            if faults is not None:
                dists.append(faults)
        numbers = np.array(dist_of, dtype=np.intp)[inverse]
        noisy = numbers >= 0
        layer = flat.layer[noisy]
        numbers, qubits = numbers[noisy], flat.supports[noisy]
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

    def _generator_images(self):
        """The images of every block's 2n generators (:meth:`_generators`)
        from one walk: their (blocks, n, 2n) letter codes, block i's image
        of generator g in column g, and their (blocks, 2n) phase exponents,
        each the sum of its block's phase rows."""
        n, frame = self._model.n, self._generators()
        phase = np.zeros(frame.shape, dtype=np.int64)
        self._walk(frame, phase, history=False)
        return frame.reshape(-1, n, 2 * n), phase.reshape(-1, n, 2 * n).sum(axis=1)

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
        n, (codes, phases) = self._model.n, self._generator_images()
        x = codes >> 1  # x[i, j, g]: the x bit on qubit j of block i's image of g
        signs = (phases[:, n:, None] >> 1) & 1
        bits = ((x[:, :, :n].astype(np.int64) @ signs)[:, :, 0] & 1).astype(np.uint8)
        return [None if xi[:, n:].any() else b for xi, b in zip(x, bits)]

    def _ideal_parities(self, measured) -> list:
        """Per circuit of the program, the +1 or -1 ideal value on |0...0>
        of the parity that its Z-type Pauli in ``measured`` reads, or None
        when the output is not an eigenstate of it, from one walk of the
        generators.

        The Z_q images S_q stabilize the output, so the parity is definite
        iff it commutes with every S_q.  It is then, up to sign, the product
        of the S_q whose X_q image it anticommutes with (the X_q image
        anticommutes with S_q alone), and its value is that product's sign."""
        n, out = self._model.n, []
        for block, block_phase, m in zip(*self._generator_images(), measured):
            images, parity = _paulis_of(block, block_phase), PauliString(n, 0, m.zbits)
            if not all(parity.commutes(s) for s in images[n:]):
                out.append(None)
                continue
            product = PauliString.identity(n)
            for destabilizer, s in zip(images[:n], images[n:]):
                if not parity.commutes(destabilizer):
                    product = product * s
            out.append(1 if product.phase == 0 else -1)
        return out


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
    This is a one-item call of :func:`_ideal_outcomes`.
    """
    return _ideal_outcomes(model, [circuit])[0]


def _ideal_outcomes(model: GateSetModel, circuits) -> list:
    """:func:`ideal_outcome_bits` of each circuit, as a list in circuit
    order, from programs of the circuits side by side
    (:meth:`CliffordProgram._side_by_side`), in stacks of
    :func:`_stack_size` circuits of the deepest one's depth."""
    size = _stack_size(model.n, max((circuit.depth for circuit in circuits), default=0))
    stacks = (CliffordProgram._side_by_side(model, circuits[i : i + size]) for i in range(0, len(circuits), size))
    return [bits for program in stacks for bits in program._ideal_bits()]


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
    skip its derivation.  This is a one-item call of :func:`_fast_ensemble`.

    ``faults`` is the circuit's (n, shots) output-bit flips and a generator
    that continues ``seed``'s stream after the draws of those flips, with
    which the ensemble hands each circuit back here, with ``ideal_bits``:
    its stack's one generator, restored to the circuit's parked state, or
    None when the model confuses no qubit and nothing is drawn.  The
    generator draws the readout flips.
    """
    if faults is None:
        return _fast_ensemble(model, [circuit], shots, [seed], ideal_bits)[0]
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
    its seed's stream from the stack's one generator (:class:`_Streams`),
    re-keyed per circuit and, when the model confuses a qubit, parked
    after each circuit's last block.  Each circuit's output-bit flips and
    its restored stream go back through :func:`pauli_fastpath_sample`,
    which draws its readout flips.  Each record is thus the one a call per
    circuit gives, and each circuit is one ``pauli_fastpath_sample`` call
    with its shots.  The seeds are integers or generators, which are drawn
    from as they are.
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
    tail = bool(model.confusion)
    for chunk, program in stacks:
        streams = _Streams([seeds[i] for i in chunk], [tail] * len(chunk))
        x = _fault_parities(program, None, shots, streams)
        for j, (i, xi) in enumerate(zip(chunk, x)):
            faults = (xi, streams.at(j) if tail else None)
            out[i] = pauli_fastpath_sample(model, circuits[i], shots, seeds[i], bits[i], faults=faults)
    return out


def _fast_stacks(model: GateSetModel, circuits, shots: int):
    """The stacks in which the fast path runs ``circuits`` with ``shots``
    each: per stack, its circuits' indices and one program.

    Circuits of one depth run as one stacked program
    (:meth:`CliffordProgram._side_by_side`), in stacks of at most
    :func:`_stack_size` circuits whose one layer of draws fits
    ``_DRAW_BUDGET``; circuits of other depths never share a stack, as a
    shorter circuit's padded layers would draw idle faults.  A circuit with
    ``gate_defs`` is a stack of its own.  Stacks are built one at a time, as
    they are taken, so a caller that does not keep them holds one program
    at a time."""
    groups = {}
    for i, circuit in enumerate(circuits):
        groups.setdefault((circuit.depth, i if circuit.gate_defs else -1), []).append(i)
    for (depth, _), members in groups.items():
        size = max(1, min(_stack_size(model.n, depth), _DRAW_BUDGET // (model.n * shots)))
        for start in range(0, len(members), size):
            chunk = members[start : start + size]
            yield chunk, CliffordProgram._side_by_side(model, [circuits[i] for i in chunk])


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

    This is a one-item call of :func:`_fast_signs`, so ``ideal_sign`` must
    be +1 or -1 and, without ``pulled_back``, equal to the parity's value on
    the circuit's noiseless output, which is checked against one walk of
    the generators; any other value, or an output that is not an
    eigenstate of ``measured``, raises a ValueError.  ``flips`` is the
    circuit's bits of :func:`_fault_parities` (the parity, or the output
    bits without ``pulled_back``) and a generator that continues ``seed``'s
    stream after its fault draws (its stack's one generator, restored to
    the circuit's parked state), or None when no read qubit is confused,
    with which the ensemble hands each circuit back here.  The stream is
    consumed as :func:`pauli_fastpath_sample` consumes it: the fault draws,
    block by block, then one readout-flip draw per confused measured qubit,
    in qubit order.
    """
    if flips is None:
        rows = None if pulled_back is None else [pulled_back]
        return _fast_signs(model, [circuit], [measured], shots, [seed], [ideal_sign], rows)[0]
    read = _parity_reads(model, circuit, measured, pulled_back)
    bits, gen = flips
    signs = np.full(shots, 1 if ideal_sign > 0 else -1, dtype=np.int8)
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


def sample(model: GateSetModel, circuit: Circuit, shots: int, seed, backend: str) -> ShotRecord:
    """Bit-string counts of a circuit: :func:`sample_counts` on ``"dense"``,
    :func:`pauli_fastpath_sample` on ``"fast"``, which derives the circuit's
    definite ideal outcome.  This is a one-item call of :func:`_sample_all`."""
    return _sample_all(model, [circuit], shots, [seed], backend)[0]


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
    # qubit q is character q of an n-bit string, so bit n - 1 - q of its value
    mask, val = int(format(pauli.pattern, f"0{pauli.n}b")[::-1], 2), 0.0
    for bstr, c in record.counts.items():
        val += c * (1 - 2 * (bin(int(bstr, 2) & mask).count("1") & 1))
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
    output is an eigenstate of ``measured``, and without ``pulled_back`` it
    must be the parity's value there, which the fast backend checks; any
    other value raises a ValueError.  ``pulled_back``, when given, holds
    ``measured`` pulled back to before each layer and after the last, as
    (depth + 1, n) letter codes ``x << 1 | z``: row t is ``measured``
    pulled back to just before layer t and row depth is ``measured`` (see
    :func:`pauli_fastpath_signs`).  This is a one-item call of
    :func:`_parity_all`.
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
    On ``"fast"`` each parity is the mean of the circuit's signs from
    :func:`_fast_signs`.  No seed is drawn here, so a protocol draws all
    its circuits and seeds first and then samples them in one call."""
    _check_backend(backend)
    if backend == "dense":
        records = _sample_ensemble(model, circuits, shots, seeds)
        return [parity_from_counts(rec, m) for rec, m in zip(records, measured)]
    return [signs.mean() for signs in _fast_signs(model, circuits, measured, shots, seeds, ideal_signs, pulled_back)]


def _fast_signs(model: GateSetModel, circuits, measured, shots: int, seeds, ideal_signs, pulled_back=None):
    """:func:`pauli_fastpath_signs` of each circuit with its measured Pauli,
    seed, ideal sign and, unless ``pulled_back`` is None, its pulled-back
    rows, as a list of sign arrays in circuit order.

    Every circuit is checked first, so a bad ideal sign or an asymmetric
    confusion raises before anything is drawn.  Without ``pulled_back``,
    each stack's ideal parities (:meth:`CliffordProgram._ideal_parities`)
    must equal the ideal signs; with it, the caller derived both from one
    propagation.  Each stack of :func:`_fast_stacks` then draws once
    (:func:`_fault_parities`), every circuit its seed's stream from the
    stack's one generator (:class:`_Streams`), parked after its last block
    only when a qubit it reads is confused.  Each circuit's bits (its
    parity, or its output bits without ``pulled_back``) and its restored
    stream go back through :func:`pauli_fastpath_signs`, which draws its
    readout flips.  Each array is thus the one a call per circuit gives,
    and each circuit is one ``pauli_fastpath_signs`` call with its
    shots."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    rows, tails = [None] * len(circuits) if pulled_back is None else pulled_back, []
    for circuit, m, sign, r in zip(circuits, measured, ideal_signs, rows):
        if abs(abs(sign) - 1) > 1e-9:
            raise ValueError(f"ideal parity {sign} is not +1 or -1; the fast path needs an eigenstate")
        tails.append(any(q in model.confusion for q in _parity_reads(model, circuit, m, r)))
    stacks = _fast_stacks(model, circuits, shots)
    if pulled_back is None:
        stacks = list(stacks)
        for chunk, program in stacks:
            for i, value in zip(chunk, program._ideal_parities([measured[i] for i in chunk])):
                if value is None:
                    raise ValueError("the circuit's output is not an eigenstate of the measured Pauli")
                if abs(value - ideal_signs[i]) > 1e-9:
                    raise ValueError(f"ideal parity {ideal_signs[i]} does not match the circuit's output, {value}")
    out = [None] * len(circuits)
    for chunk, program in stacks:
        streams = _Streams([seeds[i] for i in chunk], [tails[i] for i in chunk])
        stack_rows = None if pulled_back is None else [rows[i] for i in chunk]
        bits = _fault_parities(program, stack_rows, shots, streams)
        for j, (i, b) in enumerate(zip(chunk, bits)):
            flips = (b, streams.at(j) if tails[i] else None)
            out[i] = pauli_fastpath_signs(model, circuits[i], measured[i], shots, seeds[i], ideal_signs[i], rows[i], flips=flips)
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
        circuit = Circuit._assembled(n, (prep,)).then(body)
        circuits.append(circuit.then(Circuit._assembled(n, (readout,))) if keep else circuit)
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
