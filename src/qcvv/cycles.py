"""Cycle benchmarking, Walsh-Hadamard Pauli-noise reconstruction, ACES, and
the pattern-transform learnability analysis.

Cycle error reconstruction inverts Pauli eigenvalues to error rates with
:func:`qcvv.channels.walsh_hadamard`, re-exported here.  The circuits are
built from the Clifford-layer helpers of :mod:`qcvv.cliffords`: a random
Pauli-eigenstate preparation, the benchmarked layers, and a readout rotation
of the propagated Pauli onto Z.

ACES builds no tableau per layer.  It compiles each circuit prefix once into
a :class:`qcvv.device.CliffordProgram`, the fast path's per-layer gate
tables: once per gate layer for the systematic rows, and once per random
circuit for the ``paulis_per_circuit`` rows that share it.  A prefix's rows
draw their Paulis, eigenstate signs and shot seeds first, then propagate
their prepared Paulis as one column block, each with its phase, and read
each gate-set gate's local letters off the frames after the gate's layer.

Cycle benchmarking and ACES build no parity circuits: they draw each
circuit's preparation, body and shot seed and hand them to
:mod:`qcvv.device`, which joins the readout, derives the ideal sign and
samples (:func:`qcvv.device._eigenstate_parities`).  Cycle benchmarking
hands it a ``draw()`` per circuit (:func:`qcvv.device._eigenstate_stacks`),
which propagates the bodies side by side; ACES hands it the histories of
each prefix's column block.  Either way the history is the measured Pauli
pulled back through the circuit, so the fast path draws the rows' faults
side by side without building gate tables for the joined circuits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .channels import walsh_hadamard
from .cliffords import (
    INVERSE_LABEL,
    CliffordTableau,
    _bit_rows,
    _pack,
    eigenstate_layer,
    inverse_layer,
)
from .device import Circuit, CliffordProgram, _eigenstate_parities, _eigenstate_stacks
from .linalg import pauli_label, rng
from .paulis import PauliString, all_paulis
from .rb import fit_decay

# -- learnability via the pattern-transform graph --------------------------------

@dataclass
class PatternTransformGraph:
    """Directed multigraph of support patterns under a Clifford cycle.

    Each Pauli P contributes one edge pattern(P) -> pattern(G P G^-1); the
    graph's cycle space is exactly the SPAM-robustly learnable information.
    """

    n: int
    edges: list  # (pauli index, source pattern, target pattern)
    nodes: list = field(default_factory=list)

    def __post_init__(self):
        if not self.nodes:
            self.nodes = sorted({u for _, u, _ in self.edges} | {v for _, _, v in self.edges})

    def components(self) -> int:
        parent = {v: v for v in self.nodes}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for _, u, v in self.edges:
            ra, rb = find(u), find(v)
            if ra != rb:
                parent[ra] = rb
        return len({find(v) for v in self.nodes})

    def cycle_space_dim(self) -> int:
        return len(self.edges) - len(self.nodes) + self.components()

    def gauge_dim(self) -> int:
        """Unlearnable degrees of freedom: independent cuts, V - c."""
        return len(self.nodes) - self.components()


@dataclass
class LearnabilityReport:
    graph: PatternTransformGraph
    learnable: dict  # pauli label -> individually learnable (self-loop)
    cycle_space_dim: int

    def product_learnable(self, labels) -> bool:
        """True when the multiset of edges has zero boundary (lies in the
        cycle space), i.e. every node enters as often as it leaves."""
        balance = {}
        for lab in labels:
            p = PauliString.from_label(lab)
            _, u, v = next(e for e in self.graph.edges if e[0] == p.index)
            balance[u] = balance.get(u, 0) + 1
            balance[v] = balance.get(v, 0) - 1
        return all(b == 0 for b in balance.values())


def learnability(cycle: CliffordTableau) -> LearnabilityReport:
    """Classify each Pauli fidelity of a Clifford cycle as SPAM-robustly
    learnable (pattern-preserving) or not."""
    n = cycle.n
    paulis = all_paulis(n)
    images, _ = cycle._conjugate_rows(*_bit_rows(paulis, n))
    targets = _pack(images[:, :n] | images[:, n:])
    edges = [(p.index, p.pattern, target) for p, target in zip(paulis, targets)]
    learnable = {p.label: p.pattern == target for p, target in zip(paulis, targets)}
    graph = PatternTransformGraph(n, edges)
    return LearnabilityReport(graph, learnable, graph.cycle_space_dim())


def relabel_cycle(cycle: CliffordTableau, perm) -> CliffordTableau:
    """The cycle with qubits permuted (q -> perm[q]); used to check that the
    learnability classification is invariant under relabeling."""
    n = cycle.n
    moved = [perm[q] for q in range(n)]
    source = np.argsort(moved + [n + q for q in moved])  # generator of the cycle behind each new one
    return CliffordTableau(cycle.bits[np.ix_(source, source)], cycle.phases[source])


# -- cycle benchmarking -----------------------------------------------------------

@dataclass
class PauliDecay:
    pauli: str
    depths: list
    estimates: list
    stderrs: list
    a: float = float("nan")
    f: float = float("nan")
    f_err: float = float("nan")


@dataclass
class PauliDecaySet:
    cycle: tuple
    decays: dict  # pauli label -> PauliDecay

    def process_fidelity(self) -> float:
        return float(np.mean([d.f for d in self.decays.values()]))


def cycle_order(cycle_tableau: CliffordTableau, max_order: int = 24) -> int:
    t = cycle_tableau
    identity = CliffordTableau.identity(cycle_tableau.n).key()
    for j in range(1, max_order + 1):
        if t.key() == identity:
            return j
        t = t.then(cycle_tableau)
    raise ValueError(
        "cycle has no small order; benchmark it as a dressed cycle against the identity"
    )


def cycle_tableau(model, cycle_layer) -> CliffordTableau:
    tab = CliffordTableau.identity(model.n)
    for label, qubits in cycle_layer:
        tab = tab.then(model.record(label, len(qubits)).tableau.embed(model.n, qubits))
    return tab


def cycle_benchmark(
    model,
    cycle,
    paulis,
    depths,
    circuits_per_depth: int,
    shots: int,
    seed,
    backend: str = "fast",
) -> PauliDecaySet:
    """Cycle benchmarking of a Clifford cycle.

    ``cycle`` is one layer ``((label, qubits), ...)``; depths must be
    multiples of the cycle's order j.  Each tracked Pauli decay fits
    ``A f_P**m``; for a cycle of order j the fitted ``f_P`` estimates the
    geometric mean of the error eigenvalues around P's orbit.

    Each circuit draws its eigenstate signs, dressings and shot seed in turn
    and is sampled through :func:`qcvv.device._eigenstate_stacks`.
    """
    n = model.n
    cycle = tuple(cycle)
    tab = cycle_tableau(model, cycle)
    order = cycle_order(tab)
    for m in depths:
        if m % order:
            raise ValueError(f"depth {m} is not a multiple of the cycle order {order}")
    gen = rng(seed)

    def draw():  # one circuit of the Pauli p and depth m that the loops below are at
        prep_layer, sign = eigenstate_layer(p, gen)
        body = []
        for _rep in range(m):
            dressing = tuple(
                (lab, (q,))
                for q, lab in enumerate(("I", "X", "Y", "Z")[int(i)] for i in gen.integers(4, size=n))
                if lab != "I"
            )
            if dressing:
                body.append(dressing)
            body.append(cycle)
        return p, prep_layer, sign, Circuit(n, tuple(body)), int(gen.integers(2**62))

    decays = {}
    for p in paulis:
        p = p if isinstance(p, PauliString) else PauliString.from_label(p)
        means, errs = [], []
        for m in depths:
            # a body holds a dressing and the cycle per repetition
            arr = np.asarray(_eigenstate_stacks(model, draw, circuits_per_depth, 2 * m, shots, backend))
            means.append(arr.mean())
            errs.append(arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.05)
        decay = PauliDecay(p.label, list(depths), means, errs)
        fit = fit_decay(list(depths), means, errs, fix_b=0.0)
        decay.a, decay.f, decay.f_err = fit.a, fit.f, fit.f_err
        decays[p.label] = decay
    return PauliDecaySet(cycle, decays)


def cb_decay_oracle(error_eigenvalues: np.ndarray, cycle_tab: CliffordTableau, p: PauliString) -> float:
    """Prediction for f_P: geometric mean of the post-cycle error eigenvalues
    along the orbit of P under the cycle."""
    order = cycle_order(cycle_tab)
    lam = 1.0
    current = p
    for _ in range(order):
        current = cycle_tab.conjugate(current).hermitian()
        lam *= float(error_eigenvalues[current.index])
    return float(lam ** (1.0 / order))


# -- cycle error reconstruction ----------------------------------------------------

@dataclass
class CERRate:
    bodies: tuple
    pauli: str
    rate: float
    stderr: float
    degeneracy_group: int  # -1 when the defining fidelities are learnable

    def as_row(self):
        return {
            "bodies": list(self.bodies),
            "pauli": self.pauli,
            "rate": self.rate,
            "stderr": self.stderr,
            "degeneracy_group": self.degeneracy_group,
        }


def cer(decay_set: PauliDecaySet, n: int, cycle_tab: CliffordTableau, bodies):
    """Marginal Pauli error rates on qubit subsets from CB decays.

    For each subset, the marginal error distribution restricted to those
    qubits is the partial Walsh-Hadamard inverse of the fidelities of the
    Paulis supported there (each reported k-body rate therefore marginalizes
    over all higher-weight errors on the other qubits).  Rates built from
    fidelities that are not individually learnable carry a shared
    degeneracy-group id; their values reflect the CB geometric-mean
    estimates over the unlearnable orbit.
    """
    report = learnability(cycle_tab)
    group_of = {}
    next_group = [0]

    def group_id(full: PauliString) -> int:
        orbit = frozenset(_orbit(cycle_tab, full))
        if orbit not in group_of:
            group_of[orbit] = next_group[0]
            next_group[0] += 1
        return group_of[orbit]

    out = []
    for subset in bodies:
        subset = tuple(subset)
        k = len(subset)
        lam = np.ones(4**k)
        var = np.zeros(4**k)
        tainted = {}
        for local_idx in range(1, 4**k):
            local = PauliString.from_index(local_idx, k)
            full = local.embed(n, subset)
            lab = full.label
            if lab not in decay_set.decays:
                raise ValueError(f"missing CB decay for Pauli {lab}")
            lam[local_idx] = decay_set.decays[lab].f
            var[local_idx] = decay_set.decays[lab].f_err ** 2
            if not report.learnable[lab]:
                tainted[local_idx] = group_id(full)
        rates = walsh_hadamard(lam, "eigenvalues-to-rates")
        stderr = float(np.sqrt(var.sum()) / 4**k)
        for local_idx in range(1, 4**k):
            local = PauliString.from_index(local_idx, k)
            out.append(
                CERRate(subset, local.label, float(rates[local_idx]), stderr, tainted.get(local_idx, -1))
            )
    return out


def _orbit(cycle_tab: CliffordTableau, p: PauliString):
    start = p.hermitian().label
    orbit = [start]
    current = cycle_tab.conjugate(p).hermitian()
    while current.label != start:
        orbit.append(current.label)
        current = cycle_tab.conjugate(current).hermitian()
    return orbit


# -- ACES ---------------------------------------------------------------------------

@dataclass
class ACESResult:
    parameters: list  # (gate label, qubits, pauli label) and SPAM triples
    estimates: np.ndarray
    stderrs: np.ndarray
    design_rank: int
    nullspace: np.ndarray
    reduced_chi2: float = float("nan")  # residual vs shot noise, dof-normalized

    def eigenvalue(self, label, qubits, pauli) -> float:
        return float(self.estimates[self.parameters.index((label, tuple(qubits), pauli))])

    def stderr(self, label, qubits, pauli) -> float:
        return float(self.stderrs[self.parameters.index((label, tuple(qubits), pauli))])


def aces(
    model,
    gate_layers,
    n_circuits: int,
    depth: int,
    paulis_per_circuit: int,
    shots: int,
    seed,
    assume_ideal_spam: bool = True,
    backend: str = "fast",
    randomized_compiling: bool = True,
) -> ACESResult:
    """Averaged circuit eigenvalue sampling for a crosstalk-free Pauli model.

    Parameters are the nontrivial Pauli eigenvalues of every gate appearing
    in ``gate_layers`` plus, when ``assume_ideal_spam`` is false, independent
    preparation and measurement log-fidelities per (qubit, axis) (keys
    ("PREP", (q,), axis) and ("MEAS", (q,), axis)); the prepared Pauli's
    letters pick up PREP factors and the final measured Pauli's letters MEAS
    factors.  With unknown SPAM the design matrix is rank deficient by
    exactly the unlearnable degrees of freedom, the pattern-transform cut
    count of the benchmarked cycles.

    The design combines systematic depth-1 rows (every gate probed by every
    local Pauli) with random mirror-structured Clifford circuits carrying a
    terminal randomizing layer; gates outside ``gate_layers`` (the 1q
    dressing) are assumed noiseless, mirroring the learnability analysis'
    assumptions.  Solves ``x = A^+ log b``; any estimated decay <= 0 is
    floored at 1e-6 with a warning.  ``reduced_chi2`` reports the residual
    ``b - A x`` against shot noise: consistent with 1 for in-model (Pauli)
    noise and inflated under coherent noise.  Randomized compiling lowers it
    under coherent noise but does not bring it back to the in-model value
    (for a CZ with a coherent Z rotation of 0.18 on one qubit: about 2100
    without, about 95 with, against about 1.3 for Pauli noise).  The likely
    cause is that each random circuit gets one fixed dressing, so the
    circuit-to-circuit spread of the twirled eigenvalues is not shot noise
    and is not in the variance model.

    Shot noise uses an add-one binomial model: with ``p = (shots * (1 + est)
    / 2 + 1) / (shots + 2)`` the estimated probability of the +1 outcome,
    ``Var(log est) = 4 p (1 - p) / shots / est**2``.  It stays positive when
    a circuit eigenvalue is exactly 1 and every shot agrees.  The fit itself
    is unweighted; these variances set ``stderrs`` and ``reduced_chi2`` only.

    Each prefix's rows draw their Pauli, eigenstate signs and shot seed in
    turn, then propagate as one column block (:meth:`_ACESPrefix.rows`) and
    are sampled in one :func:`qcvv.device._eigenstate_parities` call.
    """
    n = model.n
    gate_layers = [tuple(layer) for layer in gate_layers]
    gate_set = {(label, tuple(qubits)) for layer in gate_layers for label, qubits in layer}
    all_params, first, spam = _aces_parameters(gate_set, n, assume_ideal_spam)
    gen = rng(seed)

    rows, vals, variances = [], [], []

    def add_measurements(prefix: _ACESPrefix, prepared):
        # each row draws its Pauli (when ``prepared`` draws it), eigenstate
        # signs and shot seed in turn; propagation draws nothing, so every
        # row of the prefix is drawn first and then propagated as one block
        drawn = [(p, *eigenstate_layer(p, gen), prefix.circuit, int(gen.integers(2**62))) for p in prepared]
        design, images, codes = prefix.rows([p for p, *_ in drawn], len(all_params), spam)
        propagated = [(image, codes[:, :, j]) for j, image in enumerate(images)]
        for row, est in zip(design, _eigenstate_parities(model, drawn, propagated, shots, backend)):
            if est <= 0:
                warnings.warn("ACES decay estimate <= 0 floored at 1e-6 (data insufficient)")
                est = 1e-6
            rows.append(row)
            vals.append(np.log(est))
            # add-one estimate of P(+1) stays inside (0, 1), even when est == 1
            p_plus = (shots * (1 + est) / 2 + 1) / (shots + 2)
            variances.append(4 * p_plus * (1 - p_plus) / shots / est**2)

    # systematic depth-1 rows: every gate, every local Pauli (via a preimage)
    for layer in gate_layers:
        inv = cycle_tableau(model, layer).inverse()
        prepared = [
            inv.conjugate(PauliString.from_index(idx, len(qubits)).embed(n, qubits)).hermitian()
            for label, qubits in layer
            for idx in range(1, 4 ** len(qubits))
        ]
        add_measurements(_ACESPrefix(model, [layer], first), prepared)

    # random mirror-structured circuits with a terminal randomizing layer
    for circuit_index in range(n_circuits):
        half = [gate_layers[int(gen.integers(len(gate_layers)))] for _ in range(depth)]
        if randomized_compiling:
            dress = [_random_1q_layer(n, gen) for _ in range(depth + 1)]
        else:
            dress = [_fixed_1q_layer(n, circuit_index) for _ in range(depth + 1)]
        seq = []
        for i in range(depth):
            seq.append(dress[i])
            seq.append(half[i])
        seq.append(dress[depth])
        for i in range(depth - 1, -1, -1):
            seq.append(tuple((INVERSE_LABEL.get(lbl, lbl), qs) for lbl, qs in half[i]))
            seq.append(inverse_layer(dress[i]))
        seq.append(_random_1q_layer(n, gen))  # terminal randomizing layer
        # a generator: each row's Pauli is drawn just before its eigenstate signs
        prepared = (PauliString.from_index(int(gen.integers(1, 4**n)), n) for _ in range(paulis_per_circuit))
        add_measurements(_ACESPrefix(model, seq, first), prepared)

    a = np.array(rows)
    b = np.array(vals)
    pinv = np.linalg.pinv(a, rcond=1e-10)
    x = pinv @ b
    cov = pinv @ np.diag(variances) @ pinv.T
    rank = int(np.linalg.matrix_rank(a, tol=1e-8))
    _, _, vt = np.linalg.svd(a)
    null = vt[rank:]
    resid = b - a @ x
    dof = max(len(b) - rank, 1)
    reduced_chi2 = float(np.sum(resid**2 / np.asarray(variances)) / dof)
    return ACESResult(
        all_params,
        np.exp(x),
        np.sqrt(np.clip(np.diag(cov), 0, None)) * np.exp(x),
        rank,
        null,
        reduced_chi2,
    )


def _aces_parameters(gate_set, n: int, assume_ideal_spam: bool):
    """ACES's design columns: every nontrivial local Pauli of every gate in
    ``gate_set``, gate by gate in sorted order, then, without ideal SPAM,
    the PREP and the MEAS columns of every (qubit, axis).  Returns the
    parameters, each gate's first column and the first SPAM column (None
    with ideal SPAM)."""
    params, first = [], {}
    for label, qubits in sorted(gate_set):
        first[(label, qubits)] = len(params)
        for idx in range(1, 4 ** len(qubits)):
            params.append((label, qubits, pauli_label(idx, len(qubits))))
    if assume_ideal_spam:
        return params, first, None
    spam = len(params)
    for kind in ("PREP", "MEAS"):
        for q in range(n):
            for axis in "XYZ":
                params.append((kind, (q,), axis))
    return params, first, spam


# letter code ``x << 1 | z`` -> base-4 Pauli digit (I, Z, X, Y -> 0, 3, 1, 2)
_DIGIT_OF_CODE = np.array([0, 3, 1, 2], dtype=np.intp)
# letter code -> its SPAM column within a qubit's X, Y, Z (Z, X, Y -> 2, 0, 1)
_AXIS_OF_CODE = np.array([-1, 2, 0, 1], dtype=np.intp)


class _ACESPrefix:
    """An ACES circuit prefix, compiled once for all of its rows, whose
    Paulis propagate through it as one column block (:meth:`rows`).

    ``program`` is the prefix's :class:`qcvv.device.CliffordProgram`.  Per
    occurrence of a gate-set gate, in circuit order, read off the circuit's
    flat form: ``layer``, its layer; ``qubits``, its support, padded with
    qubit 0; ``place``, the base-4 place value of each support qubit's digit
    in the gate's local Pauli index (qubit 0 of the support most
    significant, 0 on the padding); and ``first``, the design column of the
    gate's local Pauli index 1.
    """

    def __init__(self, model, layers, first: dict):
        n = model.n
        self.circuit = Circuit(n, tuple(layers))
        self.program = CliffordProgram(model, self.circuit)
        keys, flat = self.circuit._flat.keys, self.circuit._flat.arrays
        levels = flat.supports.shape[1]
        # each gate-set gate present as a (key number, padded support) row,
        # matched against every operation's row
        wanted = [(label, qs, col) for (label, qs), col in first.items() if (label, len(qs)) in keys]
        table = [[keys.index((label, len(qs))), *qs] + [n] * (levels - len(qs)) for label, qs, _ in wanted]
        ops = np.column_stack([flat.key, flat.supports])
        op, entry = np.nonzero((ops[:, None] == np.reshape(table, (-1, levels + 1))).all(axis=2))
        self.layer = flat.layer[op]
        self.qubits = np.where(flat.supports[op] < n, flat.supports[op], 0)
        power = flat.arity[op, None] - 1 - np.arange(levels)
        self.place = np.where(power >= 0, 4 ** power.clip(0), 0)
        self.first = np.array([col for _, _, col in wanted], dtype=np.intp)[entry]

    def rows(self, prepared, width: int, spam):
        """The design rows of the Paulis ``prepared`` through the prefix, as
        a (len(prepared), width) array; their images with phase; and their
        letter codes before each layer and after the last, as a (depth + 1,
        n, len(prepared)) array.  The Paulis propagate as one column block
        (:meth:`qcvv.device.CliffordProgram.propagate`).

        Each gate-set gate counts the local Pauli it leaves behind, read off
        the frame after its layer; with ``spam``, the first SPAM column, each
        qubit also counts the prepared letter (PREP) and the final one
        (MEAS)."""
        images, codes = self.program.propagate(prepared, history=True)
        k, n = len(images), codes.shape[1]
        # (gate occurrence, column) -> the local Pauli index it leaves behind
        local = (_DIGIT_OF_CODE[codes[self.layer[:, None] + 1, self.qubits]] * self.place[:, :, None]).sum(axis=1)
        op, col = np.nonzero(local)
        index = [col * width + self.first[op] + local[op, col] - 1]
        if spam is not None:
            for base, letters in ((spam, codes[0]), (spam + 3 * n, codes[-1])):
                q, col = np.nonzero(letters)
                index.append(col * width + base + 3 * q + _AXIS_OF_CODE[letters[q, col]])
        counts = np.bincount(np.concatenate(index), minlength=k * width)
        return counts.reshape(k, width).astype(float), images, codes


def _random_1q_layer(n, gen):
    names = ("I", "X", "Y", "Z", "H", "S", "SDG", "X90", "Y90")
    layer = []
    for q in range(n):
        g = names[int(gen.integers(len(names)))]
        if g != "I":
            layer.append((g, (q,)))
    return tuple(layer)


def _fixed_1q_layer(n, circuit_index):
    """Deterministic dressing used when randomized compiling is off: the
    same non-random basis change at every occurrence, so coherent errors add
    systematically instead of being twirled."""
    names = ("H", "S", "X90")
    g = names[circuit_index % len(names)]
    return tuple((g, (q,)) for q in range(n))
