"""Seeded inputs and paper-identity checks for the benchmark workloads.

Each workload is a fixed schedule of operation slots. Operation i runs slot
i % len(schedule) on inputs drawn from np.random.default_rng([seed, i]), so
the seed changes the values but never the mix of dimensions, subcommands or
sizes: runs with different seeds do the same amount of work. Inputs are made
here with numpy alone; the library only ever sees the generated arrays.

Every operation is checked against the identity it computes, at the
library's own tolerances. An in-process operation returns None when its
identity holds and a one-line reason when it does not.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from quantinfo import channel, coding, entangle, mub, probability, quantum

TOL = 1e-9          # information sum, reconstruction, chi bound, Shannon window
SCHUR_TOL = 1e-12   # Schur monotonicity and grouping, as in the selftest


# ---------------------------------------------------------------- generators

def density(rng, n, rank):
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def distribution(rng, n):
    return rng.dirichlet(np.ones(n))


def doubly_stochastic(rng, n):
    out = np.zeros((n, n))
    rows = np.arange(n)
    for w in rng.dirichlet(np.ones(n + 1)):
        out[rows, rng.permutation(n)] += w
    return out


def povm(rng, n, outcomes):
    blocks = []
    for _ in range(outcomes):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(g @ g.conj().T)
    values, vectors = np.linalg.eigh(sum(blocks))
    whitener = vectors @ np.diag(values ** -0.5) @ vectors.conj().T
    return [whitener @ b @ whitener for b in blocks]


def two_symbol(rng):
    p = rng.uniform(0.1, 0.9)
    return np.array([p, 1.0 - p])


def shannon(p):
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def digest_update(h, value):
    """Feed one generated input into a running sha256, by content."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            digest_update(h, item)
        h.update(b"]")
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(str(key).encode())
            digest_update(h, value[key])
    else:
        h.update(repr(value).encode())


# ---------------------------------------------------------------- workloads

class Workload:
    """A fixed schedule of operation slots; operation i depends on (seed, i) only."""

    name = ""
    mub_dims: tuple[int, ...] = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.bases = {n: mub.build_mubs(n) for n in self.mub_dims}
        self.schedule = self.build_schedule()
        # the first cycle is generated in set-up and forms the inputs digest
        self._prefix = [self.inputs(i) for i in range(len(self.schedule))]

    def build_schedule(self) -> list:
        raise NotImplementedError

    def inputs(self, i: int):
        raise NotImplementedError

    def operation(self, i: int):
        """Inputs of operation i, generated ahead of timing."""
        return self._prefix[i] if i < len(self._prefix) else self.inputs(i)

    def digest(self) -> str:
        h = hashlib.sha256()
        for op in self._prefix:
            digest_update(h, op)
        return h.hexdigest()

    def close(self):
        pass


class InProcess(Workload):
    """A workload whose operations are library calls in this process."""

    def inputs(self, i: int):
        kind, params = self.schedule[i % len(self.schedule)]
        rng = np.random.default_rng([self.seed, i])
        cycle = i // len(self.schedule)
        return kind, getattr(self, f"make_{kind}")(rng, cycle, **params)

    def run(self, op) -> str | None:
        kind, inp = op
        return getattr(self, f"run_{kind}")(inp)


def selftest_parts(slices: int = 10) -> list[list]:
    """One `quantinfo selftest` pass as `slices` equal parts plus a last part.

    The counts and dimension cycles follow selftest.py: 400 information sums
    (n in 2, 3, 5, 7), 150 reconstructions (n in 2, 3, 5), 1000 groupings and
    500 Schur mixings (n from 2 to 8), 200 Holevo pairs, 200 Lueders updates,
    60 block rates (20 distributions of 2 to 6 symbols, k in 1, 2, 4) and 20
    pure-state totals are split evenly over the slices. The last part holds
    what selftest runs once: the qubit-grid accessible search, the MUB checks
    for n in 2, 3, 5, 7, one typical set and two info splits. Holevo pairs
    alternate n = 2 and 3 rather than running 100 of each in turn, so that
    every slice does the same work.
    """
    parts: list[list] = [[] for _ in range(slices)]

    def spread(total, kind, params):
        per = total // slices
        for j, part in enumerate(parts):
            part.extend((kind, params(i)) for i in range(j * per, (j + 1) * per))

    # state i of dimension n has rank 1 + i % n, as in selftest
    spread(400, "info_sum", lambda i: {"n": (2, 3, 5, 7)[i % 4],
                                       "rank": 1 + i // 4 % (2, 3, 5, 7)[i % 4]})
    spread(150, "reconstruct", lambda i: {"n": (2, 3, 5)[i % 3],
                                          "rank": 1 + i // 3 % (2, 3, 5)[i % 3]})
    spread(1000, "grouping", lambda i: {"n": 2 + i % 7})
    spread(200, "holevo", lambda i: {"n": 2 + i % 2, "size": 2 + i % 3, "outcomes": 2 + i % 4})
    spread(200, "luders", lambda i: {"n": 2 + i % 3, "rank": 1 + i % (2 + i % 3)})
    spread(500, "schur", lambda i: {"n": 2 + i % 7})
    spread(60, "block_rate", lambda i: {"size": 2 + i // 3 % 5, "k": (1, 2, 4)[i % 3]})
    spread(20, "pure", lambda i: {"n": (2, 3, 5, 7)[i % 4]})
    once = ([("accessible", {"n": 2, "size": 2})]
            + [(kind, {"n": n}) for n in (2, 3, 5, 7) for kind in ("verify", "hyperplane")]
            + [("typical", {"symbols": 2, "length": 10})]
            + [("info_split", {})] * 2)
    return parts + [once]


class Identities(InProcess):
    """Small states and distributions pushed through the paper's identities."""

    name = "identities"
    mub_dims = (2, 3, 5, 7)

    # One cycle of the schedule is one selftest pass: ten equal slices of
    # about 0.15 s each, then the once-per-pass checks. A slice, not a
    # single check, is the operation: single checks range from 0.1 to 1.5 ms
    # and the speed of a shared machine swings them unevenly, so a median
    # over single checks jumps between kinds, while every slice does the
    # same work.
    PARTS = selftest_parts()

    def build_schedule(self):
        slices = len(self.PARTS) - 1
        return [("slice", {"part": j}) for j in range(slices)] + [("once", {"part": slices})]

    def make_slice(self, rng, cycle, part):
        return [(kind, getattr(self, f"make_{kind}")(rng, cycle, **params))
                for kind, params in self.PARTS[part]]

    def run_slice(self, cases):
        for kind, inp in cases:
            reason = getattr(self, f"run_{kind}")(inp)
            if reason is not None:
                return f"{kind}: {reason}"
        return None

    make_once, run_once = make_slice, run_slice

    def rotated(self, rng, n):
        # a unitary image of a complete MUB set is again one, with generic entries
        u = unitary(rng, n)
        return [u @ b for b in self.bases[n]]

    def make_info_sum(self, rng, cycle, n, rank):
        return {"rho": density(rng, n, rank), "bases": self.bases[n]}

    make_reconstruct = make_info_sum

    def make_holevo(self, rng, cycle, n, size, outcomes):
        return {"priors": distribution(rng, size),
                "states": [density(rng, n, 1 + j % n) for j in range(size)],
                "povm": povm(rng, n, outcomes)}

    def make_luders(self, rng, cycle, n, rank):
        return {"rho": density(rng, n, rank), "basis": unitary(rng, n)}

    def make_schur(self, rng, cycle, n):
        return {"p": distribution(rng, n), "s": doubly_stochastic(rng, n)}

    def make_grouping(self, rng, cycle, n):
        return {"p": distribution(rng, n)}

    def make_block_rate(self, rng, cycle, size, k):
        return {"p": distribution(rng, size), "k": k}

    def make_pure(self, rng, cycle, n):
        return {"rho": density(rng, n, 1)}

    def make_info_split(self, rng, cycle):
        return {"rho": density(rng, 4, 1 + cycle % 4)}

    def make_accessible(self, rng, cycle, n, size):
        # qubits get the seed-independent grid search, larger n a seeded hill climb
        return {"priors": distribution(rng, size),
                "states": [density(rng, n, 1 + j % n) for j in range(size)],
                "seed": int(rng.integers(2 ** 31))}

    def make_hyperplane(self, rng, cycle, n):
        return {"bases": self.rotated(rng, n)}

    make_verify = make_hyperplane

    def make_typical(self, rng, cycle, symbols, length):
        p = two_symbol(rng) if symbols == 2 else distribution(rng, 3) * 0.7 + 0.1
        return {"p": p, "length": length, "epsilon": 0.1}

    def run_info_sum(self, inp):
        rho = inp["rho"]
        total = mub.information_sum(rho, inp["bases"])
        direct = quantum.total_information(rho)
        if not abs(total - direct) < TOL:
            return f"information_sum {total!r} != Tr(rho - I/n)^2 {direct!r}"
        return None

    def run_reconstruct(self, inp):
        rho, bases = inp["rho"], inp["bases"]
        stats = [quantum.born_probabilities(rho, u) for u in bases]
        distance = quantum.hs_distance(mub.reconstruct(stats, bases), rho)
        if not distance < TOL:
            return f"reconstruction off by HS distance {distance!r}"
        return None

    def run_holevo(self, inp):
        ensemble = channel.cq_ensemble(inp["priors"], inp["states"])
        measured = channel.measured_information(ensemble, inp["povm"])
        chi = channel.holevo_chi(ensemble)
        if not measured <= chi + TOL:
            return f"measured information {measured!r} exceeds chi {chi!r}"
        return None

    def run_luders(self, inp):
        rho, basis = inp["rho"], inp["basis"]
        before = quantum.spectrum(rho)
        after = quantum.spectrum(quantum.luders_update(rho, basis))
        if not probability.majorizes(before, after):
            return "spectrum after an unread measurement is not majorized"
        born = quantum.born_probabilities(rho, basis)
        h_gap = probability.shannon_entropy(born) - quantum.von_neumann_entropy(rho)
        i_gap = probability.quadratic_information(born) - quantum.total_information(rho)
        if not (h_gap > -TOL and i_gap < TOL):
            return f"H(born) - S = {h_gap!r}, I(born) - Itot = {i_gap!r}"
        return None

    def run_schur(self, inp):
        p = inp["p"]
        mixed = probability.apply_doubly_stochastic(inp["s"], p)
        h_gain = probability.shannon_entropy(mixed) - probability.shannon_entropy(p)
        i_gain = probability.quadratic_information(mixed) - probability.quadratic_information(p)
        if not (h_gain > -SCHUR_TOL and i_gain < SCHUR_TOL):
            return f"mixing changed H by {h_gain!r} and I by {i_gain!r}"
        return None

    def run_grouping(self, inp):
        residual = probability.grouping_residual(inp["p"])
        if not abs(residual) < SCHUR_TOL:
            return f"grouping residual {residual!r}"
        return None

    def run_block_rate(self, inp):
        p, k = inp["p"], inp["k"]
        rate = coding.block_question_rate(p, k)
        h = probability.shannon_entropy(p)
        if not h - TOL <= rate < h + 1.0 / k:
            return f"rate {rate!r} outside [H, H + 1/k) for H = {h!r}, k = {k}"
        return None

    def run_pure(self, inp):
        rho = inp["rho"]
        n = rho.shape[0]
        gap = quantum.total_information(rho) - (1.0 - 1.0 / n)
        entropy = quantum.von_neumann_entropy(rho)
        if not (abs(gap) < SCHUR_TOL and entropy < TOL):
            return f"pure state has Itot - (1 - 1/n) = {gap!r} and entropy {entropy!r}"
        return None

    def run_info_split(self, inp):
        rho = inp["rho"]
        split = entangle.info_split(rho)
        total = 2.0 * (quantum.purity(rho) - 0.25)
        asked = split.individual + split.correlation
        if not (split.individual > -TOL and split.correlation > -TOL and asked <= total + TOL):
            return f"individual + correlation {asked!r} exceeds 2(Tr rho^2 - 1/4) = {total!r}"
        return None

    def run_accessible(self, inp):
        ensemble = channel.cq_ensemble(inp["priors"], inp["states"])
        found = channel.accessible_information(ensemble, seed=inp["seed"])
        chi = channel.holevo_chi(ensemble)
        if not -TOL <= found.value <= chi + TOL:
            return f"accessible {found.value!r} outside [0, chi = {chi!r}]"
        return None

    def run_hyperplane(self, inp):
        report = mub.hyperplane_orthogonality(inp["bases"])
        if not (report.passed and report.max_deviation < TOL):
            return f"deviation operators not orthogonal: {report.max_deviation!r}"
        return None

    def run_verify(self, inp):
        report = mub.verify_unbiased(inp["bases"])
        if not (report.passed and report.max_deviation < TOL):
            return f"rotated bases not unbiased: {report.max_deviation!r}"
        return None

    def run_typical(self, inp):
        p, length, eps = inp["p"], inp["length"], inp["epsilon"]
        report = coding.typical_set(p, length, eps)
        h = probability.shannon_entropy(p)
        low = report.count * 2.0 ** (-length * (h + eps))
        high = report.count * 2.0 ** (-length * (h - eps))
        total = report.total_probability
        if not (low * (1 - TOL) <= total <= min(high * (1 + TOL), 1.0 + TOL)):
            return f"typical-set probability {total!r} outside [{low!r}, {high!r}]"
        return None


class LargeDim(Identities):
    """A few heavy calls where arithmetic and Python loops dominate."""

    name = "large-dim"
    mub_dims = (11, 13, 17, 23, 29, 31)

    def build_schedule(self):
        return (
            [("block_rate", {"symbols": 2, "k": 16})]
            + [("hyperplane", {"n": n}) for n in (11, 13, 17)]
            + [("accessible", {"n": 3, "size": 3})]
            + [("verify", {"n": n}) for n in (23, 29, 31)]
            + [("block_rate", {"symbols": 3, "k": 10})]
            + [("info_sum", {"n": n}) for n in (23, 29, 31)]
            + [("accessible", {"n": 4, "size": 3})]
            + [("block_rate", {"symbols": 2, "k": k}) for k in (12, 14)]
            + [("reconstruct", {"n": n}) for n in (23, 29, 31)]
            + [("typical", {"symbols": 2, "length": 24}),
               ("typical", {"symbols": 3, "length": 15})]
            + [("accessible", {"n": 5, "size": 3})]
        )

    def make_info_sum(self, rng, cycle, n):
        return {"rho": density(rng, n, 1 + cycle % 3), "bases": self.rotated(rng, n)}

    make_reconstruct = make_info_sum

    def make_block_rate(self, rng, cycle, symbols, k):
        p = two_symbol(rng) if symbols == 2 else distribution(rng, 3) * 0.7 + 0.1
        return {"p": p, "k": k}


# ---------------------------------------------------------------- cli-cold

class CliCold(Workload):
    """One fresh interpreter per subcommand, inputs written as files."""

    name = "cli-cold"
    mub_dims = (2, 3, 5)

    def __init__(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        super().__init__(seed, workdir)

    def build_schedule(self):
        return [
            "entropy", "itot_bloch", "mub_sum_state", "holevo", "questions",
            "reject_sum", "bzinfo", "mub_verify", "reconstruct", "accessible",
            "grouping", "itot_state", "wrongbasis", "coding", "majorize",
            "reject_domain", "entangle_state", "mub_sum_bloch", "questions_block",
            "entangle_obs",
        ]

    def digest(self) -> str:
        h = hashlib.sha256()
        for argv, _, files in self._prefix:
            # file arguments by name only: the working directory differs per run
            digest_update(h, [os.path.basename(a) if a in files else a for a in argv])
            for name in files:
                with open(name, "rb") as handle:
                    h.update(handle.read())
        return h.hexdigest()

    def close(self):
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)

    def inputs(self, i: int):
        """(argv, check, files); check is REJECT or a payload predicate."""
        kind = self.schedule[i % len(self.schedule)]
        rng = np.random.default_rng([self.seed, i])
        cycle = i // len(self.schedule)
        files: list[str] = []

        def write(tag, doc):
            path = os.path.join(self.workdir, f"op{i}-{tag}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            files.append(path)
            return path

        command, argv, check = getattr(self, f"cli_{kind}")(rng, cycle, write)
        return [command] + argv + ["--json"], check, files

    # Each cli_* returns the subcommand, its arguments and the identity its
    # payload must meet. Values that may start with "-" are passed as
    # --option=value so argparse does not read them as options.

    def cli_entropy(self, rng, cycle, write):
        p = distribution(rng, 2 + cycle % 6)
        h = shannon(p)
        return "entropy", ["--dist", csv(p)], expect(
            lambda d: abs(d["entropy_bits"] - h) < TOL
            and -TOL <= d["entropy_bits"] <= math.log2(len(p)) + TOL)

    def cli_bzinfo(self, rng, cycle, write):
        p = distribution(rng, 2 + cycle % 6)
        value = float(((p - 1.0 / p.size) ** 2).sum())
        return "bzinfo", ["--dist", csv(p)], expect(lambda d: abs(d["information"] - value) < TOL)

    def cli_grouping(self, rng, cycle, write):
        p = distribution(rng, 3 + cycle % 5)
        return "grouping", ["--dist", csv(p)], expect(lambda d: abs(d["residual"]) < SCHUR_TOL)

    def cli_itot_bloch(self, rng, cycle, write):
        r = bloch(rng)
        value = float(r @ r) / 2.0
        return "itot", [f"--bloch={csv(r)}"], expect(
            lambda d: abs(d["total_information"] - value) < TOL)

    def cli_itot_state(self, rng, cycle, write):
        n = (3, 5)[cycle % 2]
        rho = density(rng, n, 1 + cycle % n)
        value = purity(rho) - 1.0 / n
        path = write("state", matrix_doc(rho))
        return "itot", ["--state", path], expect(
            lambda d: abs(d["total_information"] - value) < TOL)

    def cli_mub_verify(self, rng, cycle, write):
        n = (5, 7, 11)[cycle % 3]
        return "mub-verify", ["--dim", str(n)], expect(
            lambda d: d["bases"] == n + 1
            and d["unbiasedness"]["passed"] and d["hyperplane_orthogonality"]["passed"])

    def cli_mub_sum_bloch(self, rng, cycle, write):
        r = bloch(rng)
        value = float(r @ r) / 2.0
        return "mub-sum", [f"--bloch={csv(r)}"], expect(
            lambda d: abs(d["sum"] - value) < TOL and abs(d["direct"] - value) < TOL)

    def cli_mub_sum_state(self, rng, cycle, write):
        n = (3, 5)[cycle % 2]
        rho = density(rng, n, 1 + cycle % n)
        value = purity(rho) - 1.0 / n
        path = write("state", matrix_doc(rho))
        return "mub-sum", ["--state", path], expect(
            lambda d: abs(d["sum"] - value) < TOL and abs(d["direct"] - value) < TOL)

    def cli_reconstruct(self, rng, cycle, write):
        n = (2, 3)[cycle % 2]
        rho = density(rng, n, 1 + cycle % n)
        stats = [np.einsum("ji,jk,ki->i", u.conj(), rho, u).real for u in self.bases[n]]
        text = ";".join(csv(s / s.sum()) for s in stats)
        return "reconstruct", ["--probs", text], expect(
            lambda d: hs_distance(from_doc(d["state"]), rho) < TOL)

    def cli_holevo(self, rng, cycle, write):
        priors, states = ensemble(rng, 2 + cycle % 2, 2 + cycle % 3)
        path = write("ensemble", ensemble_doc(priors, states))
        h = shannon(priors)
        ceiling = min(h, math.log2(states[0].shape[0]))
        return "holevo", ["--ensemble", path], expect(
            lambda d: -TOL <= d["holevo_chi"] <= ceiling + TOL
            and abs(d["specification_information"] - h) < TOL)

    def cli_accessible(self, rng, cycle, write):
        priors, states = ensemble(rng, 2, 2 + cycle % 2)
        path = write("ensemble", ensemble_doc(priors, states))
        return "accessible", ["--ensemble", path], expect(
            lambda d: -TOL <= d["accessible_information"] <= d["holevo_chi"] + TOL)

    def cli_wrongbasis(self, rng, cycle, write):
        theta = float(rng.uniform(0.0, np.pi))
        c = math.cos(theta / 2.0) ** 2
        value = 1.0 - shannon([c, 1.0 - c])
        return "wrongbasis", ["--theta", repr(theta)], expect(
            lambda d: abs(d["mutual_information"] - value) < TOL
            and abs(d["source_entropy"] - d["conditional_entropy"] - value) < TOL)

    def cli_coding(self, rng, cycle, write):
        p = two_symbol(rng)
        length, eps = 16 + cycle % 5, 0.1
        h = shannon(p)

        def aep(d):
            low = d["count"] * 2.0 ** (-length * (h + eps))
            high = d["count"] * 2.0 ** (-length * (h - eps))
            return low * (1 - TOL) <= d["total_probability"] <= min(high * (1 + TOL), 1 + TOL)
        return "coding", ["--dist", csv(p), "--block", str(length), "--epsilon", repr(eps)], expect(aep)

    def cli_questions(self, rng, cycle, write):
        p = distribution(rng, 3 + cycle % 6)
        h = shannon(p)
        return "questions", ["--dist", csv(p)], expect(
            lambda d: h - TOL <= d["average_length"] < h + 1.0 and d["kraft_sum"] <= 1.0 + TOL)

    def cli_questions_block(self, rng, cycle, write):
        p = distribution(rng, 2 + cycle % 2)
        k = 4
        h = shannon(p)
        return "questions", ["--dist", csv(p), "--block", str(k)], expect(
            lambda d: h - TOL <= d["rate"] < h + 1.0 / k)

    def cli_majorize(self, rng, cycle, write):
        # a doubly stochastic image is always majorized by its source
        n = 2 + cycle % 6
        p = distribution(rng, n)
        q = doubly_stochastic(rng, n) @ p
        return "majorize", ["--p", csv(p), "--q", csv(q / q.sum())], expect(
            lambda d: d["p_majorizes_q"] is True)

    def cli_entangle_state(self, rng, cycle, write):
        rho = density(rng, 4, 1 + cycle % 4)
        total = 2.0 * (purity(rho) - 0.25)
        path = write("state", matrix_doc(rho))
        return "entangle", ["--state", path], expect(
            lambda d: d["individual"] > -TOL and d["correlation"] > -TOL
            and d["individual"] + d["correlation"] <= total + TOL)

    def cli_entangle_obs(self, rng, cycle, write):
        # xx and yy pin down a Bell state for every pair of answers
        a, b = (int(x) for x in rng.choice([-1, 1], size=2))
        return "entangle", ["--obs", "xx,yy", f"--answers={a},{b}"], expect(
            lambda d: abs(d["individual"]) < TOL and abs(d["correlation"] - 1.5) < TOL)

    # Inputs the CLI must reject with exit code 1 and no result. Each stays
    # invalid under every planned extension (6, 10, 12 and 15 are not prime
    # powers; a sum of 1.1, a Bloch length of 1.2 and epsilon 0 are out of domain).

    def cli_reject_sum(self, rng, cycle, write):
        p = distribution(rng, 2 + cycle % 4)
        p[0] += 0.1
        command = ("entropy", "bzinfo", "questions")[cycle % 3]
        return command, ["--dist", csv(p)], REJECT

    def cli_reject_domain(self, rng, cycle, write):
        kind = cycle % 3
        if kind == 0:
            return "mub-verify", ["--dim", str(int(rng.choice([6, 10, 12, 15])))], REJECT
        if kind == 1:
            r = bloch(rng)
            return "itot", [f"--bloch={csv(r / np.linalg.norm(r) * 1.2)}"], REJECT
        return "coding", ["--dist", csv(two_symbol(rng)), "--block", "8", "--epsilon", "0"], REJECT


REJECT = "reject"


def expect(predicate):
    """A payload check: the identity must hold, and a missing field is a failure."""
    def check(payload):
        try:
            return None if predicate(payload) else "identity does not hold"
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed payload: {exc!r}"
    return check


def check_cli(check, code: int, stdout: str, stderr: str) -> str | None:
    """Judge one CLI run: exit code, output shape, then the payload's identity."""
    if check is REJECT:
        if code != 1:
            return f"expected rejection with exit code 1, got {code}"
        if stdout.strip():
            return "rejected input still printed a result"
        if not stderr.startswith("error:"):
            return "rejection without an error message"
        return None
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:200]}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return f"unparseable stdout: {stdout[:80]!r}"
    if not isinstance(payload, dict):
        return "stdout is not a JSON object"
    return check(payload)


def csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def bloch(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v) * rng.uniform(0.1, 1.0)


def ensemble(rng, n, size):
    return distribution(rng, size), [density(rng, n, 1 + j % n) for j in range(size)]


def matrix_doc(rho):
    return {"dim": int(rho.shape[0]),
            "matrix": [[[float(x.real), float(x.imag)] for x in row] for row in rho]}


def ensemble_doc(priors, states):
    return {"priors": [float(p) for p in priors], "states": [matrix_doc(s) for s in states]}


def from_doc(doc):
    return np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])


def purity(rho):
    return float(np.einsum("ij,ji->", rho, rho).real)


def hs_distance(a, b):
    diff = a - b
    return float(np.sqrt(max(np.einsum("ij,ji->", diff, diff).real, 0.0)))


WORKLOADS = {w.name: w for w in (Identities, LargeDim, CliCold)}


def setup(name: str, seed: int, workdir: str):
    """Generate a workload's inputs and build its MUB sets."""
    return WORKLOADS[name](seed, workdir)
