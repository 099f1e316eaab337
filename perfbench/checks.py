"""Correctness checks of every command output, run after the timed region.

Each output gets three kinds of check:

- live checks that need no stored answer (edge residuals, the Stieltjes
  fixed-point residual, F1 against the Painleve-II oracle of
  ``tests/oracles.py``, eigenvalues and resolvents recomputed another way);
- agreement with the checked-in reference output, when the command is the
  one the reference was made with (the workload seed and one held-out seed,
  and every seed for commands the seed does not change);
- agreement with the first pass of the same run, since every pass repeats
  the same inputs.

Tolerances are the ones the tier-1 tests use for the same quantities.
Every problem found is returned as a message; none passes silently.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from spectraledge import edge_residuals, load_spectrum, sample_matrix, solve_edge, solve_stieltjes
from spectraledge.locallaw import DEVIATION_CLASSES

from workloads import REFERENCE_SEEDS, commands

EDGE_RESIDUAL_TOL = 1e-10   # test_edge: first_order, R1, R2
EDGE_VALUE_TOL = 1e-10      # test_edge: xi_r, lambda_r, b, gamma0
DENSITY_TOL = 1e-6          # test_stieltjes: density and real-axis s
FIXED_POINT_TOL = 1e-10     # test_stieltjes: StieltjesValue.residual
ETA_FLOOR = 1e-9            # the solver's boundary-value offset for real E
FLOW_TOL = 1e-6             # test_flow, test_cli: finite difference vs analytic
IDENTITY_TOL = 1e-9         # test_identities
IMCANCEL_TOL = 1e-8         # test_identities: imcancel
F1_TOL = 1e-6               # test_tracywidom: F1 vs Painleve, f1 vs finite difference
MU1_RTOL = 1e-10            # test_montecarlo: largest_eigenvalue vs SVD and closed forms
KS_TOL = 1e-6               # sup |F1 - Painleve| <= F1_TOL moves the KS distance by at most as much
RESOLVENT_TOL = 1e-8        # test_locallaw: Ward and resolvent identities
RELATION_RTOL = 1e-9        # quantities the command derives from its own outputs


def _close(actual, expected, tol) -> np.ndarray:
    """Scale-relative agreement: |a - b| <= tol * max(1, |b|), elementwise."""
    actual = np.asarray(actual, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    return np.abs(actual - expected) <= tol * np.maximum(1.0, np.abs(expected))


def _bad(label: str, what: str, actual, expected, tol) -> list[str]:
    ok = _close(actual, expected, tol)
    if ok.all():
        return []
    i = int(np.argmin(ok.ravel()))
    a = np.ravel(actual)[i]
    b = np.ravel(expected)[i]
    return [f"{label}: {what} off at row {i}: {a!r} vs {b!r} (tol {tol:g})"]


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _columns(path: Path, names) -> dict[str, np.ndarray]:
    header, rows = _read_csv(path)
    return {name: np.array([float(r[header.index(name)]) for r in rows]) for name in names}


def _arg(cmd, flag: str) -> str:
    return cmd.args[cmd.args.index(flag) + 1]


def load_oracles(root: Path):
    """``tests/oracles.py`` as a module, imported read-only by file path."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolvent_deviations(model, Y: np.ndarray, z: complex, sv) -> dict[str, float]:
    """Class maxima of |G - profile| from one SVD of Y, without the (M+N)^2 linearization.

    With Y = U diag(s) V^T:  G11 = U diag(1/(s^2-z)) U^T,  G12 = U diag(s/(s^2-z)) V^T,
    G22 = V diag(z/(s^2-z)) V^T - (I - V V^T).
    """
    M, N = model.M, model.N
    c = model.c_N
    U, s, Vt = np.linalg.svd(Y, full_matrices=False)
    inv = 1.0 / (s**2 - z)

    def sandwich(left, weights, right):
        return (left * weights.real) @ right + 1j * ((left * weights.imag) @ right)

    G11 = sandwich(U, inv, U.T)
    G12 = sandwich(U, s * inv, Vt)
    G22 = sandwich(Vt.T, z * inv, Vt) - (np.eye(N) - Vt.T @ Vt)

    b, w = sv.b, sv.w
    tb = z * b - (1.0 - c)
    denom = model.d_sq - w
    idx = np.arange(M)
    devs = {
        "ii": np.abs(G11[idx, idx] - b / denom).max(),
        "barbar": np.abs(G22[idx, idx] - tb / denom).max(),
        "cross": np.abs(G12[idx, idx] - model.d / denom).max(),
        "mumu": np.abs(G22[M:, M:].diagonal() + 1.0 / b).max() if N > M else 0.0,
    }
    # off-diagonal entries without the partner pairs (i, M+i); G21 = G12^T adds nothing new
    off = []
    for block in (G11, G12, G22):
        a = np.abs(block)
        np.fill_diagonal(a, 0.0)
        off.append(a.max())
    devs["offdiag"] = max(off)
    devs["avg"] = abs(complex(np.mean(G11[idx, idx])) - sv.s)
    return {k: float(v) for k, v in devs.items()}


class Checker:
    """Checks the outputs of one workload run; ``check`` lists the problems of one command."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.commands = {c.label: c for c in commands(workload, seed)}
        self.references = self._matching_references()
        self._painleve = None
        self._models = {}
        self._edges = {}

    def _matching_references(self) -> dict[str, Path]:
        found = {}
        for ref_seed in REFERENCE_SEEDS:
            ref_dir = self.root / "perfbench" / "reference" / self.workload / f"seed{ref_seed}"
            made_with = json.loads((ref_dir / "commands.json").read_text())
            for label, cmd in self.commands.items():
                if made_with.get(label) == list(cmd.args):
                    found[label] = ref_dir / cmd.out
        return found

    @property
    def painleve(self):
        if self._painleve is None:
            self._painleve = load_oracles(self.root).PainleveF1()
        return self._painleve

    def model(self, cmd):
        """The spectrum model a command ran on."""
        path = _arg(cmd, "--spectrum")
        if path not in self._models:
            self._models[path] = load_spectrum(json.loads((self.root / path).read_text()))
        return self._models[path]

    def edge(self, cmd):
        path = _arg(cmd, "--spectrum")
        if path not in self._edges:
            self._edges[path] = solve_edge(self.model(cmd))
        return self._edges[path]

    def check(self, label: str, pass_dir: Path, first_dir: Path | None = None) -> list[str]:
        """Problems of one command's output; ``first_dir`` is the run's first pass, if this is not it.

        The checks that recompute program results another way run on the
        first pass only; later passes must agree with it.
        """
        cmd = self.commands[label]
        path = pass_dir / cmd.out
        if not path.is_file():
            return [f"{label}: missing output {path.name}"]
        kind = cmd.name.replace("-", "_")
        try:
            problems = getattr(self, f"_live_{kind}")(cmd, path, first_dir is None)
            compare = getattr(self, f"_compare_{kind}")
            if label in self.references:
                problems += [f"reference: {p}" for p in compare(cmd, path, self.references[label])]
            if first_dir is not None:
                problems += [f"pass 0: {p}" for p in compare(cmd, path, first_dir / cmd.out)]
        except Exception as exc:  # a malformed output is a failed check, never a crash of the run
            problems = [f"{label}: unreadable output ({type(exc).__name__}: {exc})"]
        return problems

    # -- edge ---------------------------------------------------------------

    def _live_edge(self, cmd, path, full):
        payload = json.loads(path.read_text())
        problems = [
            f"edge: residual {key} = {payload['residuals'][key]!r} > {EDGE_RESIDUAL_TOL:g}"
            for key in ("first_order", "R1", "R2")
            if not payload["residuals"][key] <= EDGE_RESIDUAL_TOL
        ]
        if not payload["assumption3_margin"] > 0:
            problems.append("edge: assumption 3 margin is not positive")
        return problems

    def _compare_edge(self, cmd, path, ref_path):
        got, ref = json.loads(path.read_text()), json.loads(ref_path.read_text())
        problems = []
        for key in ("xi_r", "lambda_r", "b", "tb", "h", "gamma0", "E_plus", "xi", "assumption3_margin"):
            problems += _bad("edge", key, got[key], ref[key], EDGE_VALUE_TOL)
        return problems

    # -- density ------------------------------------------------------------

    def _live_density(self, cmd, path, full):
        col = _columns(path, ("E", "rho0", "Im_s", "Re_s"))
        E = col["E"]
        if E.size != cmd.items:
            return [f"density: {E.size} grid points, expected {cmd.items}"]
        start, step = float(_arg(cmd, "--from")), float(_arg(cmd, "--step"))
        problems = _bad("density", "grid", E, start + step * np.arange(E.size), 1e-9)
        s = col["Re_s"] + 1j * col["Im_s"]
        if np.any(col["Im_s"] < 0):
            problems.append("density: Im s < 0 off the upper half plane")
        problems += _bad("density", "rho0", col["rho0"], np.maximum(0.0, col["Im_s"] / math.pi),
                         RELATION_RTOL)
        # s must solve s = mean 1/(d^2/(1+cs) - z(1+cs) + 1 - c), at z = E + i eta_floor
        # as the solver takes boundary values, or at z = E for a solver that works on the axis
        model = self.model(cmd)
        c = model.c_N
        beta = 1.0 + c * s

        def fixed_point_residual(z):
            den = model.d_sq[None, :] / beta[:, None] - (z * beta)[:, None] + (1.0 - c)
            return np.abs(np.mean(1.0 / den, axis=1) - s)

        residual = np.minimum(fixed_point_residual(E + 1j * ETA_FLOOR), fixed_point_residual(E + 0j))
        if not np.all(residual <= FIXED_POINT_TOL):
            i = int(np.argmax(residual))
            problems.append(f"density: fixed-point residual {residual[i]:.3e} at E={E[i]!r}")
        return problems

    def _compare_density(self, cmd, path, ref_path):
        got = _columns(path, ("E", "rho0", "Im_s", "Re_s"))
        ref = _columns(ref_path, ("E", "rho0", "Im_s", "Re_s"))
        if got["E"].size != ref["E"].size:
            return [f"density: {got['E'].size} rows vs {ref['E'].size}"]
        problems = []
        for key in ("E", "rho0", "Im_s", "Re_s"):
            problems += _bad("density", key, got[key], ref[key], DENSITY_TOL)
        return problems

    # -- flow-check ---------------------------------------------------------

    _FLOW_COLUMNS = ("res_b", "res_gamma", "res_E_plus", "res_xi", "res_h")

    def _live_flow_check(self, cmd, path, full):
        col = _columns(path, ("t",) + self._FLOW_COLUMNS)
        if col["t"].size != cmd.items:
            return [f"flow-check: {col['t'].size} times, expected {cmd.items}"]
        step = float(_arg(cmd, "--t-step"))
        problems = _bad("flow-check", "t", col["t"], step * np.arange(cmd.items), 1e-12)
        for key in self._FLOW_COLUMNS:
            if not np.all(col[key] <= FLOW_TOL):
                problems.append(f"flow-check: {key} max {np.max(col[key])!r} > {FLOW_TOL:g}")
        return problems

    def _compare_flow_check(self, cmd, path, ref_path):
        got = _columns(path, ("t",) + self._FLOW_COLUMNS)
        ref = _columns(ref_path, ("t",) + self._FLOW_COLUMNS)
        if got["t"].size != ref["t"].size:
            return [f"flow-check: {got['t'].size} rows vs {ref['t'].size}"]
        problems = []
        for key in ("t",) + self._FLOW_COLUMNS:
            problems += _bad("flow-check", key, got[key], ref[key], FLOW_TOL)
        return problems

    # -- identity-check -----------------------------------------------------

    @staticmethod
    def _identity_tol(key: str) -> float:
        return IMCANCEL_TOL if key == "imcancel" else IDENTITY_TOL

    def _live_identity_check(self, cmd, path, full):
        payload = json.loads(path.read_text())
        expected = {"varphi2", "psi2", "varphi3", "varpi2", "Phi1", "Phi2", "theta4", "imcancel"}
        if set(payload) != expected:
            return [f"identity-check: keys {sorted(payload)}"]
        return [
            f"identity-check: {key} = {value!r} > {self._identity_tol(key):g}"
            for key, value in payload.items()
            if not value <= self._identity_tol(key)
        ]

    def _compare_identity_check(self, cmd, path, ref_path):
        got, ref = json.loads(path.read_text()), json.loads(ref_path.read_text())
        problems = []
        for key in ref:
            problems += _bad("identity-check", key, got[key], ref[key], self._identity_tol(key))
        return problems

    # -- twtable ------------------------------------------------------------

    def _live_twtable(self, cmd, path, full):
        col = _columns(path, ("s", "F1", "f1"))
        if col["s"].size != cmd.items:
            return [f"twtable: {col['s'].size} rows, expected {cmd.items}"]
        start, step = float(_arg(cmd, "--from")), float(_arg(cmd, "--step"))
        problems = _bad("twtable", "s", col["s"], start + step * np.arange(cmd.items), 1e-12)
        oracle_F = [self.painleve.cdf(float(s)) for s in col["s"]]
        oracle_f = [self.painleve.pdf(float(s)) for s in col["s"]]
        problems += _bad("twtable", "F1 vs Painleve", col["F1"], oracle_F, F1_TOL)
        problems += _bad("twtable", "f1 vs Painleve", col["f1"], oracle_f, F1_TOL)
        return problems

    def _compare_twtable(self, cmd, path, ref_path):
        got, ref = _columns(path, ("s", "F1", "f1")), _columns(ref_path, ("s", "F1", "f1"))
        if got["s"].size != ref["s"].size:
            return [f"twtable: {got['s'].size} rows vs {ref['s'].size}"]
        problems = _bad("twtable", "s", got["s"], ref["s"], 1e-12)
        problems += _bad("twtable", "F1", got["F1"], ref["F1"], F1_TOL)
        problems += _bad("twtable", "f1", got["f1"], ref["f1"], F1_TOL)
        return problems

    # -- simulate -----------------------------------------------------------

    @staticmethod
    def _summary(path: Path) -> dict:
        return json.loads(Path(str(path) + ".summary.json").read_text())

    def _live_simulate(self, cmd, path, full):
        col = _columns(path, ("trial", "mu1", "theta"))
        n = cmd.items
        if col["trial"].size != n:
            return [f"simulate: {col['trial'].size} trials, expected {n}"]
        summary = self._summary(path)
        model, edge = self.model(cmd), self.edge(cmd)
        problems = _bad("simulate", "trial index", col["trial"], np.arange(n), 0.0)
        residuals = edge_residuals(model, edge)
        problems += [f"simulate: edge residual {key} = {residuals[key]!r}" for key in ("first_order", "R1", "R2")
                     if not residuals[key] <= EDGE_RESIDUAL_TOL]
        problems += _bad("simulate", "lambda_r", summary["lambda_r"], edge.lambda_r, EDGE_VALUE_TOL)
        problems += _bad("simulate", "gamma0", summary["gamma0"], edge.gamma0, EDGE_VALUE_TOL)
        N23 = model.N ** (2.0 / 3.0)
        theta = summary["gamma0"] * N23 * (col["mu1"] - summary["lambda_r"])
        problems += _bad("simulate", "theta", col["theta"], theta, RELATION_RTOL)
        problems += _bad("simulate", "mean", summary["mean"], np.mean(col["theta"]), RELATION_RTOL)
        problems += _bad("simulate", "var", summary["var"], np.var(col["theta"]), RELATION_RTOL)
        sorted_theta = np.sort(col["theta"])
        F = np.array([self.painleve.cdf(float(x)) for x in sorted_theta])
        grid = np.arange(1, n + 1) / n
        ks = float(np.max(np.maximum(grid - F, F - (grid - 1.0 / n))))
        problems += _bad("simulate", "KS vs Painleve", summary["ks"], ks, KS_TOL)
        if full:
            dist, seed = _arg(cmd, "--dist"), int(_arg(cmd, "--seed"))
            for trial in sorted({0, n // 2, n - 1}):
                Y = sample_matrix(model, dist, seed, trial)
                mu1 = float(np.linalg.eigvalsh(Y @ Y.T)[-1])
                problems += _bad("simulate", f"mu1 of trial {trial} vs eigvalsh",
                                 col["mu1"][trial], mu1, MU1_RTOL)
        return problems

    def _compare_simulate(self, cmd, path, ref_path):
        got, ref = _columns(path, ("mu1",)), _columns(ref_path, ("mu1",))
        if got["mu1"].size != ref["mu1"].size:
            return [f"simulate: {got['mu1'].size} trials vs {ref['mu1'].size}"]
        got_s, ref_s = self._summary(path), self._summary(ref_path)
        problems = _bad("simulate", "mu1", got["mu1"], ref["mu1"], MU1_RTOL)
        problems += _bad("simulate", "ks", got_s["ks"], ref_s["ks"], KS_TOL)
        for key in ("lambda_r", "gamma0"):
            problems += _bad("simulate", key, got_s[key], ref_s[key], EDGE_VALUE_TOL)
        return problems

    # -- locallaw -----------------------------------------------------------

    def _locallaw_rows(self, path: Path):
        header, rows = _read_csv(path)
        seeds = [int(r[0]) for r in rows]
        classes = [r[1] for r in rows]
        values = np.array([[float(x) for x in r[2:]] for r in rows])
        return seeds, classes, values  # values columns: deviation, psi, ratio

    def _live_locallaw(self, cmd, path, full):
        seeds, classes, values = self._locallaw_rows(path)
        first, count = int(_arg(cmd, "--seed")), cmd.items
        expected_seeds = [s for s in range(first, first + count) for _ in DEVIATION_CLASSES]
        if seeds != expected_seeds or classes != list(DEVIATION_CLASSES) * count:
            return ["locallaw: rows are not one per (seed, class)"]
        dev, psi, ratio = values[:, 0], values[:, 1], values[:, 2]
        model = self.model(cmd)
        N = model.N
        eta = N ** -0.5
        is_avg = np.array([c == "avg" for c in classes])
        expected_ratio = np.where(is_avg, dev * N * eta, dev / psi)
        problems = _bad("locallaw", "ratio", ratio, expected_ratio, RELATION_RTOL)
        problems += _bad("locallaw", "psi per seed", psi,
                         np.repeat(psi[:: len(DEVIATION_CLASSES)], len(DEVIATION_CLASSES)), 0.0)
        if full:
            z = complex(self.edge(cmd).lambda_r, eta)
            sv = solve_stieltjes(model, z)
            psi_expected = math.sqrt(max(sv.s.imag, 0.0) / (N * eta)) + 1.0 / (N * eta)
            problems += _bad("locallaw", "psi", psi, psi_expected, RESOLVENT_TOL)
            dist = _arg(cmd, "--dist")
            for k, seed in enumerate(range(first, first + count)):
                Y = sample_matrix(model, dist, seed, 0)
                devs = resolvent_deviations(model, Y, z, sv)
                rows = slice(k * len(DEVIATION_CLASSES), (k + 1) * len(DEVIATION_CLASSES))
                problems += _bad("locallaw", f"seed {seed} deviations vs SVD resolvent", dev[rows],
                                 [devs[c] for c in DEVIATION_CLASSES], RESOLVENT_TOL)
        return problems

    def _compare_locallaw(self, cmd, path, ref_path):
        got_seeds, got_classes, got = self._locallaw_rows(path)
        ref_seeds, ref_classes, ref = self._locallaw_rows(ref_path)
        if (got_seeds, got_classes) != (ref_seeds, ref_classes):
            return ["locallaw: rows differ from the reference"]
        problems = _bad("locallaw", "deviation", got[:, 0], ref[:, 0], RESOLVENT_TOL)
        problems += _bad("locallaw", "psi", got[:, 1], ref[:, 1], RESOLVENT_TOL)
        return problems


def judge(passes: list[dict], checker, work: Path) -> list[str]:
    """Mark each command run ``ok`` or not and return the problems found.

    A run fails when its command exited nonzero or raised, or when its output
    fails a check.  Later passes are compared with pass 0 once pass 0 passed.
    """
    failures = []
    good_first = set()
    for p in passes:
        for run in p["commands"]:
            label = run["label"]
            if run["rc"] != 0:
                detail = run["error"].strip().splitlines()[-1] if run["error"] else f"exit code {run['rc']}"
                problems = [f"{label}: {detail}"]
            else:
                first = work / "pass0" if p["pass"] > 0 and label in good_first else None
                problems = checker.check(label, work / f"pass{p['pass']}", first)
            if not problems and p["pass"] == 0:
                good_first.add(label)
            failures += [f"pass {p['pass']}: {msg}" for msg in problems[:3]]
            run["ok"] = not problems
    return failures
