"""Independent checker for the CSVs a benchmark job writes.

Nothing here calls ringstar.  The references are rebuilt from the physics:

- the star Hamiltonian from the formula in the star module's docstring,
  propagated with scipy.linalg.expm;
- ring doublets by exact diagonalization of each total-S_z sector (a
  different basis and construction from the program's dense kron route);
- effective couplings from the exchange-weighted sums of doublet matrix
  elements, and Delta transitions from their closed-form roots (both sums
  are affine in the linker ratio b).

The tolerances are the repository's fixed ones: 1e-10 for norms, closed
forms and W-state errors, 1e-9 for cross-checked propagation, 1e-8 for the
transfer fidelity.  Each check returns a list of problems; an empty list
means the job's output is correct.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

NORM_TOL = 1e-10
PROPAGATION_TOL = 1e-9
W_ERROR_TOL = 1e-10
TRANSFER_TOL = 1e-8
COUPLING_TOL = 1e-9
CONSTRAINT_RTOL = 1e-10
SAMPLED_TIMES = 5


# --------------------------------------------------------------------------
# references


def star_hamiltonian(gammas, deltas) -> np.ndarray:
    g = np.asarray(gammas, dtype=float)
    p = g * (1.0 + np.asarray(deltas, dtype=float))
    n = g.size
    h = np.zeros((n + 1, n + 1))
    h[np.arange(n), np.arange(n)] = p * (n - 2) / 4.0
    h[n, n] = -p.sum() / 4.0
    h[:n, n] = h[n, :n] = g / 2.0
    return h


def propagate(h: np.ndarray, state: np.ndarray, t: float) -> np.ndarray:
    return expm(-1j * t * h) @ state


def constraint_holds(gammas, deltas) -> bool:
    g = np.asarray(gammas, dtype=float)
    p = g * (1.0 + np.asarray(deltas, dtype=float))
    c = float(np.median(p))
    return bool(np.abs(p - c).max() <= CONSTRAINT_RTOL * max(abs(c), float(np.abs(g).max())))


def site_ratio(n: int, c: float, winding: int, branch: str) -> float:
    """Self-consistent squared coupling ratio p of site-sourced W generation
    with unit source coupling: the smallest p on a log scan that equalizes
    the populations at the winding time (formulas of the protocols docstring)."""
    sign = 1.0 if branch == "plus" else -1.0

    def residual(p: float) -> float:
        b = c * (n - 1) / (2.0 * math.sqrt(1.0 + (n - 1) * p))
        theta = winding * math.pi * (b / math.hypot(1.0, b) - 1.0)
        disc = 2.0 * n * (1.0 - math.cos(theta)) - n * n * math.sin(theta) ** 2
        if disc < -1e-12:
            return math.nan
        return p - (1.0 - n * math.cos(theta) + sign * math.sqrt(max(disc, 0.0))) / (n - 1) ** 2

    scan = np.geomspace(1e-6, 1e6, 2401)
    values = [residual(p) for p in scan]
    for lo, hi, f_lo, f_hi in zip(scan, scan[1:], values, values[1:]):
        if f_lo * f_hi < 0.0:
            return float(brentq(residual, lo, hi, xtol=1e-15, rtol=8.9e-16))
    raise ValueError("no coupling ratio")


def grid(spec) -> np.ndarray:
    if isinstance(spec, dict):
        return np.linspace(spec["start"], spec["stop"], spec["num"])
    return np.asarray(spec, dtype=float)


def cr_ni(x: int, exchange=17.0, a=0.9, d=0.3) -> tuple:
    """(spins, bonds, fields) of x spin-3/2 sites closed by one spin-1 site."""
    return ((1.5,) * x + (1.0,), (float(exchange),) * x + (a * exchange,),
            (float(d),) * (x + 1))


class RingDoublet:
    """Ground doublet of one ring, from its total-S_z sectors."""

    def __init__(self, spins, bonds, fields):
        self.spins = spins
        n = len(spins)
        levels = [[s - k for k in range(int(round(2 * s)) + 1)] for s in spins]
        sectors: dict[int, list] = {}
        for state in itertools.product(*levels):
            sectors.setdefault(int(round(2 * sum(state))), []).append(state)
        energies, vectors = np.linalg.eigh(self._sector_hamiltonian(sectors[1], bonds, fields))
        ket1 = vectors[:, 0]
        ket0 = np.linalg.eigh(self._sector_hamiltonian(sectors[-1], bonds, fields))[1][:, 0]
        # the crystal field breaks total-spin symmetry, so the next level may sit
        # in any sector; sectors +M and -M are degenerate by time reversal
        above = [energies[1]] + [np.linalg.eigvalsh(self._sector_hamiltonian(
            sectors[two_m], bonds, fields))[0] for two_m in sectors if two_m > 1]
        self.gap = float(min(above) - energies[0])
        index1 = {s: i for i, s in enumerate(sectors[1])}
        x10 = np.zeros(n)
        z00 = np.zeros(n)
        for amp, state in zip(ket0, sectors[-1]):
            for k in range(n):
                z00[k] += state[k] * amp * amp
                raised = self._raise(state, k)
                if raised is not None:
                    x10[k] += 0.5 * ket1[index1[raised[0]]] * raised[1] * amp
        if x10[0] < 0.0:
            x10 = -x10
        self.x10 = x10
        self.z00 = z00

    def _lower(self, state, k):
        s, m = self.spins[k], state[k]
        if m <= -s:
            return None
        return state[:k] + (m - 1,) + state[k + 1:], math.sqrt(s * (s + 1) - m * (m - 1))

    def _raise(self, state, k):
        s, m = self.spins[k], state[k]
        if m >= s:
            return None
        return state[:k] + (m + 1,) + state[k + 1:], math.sqrt(s * (s + 1) - m * (m + 1))

    def _sector_hamiltonian(self, basis, bonds, fields) -> np.ndarray:
        n = len(self.spins)
        index = {s: i for i, s in enumerate(basis)}
        h = np.zeros((len(basis), len(basis)))
        for i, state in enumerate(basis):
            for k in range(n):
                nxt = (k + 1) % n
                s = self.spins[k]
                h[i, i] += bonds[k] * state[k] * state[nxt]
                h[i, i] += fields[k] * (state[k] ** 2 - s * (s + 1) / 3.0)
                for first, second in ((self._raise, self._lower), (self._lower, self._raise)):
                    step = first(state, k)
                    if step is None:
                        continue
                    step2 = second(step[0], nxt)
                    if step2 is not None:  # total S_z is conserved, so it is in the sector
                        h[index[step2[0]], i] += 0.5 * bonds[k] * step[1] * step2[1]
        return h


def pair_sums(ring: RingDoublet, central: RingDoublet, links) -> tuple[float, float]:
    """(transverse sum, longitudinal sum) over linkers (ring_site, central_site, J)."""
    x_sum = sum(j * ring.x10[m - 1] * central.x10[n - 1] for m, n, j in links)
    z_sum = sum(j * ring.z00[m - 1] * central.z00[n - 1] for m, n, j in links)
    return float(x_sum), float(z_sum)


# --------------------------------------------------------------------------
# CSV parsing


def parse_csv(data: bytes) -> tuple[list[str], list[list[str]]]:
    text = data.decode("utf-8")
    if not text.endswith("\n"):
        raise ValueError("file does not end with a newline")
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged rows")
    return header, rows


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# --------------------------------------------------------------------------
# the checker


# suffixes of the files a command writes next to --out (besides --out itself)
OUTPUT_SUFFIXES = {"wgen": ("", "-network"), "transfer": ("", "-program")}


class Checker:
    """Checks job outputs; caches reference ring doublets across jobs."""

    def __init__(self):
        self._rings: dict[tuple, RingDoublet] = {}

    def ring(self, spins, bonds, fields) -> RingDoublet:
        key = (tuple(spins), tuple(bonds), tuple(fields))
        if key not in self._rings:
            self._rings[key] = RingDoublet(*key)
        return self._rings[key]

    def check(self, job: dict, rc, files: dict[str, bytes], result=None) -> list[str]:
        """files maps output suffix ("", "-network", "-program") to bytes."""
        if rc != job["expect"]:
            return [f"exit code {rc}, expected {job['expect']}"]
        if job["expect"] != 0:
            return [f"refused job left {sorted(files)}"] if files else []
        if job["kind"] == "transitions":
            return self.transitions(job["config"], result)
        expected = OUTPUT_SUFFIXES.get(job["command"], ("",))
        if sorted(files) != sorted(expected):
            return [f"wrote {sorted(files)}, expected {sorted(expected)}"]
        try:
            tables = {k: parse_csv(v) for k, v in files.items()}
            method = getattr(self, job["command"].replace("-", "_"))
            return method(job["config"], tables)
        except (KeyError, ValueError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    # -- networks ----------------------------------------------------------

    def network(self, cfg: dict) -> tuple[np.ndarray, np.ndarray]:
        if cfg["mode"] == "effective":
            return (np.asarray(cfg["effective"]["gammas"], dtype=float),
                    np.asarray(cfg["effective"]["deltas"], dtype=float))
        micro = cfg["microscopic"]
        central = self.ring(*cr_ni(**_short(micro["central"])))
        gammas, deltas = [], []
        for spec, links in zip(micro["rings"], micro["linkers"]):
            ring = self.ring(*cr_ni(**_short(spec)))
            x_sum, z_sum = pair_sums(ring, central, [
                (lk["ring_site"], lk["central_site"], lk["strength"]) for lk in links])
            gammas.append(cfg.get("coupling_scale", 1.0) * x_sum)
            deltas.append(1.0 - z_sum / x_sum)
        return np.array(gammas), np.array(deltas)

    @staticmethod
    def initial(cfg: dict, dim: int) -> np.ndarray:
        v = np.zeros(dim, dtype=complex)
        site = cfg["protocol"]["initial"]
        v[dim - 1 if site == "center" else site - 1] = 1.0
        return v

    # -- commands ----------------------------------------------------------

    def evolve(self, cfg, tables) -> list[str]:
        header, rows = tables[""]
        g, d = self.network(cfg)
        dim = g.size + 1
        times = grid(cfg["grids"]["time"])
        problems = []
        if len(header) != 1 + 2 * dim or len(rows) != times.size:
            return [f"shape {len(rows)}x{len(header)}, expected {times.size}x{1 + 2 * dim}"]
        amps = np.array([[float(c) for c in r[1:]] for r in rows])
        states = amps[:, 0::2] + 1j * amps[:, 1::2]
        if any(float(r[0]) != t for r, t in zip(rows, times)):
            problems.append("time column differs from the grid")
        drift = float(np.abs(np.linalg.norm(states, axis=1) - 1.0).max())
        if drift > NORM_TOL:
            problems.append(f"norm drift {drift:.3e}")
        h = star_hamiltonian(g, d)
        start = self.initial(cfg, dim)
        for i in _sample(times.size):
            dev = float(np.abs(states[i] - propagate(h, start, times[i])).max())
            if dev > PROPAGATION_TOL:
                problems.append(f"row {i} deviates {dev:.3e} from expm")
        return problems

    def spectrum(self, cfg, tables) -> list[str]:
        header, rows = tables[""]
        g, d = self.network(cfg)
        dim = g.size + 1
        if len(rows) != dim or len(header) != 3 + dim:
            return [f"shape {len(rows)}x{len(header)}, expected {dim}x{3 + dim}"]
        h = star_hamiltonian(g, d)
        scale = max(1.0, float(np.abs(h).max()))
        values = np.array([float(r[2]) for r in rows])
        vectors = np.array([[float(c) for c in r[3:]] for r in rows]).T
        kinds = [r[1] for r in rows]
        expected = (["degenerate"] * (dim - 2) + ["pair"] * 2 if constraint_holds(g, d)
                    else ["numeric"] * dim)
        problems = [] if kinds == expected else ["eigenvalue kinds differ"]
        dev = float(np.abs(np.sort(values) - np.linalg.eigvalsh(h)).max())
        if dev > PROPAGATION_TOL * scale:
            problems.append(f"eigenvalues deviate {dev:.3e}")
        resid = float(np.abs(h @ vectors - vectors * values).max())
        ortho = float(np.abs(vectors.T @ vectors - np.eye(dim)).max())
        if resid > PROPAGATION_TOL * scale or ortho > PROPAGATION_TOL:
            problems.append(f"eigenvector residual {resid:.3e}, orthogonality {ortho:.3e}")
        return problems

    def wgen(self, cfg, tables) -> list[str]:
        (plan_header, plan_rows), (_, site_rows) = tables[""], tables["-network"]
        if len(plan_rows) != 1:
            return ["plan must have one row"]
        plan = dict(zip(plan_header, plan_rows[0]))
        g = np.array([float(r[1]) for r in site_rows])
        d = np.array([float(r[2]) for r in site_rows])
        n = g.size
        problems = []
        if float(plan["predicted_error"]) > W_ERROR_TOL:
            problems.append(f"predicted error {plan['predicted_error']}")
        if not _close(float(plan["omega"]), float(np.sqrt((g ** 2).sum())), 1e-12):
            problems.append("omega differs from the network")
        protocol = cfg["protocol"]
        start = np.zeros(n + 1, dtype=complex)
        source = protocol["source"]
        if source == "center":
            start[n] = 1.0
            if n != len(cfg["effective"]["gammas"]):
                problems.append("network size differs from the config")
        else:
            start[source - 1] = 1.0
            if n != protocol["n_sites"] or not _close(g[source - 1], protocol["gamma_source"],
                                                       1e-12):
                problems.append("solved network does not match the request")
            products = g * (1.0 + d)
            if np.abs(products - protocol["constraint"]).max() > 1e-10 * max(1.0, abs(g).max()):
                problems.append("solved network breaks the constraint")
        state = propagate(star_hamiltonian(g, d), start, float(plan["t_w"]))
        if source != "center":
            state[source - 1] *= np.exp(-1j * float(plan["chi"]))
        error = 1.0 - abs(state[:n].sum() / math.sqrt(n)) ** 2
        if error > W_ERROR_TOL:
            problems.append(f"independent W error {error:.3e}")
        return problems

    def sweep_fluct(self, cfg, tables) -> list[str]:
        header, rows = tables[""]
        deltas = grid(cfg["grids"]["delta"])
        if header != ["delta", "E_r"] or len(rows) != deltas.size:
            return ["unexpected shape"]
        if any(float(r[0]) != x for r, x in zip(rows, deltas)):
            return ["delta column differs from the grid"]
        protocol = cfg["protocol"]
        c, k, branch = protocol["constraint"], protocol["winding"], protocol["branch"]
        # baseline: three sites, source 3, passive couplings sqrt(p), then
        # rescaled so the passive couplings are 1 (see protocols.fluctuation_sweep)
        p = site_ratio(3, c, k, branch)
        g = np.array([math.sqrt(p), math.sqrt(p), 1.0])
        t_w = 4.0 * k * math.pi / math.sqrt(4.0 * (g ** 2).sum() + 4.0 * c * c)
        start = np.zeros(4, dtype=complex)
        start[2] = 1.0
        state = propagate(star_hamiltonian(g, c / g - 1.0), start, t_w)
        chi = np.angle(state[2] / state[0])
        g, c, t_w = g / g[0], c / g[0], t_w * g[0]
        problems = []
        for row, frac in zip(rows, deltas):
            d = c / g - 1.0
            d[2] = c * (1.0 + frac) / g[2] - 1.0
            out = propagate(star_hamiltonian(g, d), start, t_w)
            out[2] *= np.exp(-1j * chi)
            error = 1.0 - abs(out[:3].sum() / math.sqrt(3.0)) ** 2
            if abs(float(row[1]) - error) > PROPAGATION_TOL:
                problems.append(f"E_r at drift {frac!r} is {row[1]}, expm gives {error!r}")
                break
        return problems

    def transfer(self, cfg, tables) -> list[str]:
        (_, curve), (_, program) = tables[""], tables["-program"]
        params = cfg["protocol"]["transfer"]
        block, c = params["block"], np.asarray(params["amplitudes"], dtype=float)
        n, scale, constraint = params["n_sites"], params["gamma_scale"], params["constraint"]
        g = np.zeros(n)
        g[:block] = g[block:2 * block] = scale * c
        d = np.full(n, -1.0)
        d[g != 0] = constraint / g[g != 0] - 1.0
        problems = []
        if len(program) != n:
            return ["program has the wrong number of sites"]
        got_g = np.array([float(r[1]) for r in program])
        got_d = np.array([float(r[2]) for r in program])
        if (np.abs(got_g - g).max() > 1e-12 * scale
                or np.abs(got_d - d).max() > 1e-10 * max(1.0, np.abs(d).max())):
            problems.append("program couplings differ from the mirrored construction")
        h = star_hamiltonian(g, d)
        initial = np.zeros(n + 1, dtype=complex)
        target = np.zeros(n + 1, dtype=complex)
        initial[:block] = c
        target[block:2 * block] = c
        times = grid(cfg["grids"]["time"])
        if len(curve) != times.size:
            return problems + ["curve has the wrong number of rows"]
        for i in _sample(times.size):
            out = propagate(h, initial, times[i])
            ref = (abs(np.vdot(initial, out)) ** 2, abs(np.vdot(target, out)) ** 2)
            got = (float(curve[i][1]), float(curve[i][2]))
            dev = max(abs(a - b) for a, b in zip(got, ref))
            if float(curve[i][0]) != times[i] or dev > PROPAGATION_TOL:
                problems.append(f"curve row {i} deviates {dev:.3e} from expm")
        t_transfer, peak = float(program[0][3]), float(program[0][4])
        at_peak = abs(np.vdot(target, propagate(h, initial, t_transfer))) ** 2
        if abs(at_peak - peak) > PROPAGATION_TOL:
            problems.append("reported peak fidelity differs from expm at t_transfer")
        if constraint == 0.0:
            t_exact = 2.0 * math.pi / float(np.sqrt((g ** 2).sum()))
            exact = abs(np.vdot(target, propagate(h, initial, t_exact))) ** 2
            if exact < 1.0 - TRANSFER_TOL or peak < 1.0 - TRANSFER_TOL:
                problems.append(f"C = 0 transfer fidelity {peak!r} (exact {exact!r})")
            if not _close(t_transfer, t_exact, 1e-6):
                problems.append(f"t_transfer {t_transfer!r} is not 2 pi / Omega")
        return problems

    def sweep_aniso(self, cfg, tables) -> list[str]:
        header, rows = tables[""]
        sweep = cfg["sweep"]
        if header != ["a", "d", "b", "gamma", "delta", "gap", "status"]:
            return ["unexpected header"]
        problems = []
        for r in rows:
            if r[6] != "ok":
                problems.append(f"status {r[6]} where ok was expected")
                break
            gamma, delta, gap = float(r[3]), float(r[4]), float(r[5])
            if not (math.isfinite(gamma) and math.isfinite(delta) and gap > 0):
                problems.append("non-finite coupling or non-positive gap")
                break
        if problems:
            return problems
        if sweep["kind"] == "ad":
            a_vals, d_vals = grid(sweep["a_values"]), grid(sweep["d_values"])
            coords = [(a, d) for a in a_vals for d in d_vals]
            if len(rows) != len(coords) or any(
                    (float(r[0]), float(r[1])) != c or r[2] for r, c in zip(rows, coords)):
                return ["grid coordinates differ from the config"]
            links = [(lk["ring_site"], lk["central_site"], lk["strength"]) for lk in sweep["linkers"]]
            for i in (0, len(rows) - 1):
                ring = self.ring(*cr_ni(sweep["x"], sweep["exchange"], *coords[i]))
                problems += _compare_row(rows[i], ring, links)
            return problems
        b_vals = grid(sweep["b_values"])
        if len(rows) != b_vals.size or any(
                float(r[2]) != b or float(r[0]) != sweep["a"] or float(r[1]) != sweep["d"]
                for r, b in zip(rows, b_vals)):
            return ["grid coordinates differ from the config"]
        ring = self.ring(*cr_ni(sweep["x"], sweep["exchange"], sweep["a"], sweep["d"]))
        for r, b in zip(rows, b_vals):
            problems += _compare_row(r, ring, _b_links(sweep, b))
            if problems:
                break
        return problems

    def validate(self, cfg, tables) -> list[str]:
        header, rows = tables[""]
        g, d = self.network(cfg)
        expected = []
        if constraint_holds(g, d):
            expected.append(("closed_form_vs_spectral", 1e-9))
        diagonal_free = np.abs(g * (1 + d)).max() <= 1e-12 * max(1.0, np.abs(g).max())
        expected.append(("subspace_vs_fullspace", 1e-9 if diagonal_free else None))
        expected.append(("excitation_leakage", 1e-12))
        if header != ["check", "max_deviation", "threshold", "pass"]:
            return ["unexpected header"]
        got = [(r[0], float(r[2]) if r[2] else None) for r in rows]
        if got != expected:
            return [f"rows {got}, expected {expected}"]
        problems = []
        for name, dev, threshold, passed in rows:
            if threshold and (passed != "true" or not float(dev) <= float(threshold)):
                problems.append(f"{name} failed: {dev} > {threshold}")
            if not threshold and passed:
                problems.append(f"{name} is reported but carries a verdict")
        return problems

    # -- library job -------------------------------------------------------

    def transitions(self, params, result) -> list[str]:
        ring = self.ring(*cr_ni(params["x"], params["exchange"], params["a"], params["d"]))
        x0, z0 = pair_sums(ring, ring, _b_links(params, 0.0))
        x1, z1 = pair_sums(ring, ring, _b_links(params, 1.0))
        x1, z1 = x1 - x0, z1 - z0
        level = params["level"]
        b = np.linspace(params["b_start"], params["b_stop"], params["points"])
        x, z = x0 + b * x1, z0 + b * z1
        offset = 1.0 - z / x - level
        expected = []
        for j in np.nonzero(offset[:-1] * offset[1:] < 0)[0]:
            if x[j] * x[j + 1] < 0:
                expected.append((-x0 / x1, "pole", bool(offset[j] < 0)))
            else:
                expected.append((((1 - level) * x0 - z0) / (z1 - (1 - level) * x1), "zero",
                                 bool(offset[j] < 0)))
        got = [(t.b, t.kind, t.rising) for t in result]
        if len(got) != len(expected):
            return [f"{len(got)} transitions, expected {len(expected)}"]
        return [f"transition {g} differs from {e}" for g, e in zip(got, expected)
                if g[1:] != e[1:] or not _close(g[0], e[0], 1e-8)]


def _short(spec: dict) -> dict:
    return {"x": spec["x"], "exchange": spec.get("J", 17.0), "a": spec.get("a", 0.9),
            "d": spec.get("d", 0.3)}


def _b_links(sweep: dict, b: float) -> list:
    ref = sweep["reference"]
    tuned = sweep["tuned_sites"]
    return [(ref["ring_site"], ref["central_site"], ref["strength"]),
            (tuned[0], tuned[1], b * ref["strength"])]


def _compare_row(row, ring: RingDoublet, links) -> list[str]:
    x_sum, z_sum = pair_sums(ring, ring, links)
    gamma, delta, gap = float(row[3]), float(row[4]), float(row[5])
    if not (_close(gamma, x_sum, COUPLING_TOL) and _close((1 - delta) * gamma, z_sum, COUPLING_TOL)
            and _close(gap, ring.gap, COUPLING_TOL)):
        return [f"row {row[:3]} deviates from the sector ED: "
                f"gamma {gamma!r} vs {x_sum!r}, gap {gap!r} vs {ring.gap!r}"]
    return []


def _sample(n: int) -> list[int]:
    return sorted(set(np.linspace(0, n - 1, min(n, SAMPLED_TIMES)).round().astype(int).tolist()))
