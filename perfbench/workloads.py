"""The benchmark's three seeded workloads.

Each workload is a closed loop in one process: the next op starts when the
previous one has returned. From its seed a workload yields batches of ops
whose composition is fixed, so every run of whole batches has the same mix.
photonmol receives only the generated inputs.

* me_sweep     the fig4b recipe through sweep_to_files on the thread pool;
               an op is one grid point.
* optimize     numeric_optimum requests, each at phi = 0 followed by
               dual_drive_optimum_exact_phi0; an op is one request.
* point_stream independent points through evaluate_point with mixed
               solvers and cutoffs; an op is one point.
"""

import math
import os

import numpy as np

from reference import reference_statistics

KAPPA = 1.0

# Reference samples are drawn from this seed, not from --seed, so that
# g2_max_rel_err is a property of the program rather than of the draw.
SAMPLE_SEED = 2014

# Mean photon numbers of mode A below this are within a few hundred ulps of
# the vacuum population, so g2 there is roundoff (the one-photon
# interference zero); such sample points are left out of g2_max_rel_err.
MEAN_N_FLOOR = 1e-14

# Largest relative g2 error a sample point may show against the reference:
# 1e-3 for master-equation points at the default cutoff or above, and the 5%
# the acceptance suite allows the weak-drive solvers for everything that
# keeps only the weak-drive manifold (the amplitude solvers, cutoff 2).
G2_TOLERANCE_EXACT = 1e-3
G2_TOLERANCE_WEAK_DRIVE = 5e-2

# me_sweep: the fig4b recipe (phi x eta_inv, single-drive delta and u).
SWEEP_SIDE = 4
SWEEP_THREADS = 2
FIG4B_J = 10.0
FIG4B_EPS_A = 0.01
FIG4B_PHI = (0.0, math.pi / 2)
FIG4B_ETA_INV = (0.01, 0.2)

# numeric_optimum stops at a relative parameter tolerance of 1e-4, so its
# g2_min can sit slightly above FullTruncated's g2 at the exact optimum:
# both are ~1e-9 to 1e-8, a few 1e-9 apart. The slack is ~30 times that.
G2_MIN_SLACK = 1e-7

# optimize: fig3's range of eta; numeric_optimum's default weak drive.
OPT_ETA = (1.2, 100.0)
OPT_J = (10.0, 20.0)
OPT_EPS_A = 0.01 * KAPPA

# point_stream: one batch, shuffled. Latencies fall into one band per kind
# (amplitude solvers < cutoff 2 < 3 < 4). These shares put the median at
# 1/8 of the cutoff-3 band and the 90th percentile at 1/10 of the cutoff-4
# band: inside the bands, and below their slow tails.
POINT_MIX = (
    (("Hierarchy", None),) * 2 + (("FullTruncated", None),) * 2
    + (("MasterEquation", 2),) * 8 + (("MasterEquation", 3),) * 12
    + (("MasterEquation", 4),) * 3
)


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def fig4b_config(phi_range, eta_inv_range, side=SWEEP_SIDE):
    """SweepConfig mapping of the fig4b recipe over the given windows."""
    return {
        "base": {"coupling_j": FIG4B_J, "eps_a": FIG4B_EPS_A,
                 "kappa_a": KAPPA, "kappa_b": KAPPA},
        "axis1": {"parameter": "phi", "min": phi_range[0],
                  "max": phi_range[1], "count": side},
        "axis2": {"parameter": "eta_inv", "min": eta_inv_range[0],
                  "max": eta_inv_range[1], "count": side},
        "solver": "MasterEquation",
        "constraints": ["delta := single_drive_delta", "u := single_drive_u"],
    }


def fig4b_point(phi, eta_inv):
    """Parameters of one fig4b grid point, with the single-drive optimum
    (delta = kappa/(2 sqrt 3), u = 2 kappa^3 / (3 sqrt 3 J^2)) written out."""
    delta = KAPPA / (2.0 * math.sqrt(3.0))
    u = 2.0 * KAPPA**3 / (3.0 * math.sqrt(3.0) * FIG4B_J**2)
    return {"delta_a": delta, "delta_b": delta, "coupling_j": FIG4B_J,
            "u_a": u, "u_b": u, "eps_a": FIG4B_EPS_A,
            "eps_b": FIG4B_EPS_A * eta_inv, "phi_a": phi, "phi_b": 0.0,
            "kappa_a": KAPPA, "kappa_b": KAPPA}


def me_sweep_batches(seed):
    """fig4b grids whose axis windows are jittered inward by the seed."""
    rng = _rng(seed, 1)
    while True:
        phi = (FIG4B_PHI[0] + rng.uniform(0.0, 0.15),
               FIG4B_PHI[1] - rng.uniform(0.0, 0.15))
        eta_inv = (FIG4B_ETA_INV[0] + rng.uniform(0.0, 0.02),
                   FIG4B_ETA_INV[1] - rng.uniform(0.0, 0.03))
        yield [fig4b_config(phi, eta_inv)]


def _optimize_request(rng, phi):
    j = rng.uniform(*OPT_J)
    eta = 10.0 ** rng.uniform(math.log10(OPT_ETA[0]), math.log10(OPT_ETA[1]))
    return {"j": j, "eta": eta, "phi": phi}


def optimize_batches(seed):
    """A request at phi = 0, then one at phi in [0.05, pi/2]."""
    rng = _rng(seed, 2)
    while True:
        yield [_optimize_request(rng, 0.0),
               _optimize_request(rng, rng.uniform(0.05, math.pi / 2))]


def _random_point(rng, solver, n_max):
    """Weak-drive point, asymmetric in every field the solver accepts."""
    delta_a = rng.uniform(-3.0, 3.0)
    symmetric = solver == "Hierarchy"
    eps_a = rng.uniform(0.005, 0.015)
    params = {
        "delta_a": delta_a,
        "delta_b": delta_a if symmetric else rng.uniform(-3.0, 3.0),
        "coupling_j": rng.uniform(1.0, 15.0),
        "u_a": rng.uniform(0.0, 0.2), "u_b": rng.uniform(0.0, 0.2),
        "eps_a": eps_a, "eps_b": eps_a / rng.uniform(1.2, 10.0),
        "phi_a": rng.uniform(-math.pi, math.pi),
        "phi_b": rng.uniform(-math.pi, math.pi),
        "kappa_a": KAPPA,
        "kappa_b": KAPPA if symmetric else rng.uniform(0.7, 1.5),
    }
    return {"solver": solver, "n_max": n_max, "params": params}


def point_stream_batches(seed):
    """Batches holding POINT_MIX once each, in a seeded order."""
    rng = _rng(seed, 3)
    while True:
        order = rng.permutation(len(POINT_MIX))
        yield [_random_point(rng, *POINT_MIX[i]) for i in order]


def _positive_finite(value):
    return value is not None and math.isfinite(value) and value > 0.0


class MeSweep:
    name = "me_sweep"
    batches = staticmethod(me_sweep_batches)

    def __init__(self, pm, workdir):
        self.pm = pm
        self.csv_path = os.path.join(workdir, "me_sweep.csv")
        self.first_csv = None  # (op, CSV bytes) of the first grid

    def points(self, op):
        return op["axis1"]["count"] * op["axis2"]["count"]

    def run(self, op, threads=SWEEP_THREADS):
        config = self.pm.SweepConfig.from_dict(op)
        return self.pm.sweep_to_files(config, self.csv_path, threads=threads)

    def run_serial(self, op):
        """run_sweep alone on one thread: the single-threaded baseline."""
        return self.pm.run_sweep(self.pm.SweepConfig.from_dict(op), threads=1)

    def check(self, batch, outputs):
        (op,), (rows,) = batch, outputs
        if self.first_csv is None:
            with open(self.csv_path, "rb") as handle:
                self.first_csv = (op, handle.read())
        bad = [r for r in rows if r.error or not _positive_finite(r.g2_a)
               or not _positive_finite(r.mean_n_a)]
        if len(rows) != self.points(op):
            return [(self.points(op), f"{len(rows)} rows for {self.points(op)} points")]
        if bad:
            return [(len(bad), f"bad row {bad[0]}")]
        return [(0, "")]

    def final_checks(self):
        """The first grid's CSV at SWEEP_THREADS must equal a one-thread run."""
        op, threaded = self.first_csv
        self.run(op, threads=1)
        with open(self.csv_path, "rb") as handle:
            if handle.read() != threaded:
                return [(self.points(op), "CSV differs between threads=1 and "
                         f"threads={SWEEP_THREADS}")]
        return []

    def sample(self):
        rng = _rng(SAMPLE_SEED, 1)
        points = [fig4b_point(rng.uniform(*FIG4B_PHI), rng.uniform(*FIG4B_ETA_INV))
                  for _ in range(5)]
        # The one-photon interference zero, which the floor must leave out.
        points.append(fig4b_point(math.pi / 3, 1.0 / (math.sqrt(3.0) * FIG4B_J)))
        return [{"solver": "MasterEquation", "n_max": None, "params": p}
                for p in points]

    def warmup(self):
        self.run(fig4b_config(FIG4B_PHI, FIG4B_ETA_INV, side=2))


class Optimize:
    name = "optimize"
    batches = staticmethod(optimize_batches)

    def __init__(self, pm, workdir):
        self.pm = pm

    def points(self, op):
        return 1

    def run(self, op):
        """numeric_optimum, followed at phi = 0 by the exact optimum."""
        numeric = self.pm.numeric_optimum(KAPPA, op["j"], op["eta"], op["phi"])
        if op["phi"] != 0.0:
            return numeric, None
        return numeric, self.pm.dual_drive_optimum_exact_phi0(KAPPA, op["j"], op["eta"])

    def _g2_at(self, op, optimum):
        params = self.pm.symmetric_params(
            op["j"], delta=optimum.delta_opt, u=optimum.u_opt, eta=op["eta"],
            phi=op["phi"], eps_a=OPT_EPS_A, kappa=KAPPA)
        return self.pm.evaluate_point(params, "FullTruncated")[0]

    def check(self, batch, outputs):
        """g2_min may not exceed FullTruncated's g2 at the asymptotic optimum,
        nor, at phi = 0, at the exact optimum, by more than G2_MIN_SLACK."""
        results = []
        for op, (numeric, exact) in zip(batch, outputs):
            refs = [self.pm.dual_drive_optimum_asymptotic(KAPPA, op["j"], op["eta"])]
            refs += [exact] if exact is not None else []
            bound = min(self._g2_at(op, ref) for ref in refs) + G2_MIN_SLACK
            if numeric.g2_min is not None and 0.0 <= numeric.g2_min <= bound:
                results.append((0, ""))
            else:
                results.append((1, f"g2_min {numeric.g2_min} above {bound} for {op}"))
        return results

    def final_checks(self):
        return []

    def sample(self):
        """Points of numeric_optimum's search window, under its solver."""
        rng = _rng(SAMPLE_SEED, 2)
        points = []
        for _ in range(6):
            op = _optimize_request(rng, rng.uniform(0.0, math.pi / 2))
            delta = rng.uniform(0.05 * KAPPA, 1.2 * op["j"])
            u = KAPPA * 10.0 ** rng.uniform(-4.0, 0.0)
            params = self.pm.symmetric_params(op["j"], delta=delta, u=u, eta=op["eta"],
                                              phi=op["phi"], eps_a=OPT_EPS_A, kappa=KAPPA)
            points.append({"solver": "FullTruncated", "n_max": None,
                           "params": params.to_dict()})
        return points

    def warmup(self):
        self.pm.numeric_optimum(KAPPA, 10.0, 3.0, 0.0, grid_points=4)
        self.pm.dual_drive_optimum_exact_phi0(KAPPA, 10.0, 3.0, samples=64)


class PointStream:
    name = "point_stream"
    batches = staticmethod(point_stream_batches)

    def __init__(self, pm, workdir):
        self.pm = pm

    def points(self, op):
        return 1

    def run(self, op):
        return evaluate(self.pm, op)

    def check(self, batch, outputs):
        return [(0, "") if _positive_finite(g2) and _positive_finite(mean_n)
                else (1, f"g2 {g2}, mean_n {mean_n} for {op}")
                for op, (g2, mean_n) in zip(batch, outputs)]

    def final_checks(self):
        return []

    def sample(self):
        return next(point_stream_batches(SAMPLE_SEED))

    def warmup(self):
        for solver, n_max in sorted(set(POINT_MIX), key=str):
            self.run(_random_point(_rng(SAMPLE_SEED, 0), solver, n_max))


WORKLOADS = {w.name: w for w in (MeSweep, Optimize, PointStream)}


def evaluate(pm, point):
    """(g2_a, mean_n_a) of a point mapping through photonmol.evaluate_point;
    n_max None leaves the package's default cutoff."""
    params = pm.SystemParams.from_dict(point["params"])
    if point["n_max"] is None:
        return pm.evaluate_point(params, point["solver"])
    return pm.evaluate_point(params, point["solver"], n_max=point["n_max"])


def check_sample(pm, sample):
    """Relative g2 errors of photonmol against the reference on a sample.

    Returns (max relative error, points under the mean-n floor, failures).
    """
    worst, excluded, failures = 0.0, 0, []
    for point in sample:
        g2_ref, mean_ref = reference_statistics(point["params"])
        if mean_ref < MEAN_N_FLOOR:
            excluded += 1
            continue
        try:
            g2, _ = evaluate(pm, point)
        except Exception as err:  # a sample point that raised is a failure
            failures.append(f"{type(err).__name__}: {err} at {point}")
            continue
        if g2 is None:
            failures.append(f"g2 undefined at {point}")
            continue
        error = abs(g2 - g2_ref) / abs(g2_ref)
        worst = max(worst, error)
        cutoff = point["n_max"] or pm.DEFAULT_N_MAX
        exact = point["solver"] == "MasterEquation" and cutoff >= pm.DEFAULT_N_MAX
        if not error <= (G2_TOLERANCE_EXACT if exact else G2_TOLERANCE_WEAK_DRIVE):
            failures.append(f"g2 {g2} vs reference {g2_ref} (relative error "
                            f"{error:.3e}) at {point}")
    return worst, excluded, failures
