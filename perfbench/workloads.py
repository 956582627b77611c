"""The benchmark workloads, their inputs and their correctness gate.

Each workload produces one kind of claim: "every start on these instances
reached a certified global minimum".  One operation is one certified start.
Every workload is a closed loop with one caller: a start begins only after
the previous one has finished.

Instances are the fixed ones the repository already measures (the five C3
cells of the acceptance tests, and the seed-1 instances of the d=1000 and
d=4000 kernel baselines).  The workload seed chooses the random starts:
initial points, solver seeds and perturbations.  A run repeats the claim on
start group 0, 1, 2, ...; workload seed 0 with group 0 reproduces the first
C3 starts.  Instances stay fixed because the work needed to reach grad_tol
varies far more between instances than between starts (SGD at d=1000 takes
550 to 1121 iterations over instance seeds 0-5, but 520 to 584 over four
starts on one instance), which would make a per-seed timing too unsteady to
compare two commits.

Library functions are looked up through `sys.modules` at call time, so the
tracer's wrappers (spans.py) are seen, and so is a function that a later
version of the package moves or removes.
"""

import functools
import hashlib
import math
import sys
from contextlib import nullcontext

SCAN_CELLS = ((1, 101), (2, 102), (3, 103), (2, 104), (1, 105))  # (r, instance seed), as in C3
SCAN_STARTS = 2  # starts per cell and repetition: 10 certified starts
SEED_STRIDE = 1_000_000  # workload seed w moves every start seed by w * SEED_STRIDE
GROUP_STRIDE = 1_000     # start group g moves every scan base seed by g * GROUP_STRIDE


def lib(layer):
    # `mcland.objective` is the re-exported function, not the module
    return sys.modules[f"mcland.{layer}"]


def digest(data):
    return hashlib.sha256(data.encode()).hexdigest()[:20]


class Op:
    """Outcome of one certified start: an id, a failure reason or None, and
    a digest of its deterministic output bytes."""

    __slots__ = ("id", "fail", "digest")

    def __init__(self, op_id, fail, out_digest):
        self.id, self.fail, self.digest = op_id, fail, out_digest


class ReportLog:
    """Records the eigensolve flag of every `certify_point` call.

    `ScanRow` does not carry `eig_converged`; a scan row is matched to the
    report it was built from by its (grad_norm, lambda_min) floats, which the
    row copies from the report bit for bit.
    """

    def __init__(self):
        self.converged = {}
        self._orig = None

    def install(self):
        certify = lib("certify")
        orig = getattr(certify, "certify_point", None)
        if orig is None:
            return
        log = self.converged

        @functools.wraps(orig)
        def certify_point(*args, **kwargs):
            rep = orig(*args, **kwargs)
            log[(rep.grad_norm, rep.lambda_min)] = rep.eig_converged
            return rep

        self._orig = orig
        certify.certify_point = certify_point

    def uninstall(self):
        if self._orig is not None:
            lib("certify").certify_point = self._orig
            self._orig = None

    def eig_failure(self, grad_norm, lambda_min):
        """Reason the eigensolve behind a scan row fails the gate, or None."""
        if self._orig is None:
            return None  # no certify_point to hook: the flag cannot be checked
        converged = self.converged.get((grad_norm, lambda_min))
        if converged is None:
            return "no certify_point report matches the row"
        return None if converged else "eigensolve did not converge"


def check_point(cls_value, f, grad_norm, lambda_min, recovery_fro, gt, tau, global_rel):
    """Reason a certified endpoint fails the gate, or None.

    Re-checks the label and the tolerances behind it: stationarity at the
    default 1e-6 * (1 + |f|), curvature above -tau, and recovery within
    global_rel of ||Z Z^T||_F.
    """
    if cls_value != "GlobalMin":
        return f"classified {cls_value}"
    if not grad_norm <= 1e-6 * (1.0 + abs(f)):
        return f"grad_norm {grad_norm!r} above the stationarity tolerance"
    if not lambda_min >= -tau:
        return f"lambda_min {lambda_min!r} below -tau {-tau!r}"
    np = sys.modules["numpy"]  # imported by mcland, after run.py has set the BLAS threads
    scale = float(np.linalg.norm(gt.factor.T @ gt.factor))
    if recovery_fro is None or not recovery_fro <= global_rel * scale:
        return f"recovery {recovery_fro!r} outside {global_rel} * {scale!r}"
    return None


class Instance:
    """A built instance: ground truth, observation, hyperparameters and
    (when the workload needs it) the objective config."""

    def __init__(self, spec, gt, obs, hyper, cfg):
        self.spec, self.gt, self.obs, self.hyper, self.cfg = spec, gt, obs, hyper, cfg


def build(spec, with_config, span=None):
    span = span or (lambda name: nullcontext())
    with span("instance.regenerate"):
        gt, obs = spec.regenerate()
    hyper = lib("instance").default_hyperparams(gt, spec.p)
    cfg = lib("objective").ObjectiveConfig(hyper, obs) if with_config else None
    return Instance(spec, gt, obs, hyper, cfg)


class ScanD100:
    """Perturbed-GD landscape scans over the five C3 cells at d=100."""

    name = "scan-d100"
    starts = len(SCAN_CELLS) * SCAN_STARTS
    setup_reps = 100
    global_rel = 1e-2

    def __init__(self, seed):
        mc = sys.modules["mcland"]
        self.specs = []
        for r, inst_seed in SCAN_CELLS:
            p = min(1.0, max(0.2, 10.0 * r * math.log(100) / 100.0))
            self.specs.append(mc.InstanceSpec(d=100, r=r, seed=inst_seed, p=p))
        self.seed = seed

    def setup(self, span=None):
        # landscape_scan builds its own ObjectiveConfig, so that is part of the claim
        return [build(spec, False, span) for spec in self.specs]

    def claim(self, instances, group):
        """A scan of SCAN_STARTS starts on every cell."""
        solvers, certify = lib("solvers"), lib("certify")
        scfg = solvers.SolverConfig(method=solvers.Method.PERTURBED_GD)
        tols = certify.CertTolerances(global_rel=self.global_rel)
        out = []
        for inst in instances:
            base_seed = inst.spec.seed + SEED_STRIDE * self.seed + GROUP_STRIDE * group
            summary = certify.landscape_scan(
                inst.gt, inst.obs, inst.hyper, scfg,
                n_starts=SCAN_STARTS, base_seed=base_seed, tols=tols, threads=1,
            )
            out.append((base_seed, summary))
        return out

    def check(self, instances, outcome, reports):
        ops = []
        for inst, (base_seed, summary) in zip(instances, outcome):
            spec = inst.spec
            lines = lib("certify").scan_to_csv(summary).splitlines()[1:]
            for k, row in enumerate(summary.rows):
                op_id = f"r{spec.r}-seed{spec.seed}-start{base_seed}.{k}"
                fail = None
                if row.status == "solver_error":
                    fail = "solver_error"
                else:
                    fail = check_point(
                        row.classification.value, row.f_final, row.grad_norm, row.lambda_min,
                        row.recovery_fro, inst.gt, inst.hyper.tau, self.global_rel,
                    )
                if fail is None:
                    fail = reports.eig_failure(row.grad_norm, row.lambda_min)
                ops.append(Op(op_id, fail, digest(lines[k])))
        return ops


class SolveOnce:
    """One solve from a random start on one instance, then certify_point."""

    starts = 1
    global_rel = 1e-3
    setup_reps = 5

    def __init__(self, seed):
        mc = sys.modules["mcland"]
        self.spec = mc.InstanceSpec(d=self.d, r=2, seed=1, p=self.p)
        self.specs = [self.spec]
        self.start_seed = SEED_STRIDE * seed

    def setup(self, span=None):
        return [build(self.spec, True, span)]

    def claim(self, instances, group):
        solvers, certify = lib("solvers"), lib("certify")
        inst = instances[0]
        start = self.start_seed + group
        try:
            X0 = solvers.random_init(self.spec.d, self.spec.r, inst.obs, start)
            res = solvers.solve(inst.cfg, self.solver_config(start), X0)
            cert = certify.certify_point(
                res.X, inst.cfg, inst.gt, certify.CertTolerances(global_rel=self.global_rel)
            )
        except Exception as exc:  # a crashed start is a failed operation, not a crashed run
            return start, None, f"solver_error: {type(exc).__name__}: {exc}"
        return start, res, cert

    def check(self, instances, outcome, reports):
        inst = instances[0]
        start, res, rep = outcome
        op_id = f"seed{self.spec.seed}-start{start}"
        if res is None:
            return [Op(op_id, rep, "")]
        fail = check_point(
            rep.classification.value, rep.f_value, rep.grad_norm, rep.lambda_min,
            rep.recovery_fro, inst.gt, rep.tau, self.global_rel,
        )
        if fail is None and not rep.eig_converged:
            fail = "eigensolve did not converge"
        out = lib("solvers").trace_to_csv(res.trace) + repr(
            (rep.classification.value, rep.grad_norm, rep.lambda_min, rep.recovery_fro)
        )
        return [Op(op_id, fail, digest(out))]


class SolveD4000(SolveOnce):
    """GD, the `mcland solve` default, on InstanceSpec(d=4000, r=2, p=0.02)."""

    name = "solve-d4000"
    d, p = 4000, 0.02

    def solver_config(self, start):
        solvers = lib("solvers")
        return solvers.SolverConfig(method=solvers.Method.GD, seed=start)


class SgdD1000(SolveOnce):
    """Minibatch SGD (batch 4096) on InstanceSpec(d=1000, r=2, p=0.1).

    The default batch of 64 does not reach grad_tol within max_iters on this
    instance; 4096 does, in several hundred iterations.
    """

    name = "sgd-d1000"
    d, p = 1000, 0.1

    def solver_config(self, start):
        solvers = lib("solvers")
        return solvers.SolverConfig(
            method=solvers.Method.SGD, seed=start, sgd=solvers.SgdParams(batch=4096)
        )


WORKLOADS = {w.name: w for w in (ScanD100, SolveD4000, SgdD1000)}
