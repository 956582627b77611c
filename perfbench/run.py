"""mcland benchmark: time to a certified claim, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scan-d100 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The program under test is the `mcland` package in `src/` of the current
directory; the run exits non-zero without a result when it is missing.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones, measured by
wrapping the library from outside (spans.py).  Each run also writes its
environment, repetition times and failures to perfbench/results/.  See
perfbench/README.md for the metrics and the reasons behind the workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from statistics import fmean, median

import spans
import workloads
from speed import SpeedProbe

RESULTS = Path("perfbench") / "results"
# One BLAS thread: every workload is a single caller, and on a small shared
# box a second OpenBLAS thread busy-waits on a core a neighbour may hold,
# which made repetition times swing by a third.  An explicit setting wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3

# (name, unit); the same names, with `better`, are declared in BENCHMARK.json
END_TO_END = (("setup_s", "s"), ("claim_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("instance.regenerate.s", "s"),
    ("instance.regenerate.peak_mb", "MB"),
    ("instance.pairs", "count"),
    ("objective.pair_gram.calls", "count"),
    ("objective.pair_gram.self_s", "s"),
    ("objective.pair_gram.bytes", "B-computed"),
    ("objective.masked_matmul.calls", "count"),
    ("objective.masked_matmul.self_s", "s"),
    ("objective.objective.calls", "count"),
    ("objective.objective.self_s", "s"),
    ("objective.gradient.calls", "count"),
    ("objective.gradient.self_s", "s"),
    ("objective.hessian_vecprod.calls", "count"),
    ("objective.hessian_vecprod.self_s", "s"),
    ("objective.min_hessian_eig.calls", "count"),
    ("objective.min_hessian_eig.s", "s"),
    ("objective.min_hessian_eig.iterations", "count"),
    ("objective.min_hessian_eig.unconverged", "count"),
    ("objective.operator_norm_estimate.calls", "count"),
    ("objective.operator_norm_estimate.s", "s"),
    ("solvers.solve.s", "s"),
    ("solvers.iterations", "count"),
    ("solvers.entry_grads", "count"),
    ("solvers.evals_per_step", "ratio"),
    ("solvers.stochastic_gradient.calls", "count"),
    ("solvers.stochastic_gradient.self_s", "s"),
    ("solvers.pair_gradient_sum.self_s", "s"),
    ("solvers.sgd.diag_s", "s"),
    ("certify.certify_point.calls", "count"),
    ("certify.certify_point.s", "s"),
    ("certify.hvp_per_certify", "ratio"),
    ("certify.recovery_error.s", "s"),
    ("certify.landscape_scan.s", "s"),
    ("certify.repolish", "count"),
    ("trace.claim_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)
# per-layer metrics that must repeat exactly between traced repetitions and runs
COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count")


def import_package(root):
    """Import mcland from `root/src` and nowhere else."""
    src = root / "src"
    if not (src / "mcland" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mcland package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import mcland

    if Path(mcland.__file__).resolve().parent != (src / "mcland").resolve():
        raise SystemExit(f"perfbench: mcland imported from {mcland.__file__}, not from {src}")
    return mcland


def environment(args, root):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "src_digest": tree_digest(root, "src"),
        "bench_digest": tree_digest(root, "perfbench"),
    }


def tree_digest(root, top):
    h = hashlib.sha256()
    for path in sorted((root / top).rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:20]


def warm_up(mc):
    """Run every code path once on a tiny instance, so that lazy imports and
    first-call set-up are not timed."""
    spec = mc.InstanceSpec(d=40, r=2, seed=3, p=0.6)
    gt, obs = spec.regenerate()
    hyper = mc.default_hyperparams(gt, spec.p)
    cfg = mc.ObjectiveConfig(hyper, obs)
    X0 = mc.random_init(spec.d, spec.r, obs, 0)
    for method in mc.Method:
        res = mc.solve(cfg, mc.SolverConfig(method=method, max_iters=30), X0)
        mc.trace_to_csv(res.trace)
    workloads.lib("certify").certify_point(res.X, cfg, gt)
    scfg = mc.SolverConfig(method=mc.Method.PERTURBED_GD, max_iters=30)
    mc.scan_to_csv(workloads.lib("certify").landscape_scan(gt, obs, hyper, scfg, 1, 0))


class Record:
    """Output digests and counts of earlier runs of one workload and seed,
    keyed by the digests of the library and benchmark sources and by the
    environment."""

    KEY = ("src_digest", "bench_digest", "python", "numpy", "scipy", "blas", "blas_threads", "machine")

    def __init__(self, env):
        self.path = RESULTS / f"record-{env['workload']}-seed{env['workload_seed']}.json"
        self.all = json.loads(self.path.read_text()) if self.path.is_file() else {}
        self.entry = self.all.setdefault(json.dumps([env[k] for k in self.KEY]), {})

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.all, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def gate_outputs(ops, record):
    """Fail each op whose output digest differs from its first repetition in
    this run or from an earlier run of the same source and environment."""
    earlier = record.entry.setdefault("ops", {})
    first = {}
    for op in ops:
        ref = first.setdefault(op.id, op.digest)
        if op.fail is None and op.digest != ref:
            op.fail = "output bytes differ between repetitions"
        if op.fail is None and earlier.get(op.id, op.digest) != op.digest:
            op.fail = "output bytes differ from an earlier run of the same source"
    for op_id, d in first.items():
        earlier.setdefault(op_id, d)


class Bench:
    def __init__(self, wl, reports):
        self.wl = wl
        self.reports = reports
        self.ops = []  # every Op of every claim repetition

    def setup(self, reps, probe):
        """Set the workload up `reps` times; returns the last inputs and the
        wall and reference seconds of every set-up."""
        walls, refs, inputs = [], [], None
        for _ in range(reps):
            inputs = None  # free the previous instances before building the next
            inputs, wall, ref = probe.time(self.wl.setup)
            walls.append(wall)
            refs.append(ref)
        return inputs, walls, refs

    def claim(self, inputs, group, tracer=None):
        """The claim on start group `group`; returns its seconds and its root span."""
        if tracer is None:
            t0 = time.perf_counter()
            out = self.wl.claim(inputs, group)
            dt, root = time.perf_counter() - t0, None
        else:
            with tracer.span("claim") as root:
                out = self.wl.claim(inputs, group)
            dt = tracer.dur[root]
        self.ops.extend(self.wl.check(inputs, out, self.reports))
        return dt, root

    def claim_probed(self, inputs, group, probe):
        """The claim on start group `group`; returns its wall and reference seconds."""
        out, wall, ref = probe.time(self.wl.claim, inputs, group)
        self.ops.extend(self.wl.check(inputs, out, self.reports))
        return wall, ref


def measure_untraced(args, bench):
    """Claim repetitions for about --seconds, at least MIN_REPS: each on a
    new start group while time allows, then group 0 again, so that every run
    checks that its output bytes repeat.

    Set-up and claim times are reference seconds (speed.py): wall seconds
    scaled by the speed the machine showed while the work ran.  `claim_s`
    is the mean over start groups, group 0 taking the mean of its two
    repetitions: the work differs between groups by about a tenth, and a
    mean over all of them varies less between runs than a median.
    """
    probe = SpeedProbe()
    inputs, setup_walls, setup_refs = bench.setup(bench.wl.setup_reps, probe)
    walls, refs = [], []
    while len(refs) < MIN_REPS - 1 or sum(walls) + 2 * median(walls) <= args.seconds:
        wall, ref = bench.claim_probed(inputs, len(refs), probe)
        walls.append(wall)
        refs.append(ref)
    wall, ref = bench.claim_probed(inputs, 0, probe)
    walls.append(wall)
    refs.append(ref)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB
    metrics = {"setup_s": median(setup_refs), "claim_s": group_mean(refs), "peak_rss_mb": rss_mb}
    detail = {
        "setup_wall_s": median(setup_walls),
        "claim_wall_s": group_mean(walls),
        "setup_times": setup_refs,
        "setup_wall_times": setup_walls,
        "claim_times": refs,
        "claim_wall_times": walls,
        "probe_slice_s": {"median": median(probe.slices), "count": len(probe.slices)},
    }
    return metrics, detail, []


def group_mean(times):
    """Mean over start groups of the times of measure_untraced, whose first
    and last repetitions both ran group 0."""
    return fmean([fmean([times[0], times[-1]]), *times[1:-1]])


def measure_traced(args, bench, tracer):
    """Per-layer metrics from traced claim repetitions, alternated with
    untraced ones so that the tracing overhead is measured in the same process.
    Every repetition runs the work of repetition 0, so counts must repeat."""
    wl = bench.wl
    regen = []
    tracer.install()
    try:
        for _ in range(wl.setup_reps):
            with tracer.span("setup") as root:
                wl.setup(tracer.span)
            subtree = tracer.subtree(root)
            regen.append(sum(tracer.dur[i] for i in subtree if tracer.name(i) == "instance.regenerate"))
    finally:
        tracer.uninstall()
    tracer.clear()
    peak_mb = regen_peak_mb(wl.specs)
    inputs = wl.setup()

    plain, traced, roots = [], [], []
    while not roots or sum(plain) + sum(traced) + median(plain) + median(traced) <= args.seconds:
        plain.append(bench.claim(inputs, 0)[0])
        tracer.install()
        try:
            dt, root = bench.claim(inputs, 0, tracer)
        finally:
            tracer.uninstall()
        traced.append(dt)
        roots.append(root)

    n_pairs = sum(inst.obs.mask.n_pairs for inst in inputs)
    reps, calls = zip(*(layer_metrics(tracer, root, wl.starts) for root in roots))
    problems = []
    if any(c != calls[0] for c in calls):
        problems.append("call counts differ between traced repetitions")
    for name in COUNTS:
        values = {rep.get(name) for rep in reps}
        if len(values) > 1:
            problems.append(f"count {name} differs between traced repetitions: {sorted(values)}")
    metrics = {name: median([rep[name] for rep in reps]) for name in reps[0]}
    metrics["instance.regenerate.s"] = median(regen)
    metrics["instance.regenerate.peak_mb"] = peak_mb
    metrics["instance.pairs"] = n_pairs
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    for rep in reps:
        if abs(rep["self_sum_s"] - rep["trace.claim_s"]) > 1e-6 * rep["trace.claim_s"]:
            problems.append("self times do not add up to the traced claim time")
    del metrics["self_sum_s"]
    for rep in reps:
        del rep["self_sum_s"]
    RESULTS.mkdir(parents=True, exist_ok=True)
    spans_path = RESULTS / f"{wl.name}-seed{args.seed}-spans.csv.gz"
    tracer.write(spans_path, tracer.subtree(roots[-1]))
    detail = {
        "setup_regenerate_times": regen,
        "claim_times_untraced": plain,
        "claim_times_traced": traced,
        "per_rep": reps,
        "calls": calls[0],
        "absent": tracer.absent,
        "spans_file": str(spans_path),
    }
    return metrics, detail, problems


def regen_peak_mb(specs):
    """Largest tracemalloc peak of one `regenerate` call, in MB."""
    peak = 0
    tracemalloc.start()
    try:
        for spec in specs:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            gt_obs = spec.regenerate()
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            del gt_obs
    finally:
        tracemalloc.stop()
    return peak / 1e6


def layer_metrics(tracer, root, n_starts):
    """Per-layer metrics of one traced claim repetition."""
    idx = tracer.subtree(root)
    calls, self_s, incl = Counter(), defaultdict(float), defaultdict(float)
    in_certify = {}  # span -> inside a certify_point span
    method = {}      # span -> method of the enclosing solvers.solve span, or None
    pair_bytes = eig_iters = eig_unconverged = 0
    iterations = entry_grads = solve_iterations = 0
    hvp_in_certify = objective_in_solve = 0
    sgd_diag = self_sum = 0.0
    for i in idx:
        name, p = tracer.name(i), tracer.parent[i]
        attrs = tracer.attrs.get(i, {})
        calls[name] += 1
        own = tracer.self_time(i)
        self_s[name] += own
        incl[name] += tracer.dur[i]
        self_sum += own
        in_certify[i] = p >= 0 and (in_certify[p] or tracer.name(p) == "certify.certify_point")
        method[i] = method[p] if p >= 0 else None
        if name == "solvers.solve":
            method[i] = attrs["method"]
        if name == "objective.pair_gram":
            pair_bytes += attrs["bytes"]
        elif name == "objective.min_hessian_eig":
            eig_iters += attrs["iterations"]
            eig_unconverged += not attrs["converged"]
        elif name == "objective.hessian_vecprod":
            hvp_in_certify += in_certify[i]
        elif name in ("objective.objective", "objective.gradient") and method[i] is not None:
            objective_in_solve += name == "objective.objective"
            if method[i] == "sgd":
                sgd_diag += tracer.dur[i]
        if name in ("solvers.solve", "solvers.gradient_descent") and (p < 0 or method[p] is None):
            iterations += attrs["iterations"]
            entry_grads += attrs["entry_grads"]
            if name == "solvers.solve":
                solve_iterations += attrs["iterations"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for fn in ("objective.pair_gram", "objective.masked_matmul", "objective.objective",
               "objective.gradient", "objective.hessian_vecprod", "solvers.stochastic_gradient"):
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.self_s"] = self_s[fn]
    m["objective.pair_gram.bytes"] = pair_bytes
    m["objective.min_hessian_eig.calls"] = calls["objective.min_hessian_eig"]
    m["objective.min_hessian_eig.s"] = incl["objective.min_hessian_eig"]
    m["objective.min_hessian_eig.iterations"] = eig_iters
    m["objective.min_hessian_eig.unconverged"] = eig_unconverged
    m["objective.operator_norm_estimate.calls"] = calls["objective.operator_norm_estimate"]
    m["objective.operator_norm_estimate.s"] = incl["objective.operator_norm_estimate"]
    m["solvers.solve.s"] = incl["solvers.solve"]
    m["solvers.iterations"] = iterations
    m["solvers.entry_grads"] = entry_grads
    m["solvers.evals_per_step"] = ratio(objective_in_solve, solve_iterations)
    m["solvers.pair_gradient_sum.self_s"] = self_s["solvers.pair_gradient_sum"]
    m["solvers.sgd.diag_s"] = sgd_diag
    m["certify.certify_point.calls"] = calls["certify.certify_point"]
    m["certify.certify_point.s"] = incl["certify.certify_point"]
    m["certify.hvp_per_certify"] = ratio(hvp_in_certify, calls["certify.certify_point"])
    m["certify.recovery_error.s"] = incl["certify.recovery_error"]
    m["certify.landscape_scan.s"] = incl["certify.landscape_scan"]
    m["certify.repolish"] = calls["certify.certify_point"] - n_starts
    m["trace.claim_s"] = tracer.dur[root]
    m["trace.unattributed_frac"] = tracer.self_time(root) / tracer.dur[root]
    m["self_sum_s"] = self_sum
    return m, dict(sorted(calls.items()))


def run_one(args, root):
    mc = import_package(root)
    env = environment(args, root)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    reports = workloads.ReportLog()
    reports.install()
    warm_up(mc)
    bench = Bench(wl, reports)
    if args.trace:
        metrics, detail, problems = measure_traced(args, bench, spans.Tracer())
        names = PER_LAYER
    else:
        metrics, detail, problems = measure_untraced(args, bench)
        names = END_TO_END
    reports.uninstall()

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = Record(env)
    gate_outputs(bench.ops, record)
    if args.trace:
        counts = {name: metrics[name] for name in COUNTS} | {"calls": detail["calls"]}
        if record.entry.setdefault("counts", counts) != counts:
            problems.append("counts differ from an earlier traced run of the same source")
    record.save()

    failed = [op for op in bench.ops if op.fail is not None]
    attempted = len(bench.ops)
    result = {
        "environment": env,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
        "attempted": attempted,
        "failed": len(failed),
        "failures": [f"{op.id}: {op.fail}" for op in failed[:20]],
        "problems": problems,
        **detail,
    }
    out = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))

    print(f"# {wl.name} seed={args.seed} trace={args.trace} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} nproc={env['nproc']} "
          f"blas_threads={env['blas_threads']}")
    for name, unit in names:
        print(f"{name:40s} {metrics[name]!r:>24} {unit}")
    for name in ("setup_wall_s", "claim_wall_s"):
        if name in detail:
            print(f"{name:40s} {detail[name]!r:>24} s (wall, not scaled for machine speed)")
    print(f"{'fail_frac':40s} {len(failed) / attempted!r:>24} ratio ({len(failed)}/{attempted} certified starts)")
    for line in result["failures"] + problems:
        print(f"! {line}")
    if detail.get("absent"):
        print(f"! absent from this version of the package, reported as 0: {detail['absent']}")
    print(f"# details: {out}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": result["metrics"],
    }))
    return 0


def run_all(args, root):
    """Each workload in a process of its own, then one table."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: {name} exited with {proc.returncode}")
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, res in rows:
        fail_frac = res["failed"] / res["attempted"]
        cells = [f"{m}={v['value']:.4g} {v['unit']}" for m, v in res["metrics"].items()]
        print(f"{name:12s} correct={res['correct']} fail_frac={fail_frac:.4g} ratio  " + "  ".join(cells))
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    root = Path.cwd()
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return run_all(args, root)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
