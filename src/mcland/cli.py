"""Command-line front end.

Four subcommands: `gen` materializes an instance record, `solve` solves and
certifies one start, `scan` runs that start (`certify.solve_and_certify`) at
seeds derived from `scan.base_seed`, so its solver block has no `seed` key,
and `conc` sweeps a concentration experiment over a p grid.
Configs are strict JSON, each block and key read by `_block` and `_fields`
(unknown and repeated keys are errors); `gen` writes an `instance` block.
Outputs are CSV files with deterministic bytes, so a rerun of the same config
is byte-identical; `conc` alone takes --threads, which change only wall time.

Exit codes: 0 success, 1 failed --assert-clean, 2 config error, 3 internal
error.
"""

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING
from pathlib import Path

import numpy as np

from . import solvers
from .certify import CertTolerances, PointClass, landscape_scan, scan_to_csv, solve_and_certify
from .concentration import ConcentrationTrial, fit_scaling, run_concentration, trials_to_csv
from .csvio import cell, field_value
from .instance import InstanceSpec, default_hyperparams, HyperParams
from .objective import ObjectiveConfig


class ConfigError(Exception):
    pass


@contextmanager
def _invalid(path):
    """Report a ValueError raised in the body, a value the library rejects, as a
    config error in `path`; the only place the CLI converts one."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid {path}: {exc}") from exc


def _get(block, path, key, tp, default=MISSING):
    """Pop `key` from a JSON object and check it against the type annotation `tp`.

    A dataclass recurses; any other value is checked and stored by the
    records' own rule, `csvio.field_value`, whose error this reports as a
    config error naming the key path (`'instance.d' must be int, got str`).
    An absent key gives `default`, or an error when there is none.
    """
    if key not in block:
        if default is MISSING:
            raise ConfigError(f"missing required key '{path}.{key}'")
        return default
    val = block.pop(key)
    path = f"{path}.{key}"
    if dataclasses.is_dataclass(tp):
        with _invalid(path):
            return tp(**_fields(tp, val, path))
    return _value(path, val, tp)


def _value(path, val, tp):
    """`val` by `csvio.field_value`, whose error is a config error naming `path`."""
    try:
        return field_value(f"'{path}'", val, tp)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _check_empty(block, path):
    if block:
        key = sorted(block)[0]
        raise ConfigError(f"unknown key '{path}.{key}'")


def _fields(cls, block, path, required=(), skip=()):
    """Keyword arguments for dataclass `cls` from a JSON object.

    Every field not in `skip` is read with `_get` against its annotation and
    defaults to the field's own default unless it is `required`; unknown
    keys are errors.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"'{path}' must be an object")
    block = dict(block)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in skip:
            continue
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if f.name in required:
            default = MISSING
        kwargs[f.name] = _get(block, path, f.name, f.type, default)
    _check_empty(block, path)
    return kwargs


def _block(cfg, name, default=MISSING):
    """A top-level block, as a copy; an absent block is `default`, or an error when there is none."""
    block = cfg.pop(name, default)
    if block is MISSING:
        raise ConfigError(f"missing required block '{name}'")
    if not isinstance(block, dict):
        raise ConfigError(f"'{name}' must be an object")
    return dict(block)


def _unique_keys(pairs):
    """A JSON object's dict; a key named twice in one object is an error."""
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key '{key}'")
        obj[key] = val
    return obj


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        cfg = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _parse_instance(cfg):
    """The instance record, its (gt, obs) and the hyperparameters derived from them."""
    kwargs = _fields(InstanceSpec, _block(cfg, "instance"), "instance", required=("p",))
    with _invalid("instance"):
        spec = InstanceSpec(**kwargs)
        gt, obs = spec.regenerate()
        return spec, gt, obs, default_hyperparams(gt, spec.p)


def _parse_hyper(cfg, base):
    """The hyper block; an absent block or key keeps the instance's default."""
    block = _block(cfg, "hyper", {})
    alpha = _get(block, "hyper", "alpha", float, default=base.alpha)
    weight = _get(block, "hyper", "lambda", float, default=base.reg_weight)
    tau = _get(block, "hyper", "tau", float, default=base.tau)
    _check_empty(block, "hyper")
    with _invalid("hyper"):
        return HyperParams(alpha=alpha, reg_weight=weight, tau=tau)


def _parse_solver(cfg, skip=()):
    kwargs = _fields(solvers.SolverConfig, _block(cfg, "solver", {}), "solver", skip=skip)
    with _invalid("solver"):
        return solvers.SolverConfig(**kwargs)


def _parse_problem(cfg, skip=()):
    """(gt, obs, hyper, solver config) from the instance, hyper and solver blocks of `solve`
    and `scan`; a solver field in `skip` is no key.  `ObjectiveConfig` refuses an empty mask."""
    _, gt, obs, base = _parse_instance(cfg)
    return gt, obs, _parse_hyper(cfg, base), _parse_solver(cfg, skip)


def _objective(hyper, obs):
    """`ObjectiveConfig(hyper, obs)`; the empty mask it refuses is a fault of the instance block."""
    with _invalid("instance"):
        return ObjectiveConfig(hyper, obs)


def _parse_scan(cfg):
    """(n_starts, base_seed, tolerances); without `global_rel` the tolerances are
    `CertTolerances()`, the instance's radius rule; `landscape_scan` checks n_starts and base_seed."""
    block = _block(cfg, "scan")
    n_starts = _get(block, "scan", "n_starts", int)
    base_seed = _get(block, "scan", "base_seed", int)
    global_rel = _get(block, "scan", "global_rel", float, default=None)
    _check_empty(block, "scan")
    with _invalid("scan.global_rel"):
        return n_starts, base_seed, CertTolerances(global_rel=global_rel)


def _parse_concentration(cfg):
    block = _block(cfg, "concentration")
    p_grid = _get(block, "concentration", "p_grid", list)
    if not p_grid:
        raise ConfigError("'concentration.p_grid' must be a non-empty list")
    p_grid = [_value(f"concentration.p_grid[{k}]", p, float) for k, p in enumerate(p_grid)]
    base = _fields(ConcentrationTrial, block, "concentration", skip=("p",))
    with _invalid("concentration"):
        return [ConcentrationTrial(**base, p=p) for p in p_grid]


def _underobserved_rows(obs, r):
    """The number of rows with fewer than r off-diagonal observations, rows of Z
    that the mask cannot determine from the others."""
    off = obs.mask.i != obs.mask.j
    counts = np.bincount(np.concatenate([obs.mask.i[off], obs.mask.j[off]]), minlength=obs.d)
    return int((counts < r).sum())


def _print_radius(global_rel, classes):
    """The recovery radius line; where it is 1 or more and decided one of `classes`, a
    note on stderr."""
    print(f"global_rel={cell(global_rel)}")
    if global_rel >= 1 and {PointClass.GLOBAL_MIN, PointClass.SPURIOUS_LOCAL_MIN}.intersection(classes):
        print(
            "note: global_rel >= 1 puts the origin inside the recovery radius, so only an "
            "endpoint farther from Z Z^T than X = 0 can be labelled SpuriousLocalMin",
            file=sys.stderr,
        )


def cmd_gen(cfg, out_dir):
    spec, gt, obs, hyper = _parse_instance(cfg)
    _check_empty(cfg, "config")
    (out_dir / "instance.json").write_text(spec.to_json())
    print(f"mu={cell(gt.incoherence)}")
    print(f"kappa={cell(gt.condition_number)}")
    print(f"alpha={cell(hyper.alpha)}")
    print(f"lambda={cell(hyper.reg_weight)}")
    print(f"tau={cell(hyper.tau)}")
    print(f"observed_pairs={obs.mask.n_pairs}")
    print(f"underobserved_rows={_underobserved_rows(obs, gt.rank)}")
    return 0


def cmd_solve(cfg, out_dir):
    gt, obs, hyper, scfg = _parse_problem(cfg)
    _check_empty(cfg, "config")
    res, row = solve_and_certify(_objective(hyper, obs), gt, scfg)
    with open(out_dir / "trace.csv", "w", newline="") as fh:
        solvers.trace_to_csv(res.trace, fh)
    print(f"status={row.status}")
    print(f"f={cell(row.f_final)}")
    print(f"grad_norm={cell(row.grad_norm)}")
    print(f"lambda_min={cell(row.lambda_min)}")
    print(f"recovery_fro={cell(row.recovery_fro)}")
    print(f"classification={row.classification.value}")
    _print_radius(row.global_rel, [row.classification])
    return 0


def cmd_scan(cfg, out_dir, assert_clean=False):
    gt, obs, hyper, scfg = _parse_problem(cfg, skip=("seed",))  # scan.base_seed seeds every start
    n_starts, base_seed, tols = _parse_scan(cfg)
    _check_empty(cfg, "config")
    _objective(hyper, obs)  # landscape_scan builds it again, then checks the scan block
    with _invalid("scan"):
        summary = landscape_scan(gt, obs, hyper, scfg, n_starts=n_starts, base_seed=base_seed, tols=tols)
    with open(out_dir / "scan.csv", "w", newline="") as fh:
        scan_to_csv(summary, fh)
    for cls in PointClass:
        print(f"{cls.value}={summary.counts[cls]}")
    print(f"worst_recovery={cell(summary.worst_recovery)}")
    _print_radius(tols.radius(gt, obs), [cls for cls, n in summary.counts.items() if n])
    print(f"underobserved_rows={_underobserved_rows(obs, gt.rank)}")
    for row in summary.rows:
        if row.error is not None:
            print(f"start {row.start_seed} crashed: {row.error}", file=sys.stderr)
    unclean = [
        f"{n} {cls.value}" for cls, n in summary.counts.items() if n and cls is not PointClass.GLOBAL_MIN
    ]
    if assert_clean and unclean:
        print(f"assert-clean failed: {', '.join(unclean)}", file=sys.stderr)
        return 1
    return 0


def cmd_conc(cfg, out_dir, threads=1):
    specs = _parse_concentration(cfg)
    _check_empty(cfg, "config")
    # results keep the order of specs, so conc.csv does not depend on the thread count
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(run_concentration, specs))
    with open(out_dir / "conc.csv", "w", newline="") as fh:
        trials_to_csv(results, fh)
    points = [(res.spec.p * res.spec.d, res.median_normalized) for res in results]
    try:
        fit = fit_scaling(points)
    except ValueError as exc:
        print(f"fit=skipped ({exc})")
        return 0
    if fit.degenerate:
        print("fit=degenerate")
    else:
        print(f"slope={cell(fit.slope)}")
        print(f"r2={cell(fit.r2)}")
    return 0


_COMMANDS = {"gen": cmd_gen, "solve": cmd_solve, "scan": cmd_scan, "conc": cmd_conc}


def _build_parser():
    parser = argparse.ArgumentParser(prog="mcland", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=".", help="output directory (created if absent)")
        if name == "conc":
            p.add_argument("--threads", type=int, default=1, help="worker threads (results unchanged)")
        if name == "scan":
            p.add_argument(
                "--assert-clean",
                action="store_true",
                help="exit nonzero unless every start reached a certified global minimum; "
                "print '<count> <class>' to stderr for every other class that occurs",
            )
    return parser


def main(argv=None):
    args = vars(_build_parser().parse_args(argv))
    command, config, out = args.pop("command"), args.pop("config"), args.pop("out")
    try:
        if args.get("threads", 1) < 1:
            raise ConfigError(f"--threads must be >= 1, got {args['threads']}")
        cfg = _load_config(config)
        out_dir = Path(out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
        return _COMMANDS[command](cfg, out_dir, **args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure: report and exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
