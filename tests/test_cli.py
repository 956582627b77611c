import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcland import certify, cli, objective, solvers
from mcland.certify import SCAN_COLUMNS, CertTolerances, PointClass, certify_point, landscape_scan, scan_to_csv
from mcland.instance import InstanceSpec, default_hyperparams
from mcland.rng import derive_seed

from conftest import OVERFLOWING_INSTANCES


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _instance_block(**overrides):
    block = {"d": 40, "r": 1, "seed": 3, "p": 1.0}
    block.update(overrides)
    return block


# ---------------------------------------------------------------------------
# gen


def test_gen_reports_rank1_alpha_formula(tmp_path, capsys):
    cfgp = _write(tmp_path, {"instance": _instance_block()})
    code, out, err = _run(capsys, ["gen", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 0, err
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    gt, _ = InstanceSpec(d=40, r=1, seed=3, p=1.0).regenerate()
    assert float(kv["mu"]) == pytest.approx(gt.incoherence, rel=1e-12)
    assert float(kv["alpha"]) == pytest.approx(
        10.0 * gt.incoherence / math.sqrt(40), rel=1e-12
    )
    assert float(kv["lambda"]) == pytest.approx(
        gt.incoherence**2 * 1.0 / float(kv["alpha"]) ** 2, rel=1e-12
    )
    assert int(kv["observed_pairs"]) == 40 * 40
    assert (tmp_path / "instance.json").read_text() == InstanceSpec(d=40, r=1, seed=3, p=1.0).to_json()


@pytest.mark.parametrize("command", ["gen", "scan"])
def test_rows_without_r_off_diagonal_observations_are_counted(tmp_path, capsys, command):
    # stored pairs (0, 0), (1, 1), (1, 3): rows 0 and 2 have no off-diagonal
    # observation, so the 4 observed entries do not identify Z Z^T
    payload = {"instance": {"d": 4, "r": 1, "seed": 2, "p": 0.3}}
    if command == "scan":
        payload["scan"] = {"n_starts": 1, "base_seed": 0}
    code, out, err = _run(capsys, [command, "--config", _write(tmp_path, payload), "--out", str(tmp_path)])
    assert code == 0, err
    assert "underobserved_rows=2" in out.split("\n")
    _, obs = InstanceSpec(d=4, r=1, seed=2, p=0.3).regenerate()
    assert list(zip(obs.mask.i.tolist(), obs.mask.j.tolist())) == [(0, 0), (1, 1), (1, 3)]


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gen_counts_rows_short_of_r_off_diagonal_observations(tmp_path, capsys, seed, r):
    block = {"d": 8, "r": r, "seed": seed, "p": 0.3}
    code, out, err = _run(capsys, ["gen", "--config", _write(tmp_path, {"instance": block}), "--out", str(tmp_path)])
    assert code == 0, err
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    _, obs = InstanceSpec(**block).regenerate()
    observed = np.zeros((8, 8), dtype=bool)
    observed[obs.mask.i, obs.mask.j] = observed[obs.mask.j, obs.mask.i] = True
    short = sum(sum(observed[row, col] for col in range(8) if col != row) < r for row in range(8))
    assert int(kv["underobserved_rows"]) == short


def test_gen_rerun_is_byte_identical(tmp_path, capsys):
    cfgp = _write(tmp_path, {"instance": _instance_block(p=0.5, sigma=0.1)})
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli.main(["gen", "--config", cfgp, "--out", str(out1)]) == 0
    assert cli.main(["gen", "--config", cfgp, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "instance.json").read_bytes() == (out2 / "instance.json").read_bytes()


@pytest.mark.parametrize(
    "block",
    [_instance_block(), _instance_block(r=2, p=0.5, sigma=0.1, scale=1.5, include_diagonal=False)],
    ids=["defaults", "every-field"],
)
def test_gen_reads_back_its_own_record(tmp_path, capsys, block):
    # the record gen writes is an instance block: gen on it writes the same record and prints the same
    cfgp = _write(tmp_path, {"instance": block})
    code, out1, err = _run(capsys, ["gen", "--config", cfgp, "--out", str(tmp_path / "a")])
    assert code == 0, err
    record = (tmp_path / "a" / "instance.json").read_bytes()
    cfgp = _write(tmp_path, {"instance": json.loads(record)}, name="again.json")
    code, out2, err = _run(capsys, ["gen", "--config", cfgp, "--out", str(tmp_path / "b")])
    assert code == 0, err
    assert (tmp_path / "b" / "instance.json").read_bytes() == record
    assert out2 == out1


def test_gen_reads_back_the_record_of_a_spec_built_from_numpy_scalars(tmp_path, capsys):
    spec = InstanceSpec(d=np.int64(20), r=np.int32(1), seed=np.uint64(3), p=1, include_diagonal=np.bool_(True))
    cfgp = _write(tmp_path, {"instance": json.loads(spec.to_json())})
    code, out, err = _run(capsys, ["gen", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 0, err
    assert (tmp_path / "instance.json").read_text() == spec.to_json()


def test_gen_missing_key_is_config_error(tmp_path, capsys):
    block = _instance_block()
    del block["d"]
    cfgp = _write(tmp_path, {"instance": block})
    code, out, err = _run(capsys, ["gen", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 2
    assert "instance.d" in err


def test_gen_unknown_key_is_config_error(tmp_path, capsys):
    cfgp = _write(tmp_path, {"instance": _instance_block(bogus=1)})
    code, out, err = _run(capsys, ["gen", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 2
    assert "unknown key 'instance.bogus'" in err


def test_gen_invalid_rank_is_config_error(tmp_path, capsys):
    cfgp = _write(tmp_path, {"instance": _instance_block(r=41)})
    code, out, err = _run(capsys, ["gen", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 2
    assert "invalid instance" in err


def test_malformed_or_missing_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["gen", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert cli.main(["gen", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert cli.main(["gen", "--config", str(listy), "--out", str(tmp_path)]) == 2
    # json reads an integer past Python's digit limit (4300 by default) as a ValueError
    digits = tmp_path / "digits.json"
    digits.write_text('{"instance": {"d": 20, "r": 1, "seed": 1, "p": 0.8, "sigma": 1' + "0" * 5000 + "}}")
    assert cli.main(["gen", "--config", str(digits), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "instance.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"instance": {"d": 20, "r": 1, "seed": 1, "p": 0.8, "d": 30}}', "d"),
        ('{"instance": {"d": 20, "r": 1, "seed": 1, "p": 0.8}, "instance": {"d": 30}}', "instance"),
    ],
    ids=["in-a-block", "at-the-root"],
)
def test_duplicate_key_is_config_error(tmp_path, capsys, text, key):
    cfgp = tmp_path / "dup.json"
    cfgp.write_text(text)
    code, out, err = _run(capsys, ["gen", "--config", str(cfgp), "--out", str(tmp_path / "out")])
    assert code == 2, err
    assert err.startswith("config error:") and f"duplicate key '{key}'" in err
    assert not any((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_that_cannot_be_a_directory_is_config_error(tmp_path, capsys, out):
    (tmp_path / "taken").write_text("a file\n")
    cfgp = _write(tmp_path, {"instance": _instance_block()})
    code, _, err = _run(capsys, ["gen", "--config", cfgp, "--out", str(tmp_path / out)])
    assert code == 2, err
    assert err.startswith("config error:") and "cannot create output directory" in err
    assert (tmp_path / "taken").read_text() == "a file\n"


def test_bad_thread_count_is_config_error(tmp_path, capsys):
    cfgp = _write(tmp_path, {"instance": _instance_block()})
    code, out, err = _run(capsys, ["conc", "--config", cfgp, "--out", str(tmp_path), "--threads", "0"])
    assert code == 2
    assert "--threads must be >= 1" in err


@pytest.mark.parametrize("command", ["gen", "solve", "scan"])
def test_threads_only_where_they_are_used(tmp_path, capsys, command):
    # gen, solve and scan run on the calling thread: they take no --threads
    cfgp = _write(tmp_path, {"instance": _instance_block()})
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfgp, "--out", str(tmp_path), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_gen_at_scale_runs_in_bounded_memory(tmp_path):
    # d = 16,000 at p = 10 r ln d / d: about 3.1 million observed entries; a
    # dense d x d draw alone would take 2 GB
    d, r = 16_000, 2
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfgp = _write(tmp_path, {"instance": {"d": d, "r": r, "seed": 1, "p": 10.0 * r * math.log(d) / d}})
    proc = subprocess.run(
        [sys.executable, "-m", "mcland.cli", "gen", "--config", cfgp, "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(dict(line.split("=", 1) for line in proc.stdout.split())["observed_pairs"]) > 3_000_000
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    assert peak_mb < 600


# ---------------------------------------------------------------------------
# solve


def test_solve_recovers_and_writes_trace(tmp_path, capsys):
    cfgp = _write(
        tmp_path,
        {"instance": _instance_block(d=50), "solver": {"method": "perturbed_gd", "seed": 1}},
    )
    code, out, err = _run(capsys, ["solve", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 0, err
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert kv["status"] == "grad_tol_reached"
    assert kv["classification"] == "GlobalMin"
    assert float(kv["f"]) <= 1e-10
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "iter,f,data_term,reg_term,grad_norm,step,cum_entry_grads"
    assert len(lines) >= 3


def test_perturbed_solve_runs_one_eigensolve(tmp_path, capsys, monkeypatch):
    # the certificate reuses the eigensolve perturbed GD ran at its endpoint
    calls = []
    solve_eig = objective.min_hessian_eig
    monkeypatch.setattr(objective, "min_hessian_eig", lambda pt: calls.append(pt.X) or solve_eig(pt))
    cfgp = _write(
        tmp_path,
        {"instance": _instance_block(d=50), "solver": {"method": "perturbed_gd", "seed": 1}},
    )
    code, out, err = _run(capsys, ["solve", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 0, err
    assert "classification=GlobalMin" in out.split("\n")
    assert len(calls) == 1


def test_solve_trace_depends_on_seed(tmp_path, capsys):
    base = {"instance": _instance_block(d=30, p=0.8)}
    out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
    cfg1 = _write(tmp_path, {**base, "solver": {"seed": 1}}, "c1.json")
    cfg2 = _write(tmp_path, {**base, "solver": {"seed": 2}}, "c2.json")
    assert cli.main(["solve", "--config", cfg1, "--out", str(out1)]) == 0
    assert cli.main(["solve", "--config", cfg1, "--out", str(out2)]) == 0
    assert cli.main(["solve", "--config", cfg2, "--out", str(out3)]) == 0
    capsys.readouterr()
    t1 = (out1 / "trace.csv").read_bytes()
    assert t1 == (out2 / "trace.csv").read_bytes()
    assert t1 != (out3 / "trace.csv").read_bytes()


def test_solve_lambda_override_zeroes_penalty_column(tmp_path, capsys):
    cfgp = _write(
        tmp_path,
        {
            "instance": _instance_block(d=30),
            "hyper": {"lambda": 0.0, "tau": 0.0},
        },
    )
    code, out, err = _run(capsys, ["solve", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 0, err
    rows = (tmp_path / "trace.csv").read_text().strip().split("\n")[1:]
    assert all(float(row.split(",")[3]) == 0.0 for row in rows)


def test_solve_rejects_unknown_solver_method(tmp_path, capsys):
    cfgp = _write(
        tmp_path, {"instance": _instance_block(), "solver": {"method": "newton"}}
    )
    code, out, err = _run(capsys, ["solve", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 2
    assert "solver.method" in err


def test_solver_block_parses_from_dataclass_fields(tmp_path, capsys):
    parsed = cli._parse_solver({"solver": {"sgd": {}}})
    assert parsed == solvers.SolverConfig()
    # the first step comes from one Hessian-vector product, and the line-search
    # constants, the SGD decay and grad_tol are fixed: none of them is a key
    for solver, message in (
        ({"sgd": {"batch": True}}, "solver.sgd.batch"),
        ({"sgd": 3}, "'solver.sgd' must be an object"),
        ({"armijo": {}}, "unknown key 'solver.armijo'"),
        ({"armijo": {"step0": 1e-3}}, "unknown key 'solver.armijo'"),
        ({"grad_tol": 1e-6}, "unknown key 'solver.grad_tol'"),
        ({"grad_tol": None}, "unknown key 'solver.grad_tol'"),
        ({"sgd": {"step_decay": 1e-3}}, "unknown key 'solver.sgd.step_decay'"),
        ({"sgd": {"step_base": 1.0}}, "unknown key 'solver.sgd.step_base'"),
    ):
        cfgp = _write(tmp_path, {"instance": _instance_block(), "solver": solver})
        code, out, err = _run(capsys, ["solve", "--config", cfgp, "--out", str(tmp_path)])
        assert code == 2
        assert message in err


def test_perturb_trigger_is_no_longer_a_key(tmp_path, capsys):
    # perturbed GD steps along the eigensolve's witness: it has no perturbation to configure
    for perturb in ({}, {"trigger_grad_norm": 1e-6}):
        cfgp = _write(tmp_path, {"instance": _instance_block(),
                                 "solver": {"method": "perturbed_gd", "perturb": perturb}})
        code, out, err = _run(capsys, ["solve", "--config", cfgp, "--out", str(tmp_path)])
        assert code == 2
        assert "unknown key 'solver.perturb'" in err


@pytest.mark.parametrize("command", ["gen", "solve", "scan"])
def test_zero_observation_probability_is_config_error(tmp_path, capsys, command):
    payload = {"instance": _instance_block(p=0.0)}
    if command == "scan":
        payload["scan"] = {"n_starts": 1, "base_seed": 0}
    cfgp = _write(tmp_path, payload)
    code, out, err = _run(capsys, [command, "--config", cfgp, "--out", str(tmp_path)])
    assert code == 2
    assert "p must lie in (0, 1]" in err


# p > 0, but no entry is observed: the objective would be the penalty alone,
# minimized at the origin, and every start would be labelled SpuriousLocalMin
_EMPTY_MASKS = [
    {"d": 2, "r": 1, "seed": 1, "p": 0.01},
    {"d": 5, "r": 2, "seed": 1, "p": 0.05, "include_diagonal": False},
]


@pytest.mark.parametrize("block", _EMPTY_MASKS)
@pytest.mark.parametrize("command", ["solve", "scan"])
def test_empty_mask_is_config_error(tmp_path, capsys, command, block):
    payload, flags = {"instance": block}, []
    if command == "scan":
        payload["scan"] = {"n_starts": 4, "base_seed": 0}
        flags = ["--assert-clean"]
    cfgp = _write(tmp_path, payload)
    code, out, err = _run(capsys, [command, "--config", cfgp, "--out", str(tmp_path), *flags])
    assert code == 2, err
    # the fault is the instance block's in both commands
    assert err.startswith("config error: invalid instance: the mask is empty:") and f"p={block['p']}" in err
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["solve", "scan"])
def test_empty_mask_is_reported_after_the_config_is_read(tmp_path, capsys, command):
    # ObjectiveConfig refuses the mask once every block is read, so an unknown key comes first
    payload = {"instance": _EMPTY_MASKS[0], "solver": {"max_iter": 5}, "extra": 1}
    if command == "scan":
        payload["scan"] = {"n_starts": 4, "base_seed": 0}
    code, _, err = _run(capsys, [command, "--config", _write(tmp_path, payload), "--out", str(tmp_path)])
    assert (code, err) == (2, "config error: unknown key 'solver.max_iter'\n")
    del payload["solver"]
    code, _, err = _run(capsys, [command, "--config", _write(tmp_path, payload), "--out", str(tmp_path)])
    assert (code, err) == (2, "config error: unknown key 'config.extra'\n")


@pytest.mark.parametrize("block", _EMPTY_MASKS)
def test_gen_of_empty_mask_reports_no_pairs(tmp_path, capsys, block):
    code, out, err = _run(capsys, ["gen", "--config", _write(tmp_path, {"instance": block}), "--out", str(tmp_path)])
    assert code == 0, err
    assert "observed_pairs=0" in out.split()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["gen", "solve", "scan"])
@pytest.mark.parametrize(
    "field,value",
    [("sigma", math.nan), ("sigma", math.inf), ("scale", math.nan), ("scale", math.inf), ("scale", 1e200)]
    + [("scale", 1e160), ("scale", 1e-200), ("scale", 1e-150), ("scale", 1e-160)],
)
def test_non_finite_instance_is_config_error(tmp_path, capsys, command, field, value):
    # 1e200 and 1e160 are finite, but the factor's Gram matrix (and Z Z^T) overflow;
    # at 1e-200 the Gram matrix underflows to zero, and at 1e-150 and 1e-160 the
    # squared data terms of the objective do
    payload = {"instance": _instance_block(**{field: value})}
    if command == "scan":
        payload["scan"] = {"n_starts": 1, "base_seed": 0}
    cfgp = _write(tmp_path, payload)
    code, out, err = _run(capsys, [command, "--config", cfgp, "--out", str(tmp_path)])
    assert code == 2, err
    assert err.startswith("config error:")
    assert field in err
    assert not any(tmp_path.glob("*.csv")) and not (tmp_path / "instance.json").exists()


_SCAN = {"n_starts": 1, "base_seed": 0}
_CONC = {"kind": "noise_inner", "d": 10, "p_grid": [0.5], "trials": 2}


@pytest.mark.parametrize(
    "command,payload,message",
    [
        ("gen", {"instance": _instance_block(d="100")}, "'instance.d' must be int, got str"),
        ("scan", {"instance": _instance_block()}, "missing required block 'scan'"),
        ("scan", {"instance": _instance_block(), "scan": [1]}, "'scan' must be an object"),
        ("scan", {"instance": _instance_block(), "scan": {**_SCAN, "n_starts": 0}}, "invalid scan: n_starts must be >= 1"),
        ("solve", {"instance": _instance_block(), "hyper": 3}, "'hyper' must be an object"),
        ("conc", {"concentration": {**_CONC, "p_grid": []}}, "'concentration.p_grid' must be a non-empty list"),
        ("conc", {"concentration": {**_CONC, "p_grid": [0.5, "0.6"]}}, "'concentration.p_grid[1]' must be int or float, got str"),
    ]
    # a non-finite hyperparameter: an infinite tau would certify stationary
    # saddles as minima, and a NaN one would silently fall back to the default
    + [
        ("solve", {"instance": _instance_block(), "hyper": {key: value}}, field)
        for key, field in (("alpha", "alpha"), ("lambda", "reg_weight (lambda)"), ("tau", "tau"))
        for value in (math.nan, math.inf)
    ]
    # a non-finite noise level fails the SVD of noise_spectral and gives NaN rows in noise_inner
    + [
        ("conc", {"concentration": {**_CONC, "kind": kind, "sigma": value}}, "sigma must be non-negative and finite")
        for kind in ("noise_spectral", "noise_inner")
        for value in (math.nan, math.inf)
    ]
    + [("gen", {"instance": [1, 2]}, "'instance' must be an object")]
    # every seed a config holds lies in [0, 2**64), the 64 bits a random stream keys on
    + [
        (command, payload(seed), f"invalid {key} must lie in [0, 2**64), got {seed}")
        for command, key, payload in (
            ("gen", "instance: seed", lambda seed: {"instance": _instance_block(seed=seed)}),
            ("solve", "solver: seed", lambda seed: {"instance": _instance_block(), "solver": {"seed": seed}}),
            ("scan", "scan: base_seed", lambda seed: {"instance": _instance_block(),
                                                      "scan": {**_SCAN, "base_seed": seed}}),
            ("conc", "concentration: seed", lambda seed: {"concentration": {**_CONC, "seed": seed}}),
        )
        for seed in (-1, 2**64)
    ]
    # a JSON integer no float holds once exited 3 with "internal error: OverflowError"
    + [
        ("gen", {"instance": _instance_block(sigma=10**400)}, "'instance.sigma' is too large for a float"),
        ("solve", {"instance": _instance_block(), "hyper": {"alpha": 10**400}}, "'hyper.alpha' is too large for a float"),
        ("conc", {"concentration": {**_CONC, "p_grid": [0.5, 10**400]}}, "'concentration.p_grid[1]' is too large for a float"),
    ]
    # scan.base_seed seeds every start, so a scan reads its solver block without seed: two scans
    # that differed only in solver.seed once wrote the same bytes
    + [
        ("scan", {"instance": _instance_block(), "solver": {"method": "sgd", "seed": seed}, "scan": _SCAN},
         "unknown key 'solver.seed'")
        for seed in (0, 5)
    ]
    + [("scan", {"instance": _instance_block(), "solver": 3, "scan": _SCAN}, "'solver' must be an object")]
    # each p_grid entry is read by the records' field rule, which refuses a boolean
    + [("conc", {"concentration": {**_CONC, "p_grid": [True]}}, "'concentration.p_grid[0]' must be int or float, got a boolean")],
)
def test_config_errors_name_their_key(tmp_path, capsys, command, payload, message):
    code, out, err = _run(capsys, [command, "--config", _write(tmp_path, payload), "--out", str(tmp_path)])
    assert code == 2, err
    assert err.startswith("config error:") and message in err
    assert not any(tmp_path.glob("*.csv"))
    assert not (tmp_path / "instance.json").exists()


def test_solve_noisy_endpoint_at_noise_floor_is_global_min(tmp_path, capsys):
    # the common minimum of a noisy instance sits ~0.19 ||ZZ^T||_F from the
    # truth; the default radius scales with sigma, so it is not spurious
    payload = {
        "instance": {"d": 100, "r": 3, "seed": 7, "p": 0.5, "sigma": 0.01},
        "solver": {"seed": 2},
    }
    cfgp = _write(tmp_path, payload)
    code, out, err = _run(capsys, ["solve", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 0, err
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert kv["status"] == "grad_tol_reached"
    assert float(kv["recovery_fro"]) > 0.1
    assert kv["classification"] == "GlobalMin"


@pytest.mark.parametrize(
    "instance, global_rel",
    [
        ({"d": 20, "r": 1, "seed": 1, "p": 0.8}, "0.01"),
        # the noisy scan's instance: the noise floor's radius, 1.498
        ({"d": 20, "r": 1, "seed": 1, "p": 0.8, "sigma": 0.1}, "1.4979523416388438"),
    ],
    ids=["noiseless", "noisy"],
)
def test_solve_prints_the_librarys_label_and_radius(tmp_path, capsys, instance, global_rel):
    payload = {"instance": instance, "solver": {"method": "gd"}}
    code, out, err = _run(capsys, ["solve", "--config", _write(tmp_path, payload), "--out", str(tmp_path)])
    assert code == 0, err
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert list(kv)[-2:] == ["classification", "global_rel"]
    gt, obs = InstanceSpec(**instance).regenerate()
    cfg = objective.ObjectiveConfig(default_hyperparams(gt, obs.p), obs)
    scfg = solvers.SolverConfig(method=solvers.Method.GD)
    res = solvers.solve(cfg, scfg, solvers.random_init(gt.d, gt.rank, obs, scfg.seed))
    rep = certify_point(res.X, cfg, gt, eig=res.eig)
    assert kv["classification"] == rep.classification.value == "GlobalMin"
    assert kv["global_rel"] == repr(rep.global_rel) == repr(CertTolerances().radius(gt, obs)) == global_rel
    # a radius of 1 or more puts the origin inside it, which stderr says
    assert ("note: global_rel >= 1" in err) == (rep.global_rel >= 1)


@pytest.mark.parametrize("seed", [1, 2, 4, 5])
def test_solve_from_the_frobenius_estimate_start_is_global_min(tmp_path, capsys, seed):
    # noise drives the observed diagonal sum of these instances to <= 0, so
    # the start is scaled by the Frobenius estimate; a start at the scale of
    # M squared sets grad_tol = 1e-8 * (1 + f(X0)) above the certificate's
    # stationarity tolerance, and GD stops short of it
    payload = {
        "instance": {"d": 20, "r": 1, "seed": seed, "p": 1.0, "sigma": 3.0},
        "solver": {"method": "gd"},
    }
    code, out, err = _run(capsys, ["solve", "--config", _write(tmp_path, payload), "--out", str(tmp_path)])
    assert code == 0, err
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert kv["status"] == "grad_tol_reached"
    assert kv["classification"] == "GlobalMin"


# a Hessian scaled this far down gives SGD a step base about 1000 times t0,
# which overflows the run within a few iterations
_DIVERGING_HESSIAN_SCALE = 1e-3


def _diverging_payload():
    # run with the Hessian scaled by _DIVERGING_HESSIAN_SCALE
    return {
        "instance": {"d": 20, "r": 2, "seed": 3, "p": 0.8},
        "solver": {"method": "sgd", "max_iters": 300},
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverged_sgd_is_reported_not_an_internal_error(tmp_path, capsys, hessian_scale):
    hessian_scale(_DIVERGING_HESSIAN_SCALE)
    payload = _diverging_payload()
    code, out, err = _run(capsys, ["solve", "--config", _write(tmp_path, payload), "--out", str(tmp_path)])
    assert code == 0, err
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert kv["status"] == "diverged" and kv["classification"] == "NotStationary"
    assert kv["lambda_min"] == "nan" and kv["recovery_fro"] == ""
    payload["scan"] = {"n_starts": 2, "base_seed": 0}
    code, out, err = _run(capsys, ["scan", "--config", _write(tmp_path, payload), "--out", str(tmp_path)])
    assert code == 0, err
    rows = [row.split(",") for row in (tmp_path / "scan.csv").read_text().strip().split("\n")[1:]]
    assert [row[1] for row in rows] == ["diverged", "diverged"]
    assert all(row[-3:] == ["NotStationary", "", ""] for row in rows)


def test_diverged_solve_writes_no_overflow_warnings(tmp_path):
    # a fresh interpreter, so stderr is what a user sees under the default warning filters
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfgp = _write(tmp_path, _diverging_payload())
    run = (
        "import sys; from mcland import cli, objective; hessian = objective.hessian_operator; "
        "objective.hessian_operator = lambda pt: "
        f"(lambda H: lambda V: {_DIVERGING_HESSIAN_SCALE!r} * H(V))(hessian(pt)); "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", run, "solve", "--config", cfgp, "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "status=diverged" in proc.stdout.splitlines()


@pytest.mark.parametrize("instance", OVERFLOWING_INSTANCES)
def test_overflowing_start_is_reported_diverged(tmp_path, instance):
    # a fresh interpreter, so stderr is what a user sees under the default warning filters
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for method in ("gd", "perturbed_gd", "sgd"):
        cfgp = _write(tmp_path, {"instance": instance, "solver": {"method": method}})
        proc = subprocess.run(
            [sys.executable, "-m", "mcland.cli", "solve", "--config", cfgp, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), method
        kv = dict(line.split("=", 1) for line in proc.stdout.strip().split("\n"))
        assert kv["status"] == "diverged" and kv["classification"] == "NotStationary", method


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scan_of_overflowing_instance_is_unclean_not_crashed(tmp_path, capsys):
    payload = {"instance": OVERFLOWING_INSTANCES[0], "solver": {"method": "perturbed_gd"},
               "scan": {"n_starts": 2, "base_seed": 0}}
    code, out, err = _run(
        capsys, ["scan", "--config", _write(tmp_path, payload), "--out", str(tmp_path), "--assert-clean"]
    )
    assert code == 1
    assert err.strip() == "assert-clean failed: 2 NotStationary"
    rows = [row.split(",") for row in (tmp_path / "scan.csv").read_text().strip().split("\n")[1:]]
    assert [row[1] for row in rows] == ["diverged", "diverged"]
    assert all(row[-3:] == ["NotStationary", "", ""] for row in rows)


# ---------------------------------------------------------------------------
# scan


def _scan_payload(**scan_overrides):
    scan = {"n_starts": 2, "base_seed": 5}
    scan.update(scan_overrides)
    return {
        "instance": _instance_block(d=25, p=0.8),
        "solver": {"method": "perturbed_gd"},
        "scan": scan,
    }


def test_scan_counts_and_csv(tmp_path, capsys):
    cfgp = _write(tmp_path, _scan_payload())
    code, out, err = _run(capsys, ["scan", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 0, err
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert kv["GlobalMin"] == "2"
    assert kv["SpuriousLocalMin"] == "0"
    assert kv["Uncertified"] == "0"
    assert float(kv["worst_recovery"]) <= 1e-6
    rows = (tmp_path / "scan.csv").read_text().strip().split("\n")
    assert len(rows) == 3


def test_scan_assert_clean_passes_on_clean_landscape(tmp_path, capsys):
    cfgp = _write(tmp_path, _scan_payload())
    code, out, err = _run(
        capsys, ["scan", "--config", cfgp, "--out", str(tmp_path), "--assert-clean"]
    )
    assert code == 0


def test_scan_assert_clean_fails_on_spurious_report(tmp_path, capsys):
    # heavy noise plus a near-zero recovery radius forces spurious labels
    payload = _scan_payload(global_rel=1e-12)
    payload["instance"]["sigma"] = 0.05
    cfgp = _write(tmp_path, payload)
    code, out, err = _run(
        capsys, ["scan", "--config", cfgp, "--out", str(tmp_path), "--assert-clean"]
    )
    assert code == 1
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert int(kv["SpuriousLocalMin"]) >= 1
    assert f"{kv['SpuriousLocalMin']} SpuriousLocalMin" in err


def test_scan_solves_each_start_once(tmp_path, capsys, monkeypatch):
    # every endpoint of this config is SpuriousLocalMin; each start still
    # runs one solve and one descent, which `solve` looks up at call time
    calls = []

    def counted(name):
        fn = getattr(solvers, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("solve", "_descend"):
        monkeypatch.setattr(solvers, name, counted(name))
    payload = _scan_payload(global_rel=1e-12)
    payload["instance"]["sigma"] = 0.05
    code, out, err = _run(capsys, ["scan", "--config", _write(tmp_path, payload), "--out", str(tmp_path)])
    assert code == 0, err
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    n_starts = payload["scan"]["n_starts"]
    assert kv["SpuriousLocalMin"] == str(n_starts)
    assert calls == ["solve", "_descend"] * n_starts


_RERUN_CELLS = ("status", "f", "grad_norm", "lambda_min", "recovery_fro", "classification", "global_rel")


@pytest.mark.parametrize("method", ["gd", "perturbed_gd", "sgd"])
def test_a_scan_row_reruns_with_solve_at_its_start_seed(tmp_path, capsys, method):
    # solve and every scan start run certify.solve_and_certify, so `mcland solve` at a
    # row's start_seed prints the row's cells (and the scan's radius)
    instance = {"d": 20, "r": 1, "seed": 1, "p": 0.8}
    payload = {"instance": instance, "solver": {"method": method}, "scan": {"n_starts": 3, "base_seed": 0}}
    code, out, err = _run(capsys, ["scan", "--config", _write(tmp_path, payload), "--out", str(tmp_path)])
    assert code == 0, err
    global_rel = next(line for line in out.split("\n") if line.startswith("global_rel="))
    header, *lines = (tmp_path / "scan.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    for k, line in enumerate(lines):
        row = dict(zip(header.split(","), line.split(",")))
        rerun = {"instance": instance, "solver": {"method": method, "seed": int(row["start_seed"])}}
        argv = ["solve", "--config", _write(tmp_path, rerun, f"rerun{k}.json"), "--out", str(tmp_path / f"rerun{k}")]
        code, out, err = _run(capsys, argv)
        assert code == 0, err
        kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert list(kv) == list(_RERUN_CELLS)
        cells = [row[col] for col in ("status", "f_final", "grad_norm", "lambda_min", "recovery_fro", "classification")]
        assert [kv[key] for key in _RERUN_CELLS] == cells + [global_rel.split("=", 1)[1]]
        assert (tmp_path / f"rerun{k}" / "trace.csv").stat().st_size > 0


def test_solve_and_every_scan_start_run_the_one_start_path(tmp_path, capsys, monkeypatch):
    seeds = []
    shared = certify.solve_and_certify

    def counted(cfg, gt, scfg, tols=None):
        seeds.append(scfg.seed)
        return shared(cfg, gt, scfg, tols)

    monkeypatch.setattr(certify, "solve_and_certify", counted)
    monkeypatch.setattr(cli, "solve_and_certify", counted)
    code, out, err = _run(capsys, ["scan", "--config", _write(tmp_path, _scan_payload(n_starts=3)), "--out", str(tmp_path)])
    assert code == 0, err
    assert seeds == [derive_seed(5, "scan-start", k) for k in range(3)]
    seeds.clear()
    payload = {"instance": _instance_block(d=20), "solver": {"seed": 7}}
    code, out, err = _run(capsys, ["solve", "--config", _write(tmp_path, payload), "--out", str(tmp_path)])
    assert code == 0, err
    assert seeds == [7]


def test_library_scan_takes_the_cli_default_radius(tmp_path, capsys):
    # with noise the default radius is the noise floor's, here 1.498: every
    # endpoint is GlobalMin, where a flat 1e-2 calls all four SpuriousLocalMin
    # (recovery_fro 0.896 of ||Z Z^T||_F = 1.155)
    instance = {"d": 20, "r": 1, "seed": 1, "p": 0.8, "sigma": 0.1}
    payload = {"instance": instance, "solver": {"method": "gd"}, "scan": {"n_starts": 4, "base_seed": 0}}
    code, out, err = _run(capsys, ["scan", "--config", _write(tmp_path, payload), "--out", str(tmp_path)])
    assert code == 0, err
    assert "GlobalMin=4" in out.split("\n")
    assert "global_rel=1.4979523416388438" in out.split("\n")
    assert "note: global_rel >= 1" in err
    gt, obs = InstanceSpec(**instance).regenerate()
    scfg = solvers.SolverConfig(method=solvers.Method.GD)
    summary = landscape_scan(gt, obs, default_hyperparams(gt, obs.p), scfg, n_starts=4, base_seed=0)
    assert summary.counts[PointClass.GLOBAL_MIN] == 4
    assert scan_to_csv(summary) == (tmp_path / "scan.csv").read_text()


@pytest.mark.parametrize("global_rel", [-1, 0, 1e400])
def test_scan_bad_global_rel_is_config_error(tmp_path, capsys, global_rel):
    # a negative radius would label exact recoveries SpuriousLocalMin
    payload = {
        "instance": {"d": 20, "r": 1, "seed": 1, "p": 0.8},
        "solver": {"method": "gd"},
        "scan": {"n_starts": 2, "base_seed": 0, "global_rel": global_rel},
    }
    code, out, err = _run(
        capsys, ["scan", "--config", _write(tmp_path, payload), "--out", str(tmp_path), "--assert-clean"]
    )
    assert code == 2, err
    assert "scan.global_rel" in err
    assert not (tmp_path / "scan.csv").exists()


def test_scan_assert_clean_fails_on_crashed_starts(tmp_path, capsys, monkeypatch):
    def boom(cfg, scfg, X0):
        raise RuntimeError("synthetic solver failure")

    monkeypatch.setattr(solvers, "solve", boom)
    cfgp = _write(tmp_path, _scan_payload())
    code, out, err = _run(
        capsys, ["scan", "--config", cfgp, "--out", str(tmp_path), "--assert-clean"]
    )
    assert code == 1
    assert "assert-clean failed: 2 Crashed\n" in err
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert kv["Crashed"] == "2" and kv["NotStationary"] == "0"
    rows = (tmp_path / "scan.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 2 and all(row.split(",")[1] == "solver_error" for row in rows)


def test_scan_assert_clean_fails_on_uncertified_endpoints(tmp_path, capsys, unconverged_eigensolves):
    cfgp = _write(tmp_path, _scan_payload())
    code, out, err = _run(
        capsys, ["scan", "--config", cfgp, "--out", str(tmp_path), "--assert-clean"]
    )
    assert code == 1
    assert err == "assert-clean failed: 2 Uncertified\n"
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert kv["Uncertified"] == "2" and kv["GlobalMin"] == "0"
    rows = (tmp_path / "scan.csv").read_text().strip().split("\n")[1:]
    assert all(row.split(",")[-3:-1] == ["Uncertified", "false"] for row in rows)


def test_scan_assert_clean_fails_on_unstationary_endpoints(tmp_path, capsys, hessian_scale):
    hessian_scale(_DIVERGING_HESSIAN_SCALE)
    payload = _diverging_payload()
    payload["scan"] = {"n_starts": 3, "base_seed": 0}
    cfgp = _write(tmp_path, payload)
    code, out, err = _run(
        capsys, ["scan", "--config", cfgp, "--out", str(tmp_path), "--assert-clean"]
    )
    assert code == 1
    assert err == "assert-clean failed: 3 NotStationary\n"
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert kv["NotStationary"] == "3"


def test_scan_assert_clean_fails_on_strict_saddle_endpoints(tmp_path, capsys, monkeypatch):
    # plain GD started at the origin, a saddle where the gradient is exactly 0,
    # ends there: no start reached a global minimum
    monkeypatch.setattr(solvers, "random_init", lambda d, r, obs, seed: np.zeros((d, r)))
    payload = _scan_payload()
    payload["solver"] = {"method": "gd"}
    cfgp = _write(tmp_path, payload)
    code, out, err = _run(
        capsys, ["scan", "--config", cfgp, "--out", str(tmp_path), "--assert-clean"]
    )
    assert code == 1
    assert err == "assert-clean failed: 2 StrictSaddle\n"
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert kv["StrictSaddle"] == "2" and kv["GlobalMin"] == "0"
    code, out, err = _run(capsys, ["scan", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 0, err


def test_scan_reports_crash_cause_on_stderr(tmp_path, capsys, monkeypatch):
    def boom(cfg, scfg, X0):
        raise RuntimeError("boom")

    monkeypatch.setattr(solvers, "solve", boom)
    cfgp = _write(tmp_path, _scan_payload())
    code, out, err = _run(capsys, ["scan", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 0
    crash_lines = [line for line in err.splitlines() if "crashed" in line]
    assert len(crash_lines) == 2
    assert all("RuntimeError: boom" in line for line in crash_lines)
    header = (tmp_path / "scan.csv").read_text().split("\n")[0]
    assert header == ",".join(SCAN_COLUMNS)
    assert "boom" not in (tmp_path / "scan.csv").read_text()


# ---------------------------------------------------------------------------
# conc


def test_conc_full_observation_grid_is_degenerate(tmp_path, capsys):
    cfgp = _write(
        tmp_path,
        {
            "concentration": {
                "kind": "inner_product",
                "d": 30,
                "p_grid": [1.0],
                "trials": 5,
            }
        },
    )
    code, out, err = _run(capsys, ["conc", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 0, err
    assert "fit=degenerate" in out
    lines = (tmp_path / "conc.csv").read_text().strip().split("\n")
    assert lines[0] == "kind,d,r,p,nu,sigma,trial,deviation,predicted_scale"
    assert len(lines) == 6


def test_conc_short_grid_reports_skip(tmp_path, capsys):
    cfgp = _write(
        tmp_path,
        {
            "concentration": {
                "kind": "spectral",
                "d": 40,
                "p_grid": [0.2, 0.4],
                "trials": 5,
            }
        },
    )
    code, out, err = _run(capsys, ["conc", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 0, err
    assert out.startswith("fit=skipped")


def test_conc_fits_slope_and_is_thread_invariant(tmp_path, capsys):
    payload = {
        "concentration": {
            "kind": "spectral",
            "d": 100,
            "r": 2,
            "p_grid": [0.05, 0.1, 0.2, 0.4],
            "trials": 20,
            "seed": 3,
        }
    }
    cfgp = _write(tmp_path, payload)
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    code, out, err = _run(capsys, ["conc", "--config", cfgp, "--out", str(out1)])
    assert code == 0, err
    kv = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert -1.0 <= float(kv["slope"]) <= 0.0
    assert 0.0 <= float(kv["r2"]) <= 1.0
    assert cli.main(["conc", "--config", cfgp, "--out", str(out8), "--threads", "8"]) == 0
    capsys.readouterr()
    assert (out1 / "conc.csv").read_bytes() == (out8 / "conc.csv").read_bytes()


def test_conc_bad_kind_is_config_error(tmp_path, capsys):
    cfgp = _write(
        tmp_path, {"concentration": {"kind": "mystery", "d": 10, "p_grid": [0.5]}}
    )
    code, out, err = _run(capsys, ["conc", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 2
    assert "concentration.kind" in err


# ---------------------------------------------------------------------------
# exit-code plumbing


def test_internal_error_exits_three(tmp_path, capsys, monkeypatch):
    def boom(spec):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "run_concentration", boom)
    cfgp = _write(
        tmp_path, {"concentration": {"kind": "spectral", "d": 10, "p_grid": [0.5]}}
    )
    code, out, err = _run(capsys, ["conc", "--config", cfgp, "--out", str(tmp_path)])
    assert code == 3
    assert "internal error" in err and "synthetic failure" in err
