"""Command-line harness wiring data generation, learning, and experiments.

Exit codes partition outcomes: 0 learned / success, 1 I/O or parse
failure, 2 usage error, 3 rejected-non-Gaussian.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .core import RunConfig, empirical_error, predict_batch, \
    random_unit_vector
from .datagen import (CLEAN, GAUSSIAN, MARGINAL_KINDS, NOISE_KINDS,
                      MarginalFamily, NoiseModel, check_draw, generate,
                      make_noise)
from .io import CsvFormatError, file_sha256, json_dumps, read_samples_csv, \
    write_samples_csv
from .learner import LEARNED, plan_budget, testable_learn

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_REJECTED = 3


def cmd_generate(args) -> int:
    # Only a .csv or .json ending is dropped from --out: the dot in a name
    # such as eps_0.05 is part of the name.
    out = Path(args.out)
    if out.suffix in (".csv", ".json"):
        out = out.with_suffix("")
    # Every ValueError before the files are written comes from a flag.
    try:
        marginal = MarginalFamily(kind=args.marginal, axis=args.scale_axis,
                                  factor=args.scale_factor, dof=args.t_dof,
                                  separation=args.mixture_separation)
        noise = make_noise(args.noise, args.opt)
        check_draw(args.d, args.n, marginal)
        v_star = random_unit_vector(args.d, np.random.default_rng(
            np.random.SeedSequence([args.seed, 0xA5])))
        csv_path = _output_path(out.with_name(out.name + ".csv"))
        json_path = _output_path(out.with_name(out.name + ".json"))
        s = generate(args.d, args.n, marginal, v_star, noise, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    write_samples_csv(csv_path, s, header=args.header)
    json_path.write_text(json_dumps({
        "d": args.d,
        "n": args.n,
        "marginal": marginal.to_json_dict(),
        "noise": noise.to_json_dict(),
        "seed": args.seed,
        "v_star": v_star.coords.tolist(),
    }))
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def _output_path(out: str | Path) -> Path:
    """A path with its parent created; called before any work, so that a
    directory or an uncreatable parent exits 1 before the run, not after."""
    path = Path(out)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, "Is a directory", str(out))
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def cmd_learn(args) -> int:
    try:
        cfg = RunConfig(epsilon=args.epsilon, tau=args.tau, seed=args.seed,
                        k_cap=args.k_cap)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = _output_path(args.out)
    try:
        samples = read_samples_csv(args.input)
        digest = file_sha256(args.input)
    except CsvFormatError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    report = testable_learn(samples, cfg.epsilon, cfg.tau, cfg)
    payload = report.to_json_dict()
    payload["input_csv_sha256"] = digest
    out.write_text(json_dumps(payload))
    print(f"verdict: {report.verdict}"
          + (f" ({report.rejection_stage})" if report.rejection_stage else ""))
    return EXIT_OK if report.learned else EXIT_REJECTED


# Each grid axis, in the order cells enumerate them, with the values it
# takes when the spec leaves it out.
_GRID_DEFAULTS = {"d": [8], "n": [400000], "epsilon": [RunConfig.epsilon],
                  "marginal": [GAUSSIAN], "noise": [CLEAN],
                  "opt": [NoiseModel.opt]}


def _experiment_cells(spec: dict) -> list[dict]:
    """The grid's cells, each with its MarginalFamily and noise model.
    MarginalFamily raises TypeError for an unknown field, and both models
    for a value of the wrong type."""
    grid = spec["grid"]
    axes = []
    for key, default in _GRID_DEFAULTS.items():
        value = grid.get(key, default)
        axes.append(value if isinstance(value, list) else [value])
    cells = []
    for idx, combo in enumerate(itertools.product(*axes)):
        d, n, epsilon, marginal, noise, opt = combo
        family = MarginalFamily(**marginal) if isinstance(marginal, dict) \
            else MarginalFamily(marginal)
        cells.append({"cell_index": idx, "d": d, "n": n, "epsilon": epsilon,
                      "family": family, "noise": noise, "opt": opt,
                      "noise_model": make_noise(noise, opt)})
    return cells


def _seed_int(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(
        1, np.uint64)[0])


_FIELDS = ["cell_index", "d", "n", "epsilon", "marginal", "noise", "opt",
           "seed", "verdict", "rejection_stage", "rounds_completed",
           "heldout_error", "disagreement_vs_planted", "samples_consumed",
           "wall_time_s", "error"]


def run_experiment_task(task: dict) -> dict:
    """One grid cell run with task["config"], task["family"] and
    task["noise_model"]; crashes are captured in the row."""
    cfg, marginal, noise = task["config"], task["family"], task["noise_model"]
    row = dict.fromkeys(_FIELDS, "")
    row.update({key: task[key] for key in ("cell_index", "d", "n", "epsilon",
                                           "noise", "opt")},
               marginal=marginal.kind, seed=cfg.seed)
    started = time.perf_counter()
    try:
        cell = int(task["cell_index"])
        v_star = random_unit_vector(task["d"], np.random.default_rng(
            np.random.SeedSequence([cfg.seed, cell, 2])))
        samples = generate(task["d"], task["n"], marginal, v_star, noise,
                           _seed_int(cfg.seed, cell, 0))
        report = testable_learn(samples, cfg.epsilon, cfg.tau, cfg)
        row["verdict"] = report.verdict
        row["rejection_stage"] = report.rejection_stage or ""
        row["rounds_completed"] = len(report.candidates) - 1 \
            if report.candidates else ""
        row["samples_consumed"] = report.samples_consumed
        if report.learned:
            eval_n = min(task["n"], 20000)
            heldout = generate(task["d"], eval_n, marginal, v_star, noise,
                               _seed_int(cfg.seed, cell, 1))
            hyp = report.hypothesis
            assert hyp is not None
            row["heldout_error"] = empirical_error(hyp, heldout)
            planted = predict_batch(v_star, heldout.points)
            row["disagreement_vs_planted"] = float(np.mean(
                predict_batch(hyp, heldout.points) != planted))
    except Exception as exc:  # keep the sweep alive, record the failure
        row["verdict"] = "error"
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_time_s"] = round(time.perf_counter() - started, 3)
    return row


def cmd_experiment(args) -> int:
    # Imported here: `learn` and `generate` never load them.
    import csv
    from concurrent.futures import ProcessPoolExecutor

    if args.workers < 1:
        print(f"error: --workers must be at least 1, got {args.workers}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        spec = json.loads(Path(args.spec).read_text())
        if not isinstance(spec, dict):
            raise ValueError("spec must be a JSON object")
        if not isinstance(spec.get("grid"), dict):
            raise ValueError('"grid" must be an object')
        unknown = ([key for key in spec if key not in ("grid", "seeds", "tau")]
                   + [f"grid.{key}" for key in spec["grid"]
                      if key not in _GRID_DEFAULTS])
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}")
        seeds = spec.get("seeds")
        if not (isinstance(seeds, list) and seeds
                and all(isinstance(seed, int) for seed in seeds)):
            raise ValueError('"seeds" must be a non-empty list of integers')
        cells = _experiment_cells(spec)
        if not cells:
            raise ValueError("grid has no cells")
        tau = spec.get("tau", RunConfig.tau)
        tasks = [dict(cell, config=RunConfig(epsilon=cell["epsilon"],
                                             tau=tau, seed=seed))
                 for cell in cells for seed in seeds]
        for cell in cells:  # a cell that no task of it could run
            check_draw(cell["d"], cell["n"], cell["family"])
            plan_budget(cell["n"], cell["epsilon"])
    except (OSError, TypeError, ValueError) as exc:
        print(f"error: bad experiment spec: {exc}", file=sys.stderr)
        return EXIT_IO
    out_path = _output_path(args.out)

    # Capped at the task count: a forking pool starts every worker at once.
    workers = min(args.workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_experiment_task, tasks))
    else:
        rows = [run_experiment_task(task) for task in tasks]
    rows.sort(key=lambda r: (r["cell_index"], r["seed"]))

    with out_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_FIELDS)
        writer.writeheader()
        writer.writerows(rows)

    for cell in cells:
        cell_rows = [r for r in rows if r["cell_index"] == cell["cell_index"]]
        accepted = [r for r in cell_rows if r["verdict"] == LEARNED]
        rate = len(accepted) / len(cell_rows)
        errors = [r["heldout_error"] for r in accepted
                  if r["heldout_error"] != ""]
        mean_err = sum(errors) / len(errors) if errors else float("nan")
        print(f"cell {cell['cell_index']} ({cell['family'].kind}, "
              f"{cell['noise']}, opt={cell['opt']}): accept_rate={rate:.2f} "
              f"mean_heldout_error={mean_err:.4f}")
    print(f"wrote {out_path} ({len(rows)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halflearn",
        description="Tester-learner for homogeneous halfspaces under "
                    "Gaussian marginals with adversarial label noise.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic sample CSV "
                                          "plus sidecar metadata")
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--marginal", required=True, choices=MARGINAL_KINDS)
    gen.add_argument("--noise", default=CLEAN, choices=NOISE_KINDS)
    gen.add_argument("--opt", type=float, default=NoiseModel.opt)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--header", action="store_true")
    gen.add_argument("--scale-axis", type=int, default=MarginalFamily.axis)
    gen.add_argument("--scale-factor", type=float,
                     default=MarginalFamily.factor)
    gen.add_argument("--t-dof", type=int, default=MarginalFamily.dof)
    gen.add_argument("--mixture-separation", type=float,
                     default=MarginalFamily.separation)
    gen.set_defaults(func=cmd_generate)

    learn = sub.add_parser("learn", help="run the tester-learner on a CSV")
    learn.add_argument("--in", dest="input", required=True)
    learn.add_argument("--out", required=True)
    learn.add_argument("--epsilon", type=float, default=RunConfig.epsilon)
    learn.add_argument("--tau", type=float, default=RunConfig.tau)
    learn.add_argument("--seed", type=int, default=RunConfig.seed)
    learn.add_argument("--k-cap", type=int, default=RunConfig.k_cap)
    learn.set_defaults(func=cmd_learn)

    exp = sub.add_parser("experiment", help="run a seeded grid of cells")
    exp.add_argument("--spec", required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--workers", type=int, default=1)
    exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
