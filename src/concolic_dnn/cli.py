"""Command-line front door.

Default mode generates a suite:

    concolic-dnn --model M.json --criterion nc --norm linf --seeds SEEDS \
        --refs REFS --bound 0.3 --out OUTDIR --rng-seed 7

``concolic-dnn verify --out OUTDIR --model M.json --refs REFS`` re-checks every
persisted adversarial record from the raw artifacts.

Exit codes: 0 completed, 1 verification found a bad record, 2 configuration
error, 3 timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from .engine import FAMILIES, NORMS, ConfigError, RunConfig, load_suite, run, save_run
from .lipschitz import LipConfig
from .network import ActivationCache, load_model
from .oracle import ReferenceSet, nearest

UNREADABLE = (OSError, EOFError, ValueError)  # a missing file, or one numpy or the model reader rejects


def _read(load, path: str):
    """``load(path)``, with an unreadable file reported as a configuration error."""
    try:
        return load(path)
    except UNREADABLE as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_refs(directory: str, norm: str, net=None) -> ReferenceSet:
    """Reference set layout: DIR/inputs.npy (N x d) and optional DIR/labels.npy.

    Without a labels file the network's own labels on the reference inputs are
    recorded (the robustness rule compares network labels anyway).
    """
    inputs = _read(np.load, os.path.join(directory, "inputs.npy"))
    if inputs.ndim == 1:
        inputs = inputs.reshape(1, -1)
    if net is not None and inputs.shape[-1] != net.input_dim:
        raise ConfigError(
            f"reference inputs have {inputs.shape[-1]} entries, the model takes {net.input_dim}"
        )
    labels_path = os.path.join(directory, "labels.npy")
    if os.path.exists(labels_path):
        labels = _read(np.load, labels_path)
    elif net is not None:
        cache = ActivationCache(net)
        labels = np.array([cache.get(row).label for row in inputs])
    else:
        raise ConfigError(f"reference set needs {labels_path} (or a model to label with)")
    try:
        return ReferenceSet(inputs=inputs, labels=labels, norm=norm)
    except ValueError as exc:
        raise ConfigError(f"{directory}: {exc}") from exc


def load_seeds(path: str) -> list[np.ndarray]:
    """Seeds: a single .npy file (vector or row matrix) or a directory of .npy files."""
    if os.path.isdir(path):
        files = sorted(f for f in os.listdir(path) if f.endswith(".npy"))
        if not files:
            raise ConfigError(f"no .npy seed files in {path}")
        return [np.ravel(_read(np.load, os.path.join(path, f))) for f in files]
    arr = _read(np.load, path)
    if arr.ndim == 1:
        return [arr]
    return [np.ravel(row) for row in arr]


def _run_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="concolic-dnn", description=__doc__.splitlines()[0])
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--criterion", required=True, choices=list(FAMILIES))
    p.add_argument("--norm", default="linf", choices=list(NORMS))
    p.add_argument("--seeds", required=True, help=".npy file or directory of seed inputs")
    p.add_argument("--refs", required=True, help="directory with inputs.npy [+ labels.npy]")
    p.add_argument("--bound", type=float, default=0.3, help="validity distance bound")
    p.add_argument("--l0-budget", type=int, default=100, help="max pixels changed under l0")
    p.add_argument("--lip-c", type=float, default=1.0, help="Lipschitz constant under test")
    p.add_argument("--lip-delta", type=float, default=0.1, help="box radius around each seed")
    p.add_argument("--max-attempts", type=int, default=3, help="ranked candidates per requirement")
    p.add_argument("--timeout", type=float, default=600.0, help="wall-clock budget in seconds")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--quantize", type=int, default=None, metavar="Q",
                   help="snap synthesized inputs to the 1/Q grid (e.g. 255)")
    p.add_argument("--dump-lp", action="store_true", help="dump LP problems under OUT/lp/")
    return p


def _verify_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="concolic-dnn verify",
                                description="re-check persisted adversarial records")
    p.add_argument("--out", required=True, help="output directory of a finished run")
    p.add_argument("--model", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--bound", type=float, default=None,
                   help="override the bound recorded in report.json")
    return p


def _cmd_run(args) -> int:
    net = _read(load_model, args.model)
    refs = load_refs(args.refs, args.norm, net)
    seeds = load_seeds(args.seeds)
    lip = None
    if FAMILIES[args.criterion].needs_lip:
        try:
            lip = LipConfig(c=args.lip_c, delta=args.lip_delta)
        except ValueError as exc:
            raise ConfigError(f"--lip-c/--lip-delta: {exc}") from exc
    cfg = RunConfig(
        criterion=args.criterion,
        norm=args.norm,
        bound=args.bound,
        max_attempts=args.max_attempts,
        timeout=args.timeout,
        rng_seed=args.rng_seed,
        l0_budget=args.l0_budget,
        lip=lip,
        quantize=args.quantize,
    )
    dump_dir = os.path.join(args.out, "lp") if args.dump_lp else None
    result = run(net, refs, seeds, cfg, dump_lp_dir=dump_dir)
    save_run(result, cfg, args.out)
    print(
        f"coverage {result.report.coverage:.4f} "
        f"({result.report.satisfied}/{len(result.requirements)} satisfied, "
        f"{result.report.failed} failed), suite size {len(result.suite)}, "
        f"adversarial {len(result.report.adversarial)}"
    )
    if result.timed_out:
        print("run hit the wall-clock budget", file=sys.stderr)
        return 3
    return 0


def _cmd_verify(args) -> int:
    report_path = os.path.join(args.out, "report.json")
    report = _read(_load_json, report_path)
    try:
        norm = report["config"]["norm"]
        bound = report["config"]["bound"] if args.bound is None else args.bound
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{report_path}: malformed config ({exc!r})") from exc
    net = _read(load_model, args.model)
    refs = load_refs(args.refs, norm, net)
    _read(load_suite, os.path.join(args.out, "suite"))  # a corrupt suite is a configuration error
    cache = ActivationCache(net)
    ok = True
    for entry in report.get("adversarial", []):
        path = os.path.join(args.out, "adversarial", entry["file"])
        try:
            vec = np.load(path)
            idx, dist = nearest(refs, vec)
        except UNREADABLE as exc:
            print(f"{entry['file']}: cannot check ({exc}) -> FAIL")
            ok = False
            continue
        label = cache.get(vec).label
        ref_label = cache.get(refs.inputs[idx]).label
        good = label != ref_label and dist <= bound
        status = "ok" if good else "FAIL"
        print(
            f"{entry['file']}: labels {label} vs {ref_label}, "
            f"distance {dist:.6g} (bound {bound:g}) -> {status}"
        )
        ok = ok and good
    print(f"verified {len(report.get('adversarial', []))} adversarial records: "
          + ("all good" if ok else "FAILURES FOUND"))
    return 0 if ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "verify":
            return _cmd_verify(_verify_parser().parse_args(argv[1:]))
        return _cmd_run(_run_parser().parse_args(argv))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
