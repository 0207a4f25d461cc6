"""One sha256 per bench workload and seed over every file ``save_run`` writes,
and one per workload over the model file ``save_model`` writes.

    PYTHONPATH=src python3 scripts/run_hashes.py

Builds each workload of ``bench/scenarios.py`` at each seed in ``SEEDS``, runs
it once with ``engine.run`` and saves it with ``engine.save_run`` into a
temporary directory. Prints one line per run: the workload, the seed and a
sha256 over the relative path, size and bytes of every file written, in
sorted path order. Then prints one line per workload: the sha256 of the file
``network.save_model`` writes for the workload's net (the same at every seed).
A change meant to keep every report and model file byte-identical shows the
same output as its parent, so comparing the two is one diff.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from concolic_dnn import engine, network

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import scenarios  # noqa: E402  (bench/ is not a package)

SEEDS = (1, 3, 5, 7, 11)


def run_hash(workload: str, seed: int) -> str:
    scenario = scenarios.WORKLOADS[workload](seed)
    result = engine.run(scenario.net, scenario.refs, scenario.seeds, scenario.cfg)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out:
        engine.save_run(result, scenario.cfg, out)
        for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
            data = path.read_bytes()
            digest.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


def model_hash(workload: str) -> str:
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "model.json"
        network.save_model(scenarios.WORKLOADS[workload](SEEDS[0]).net, str(path))
        return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    for workload in scenarios.WORKLOADS:
        for seed in SEEDS:
            print(f"{workload} seed {seed}: {run_hash(workload, seed)}")
    for workload in scenarios.WORKLOADS:
        print(f"{workload} model: {model_hash(workload)}")


if __name__ == "__main__":
    main()
