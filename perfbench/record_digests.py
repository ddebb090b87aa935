"""Rewrite ``digests.json``: each workload's decision digest per committed seed.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Run it only for a change that is meant to alter accept/reject decisions;
the benchmark counts every seed whose trajectory differs from this file
as failed.
"""

from __future__ import annotations

import json
import sys

import run


def main(names: list[str]) -> int:
    api, _ = run.import_api()
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for name in names or sorted(run.WORKLOADS):
        config = api.configs.ExperimentConfig(**run.WORKLOADS[name].config)
        digests = {}
        for seed in range(run.COMMITTED_SEEDS):
            (seed_run,) = run.run_untraced(api, config, [seed], {})
            api.environment.clear_environment_cache()
            if seed_run.digest is None:
                print(f"{name}: seed {seed} raised", file=sys.stderr)
                return 1
            digests[str(seed)] = seed_run.digest
        table[name] = digests
        print(f"{name}: {len(digests)} digests")
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
