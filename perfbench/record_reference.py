"""Record the per-trial reference results the correctness gate compares with.

    python3 perfbench/record_reference.py

For each workload preset at the default ``--seed`` (the presets' root
seed, split into chunks as ``run.chunk_configs`` does), writes
``reference/<preset>.csv``: each trial's LS and IRLS errors and IRLS
rejected set from ``run_batch``, and the fused position from
``irls_position`` on the same epoch. Run it only on a commit whose results
are the accepted ones; the gate exists to catch later changes to them.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gate  # noqa: E402
import run  # noqa: E402


def record(preset: str) -> Path:
    from irlspos.config import load_config

    cfg = load_config(preset)
    chunks = run.chunk_configs(cfg, run.DEFAULT_SEED)
    failures = run.Failures()
    out_dir = run.OUT_DIR / "record"
    _, batch = run.batch_pass(chunks, out_dir, failures)
    fixes = run.fix_sweep(cfg, run.emulate_epochs(chunks), {}, failures)
    shutil.rmtree(out_dir, ignore_errors=True)
    if failures.count:
        sys.exit(f"{preset}: {failures.count} operations failed; nothing recorded")
    problems = gate.mismatches(fixes, batch)
    if problems:
        sys.exit(f"{preset}: irls_position disagrees with run_batch: {problems[:3]}")
    results = {
        key: gate.TrialResult(
            ls_error_m=b.ls_error_m,
            irls_error_m=b.irls_error_m,
            irls_xy_m=fixes[key].irls_xy_m,
            rejected=b.rejected,
        )
        for key, b in batch.items()
    }
    return gate.write_reference(preset, results)


def main() -> int:
    run.use_source_tree()
    for preset in run.WORKLOADS.values():
        print(f"wrote {record(preset).relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
