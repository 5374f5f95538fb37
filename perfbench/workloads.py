"""The benchmark's workloads and the seed-driven inputs they receive.

Every workload is one or more ``hlcouette`` CLI commands.  The seed only
perturbs the generated inputs: the Gaussian initial density (mean in
[-0.1, 0.1], width in [0.9, 1.1]) and the wall speed (protocol.v_max in
[0.9, 1.1]).  Seed 0 adds no override, so it is exactly the pinned
standard scenario.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: tuple[str, ...]       # fixed --set overrides of the workload
    run_flags: tuple[str, ...] = ()  # extra flags of `hlcouette run`
    diagnose_step: int = 0           # re-diagnose this checkpoint; 0 = none
    checkpoint_every: int = 0        # 0 = only checkpoint_final is written
    maxwell: bool = False            # integrates through coupler.run_maxwell

    def config_overrides(self, seed: int) -> list[str]:
        return [*self.overrides, *seeded_overrides(seed)]

    def commands(self, seed: int, out: Path) -> list[list[str]]:
        """argv lists for ``hlcouette.cli.main``, run in order."""
        sets = [a for o in self.config_overrides(seed) for a in ("--set", o)]
        cmds = [["run", "--out", str(out), *self.run_flags, *sets]]
        if self.diagnose_step:
            ckpt = out / f"checkpoint_{self.diagnose_step:06d}.npz"
            cmds.append(["diagnose", "--checkpoint", str(ckpt), *sets])
        return cmds


STEPS = 1000  # dt = 1e-3 up to t = 1, the default horizon of every workload

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="standard",
        why="the pinned 64x256 acceptance scenario; the stress-space batch "
            "solve dominates, so it shows meso and tridiag gains",
        overrides=()),
    Workload(
        name="maxwell_fine",
        why="fully relaxing run on n_y=511 that bypasses the meso layer; the "
            "scalar gap heat solve dominates, so meso-only changes read flat",
        overrides=("model.fully_relaxing=true", "grid.sigma_max=8.0",
                   "grid.n_y=511"),
        maxwell=True),
    Workload(
        name="checkpointed",
        why="standard physics writing 101 checkpoints and 202 CSVs, then "
            "re-diagnosing one; artifact writes and reads take a large share",
        overrides=("run.checkpoint_every=10", "run.snapshot_every=10"),
        run_flags=("--dump-density",),
        diagnose_step=500,
        checkpoint_every=10),
)}


def seeded_overrides(seed: int) -> list[str]:
    """Generated inputs for one seed; seed 0 is the unperturbed scenario."""
    if seed == 0:
        return []
    rng = random.Random(seed)
    mean = rng.uniform(-0.1, 0.1)
    width = rng.uniform(0.9, 1.1)
    v_max = rng.uniform(0.9, 1.1)
    return [f"initial.mean={mean!r}", f"initial.width={width!r}",
            f"protocol.v_max={v_max!r}"]
