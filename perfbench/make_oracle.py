"""Record the reference ``history_digest`` of every benchmark input.

Runs each input on the serial reference provider and writes
``perfbench/oracle.json``:

* ``campaign.digests[ga_seed][k]`` — digest of the campaign history after
  ``k + 1`` generations, for every GA seed of the campaign workloads (both
  campaign workloads check against these, so serial and process must agree);
* ``service.jobs[i]`` — target, seed, digest and evaluation count of entry
  ``i`` of the service workload's job table.

Only needed when the program's results are meant to change::

    python3 perfbench/make_oracle.py            # about 12 minutes
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.ga.engine import InSiPSEngine  # noqa: E402
from repro.ga.termination import TerminationCriterion  # noqa: E402
from repro.providers import make_score_provider  # noqa: E402
from repro.service import history_digest  # noqa: E402
from repro.synthetic.profiles import get_profile  # noqa: E402

from perfbench import workloads as wl  # noqa: E402


class _DigestEveryGeneration(TerminationCriterion):
    def __init__(self, generations: int):
        self.generations = generations
        self.digests: list[str] = []

    def should_stop(self, history) -> bool:
        self.digests.append(history_digest(history))
        return len(history) >= self.generations


def campaign_digests() -> dict[str, list[str]]:
    world = get_profile(wl.CAMPAIGN_PROFILE).build_world()
    target, non_targets = wl.campaign_problem(world)
    out: dict[str, list[str]] = {}
    with make_score_provider(world, target, non_targets) as provider:
        for ga_seed in wl.CAMPAIGN_GA_SEEDS:
            criterion = _DigestEveryGeneration(wl.CAMPAIGN_MAX_GENERATIONS)
            wl.campaign_engine(provider, ga_seed, None).run(criterion)
            out[str(ga_seed)] = criterion.digests
            print(f"campaign seed {ga_seed}", flush=True)
    return out


def service_jobs() -> list[dict[str, object]]:
    world = get_profile(wl.SERVICE_PROFILE).build_world()
    jobs = []
    for target, job_seed in wl.service_table(world):
        spec = wl.service_spec(world, "oracle", target, job_seed, "oracle")
        with make_score_provider(world, target, list(spec.non_targets)) as provider:
            result = InSiPSEngine(
                provider,
                spec.params,
                population_size=spec.population_size,
                candidate_length=spec.candidate_length,
                seed=spec.seed,
            ).run(spec.generations)
        jobs.append(
            {
                "target": target,
                "seed": job_seed,
                "digest": history_digest(result.history),
                "evaluations": int(result.evaluations),
            }
        )
        print(f"service job {target} seed {job_seed}", flush=True)
    return jobs


def main() -> int:
    oracle = {
        "service": {
            "profile": wl.SERVICE_PROFILE,
            "generations": wl.SERVICE_JOB_GENERATIONS,
            "jobs": service_jobs(),
        },
        "campaign": {
            "profile": wl.CAMPAIGN_PROFILE,
            "target": wl.CAMPAIGN_TARGET,
            "generations": wl.CAMPAIGN_MAX_GENERATIONS,
            "digests": campaign_digests(),
        },
    }
    wl.ORACLE_PATH.write_text(json.dumps(oracle, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
