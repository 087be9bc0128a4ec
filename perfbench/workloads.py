"""The benchmark's three workloads and the inputs each one derives from a seed.

* ``campaign-serial`` — one InSiPS campaign on the ``medium`` profile,
  scored in-process (the paper's single-threaded baseline).
* ``campaign-process`` — the same campaign on the master/worker
  multiprocessing backend with :data:`WORKERS` workers.  Its history must
  match ``campaign-serial``'s bit for bit.
* ``service-mixed`` — a :class:`~repro.service.DesignService` on the
  ``small`` profile, driven as a closed loop by :data:`SERVICE_TENANTS`
  tenants that each keep one job in flight; jobs cycle over distinct
  targets and checkpoint every generation.

The program only sees the generated inputs: a GA seed, a target and its
non-targets, job specs.  Each input has a reference ``history_digest``
in ``oracle.json`` (written by ``make_oracle.py`` on the serial
reference path), so every run checks its own outputs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.ga.termination import TerminationCriterion
from repro.providers import make_score_provider
from repro.sequences.random_gen import RandomSequenceGenerator
from repro.service import (
    DesignService,
    JobSpec,
    JobState,
    history_digest,
    read_result,
    read_status,
)
from repro.synthetic.profiles import get_profile
from repro.telemetry import MetricsRegistry, read_jsonl

ORACLE_PATH = Path(__file__).with_name("oracle.json")

#: Pool size of every parallel workload: the load shape is fixed, not
#: scaled to the machine, so numbers from different boxes stay comparable
#: (the machine record says how many cores there were).
WORKERS = 2
#: Set-ups before the timed window; the last one is the run's session.
SETUPS = 3
#: Set-ups after the window in an untraced run, each closed at once;
#: ``setup_s`` is the median of all of them.
SETUPS_AFTER = 2

CAMPAIGN_PROFILE = "medium"
CAMPAIGN_TARGET = "YBL051C"
#: GA seeds with recorded reference digests; ``--seed n`` picks one.
CAMPAIGN_GA_SEEDS = tuple(range(1, 13))
#: The oracle holds a digest for every history prefix up to this length;
#: a campaign stops there even if its window is not used up.
CAMPAIGN_MAX_GENERATIONS = 32
#: A campaign's ``job_s`` is the time to finish this many generations; it
#: runs past its deadline until they are done.
CAMPAIGN_JOB_GENERATIONS = 8

SERVICE_PROFILE = "small"
SERVICE_TENANTS = ("tenant-a", "tenant-b")
SERVICE_JOB_GENERATIONS = 3
#: Per-job seeds of the job table start here (entry i has seed base + i).
SERVICE_SEED_BASE = 100
#: Each target appears this many times in the job table, with other seeds.
SERVICE_ROUNDS = 2
#: Poll period of the closed loop waiting for DONE.
SERVICE_POLL_S = 0.02
#: How long a job's ``status.json`` may lag its live terminal state.
STATUS_SETTLE_S = 5.0

_TERMINAL = (JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.EVICTED)


# -- inputs -------------------------------------------------------------------


def campaign_problem(world) -> tuple[str, list[str]]:
    """The campaign's design problem: target plus its capped non-targets."""
    profile = get_profile(CAMPAIGN_PROFILE)
    return CAMPAIGN_TARGET, world.non_targets_for(
        CAMPAIGN_TARGET, limit=profile.non_target_limit
    )


def campaign_ga_seed(seed: int) -> int:
    return CAMPAIGN_GA_SEEDS[seed % len(CAMPAIGN_GA_SEEDS)]


def campaign_engine(provider, ga_seed: int, telemetry) -> InSiPSEngine:
    profile = get_profile(CAMPAIGN_PROFILE)
    return InSiPSEngine(
        provider,
        GAParams(),
        population_size=profile.population_size,
        candidate_length=profile.candidate_length,
        seed=ga_seed,
        telemetry=telemetry,
    )


def service_table(world) -> list[tuple[str, int]]:
    """Every (target, job seed) the service workload may submit, ordered so
    that consecutive entries name distinct targets."""
    targets = [p.name for p in world.candidate_targets()]
    return [
        (targets[i % len(targets)], SERVICE_SEED_BASE + i)
        for i in range(SERVICE_ROUNDS * len(targets))
    ]


def service_entries(table_size: int, seed: int) -> list[int]:
    """Job-table indices in submission order for ``seed``: the whole table,
    rotated to a seed-dependent start."""
    start = (seed * 7) % table_size
    return [(start + k) % table_size for k in range(table_size)]


def service_spec(world, tenant: str, target: str, job_seed: int, job_id: str) -> JobSpec:
    profile = get_profile(SERVICE_PROFILE)
    return JobSpec(
        tenant=tenant,
        target=target,
        non_targets=tuple(
            world.non_targets_for(target, limit=profile.non_target_limit)
        ),
        seed=job_seed,
        generations=SERVICE_JOB_GENERATIONS,
        population_size=profile.population_size,
        candidate_length=profile.candidate_length,
        checkpoint_every=1,
        job_id=job_id,
    )


def warmup_sequences(length: int) -> list:
    """Fixed candidates scored once during set-up to pay the lazy start
    (pool spawn, shared-memory segment, evidence caches); never produced
    by a GA run."""
    generator = RandomSequenceGenerator(length, length, seed=20151115)
    return [generator.encoded() for _ in range(WORKERS)]


def load_oracle() -> dict:
    with open(ORACLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def settled_status(root: Path, job_id: str) -> dict:
    """``status.json`` of a job the service reports finished.

    The service sets a job's live state before it rewrites the file, so
    the file can still read RUNNING for a moment; wait up to
    :data:`STATUS_SETTLE_S` for it to catch up."""
    deadline = time.perf_counter() + STATUS_SETTLE_S
    while True:
        status = read_status(root, job_id)
        if status["state"] in _TERMINAL or time.perf_counter() >= deadline:
            return status
        time.sleep(SERVICE_POLL_S)


class TimedTermination(TerminationCriterion):
    """Stop at the first generation barrier past ``deadline`` once at least
    :data:`CAMPAIGN_JOB_GENERATIONS` are done, or at
    :data:`CAMPAIGN_MAX_GENERATIONS`."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def should_stop(self, history) -> bool:
        done = len(history)
        return done >= CAMPAIGN_MAX_GENERATIONS or (
            done >= CAMPAIGN_JOB_GENERATIONS and time.perf_counter() >= self.deadline
        )


# -- one run ------------------------------------------------------------------


@dataclass
class RunRecord:
    """What one timed window produced (all times in seconds)."""

    start: float
    end: float
    candidates: int = 0
    failed_candidates: int = 0
    gen0_s: list[float] = field(default_factory=list)
    gen_s: list[float] = field(default_factory=list)
    job_s: list[float] = field(default_factory=list)
    #: Counters and timers summed from every registry the run used,
    #: restricted to the timed window.
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    #: Per-job ``(queue_wait_s, run_s)`` from ``status.json``.
    job_phases: list[tuple[float, float]] = field(default_factory=list)
    inputs: dict[str, object] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    candidates_per_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Session:
    """One set-up: the live objects a run scores through."""

    world: object
    registry: MetricsRegistry
    scorer: object  # a score provider or a DesignService
    root: Path | None = None

    def close(self) -> None:
        self.scorer.close()


def _flatten(snapshot: dict) -> tuple[dict[str, float], dict[str, float]]:
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    for name, inst in snapshot.items():
        kind = inst.get("type")
        if kind == "counter":
            counters[name] = float(inst["value"])
        elif kind == "timer":
            counters[name + ".total_s"] = float(inst["total_s"])
            counters[name + ".count"] = float(inst["count"])
        elif kind == "gauge":
            gauges[name] = float(inst["value"])
        elif kind == "histogram":
            gauges[name + ".p50"] = float(inst["p50"])
    return counters, gauges


def registry_window(before: dict, after: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Counter/timer growth between two registry snapshots, plus the final
    gauge values and histogram medians."""
    base, _ = _flatten(before)
    counters, gauges = _flatten(after)
    return {k: v - base.get(k, 0.0) for k, v in counters.items()}, gauges


class CampaignWorkload:
    """One closed-loop campaign on a dedicated provider."""

    def __init__(self, name: str, backend: str):
        self.name = name
        self.backend = backend

    def setup(self, workdir: Path) -> Session:
        registry = MetricsRegistry()
        world = get_profile(CAMPAIGN_PROFILE).build_world()
        target, non_targets = campaign_problem(world)
        extra = {"workers": WORKERS} if self.backend == "process" else {}
        provider = make_score_provider(
            world,
            target,
            non_targets,
            backend=self.backend,
            telemetry=registry,
            **extra,
        )
        try:
            world.engine.database.precompute([target, *non_targets])
            provider.scores(
                warmup_sequences(get_profile(CAMPAIGN_PROFILE).candidate_length)
            )
        except BaseException:
            provider.close()
            raise
        return Session(world=world, registry=registry, scorer=provider)

    def run(self, session: Session, seed: int, seconds: float) -> RunRecord:
        oracle = load_oracle()["campaign"]
        if (oracle["profile"], oracle["target"], oracle["generations"]) != (
            CAMPAIGN_PROFILE,
            CAMPAIGN_TARGET,
            CAMPAIGN_MAX_GENERATIONS,
        ):
            raise ValueError("oracle.json describes another campaign; run make_oracle.py")
        ga_seed = campaign_ga_seed(seed)
        reference = oracle["digests"][str(ga_seed)]
        engine = campaign_engine(session.scorer, ga_seed, session.registry)
        stamps: list[float] = []
        before = session.registry.snapshot()
        start = time.perf_counter()
        result = engine.run(
            TimedTermination(start + seconds),
            on_generation=lambda pop, stats: stamps.append(time.perf_counter()),
        )
        record = RunRecord(start=start, end=time.perf_counter())
        record.candidates = result.evaluations
        record.candidates_per_s = result.evaluations / record.wall_s
        done = len(result.history)
        digest = history_digest(result.history)
        if digest != reference[done - 1]:
            record.failed_candidates = result.evaluations
            record.problems.append(
                f"history_digest after {done} generations is {digest[:16]}, "
                f"reference {reference[done - 1][:16]}"
            )
        record.gen0_s = [stamps[0] - start]
        record.gen_s = [b - a for a, b in zip(stamps, stamps[1:])]
        record.job_s = [stamps[CAMPAIGN_JOB_GENERATIONS - 1] - start]
        record.counters, record.gauges = registry_window(
            before, session.registry.snapshot()
        )
        record.inputs = {
            "profile": CAMPAIGN_PROFILE,
            "target": CAMPAIGN_TARGET,
            "ga_seed": ga_seed,
            "backend": self.backend,
            "workers": WORKERS if self.backend == "process" else 0,
            "generations": done,
            "history_digest": digest,
        }
        return record


class ServiceWorkload:
    """Two tenants, each keeping one job in flight on a shared service."""

    name = "service-mixed"

    def setup(self, workdir: Path) -> Session:
        registry = MetricsRegistry()
        world = get_profile(SERVICE_PROFILE).build_world()
        root = workdir / f"service-{time.perf_counter_ns()}"
        service = DesignService(
            world,
            root,
            max_concurrent=len(SERVICE_TENANTS),
            num_workers=WORKERS,
            telemetry=registry,
        )
        try:
            target, _ = service_table(world)[0]
            non_targets = world.non_targets_for(
                target, limit=get_profile(SERVICE_PROFILE).non_target_limit
            )
            world.engine.database.precompute([target, *non_targets])
            client = service.fabric.client(target, non_targets)
            try:
                client.scores(
                    warmup_sequences(get_profile(SERVICE_PROFILE).candidate_length)
                )
            finally:
                client.close()
        except BaseException:
            service.close()
            raise
        return Session(world=world, registry=registry, scorer=service, root=root)

    def run(self, session: Session, seed: int, seconds: float) -> RunRecord:
        oracle = load_oracle()["service"]["jobs"]
        world, service = session.world, session.scorer
        table = service_table(world)
        order = service_entries(len(table), seed)
        submitted: dict[str, tuple[str, int]] = {}  # job id -> (tenant, table index)
        inflight: dict[str, str] = {}  # tenant -> job id
        before = session.registry.snapshot()
        epoch_start = time.time()
        start = time.perf_counter()
        deadline = start + seconds

        def submit(tenant: str) -> None:
            index = order[len(submitted)]
            target, job_seed = table[index]
            job_id = f"job-{len(submitted):04d}"
            service.submit(service_spec(world, tenant, target, job_seed, job_id))
            submitted[job_id] = (tenant, index)
            inflight[tenant] = job_id

        for tenant in SERVICE_TENANTS:
            submit(tenant)
        while inflight:
            time.sleep(SERVICE_POLL_S)
            for tenant, job_id in list(inflight.items()):
                if service.status(job_id)["state"] not in _TERMINAL:
                    continue
                del inflight[tenant]
                if time.perf_counter() < deadline and len(submitted) < len(order):
                    submit(tenant)
        record = RunRecord(start=start, end=time.perf_counter())
        record.counters, record.gauges = registry_window(
            before, session.registry.snapshot()
        )
        # Timing comes from the steady state: jobs done by the deadline,
        # while every tenant still had a job in flight.  Jobs that finish
        # after it ran partly alone; they are checked but not timed.
        epoch_deadline = epoch_start + seconds
        done: dict[str, list[tuple[float, int]]] = {t: [] for t in SERVICE_TENANTS}
        for job_id, (tenant, index) in submitted.items():
            finished = self._collect_job(
                session.root, job_id, table[index], oracle[index], record, epoch_deadline
            )
            if finished is not None and finished[0] <= epoch_deadline:
                done[tenant].append(finished)
        if all(done.values()):
            record.candidates_per_s = sum(
                sum(n for _, n in jobs) / (max(t for t, _ in jobs) - epoch_start)
                for jobs in done.values()
            )
        else:
            record.candidates_per_s = record.candidates / record.wall_s
        record.inputs = {
            "profile": SERVICE_PROFILE,
            "tenants": len(SERVICE_TENANTS),
            "workers": WORKERS,
            "job_generations": SERVICE_JOB_GENERATIONS,
            "jobs": [
                {"target": table[i][0], "seed": table[i][1]}
                for _, i in submitted.values()
            ],
            "timed_jobs": sum(len(jobs) for jobs in done.values()),
        }
        return record

    @staticmethod
    def _collect_job(
        root: Path,
        job_id: str,
        entry: tuple[str, int],
        reference: dict,
        record: RunRecord,
        epoch_deadline: float,
    ) -> tuple[float, int] | None:
        """Check one job against its reference; add its samples to
        ``record`` when it finished by the deadline.  Returns
        ``(finished_at, evaluations)`` of a DONE job."""
        status = settled_status(root, job_id)
        if (reference["target"], reference["seed"]) != tuple(entry):
            record.candidates += reference["evaluations"]
            record.failed_candidates += reference["evaluations"]
            record.problems.append(f"{job_id}: oracle entry {reference} does not match {entry}")
            return None
        if status["state"] != JobState.DONE:
            record.candidates += reference["evaluations"]
            record.failed_candidates += reference["evaluations"]
            record.problems.append(f"{job_id} ended {status['state']}: {status.get('error')}")
            return None
        result = read_result(root, job_id)
        evaluations = int(result["evaluations"])
        record.candidates += evaluations
        if result["history_digest"] != reference["digest"]:
            record.failed_candidates += evaluations
            record.problems.append(
                f"{job_id} ({reference['target']}, seed {reference['seed']}) "
                "history_digest differs from the reference"
            )
        submitted, started, finished = (
            float(status[k]) for k in ("submitted_at", "started_at", "finished_at")
        )
        record.job_phases.append((started - submitted, finished - started))
        telemetry = read_jsonl(root / "jobs" / job_id / "telemetry.jsonl")
        counters = record.counters
        for rec in telemetry:
            if rec.get("record") == "metric" and rec["type"] in ("counter", "timer"):
                key = "job." + rec["name"]
                if rec["type"] == "timer":
                    key, value = key + ".total_s", rec["total_s"]
                else:
                    value = rec["value"]
                counters[key] = counters.get(key, 0.0) + float(value)
            elif finished <= epoch_deadline and rec.get("event") == "ga.generation":
                samples = record.gen0_s if rec["generation"] == 0 else record.gen_s
                samples.append(float(rec["duration_s"]))
        if finished <= epoch_deadline:
            record.job_s.append(finished - submitted)
        return finished, evaluations


WORKLOADS = {
    w.name: w
    for w in (
        CampaignWorkload("campaign-serial", "serial"),
        CampaignWorkload("campaign-process", "process"),
        ServiceWorkload(),
    )
}

