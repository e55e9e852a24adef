"""The benchmark's workloads, their output checks and their metrics.

Every workload is a closed loop with one caller: each request waits for the
previous reply.  ``spec-*`` call ``engine.generate`` and
``autoregressive.target_only_generate`` one seed at a time, interleaved seed
by seed; ``check-dist`` calls ``oracle.distribution_check`` repeatedly.
Seeds come from ``rng.replicate_seed(seed, workload.tag, r)``.
"""

from __future__ import annotations

import mmap
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from tracing import DRAFT, TARGET, Spans, Tracer

# Warm-up seeds use replicate indices far above any measured index.
WARMUP_OFFSET = 1 << 40
WARMUP_PAIRS = 60
WARMUP_CORPUS_RUNS = 200
# Family-wise significance of every KS check, Bonferroni-split over positions.
KS_FAMILY_ALPHA = 1e-4
# p99 needs at least ten samples beyond it.
MIN_SPEC_RUNS = 1000


@dataclass
class Tally:
    """Operations attempted and failed, plus every failed output check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def wrong(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems


@dataclass
class Bench:
    """Everything a workload needs after set-up."""

    workload: object  # run.Workload
    seed: int
    cs: object  # namespace of the imported cspdec modules
    target: object
    draft: object
    config: object  # SpecDecodeConfig
    load_ms: float

    @property
    def run_errors(self):
        return (self.cs.engine.ResampleExhaustedError, self.cs.diffusion.ChainDivergenceError)

    def seed_of(self, r: int) -> int:
        return self.cs.rng.replicate_seed(self.seed, self.workload.tag, r)


# ---------------------------------------------------------------- spec-* loop


@dataclass
class LoopCorpus:
    spec_s: list[float] = field(default_factory=list)
    target_s: list[float] = field(default_factory=list)
    spec_tokens: list[np.ndarray] = field(default_factory=list)
    target_tokens: list[np.ndarray] = field(default_factory=list)
    stats: list = field(default_factory=list)
    ks_s: float = 0.0

    @property
    def pairs(self) -> int:
        return len(self.spec_s)


def spec_run_problems(b: Bench, state, stats) -> list[str]:
    ar = b.cs.autoregressive
    cfg = b.config
    problems = []
    tokens = state.tokens_array()
    if tokens.shape != (cfg.length, cfg.dim) or not np.all(np.isfinite(tokens)):
        problems.append(f"tokens of shape {tokens.shape} or non-finite")
    origins = list(state.origins)
    if not set(origins) <= set(ar.ORIGINS):
        problems.append(f"unknown origin in {origins}")
    k = ar.prefill_count(cfg.rho, cfg.length)
    if origins.count(ar.PREFILLED) != k or origins[:k] != [ar.PREFILLED] * k:
        problems.append(f"expected {k} pre-filled tokens first")
    proposals = len(stats.proposal_positions)
    trials = sum(stats.resample_trials)
    bonus = origins.count(ar.TARGET_FALLTHROUGH)
    if stats.draft_chain_calls != proposals + trials:
        problems.append(f"draft_chain_calls {stats.draft_chain_calls} != {proposals + trials}")
    if stats.target_chain_calls != k + proposals + trials + bonus:
        problems.append(
            f"target_chain_calls {stats.target_chain_calls} != {k + proposals + trials + bonus}"
        )
    return problems


def target_run_problems(b: Bench, state) -> list[str]:
    tokens = state.tokens_array()
    problems = []
    if tokens.shape != (b.config.length, b.config.dim) or not np.all(np.isfinite(tokens)):
        problems.append(f"tokens of shape {tokens.shape} or non-finite")
    if set(state.origins) != {b.cs.autoregressive.TARGET_FALLTHROUGH}:
        problems.append(f"origins {set(state.origins)}")
    return problems


def record(tally: Tally, what: str, problems: list[str]) -> None:
    """Count an operation whose output failed a check as failed."""
    if problems:
        tally.failed += 1
        for p in problems:
            tally.wrong(f"{what}: {p}")


def run_pair(b: Bench, r: int, corpus: LoopCorpus, tally: Tally, keep_stats=False) -> None:
    """One speculative run, then one target-only run on a disjoint seed."""
    cs = b.cs
    spec_cfg = b.config.with_seed(b.seed_of(2 * r))
    target_seed = b.seed_of(2 * r + 1)

    tally.attempted += 1
    t0 = perf_counter()
    try:
        state, stats = cs.engine.generate(b.target, b.draft, spec_cfg)
    except b.run_errors:
        tally.failed += 1
    else:
        corpus.spec_s.append(perf_counter() - t0)
        record(tally, f"seed {spec_cfg.seed}", spec_run_problems(b, state, stats))
        corpus.spec_tokens.append(state.tokens_array())
        if keep_stats:
            corpus.stats.append(stats)

    tally.attempted += 1
    streams = cs.rng.PositionStreams(target_seed)
    t0 = perf_counter()
    try:
        state = cs.autoregressive.target_only_generate(
            b.target, b.config.length, streams, b.config.temperature
        )
    except b.run_errors:
        tally.failed += 1
    else:
        corpus.target_s.append(perf_counter() - t0)
        record(tally, f"target seed {target_seed}", target_run_problems(b, state))
        corpus.target_tokens.append(state.tokens_array())


def ks_check(b: Bench, spec: np.ndarray, ref: np.ndarray, tally: Tally) -> None:
    """Per-position KS of two token corpora, Bonferroni-corrected over positions."""
    length, dim = spec.shape[1], spec.shape[2]
    level = KS_FAMILY_ALPHA / (length * dim)
    for pos in range(length):
        for coord in range(dim):
            stat, pvalue = b.cs.oracle.ks_two_sample(spec[:, pos, coord], ref[:, pos, coord])
            if pvalue < level:
                tally.wrong(f"KS at position {pos}: D={stat:.4f} p={pvalue:.2e}")


def loop(b: Bench, tally: Tally, seconds: float, count: int | None = None,
         keep_stats=False, min_pairs: int = 0) -> LoopCorpus:
    """Run pairs 0, 1, ...: ``count`` of them, or until ``seconds`` pass."""
    corpus = LoopCorpus()
    deadline = perf_counter() + seconds

    def more(done: int) -> bool:
        if count is not None:
            return done < count
        return done < min_pairs or perf_counter() < deadline

    r = 0
    while more(r):
        run_pair(b, r, corpus, tally, keep_stats)
        r += 1
    t0 = perf_counter()
    if corpus.spec_tokens and corpus.target_tokens:
        ks_check(b, np.stack(corpus.spec_tokens), np.stack(corpus.target_tokens), tally)
    corpus.ks_s = perf_counter() - t0
    return corpus


# ---------------------------------------------------------------- check-dist


class RunClock:
    """Wall time of every run inside ``oracle.distribution_check``.

    ``parallel.generate`` and ``parallel.target_only_generate`` are wrapped in
    this process before the pool forks its workers, and each run's time is
    written into an anonymous shared mapping at the slot of its seed.  The
    wrappers of ``oracle.speculative_token_matrix`` and
    ``oracle.baseline_token_matrix`` assign the slots and time the parallel
    layer from outside.  A pool that does not fork from this process leaves
    the slots empty, which :meth:`take` reports as an error.
    """

    def __init__(self, cs, runs: int):
        self.cs = cs
        self.runs = runs
        self._map = mmap.mmap(-1, 16 * runs)
        self.times = np.frombuffer(self._map, dtype=np.float64)
        self.times[:] = np.nan
        self._slots: list[dict[int, int]] = [{}, {}]
        self.parallel_s = 0.0
        self.keep_stats = False
        self.stats: list = []

    @contextmanager
    def installed(self):
        par, orc = self.cs.parallel, self.cs.oracle
        gen, tgt = par.generate, par.target_only_generate
        spec_mx, base_mx = orc.speculative_token_matrix, orc.baseline_token_matrix
        times, slots = self.times, self._slots

        def generate(target, draft, config):
            t0 = perf_counter()
            out = gen(target, draft, config)
            times[slots[0][config.seed]] = perf_counter() - t0
            if self.keep_stats:
                self.stats.append(out[1])
            return out

        def target_only_generate(model, length, streams, temperature=1.0):
            t0 = perf_counter()
            out = tgt(model, length, streams, temperature)
            times[self.runs + slots[1][streams.master_seed]] = perf_counter() - t0
            return out

        def timed(matrix, side):
            def wrapper(*args, **kwargs):
                seeds = args[3 - side] if len(args) > 3 - side else kwargs["seeds"]
                slots[side] = {s: i for i, s in enumerate(seeds)}
                t0 = perf_counter()
                try:
                    return matrix(*args, **kwargs)
                finally:
                    self.parallel_s += perf_counter() - t0
            return wrapper

        par.generate, par.target_only_generate = generate, target_only_generate
        orc.speculative_token_matrix = timed(spec_mx, 0)
        orc.baseline_token_matrix = timed(base_mx, 1)
        try:
            yield self
        finally:
            par.generate, par.target_only_generate = gen, tgt
            orc.speculative_token_matrix, orc.baseline_token_matrix = spec_mx, base_mx

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        """Spec and target-only run times of the last check; clears the slots."""
        times = self.times.copy()
        self.times[:] = np.nan
        if np.isnan(times).any():
            raise RuntimeError(
                f"{int(np.isnan(times).sum())} run times missing: the process pool "
                "did not run the wrapped parallel.generate / target_only_generate"
            )
        return times[: self.runs], times[self.runs:]


@dataclass
class CheckCorpus:
    spec_s: list[float] = field(default_factory=list)
    target_s: list[float] = field(default_factory=list)
    call_rates: list[float] = field(default_factory=list)
    call_wall_s: list[float] = field(default_factory=list)
    parallel_s: float = 0.0
    results: list = field(default_factory=list)

    @property
    def pairs(self) -> int:
        return len(self.spec_s)


def check_call(b: Bench, clock: RunClock, r: int, jobs: int, runs: int,
               corpus: CheckCorpus, tally: Tally) -> None:
    """One ``distribution_check`` of ``runs`` runs per side."""
    cfg = b.config.with_seed(b.seed_of(r))
    n_tests = cfg.length * (cfg.dim + (cfg.dim > 1))
    tally.attempted += 1
    clock.parallel_s = 0.0
    t0 = perf_counter()
    try:
        result = b.cs.oracle.distribution_check(
            b.target, b.draft, cfg, runs=runs,
            significance=KS_FAMILY_ALPHA / n_tests, jobs=jobs,
        )
    except b.run_errors:
        tally.failed += 1
        clock.times[:] = np.nan
        return
    wall = perf_counter() - t0
    spec, tgt = clock.take()
    corpus.spec_s.extend(spec.tolist())
    corpus.target_s.extend(tgt.tolist())
    corpus.call_wall_s.append(wall)
    corpus.call_rates.append(2 * runs / wall)
    corpus.parallel_s += clock.parallel_s
    corpus.results.append(result)
    if not result.passed:
        record(tally, f"distribution_check seed {cfg.seed}",
               [f"max KS {result.max_statistic:.4f}"])


def check_loop(b: Bench, clock: RunClock, tally: Tally, seconds: float) -> CheckCorpus:
    corpus = CheckCorpus()
    deadline = perf_counter() + seconds
    r = 0
    while r == 0 or perf_counter() < deadline:
        check_call(b, clock, r, b.workload.jobs, clock.runs, corpus, tally)
        r += 1
    return corpus


# ---------------------------------------------------------------- warm-up


def warm_up(b: Bench) -> None:
    """Exercise the measured path once so lazy set-up is done before timing."""
    scratch = Tally()
    if b.workload.is_corpus:
        with RunClock(b.cs, WARMUP_CORPUS_RUNS).installed() as clock:
            check_call(b, clock, WARMUP_OFFSET, b.workload.jobs, WARMUP_CORPUS_RUNS,
                       CheckCorpus(), scratch)
    else:
        for r in range(WARMUP_PAIRS):
            run_pair(b, WARMUP_OFFSET + r, LoopCorpus(), scratch)


# ---------------------------------------------------------------- end to end


def end_to_end(b: Bench, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Run the workload untraced; returns (metrics, sample counts)."""
    length = b.config.length
    if b.workload.is_corpus:
        with RunClock(b.cs, b.workload.corpus_runs).installed() as clock:
            c = check_loop(b, clock, tally, seconds)
        corpus_rate = statistics.median(c.call_rates)
        counts = {"distribution_checks": len(c.call_rates)}
    else:
        c = loop(b, tally, seconds, min_pairs=MIN_SPEC_RUNS)
        busy_s = sum(c.spec_s) + sum(c.target_s) + c.ks_s
        corpus_rate = (len(c.spec_s) + len(c.target_s)) / busy_s
        counts = {}
    if c.pairs < MIN_SPEC_RUNS:
        raise RuntimeError(f"only {c.pairs} speculative runs; p99 needs {MIN_SPEC_RUNS}")
    spec_ms = np.asarray(c.spec_s) * 1e3
    target_ms = np.asarray(c.target_s) * 1e3
    counts.update(spec_runs=spec_ms.size, target_runs=target_ms.size)
    metrics = {
        "spec_run_ms_p50": (float(np.percentile(spec_ms, 50)), "ms"),
        "spec_run_ms_p99": (float(np.percentile(spec_ms, 99)), "ms"),
        "spec_tokens_per_s": (spec_ms.size * length / (spec_ms.sum() / 1e3), "tokens/s"),
        "target_run_ms_p50": (float(np.percentile(target_ms, 50)), "ms"),
        "target_tokens_per_s": (target_ms.size * length / (target_ms.sum() / 1e3), "tokens/s"),
        "corpus_runs_per_s": (corpus_rate, "runs/s"),
    }
    return metrics, counts


# ---------------------------------------------------------------- traced run

SPEC_ROOTS = ("engine.generate", "parallel.generate")
RUN_CHAINS = ("engine.run_chain", "autoregressive.run_chain")
CONDITIONS = ("engine.condition", "autoregressive.condition")
NOISE = ("engine.draw_noise_record", "autoregressive.draw_noise_record")
LOGPDFS = ("engine.gaussian_logpdf", "diffusion.gaussian_logpdf")
STREAM = "rng.PositionStreams.stream"


def trace_targets(cs) -> list[tuple]:
    """The module attributes the program looks up, with their span names."""
    e, ar = cs.engine, cs.autoregressive
    targets = [
        (e, "generate", "engine.generate", False),
        (ar, "target_only_generate", "autoregressive.target_only_generate", False),
        (cs.parallel, "generate", "parallel.generate", False),
        (cs.parallel, "target_only_generate", "parallel.target_only_generate", False),
        (e, "speculative_step", "engine.speculative_step", False),
        (e, "run_chain", "engine.run_chain", True),
        (e, "draw_noise_record", "engine.draw_noise_record", False),
        (e, "acceptance_log_ratio", "engine.acceptance_log_ratio", False),
        (e, "rejection_resample", "engine.rejection_resample", False),
        (e, "prefill", "engine.prefill", False),
        (e, "condition", "engine.condition", True),
        (e, "gaussian_logpdf", "engine.gaussian_logpdf", False),
        (ar, "run_chain", "autoregressive.run_chain", True),
        (ar, "condition", "autoregressive.condition", True),
        (ar, "draw_noise_record", "autoregressive.draw_noise_record", False),
        (cs.diffusion, "gaussian_logpdf", "diffusion.gaussian_logpdf", False),
        (cs.rng.PositionStreams, "stream", STREAM, False),
        (cs.rng, "substream", "rng.substream", False),
        (cs.oracle, "ks_two_sample", "oracle.ks_two_sample", False),
    ]
    as_vector = cs.gaussian.as_vector
    for name in ("gaussian", "diffusion", "autoregressive", "engine", "oracle", "bench",
                 "configio", "parallel", "scenarios"):
        module = getattr(cs, name)
        if module.__dict__.get("as_vector") is as_vector:
            targets.append((module, "as_vector", f"{name}.as_vector", False))
    return targets


def phase_times(sp, steps: np.ndarray) -> tuple[dict[str, float], dict[str, int]]:
    """Split each ``speculative_step`` into draft, verify, resample and bonus.

    A step's children run in a fixed order: the draft phase (draft-role
    condition, stream, noise record, chain, logpdf per proposal), the verify
    phase from the first target-role ``condition`` (acceptance ratio and
    uniform per proposal, then appending the accepted prefix), and then
    either the resample phase (the stream lookup and ``rejection_resample``)
    or the bonus phase (a target-role ``condition`` after the last acceptance
    ratio, its chain and its append).  Returns the time in each phase and the
    number of steps that had a resample or a bonus phase.
    """
    totals = dict(draft=0.0, verify=0.0, resample=0.0, bonus=0.0)
    tails = dict(resample=0, bonus=0)
    name_of = [sp.names[i] for i in sp.name_id.tolist()]
    role = sp.role.tolist()
    dur = sp.duration.tolist()
    for kids in sp.children(np.isin(np.arange(sp.name_id.size), steps)).values():
        kids = kids.tolist()
        names = [name_of[k] for k in kids]
        first_verify = next(
            (j for j, k in enumerate(kids) if names[j] in CONDITIONS and role[k] == TARGET),
            len(kids),
        )
        ratios = [j for j, n in enumerate(names) if n == "engine.acceptance_log_ratio"]
        tail, tail_phase = len(kids), "bonus"
        if "engine.rejection_resample" in names:
            tail = names.index("engine.rejection_resample")
            tail -= tail > 0 and names[tail - 1] == STREAM
            tail_phase = "resample"
        elif ratios:
            tail = next(
                (j for j in range(ratios[-1] + 1, len(kids))
                 if names[j] in CONDITIONS and role[kids[j]] == TARGET),
                len(kids),
            )
        tails[tail_phase] += tail < len(kids)
        for j, k in enumerate(kids):
            phase = "draft" if j < first_verify else "verify" if j < tail else tail_phase
            totals[phase] += dur[k]
    return totals, tails


def _ratio(num: float, den: float) -> float:
    return num / den if den else float("nan")


def per_layer(b: Bench, sp, stats: list, pairs: int, spec_tokens: int, tally: Tally) -> dict:
    """Per-layer metrics from a trace, normalized per (speculative, target-only) pair."""
    ms = 1e3 / pairs
    in_spec = sp.under(SPEC_ROOTS)
    chains = sp.mask(*RUN_CHAINS)
    draft_chain = chains & in_spec & (sp.role == DRAFT)
    target_chain = chains & in_spec & (sp.role == TARGET)
    steps = np.flatnonzero(sp.mask("engine.speculative_step"))
    resamples = sp.mask("engine.rejection_resample")
    prefills = sp.mask("engine.prefill")
    prefilled = chains & prefills[np.maximum(sp.parent, 0)] & (sp.parent >= 0)
    trials = chains & (sp.role == TARGET) & resamples[np.maximum(sp.parent, 0)] & (sp.parent >= 0)
    as_vector = np.array([sp.names[i].endswith(".as_vector") for i in sp.name_id.tolist()], bool)
    logpdf = sp.mask(*LOGPDFS)
    noise = sp.mask(*NOISE)
    substream = sp.mask("rng.substream")
    ks = sp.mask("oracle.ks_two_sample")

    # The spans must count exactly what RunStats counted.
    want_draft = sum(s.draft_chain_calls for s in stats)
    want_target = sum(s.target_chain_calls for s in stats)
    want_trials = sum(sum(s.resample_trials) for s in stats)
    want_prefilled = sum(s.origins.count(b.cs.autoregressive.PREFILLED) for s in stats)
    phases, tails = phase_times(sp, steps)
    for label, got, want in (
        ("draft chain calls", int(draft_chain.sum()), want_draft),
        ("target chain calls", int(target_chain.sum()), want_target),
        ("resample trials", int(trials.sum()), want_trials),
        ("pre-filled tokens", int(prefilled.sum()), want_prefilled),
        ("resample phases", tails["resample"], sum(len(s.resample_trials) for s in stats)),
        ("bonus phases", tails["bonus"],
         sum(s.origins.count(b.cs.autoregressive.TARGET_FALLTHROUGH) for s in stats)),
    ):
        if got != want:
            tally.wrong(f"trace: {label} {got} in spans, {want} in RunStats")

    step_self = float(sp.self_time[steps].sum())
    step_total = float(sp.duration[steps].sum())
    accounted = sum(phases.values()) + step_self
    if step_total and abs(accounted - step_total) > 1e-6 * step_total:
        tally.wrong(f"trace: phases cover {accounted:.6f} s of {step_total:.6f} s of steps")

    summary = b.cs.oracle.empirical_acceptance(stats)
    c = _ratio(sp.duration[draft_chain].mean(), sp.duration[target_chain].mean())
    n_draft, n_target = int(draft_chain.sum()), int(target_chain.sum())
    return {
        "rng.streams_created": (substream.sum() / pairs, "1/pair"),
        "rng.stream_setup_ms": (sp.duration[substream].sum() * ms, "ms/pair"),
        "gaussian.as_vector_calls": (as_vector.sum() / pairs, "1/pair"),
        "gaussian.as_vector_ms": (sp.duration[as_vector].sum() * ms, "ms/pair"),
        "gaussian.logpdf_calls": (logpdf.sum() / pairs, "1/pair"),
        "gaussian.logpdf_ms": (sp.duration[logpdf].sum() * ms, "ms/pair"),
        "diffusion.run_chain_calls": (chains.sum() / pairs, "1/pair"),
        "diffusion.run_chain_self_ms": (sp.self_time[chains].sum() * ms, "ms/pair"),
        "diffusion.noise_records": (noise.sum() / pairs, "1/pair"),
        "diffusion.noise_record_ms": (sp.duration[noise].sum() * ms, "ms/pair"),
        "autoregressive.condition_calls": (sp.mask(*CONDITIONS).sum() / pairs, "1/pair"),
        "autoregressive.prefill_ms": (sp.duration[prefills].sum() * ms, "ms/pair"),
        "autoregressive.prefilled_tokens": (prefilled.sum() / pairs, "1/pair"),
        "engine.draft_ms": (phases["draft"] * ms, "ms/pair"),
        "engine.verify_ms": (phases["verify"] * ms, "ms/pair"),
        "engine.resample_ms": (phases["resample"] * ms, "ms/pair"),
        "engine.bonus_ms": (phases["bonus"] * ms, "ms/pair"),
        "engine.step_self_ms": (step_self * ms, "ms/pair"),
        "engine.resamples": (resamples.sum() / pairs, "1/pair"),
        "engine.trials_per_resample": (_ratio(trials.sum(), resamples.sum()), "trials"),
        "engine.draft_chain_calls": (n_draft / pairs, "1/pair"),
        "engine.target_chain_calls": (n_target / pairs, "1/pair"),
        "engine.chain_calls_per_token": ((n_draft + n_target) / spec_tokens, "1/token"),
        "engine.alpha": (summary.alpha, "ratio"),
        "engine.alpha_examined": (summary.alpha_examined, "ratio"),
        "engine.measured_c": (c, "ratio"),
        "oracle.ks_ms": (sp.duration[ks].sum() * ms, "ms/pair"),
        "oracle.ks_tests": (ks.sum(), "count"),
    }


def traced(b: Bench, seconds: float, tally: Tally, trace_path) -> tuple[dict, dict]:
    """Untraced pass, then the same work traced; returns (metrics, sample counts)."""
    cs = b.cs
    length = b.config.length
    roles = {id(b.draft.denoiser): DRAFT, id(b.draft.backbone): DRAFT,
             id(b.target.denoiser): TARGET, id(b.target.backbone): TARGET}
    tracer = Tracer(roles)
    w = b.workload
    if w.is_corpus:
        par, plain, traced_c = CheckCorpus(), CheckCorpus(), CheckCorpus()
        with RunClock(cs, w.corpus_runs).installed() as clock:
            check_call(b, clock, 0, w.jobs, w.corpus_runs, par, tally)
            check_call(b, clock, 0, 1, w.corpus_runs, plain, tally)
            clock.keep_stats = True
            with tracer.installed(trace_targets(cs)):
                check_call(b, clock, 0, 1, w.corpus_runs, traced_c, tally)
        stats = clock.stats
        if par.results and plain.results and par.results[0] != plain.results[0]:
            tally.wrong(f"distribution_check differs between jobs={w.jobs} and jobs=1")
        plain_wall, traced_wall = sum(plain.call_wall_s), sum(traced_c.call_wall_s)
        pairs = w.corpus_runs
        par_wall_s, jobs1_wall_s = par.parallel_s, plain.parallel_s
    else:
        plain = loop(b, tally, seconds / 2)
        with tracer.installed(trace_targets(cs)):
            traced_c = loop(b, tally, 0, count=plain.pairs, keep_stats=True)
        stats = traced_c.stats
        plain_wall = sum(plain.spec_s) + sum(plain.target_s) + plain.ks_s
        traced_wall = sum(traced_c.spec_s) + sum(traced_c.target_s) + traced_c.ks_s
        pairs = plain.pairs
        par_wall_s, jobs1_wall_s = jobs_probe(b, tally)

    sp = Spans(tracer)
    tracer.save(trace_path)
    metrics = {"configio.load_ms": (b.load_ms, "ms")}
    metrics.update(per_layer(b, sp, stats, pairs, len(stats) * length, tally))
    spec_rate = plain.pairs * length / sum(plain.spec_s)
    target_rate = plain.pairs * length / sum(plain.target_s)
    c = metrics["engine.measured_c"][0]
    alpha = metrics["engine.alpha_examined"][0]
    metrics.update({
        "engine.spec_tokens_per_s": (spec_rate, "tokens/s"),
        "engine.target_tokens_per_s": (target_rate, "tokens/s"),
        "engine.measured_speedup": (spec_rate / target_rate, "x"),
        "engine.expected_speedup": (cs.bench.expected_speedup(alpha, b.config.gamma, c), "x"),
        "parallel.wall_ms": (par_wall_s * 1e3 / pairs, "ms/pair"),
        "parallel.speedup_vs_jobs1": (jobs1_wall_s / par_wall_s, "x"),
        "tracing.overhead_pct": ((traced_wall / plain_wall - 1.0) * 100.0, "%"),
    })
    counts = {"pairs": pairs, "spans": int(sp.name_id.size)}
    return metrics, counts


def jobs_probe(b: Bench, tally: Tally) -> tuple[float, float]:
    """Time the parallel layer on this workload's pair at jobs=2 and jobs=1.

    Both job counts must give identical run statistics and token corpora.
    Returns the two wall times in seconds.
    """
    par = b.cs.parallel
    n = b.workload.corpus_runs
    spec_seeds = [b.seed_of(2 * r) for r in range(n)]
    target_seeds = [b.seed_of(2 * r + 1) for r in range(n)]
    walls, outputs = [], []
    for jobs in (2, 1):
        t0 = perf_counter()
        stats = par.run_replicates(b.target, b.draft, b.config, spec_seeds, jobs=jobs)
        tokens = par.baseline_token_matrix(b.target, b.config, target_seeds, jobs=jobs)
        walls.append(perf_counter() - t0)
        outputs.append(([s.to_dict() for s in stats], tokens))
    tally.attempted += 4 * n
    if outputs[0][0] != outputs[1][0] or not np.array_equal(outputs[0][1], outputs[1][1]):
        tally.wrong("parallel results differ between jobs=2 and jobs=1")
    return walls[0], walls[1]
