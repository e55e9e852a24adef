"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each criterion records a single PASS/FAIL line; the scoreboard is echoed in
the terminal summary after the run (and printed live under ``pytest -s``).
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import cspdec.engine as engine
from cspdec.bench import expected_speedup, simulated_speedup, sweep
from cspdec.cli import main
from cspdec.configio import ModelConfig, save_model_config
from cspdec.diffusion import draw_noise_record, run_chain
from cspdec.engine import SpecDecodeConfig, acceptance_log_ratio, rejection_resample
from cspdec.oracle import (
    Grid1D,
    beta_integral,
    chi_square_critical,
    chi_square_gof,
    distribution_check,
    empirical_acceptance,
    full_chain_log_ratio,
    gaussian_density,
    reference_tokens,
    residual_distribution_grid,
)
from cspdec.parallel import run_replicates
from cspdec.rng import replicate_seed
from cspdec.scenarios import decoupled_pair, standard_pair, stationary_pair

import conftest
from conftest import JOBS, drop_whole_chain_variance_product, random_denoiser

KS_THRESHOLD = 0.015
KS_RUNS = 50_000
RESAMPLE_OUTPUTS = 100_000

# (target mean, var), (draft mean, var): the three rejection-phase pairs
DENSITY_PAIRS = {
    "unit-shift": ((0.0, 1.0), (1.0, 1.0)),
    "wider-draft": ((0.0, 1.0), (0.5, 2.25)),
    "offset-scales": ((0.3, 0.49), (-0.4, 1.44)),
}


def report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


# ---------------------------------------------------------------------------
# Shared heavy corpora


@pytest.fixture(scope="session")
def pinned():
    target, draft, config = standard_pair()
    return target, draft, config.with_seed(20260811)


@pytest.fixture(scope="session")
def ks_suite(pinned):
    """Faithful and variance-ratio-mutated KS suites on one reference corpus."""
    target, draft, config = pinned
    reference = reference_tokens(target, config, KS_RUNS, jobs=JOBS)
    faithful = distribution_check(
        target, draft, config, runs=KS_RUNS, jobs=JOBS, reference=reference
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "tail_log_density_ratio", drop_whole_chain_variance_product)
        mutated = distribution_check(
            target, draft, config, runs=KS_RUNS, jobs=JOBS, reference=reference
        )
    return faithful, mutated


def _resample_chunk(args):
    (p_mean, p_var), (q_mean, q_var), seed, count = args
    target, draft = decoupled_pair(p_mean, p_var, q_mean, q_var)
    rng = np.random.default_rng(seed)
    outputs = np.empty(count)
    trials = np.empty(count, dtype=int)
    for i in range(count):
        token, t = rejection_resample(
            target.denoiser, [0.0], draft.denoiser, [0.0], 1.0, rng
        )
        outputs[i] = token[0]
        trials[i] = t
    return outputs, trials


@pytest.fixture(scope="session")
def resample_corpus():
    """10^5 accepted rejection-phase samples per density pair, with trial counts."""
    corpus = {}
    # Each pair's seed family is its index in DENSITY_PAIRS, so the corpus is
    # the same in every process (``hash(str)`` varies with PYTHONHASHSEED).
    for index, (name, (p, q)) in enumerate(DENSITY_PAIRS.items()):
        chunks = 10
        count = RESAMPLE_OUTPUTS // chunks
        payloads = [
            (p, q, replicate_seed(314159, index, c), count) for c in range(chunks)
        ]
        with ProcessPoolExecutor(max_workers=JOBS) as pool:
            parts = list(pool.map(_resample_chunk, payloads))
        outputs = np.concatenate([p[0] for p in parts])
        trials = np.concatenate([p[1] for p in parts])
        corpus[name] = (outputs, trials)
    return corpus


def _pair_grid(p, q, bins=40_000):
    return Grid1D.covering(
        [p[0], q[0]], [math.sqrt(p[1]), math.sqrt(q[1])], bins=bins
    )


@pytest.fixture(scope="session")
def stationary_runs():
    target, draft, config = stationary_pair()
    config = replace(config, length=96)
    seeds = [replicate_seed(777, 0, r) for r in range(300)]
    return config, run_replicates(target, draft, config, seeds, jobs=JOBS)


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_ratio_simplification_theorem():
    """Telescoped acceptance ratio == brute-force chain ratio, 1000 random pairs."""
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(1000):
        steps = int(rng.integers(2, 65))
        dim = int(rng.integers(1, 9))
        spec_q = random_denoiser(rng, steps, dim)
        spec_p = random_denoiser(rng, steps, dim)
        cond_q = rng.uniform(-1, 1, dim)
        cond_p = rng.uniform(-1, 1, dim)
        tau = float(rng.choice([0.7, 1.0, 1.3]))
        noise = draw_noise_record(steps, dim, rng)
        traj_q = run_chain(spec_q, cond_q, noise, tau)
        lr, _ = acceptance_log_ratio(traj_q, spec_p, cond_p, noise, traj_q.token, tau)
        full = full_chain_log_ratio(spec_q, spec_p, cond_q, cond_p, noise, traj_q.token, tau)
        worst = max(worst, abs(lr - full))
    ok = worst < 1e-9
    report(1, "ratio simplification", ok, f"max |difference| = {worst:.3e}")
    assert ok


def test_criterion_2_distribution_preservation(ks_suite):
    """Per-position KS between speculative and target-only output < 0.015."""
    faithful, _ = ks_suite
    ok = faithful.max_statistic < KS_THRESHOLD
    report(
        2,
        "distribution preservation",
        ok,
        f"max per-position KS = {faithful.max_statistic:.4f} over "
        f"{len(faithful.tests)} positions at {KS_RUNS} runs/side",
    )
    assert ok


def test_criterion_2_mutation_omitting_variance_ratio_must_fail_ks(ks_suite):
    """A build without the whole-chain variance product must fail the KS suite.

    The mutation (``conftest.drop_whole_chain_variance_product``, patched over
    ``engine.tail_log_density_ratio``) removes ``0.5 * sum_t log(var_q,t /
    var_p,t)`` over all T steps from the acceptance ratio and the resampling
    threshold: the tail term plus the final-step normaliser difference inside
    the two final-step densities.  Removing only the tail term would be a
    no-op here, since the pinned pair shares its tail schedule and that term
    is exactly zero.  The final-step variances (0.2 target, 0.3 draft) differ,
    so the mutation scales every ratio by sqrt(0.2 / 0.3) and biases the
    output law, which the suite has to detect at its own threshold.
    """
    faithful, mutated = ks_suite
    mutation_detected = mutated.max_statistic >= KS_THRESHOLD
    report(
        2,
        "mutation sensitivity (whole-chain variance product dropped)",
        mutation_detected,
        f"mutated max KS = {mutated.max_statistic:.4f}, "
        f"faithful max KS = {faithful.max_statistic:.4f}",
    )
    assert mutation_detected, (
        "dropping the whole-chain variance product went undetected by the KS "
        f"suite (mutated max KS {mutated.max_statistic:.4f} < {KS_THRESHOLD}, "
        f"faithful {faithful.max_statistic:.4f})"
    )


def test_criterion_3_rejection_phase_chi_square(resample_corpus):
    """Rejection-phase outputs match the grid residual distribution at 1%."""
    details = []
    ok = True
    for name, (p, q) in DENSITY_PAIRS.items():
        outputs, _ = resample_corpus[name]
        residual = residual_distribution_grid(
            gaussian_density(*p), gaussian_density(*q), _pair_grid(p, q, bins=2000)
        )
        stat, df = chi_square_gof(outputs, residual)
        crit = chi_square_critical(df, 0.01)
        ok = ok and stat < crit
        details.append(f"{name}: chi2={stat:.1f} < crit={crit:.1f} (df={df})")
    report(3, "rejection-phase correctness", ok, "; ".join(details))
    assert ok


def test_criterion_4_acceptance_rejection_efficiency(resample_corpus):
    """Mean trial count within 5% of 1/Z from the grid oracle."""
    details = []
    ok = True
    for name, (p, q) in DENSITY_PAIRS.items():
        _, trials = resample_corpus[name]
        z = residual_distribution_grid(
            gaussian_density(*p), gaussian_density(*q), _pair_grid(p, q)
        ).normalizer
        mean = float(trials.mean())
        ok = ok and abs(mean - 1.0 / z) / (1.0 / z) < 0.05
        details.append(f"{name}: mean={mean:.3f} vs 1/Z={1.0 / z:.3f}")
    unit_shift_mean = float(resample_corpus["unit-shift"][1].mean())
    ok = ok and abs(unit_shift_mean - 2.61) < 0.13
    report(4, "resampling efficiency", ok, "; ".join(details))
    assert ok


def test_criterion_5_beta_consistency():
    """Single-token acceptance rate within 0.01 of the overlap integral."""
    target, draft, _ = stationary_pair()
    config = SpecDecodeConfig(gamma=1, steps=2, dim=1, length=1, seed=0)
    seeds = [replicate_seed(21, 0, r) for r in range(25_000)]
    stats = run_replicates(target, draft, config, seeds, jobs=JOBS)
    alpha = empirical_acceptance(stats).alpha
    beta = beta_integral(
        gaussian_density(0.0, 1.0),
        gaussian_density(0.6, 1.0),
        Grid1D.covering([0.0, 0.6], [1.0, 1.0], bins=40_000),
    )
    ok = abs(alpha - beta) < 0.01
    report(5, "acceptance probability vs overlap", ok, f"alpha={alpha:.4f} beta={beta:.4f}")
    assert ok


def test_criterion_6_alignment_ablation(pinned):
    """Independent per-model noise must cost at least 0.05 acceptance."""
    target, draft, config = pinned
    seeds = [replicate_seed(606, 0, r) for r in range(1000)]
    aligned = run_replicates(target, draft, config, seeds, jobs=JOBS)
    unaligned = run_replicates(
        target, draft, replace(config, aligned=False), seeds, jobs=JOBS
    )
    a = empirical_acceptance(aligned).alpha
    u = empirical_acceptance(unaligned).alpha
    ok = a - u >= 0.05
    report(6, "trajectory alignment ablation", ok, f"aligned={a:.3f} unaligned={u:.3f}")
    assert ok


def test_criterion_7_gamma_decay(pinned):
    """Mean acceptance non-increasing in draft length, within two stderr."""
    target, draft, config = pinned
    result = sweep(
        target,
        draft,
        replace(config, length=40),
        "gamma",
        [4, 8, 16, 32],
        replicates=1000,
        master_seed=700,
        jobs=JOBS,
    )
    means = [pt.mean_alpha for pt in result.points]
    errs = [pt.stderr_alpha for pt in result.points]
    ok = all(
        means[i + 1] <= means[i] + 2 * math.hypot(errs[i], errs[i + 1])
        for i in range(len(means) - 1)
    )
    detail = ", ".join(
        f"gamma={int(pt.axis_value)}: {pt.mean_alpha:.3f}+-{pt.stderr_alpha:.3f}"
        for pt in result.points
    )
    report(7, "acceptance decay in gamma", ok, detail)
    assert ok


def test_criterion_8_prefill_benefit(prefill_run_stats):
    """Pre-filling lifts overall and early-position acceptance, with
    diminishing returns from 0.05 to 0.15."""

    def early_rate(stats_list):
        pooled = empirical_acceptance(stats_list).per_position
        acc = sum(a for pos, (a, e) in pooled.items() if pos <= 2)
        exam = sum(e for pos, (a, e) in pooled.items() if pos <= 2)
        return acc / exam if exam else None

    alphas = {rho: empirical_acceptance(s).alpha for rho, s in prefill_run_stats.items()}
    early = {rho: early_rate(s) for rho, s in prefill_run_stats.items()}
    gain_first = alphas[0.05] - alphas[0.0]
    gain_second = alphas[0.15] - alphas[0.05]
    ok = (
        alphas[0.05] > alphas[0.0]
        and early[0.05] > early[0.0]
        and gain_second < gain_first
    )
    report(
        8,
        "pre-fill benefit",
        ok,
        f"alpha {alphas[0.0]:.3f}->{alphas[0.05]:.3f}->{alphas[0.15]:.3f}, "
        f"early {early[0.0]:.3f}->{early[0.05]:.3f}",
    )
    assert ok


def test_criterion_9_walltime_formula(stationary_runs):
    """Hand-evaluated formula points plus cost-model consistency within 5%."""
    exact_ok = (
        abs(expected_speedup(0.5, 1, 0.0) - 1.5) < 1e-12
        and abs(expected_speedup(0.19, 32, 0.38) - 0.0938) < 1e-4
        and abs(expected_speedup(0.0, 4, 0.5) - 1.0 / 3.0) < 1e-12
    )
    config, stats = stationary_runs
    alpha = empirical_acceptance(stats).alpha_examined
    ratios = []
    for cost in (0.0, 0.3):
        sim = simulated_speedup(stats, cost)
        ratios.append(sim / expected_speedup(alpha, config.gamma, cost))
    model_ok = all(abs(r - 1.0) < 0.05 for r in ratios)
    ok = exact_ok and model_ok
    report(
        9,
        "walltime formula",
        ok,
        f"exact points ok={exact_ok}, sim/formula ratios="
        + ", ".join(f"{r:.3f}" for r in ratios),
    )
    assert ok


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """Every CLI command is byte-reproducible from (config, seed)."""
    target, draft, config = standard_pair()
    mc = ModelConfig(
        target=target,
        draft=draft,
        steps=config.steps,
        dim=config.dim,
        run_defaults={"gamma": 2, "length": 4, "seed": 11},
    )
    cfg_path = tmp_path / "pinned.json"
    save_model_config(mc, cfg_path)

    checks = []

    def twice(args, outname):
        payloads = []
        for tag in ("a", "b"):
            out = tmp_path / f"{outname}.{tag}"
            assert main(args + ["--out", str(out)]) == 0
            payloads.append(out.read_bytes())
        checks.append(payloads[0] == payloads[1])

    twice(["generate", "--config", str(cfg_path), "--seed", "42"], "gen.json")
    twice(
        ["generate", "--config", str(cfg_path), "--seed", "42", "--format", "csv",
         "--replicates", "3"],
        "gen.csv",
    )
    twice(
        ["sweep", "gamma", "1", "2", "--config", str(cfg_path), "--replicates", "5",
         "--seed", "9"],
        "sweep.csv",
    )

    outs = []
    for _ in range(2):
        assert main(["formula", "0.5", "1", "0"]) == 0
        outs.append(capsys.readouterr().out)
    checks.append(outs[0] == outs[1])

    outs = []
    for _ in range(2):
        main(["check-dist", "--config", str(cfg_path), "--replicates", "1000",
              "--jobs", "2"])
        outs.append(capsys.readouterr().out)
    checks.append(outs[0] == outs[1])

    ok = all(checks)
    report(10, "CLI determinism", ok, f"{len(checks)} command reruns byte-identical")
    assert ok
