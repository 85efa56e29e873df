"""Seeded corpora for the CI-cycle benchmark.

A corpus is a test history, generated in one ``synthgen.generate`` call,
plus a stream of new releases, one ``generate`` call each, that continue
the history's timeline. Workloads differ only in the make-up of the
corpus: history length and the number of releases. Every random choice
the benchmark makes (which commits regress, by how much) comes from the
workload seed; the program only sees the generated files.

History tests draw SINR from 10-30 dB, where the environment law expects
an efficiency of at least 0.76; release tests draw from 12-30 dB (at
least 0.82). The forest behind ``analyze`` learns from the history's
regressed tests too, and where the history is sparse one regressed test
can be most of a leaf, pulling the expectation down by its whole drop.
History regressions are therefore milder (15-25 %) than release
regressions (35-50 %): even a fully pulled expectation leaves a release
test's ratio below the 0.9 floor, so every planted release regression is
detectable and verdicts can be compared with the generator's truth
release by release. Each release has three tests, and a verdict needs
two degraded ones, so one misjudged test cannot flip it.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ranwatch import synthgen

START_TIME = dt.datetime(2025, 1, 6, 6, 0, 0)
INTERVAL_HOURS = 1.0  # one test an hour keeps day directories few
LOADS = (10.0, 20.0, 30.0, 80.0)
HISTORY_SINR = (10.0, 30.0)
RELEASE_SINR = (12.0, 30.0)
NOISE_STD = 0.03  # synthgen's default measurement noise on efficiency
HISTORY_DROP = (0.15, 0.25)
RELEASE_DROP = (0.35, 0.5)
RELEASE_TESTS = 3
CATEGORIES = tuple(synthgen.PLANT_KEYWORDS)


@dataclass(frozen=True)
class Shape:
    """Make-up of one workload's corpus."""

    history_commits: int
    history_tests_per_commit: int
    releases: int


# Why each workload exists is written up in cibench/README.md.
SHAPES: dict[str, Shape] = {
    "fleet": Shape(history_commits=100, history_tests_per_commit=20, releases=250),
    "gate": Shape(history_commits=60, history_tests_per_commit=6, releases=250),
}


@dataclass(frozen=True)
class Corpus:
    history: synthgen.GeneratedCorpus
    releases: tuple[synthgen.GeneratedCorpus, ...]


def _pick_injected(rng: np.random.Generator, n: int, among: int) -> list[int]:
    """One index in ten of ``n``, at least two, drawn from the first ``among``."""
    count = max(2, int(round(n / 10)))
    return sorted(int(i) for i in rng.choice(among, size=count, replace=False))


def _injection(rng: np.random.Generator, index: int, drop: tuple[float, float],
               max_onset: int) -> synthgen.Injection:
    n_layers = int(rng.integers(1, 3))
    picks = sorted(int(i) for i in rng.choice(len(CATEGORIES), size=n_layers, replace=False))
    return synthgen.Injection(
        commit_index=index,
        layers=tuple(CATEGORIES[i] for i in picks),
        drop=float(rng.uniform(*drop)),
        onset_delay=int(rng.integers(0, max_onset + 1)),
    )


def _spec(seed: int, n_commits: int, tests: int, first_test: int, sinr: tuple[float, float],
          injections: tuple[synthgen.Injection, ...]) -> synthgen.ScenarioSpec:
    start = START_TIME + dt.timedelta(hours=INTERVAL_HOURS * first_test)
    shift = first_test % len(LOADS)  # keep the load cycle running across releases
    return synthgen.ScenarioSpec(
        seed=seed,
        n_commits=n_commits,
        tests_per_commit=tests,
        test_interval_hours=INTERVAL_HOURS,
        start_time=start.isoformat(),
        loads=LOADS[shift:] + LOADS[:shift],
        sinr_range=sinr,
        noise_std=NOISE_STD,
        injections=injections,
    )


def generate(shape: Shape, seed: int, root: Path) -> Corpus:
    """Write the history and every release under ``root``.

    About one history commit and one release in ten carries a planted
    regression. History regressions may start a few tests late; release
    regressions start on the first test, so each release's truth is one
    verdict.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    h_tests = shape.history_tests_per_commit
    # train-risk trains on the first 80 % of the history and needs both
    # classes there, so history regressions are planted before that cut
    history_injections = tuple(
        _injection(rng, i, HISTORY_DROP, max_onset=h_tests // 4)
        for i in _pick_injected(rng, shape.history_commits, int(0.8 * shape.history_commits))
    )
    injected_releases = set(_pick_injected(rng, shape.releases, shape.releases))
    release_injections = [
        (_injection(rng, 0, RELEASE_DROP, max_onset=0),) if i in injected_releases else ()
        for i in range(shape.releases)
    ]
    seeds = rng.integers(0, 2**31, size=shape.releases + 1)

    history = synthgen.generate(
        _spec(int(seeds[0]), shape.history_commits, h_tests, 0, HISTORY_SINR, history_injections),
        root / "history",
    )
    first = shape.history_commits * h_tests
    releases = []
    for i in range(shape.releases):
        spec = _spec(int(seeds[i + 1]), 1, RELEASE_TESTS, first + i * RELEASE_TESTS,
                     RELEASE_SINR, release_injections[i])
        releases.append(synthgen.generate(spec, root / "releases" / f"{i:04d}"))
    return Corpus(history=history, releases=tuple(releases))
