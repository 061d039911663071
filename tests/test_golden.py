"""Golden trace digests: the sha256 of ``EpisodeTrace.dumps()`` per cell.

Every cell is one seeded episode under one model, with a 2-run medium
reference calibrated on the cell's own config. The matrix covers the three
presets (shortened where they are long) under all four models, plus edge
configs and bots that stress the tick arithmetic: odd and tiny windows,
truncation mid-wave, zero delays, health sampling intervals, a bot that
never attacks and one that chains potions.

A change that alters traces on purpose regenerates the file once and says
why; any other change must leave every digest as it is. Regenerate with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib

import pytest

from ddakit.engine import DdaEngine
from ddakit.reference import calibrate
from ddakit.sim.arena import run_episode
from ddakit.sim.config import BOTS, BotProfile, arena, arena_hard, duel

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_digests.json")
MODELS = ("off", "metrics", "probabilistic", "dscript")
SEEDS = (1, 2)
REF_SEED = 2020
MEDIUM = BOTS["medium"]
CHUGGER = BotProfile("chugger", 0.1, 0.0, 1, 0.95)


def _health_interval(config, interval: int):
    variables = tuple(
        dataclasses.replace(v, min_sample_interval=interval)
        if v.var_id == "health"
        else v
        for v in config.variables
    )
    return config.replacing(variables=variables)


# name -> (config factory, bot). The config's own name is left as the
# preset's; the key names the variation.
CONFIGS = {
    "arena": (arena, MEDIUM),
    "arena-hard": (lambda: arena_hard().replacing(waves=30), MEDIUM),
    "duel": (lambda: duel().replacing(waves=60), MEDIUM),
    "edge-window7": (lambda: arena().replacing(window_len=7), MEDIUM),
    # Wave 5 is on at tick 3300 for both seeds under the off model.
    "edge-truncated": (lambda: arena().replacing(max_ticks=3_300), MEDIUM),
    "edge-no-delays": (
        lambda: arena().replacing(respawn_delay=0, wave_interval=0),
        MEDIUM,
    ),
    "edge-health1": (lambda: _health_interval(arena(), 1), MEDIUM),
    "edge-health7": (lambda: _health_interval(arena(), 7), MEDIUM),
    "edge-pacifist": (arena, BOTS["pacifist"]),
    # Every kill drops a potion and a potion heals less than the gap to
    # the threshold, so one low moment drinks several on consecutive ticks.
    "edge-potion-chain": (
        lambda: arena().replacing(potion_drop_prob=1.0, potion_heal=4.0),
        CHUGGER,
    ),
}

CELLS = [
    f"{name}/{model}/{seed}"
    for name in CONFIGS
    for model in MODELS
    for seed in SEEDS
]


@functools.lru_cache(maxsize=None)
def _config(name: str):
    return CONFIGS[name][0]()


@functools.lru_cache(maxsize=None)
def _reference(name: str):
    return calibrate(_config(name), MEDIUM, n_runs=2, seed=REF_SEED)


def run_cell(cell: str):
    name, model, seed = cell.split("/")
    config = _config(name)
    engine = DdaEngine.from_config(config, model=model, references=_reference(name))
    return run_episode(config, CONFIGS[name][1], seed=int(seed), engine=engine)


def digest(cell: str) -> str:
    return hashlib.sha256(run_cell(cell).dumps().encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_exactly_the_matrix(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_trace_digest_is_unchanged(cell, golden):
    assert digest(cell) == golden[cell]


def test_truncated_edge_cuts_a_wave_short():
    for seed in SEEDS:
        trace = run_cell(f"edge-truncated/off/{seed}")
        (outcome,) = trace.records_of_type("outcome")
        assert outcome["truncated"] is True
        assert outcome["tick"] == 3_300
        spawns = trace.records_of_type("spawn")
        encounters = trace.records_of_type("encounter")
        assert len(spawns) == len(encounters) + 1, "a wave is still on"


def test_potion_chain_edge_chains_potions():
    trace = run_cell("edge-potion-chain/off/1")
    used = [r["tick"] for r in trace.records_of_type("potion_used")]
    assert any(b - a == 1 for a, b in zip(used, used[1:])), (
        "potions are drunk on consecutive ticks"
    )


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({cell: digest(cell) for cell in CELLS}, indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(CELLS)} digests to {GOLDEN_PATH}")
