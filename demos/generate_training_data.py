"""Build a small domain-randomized training dataset in memory.

Every run draws its own behavioral parameters, runs the simulator, and
exports one record per app agent per day: the observables an app actually
sees plus the ground-truth infectiousness window a learned predictor
should recover. Records carry no partner identities. The demo ends by
replaying one oracle run's targets through ``predictor: external``, which
must reproduce that run.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from pctsim.core import SimConfig, run
from pctsim.datagen import (
    DR_RANGES,
    export_training_records,
    make_split,
    read_records,
    sample_dr_config,
)

base = SimConfig(population_size=400, num_days=15,
                 policy="pct", predictor="noisy_oracle", rng_seed=7)
rng = np.random.default_rng(base.rng_seed)
tmp = Path(tempfile.gettempdir())

print("domain randomization ranges:")
for name, (lo, hi) in DR_RANGES.items():
    print(f"  {name:<30} [{lo}, {hi}]")
print()

run_ids = []
for i in range(4):
    cfg = sample_dr_config(base, rng)
    cfg = cfg.replace(rng_seed=int(rng.integers(0, 2**31)))
    trace = run(cfg)
    path = tmp / f"{trace.run_id}.records.jsonl"
    n = export_training_records(trace, path)
    run_ids.append(trace.run_id)
    print(f"run {i}: adoption {cfg.adoption_rate:.2f}, "
          f"mobility {cfg.global_mobility_scale:.2f} -> {n} records")

train, valid = make_split(run_ids, seed=base.rng_seed)
print(f"\nsplit: {len(train)} train runs, {len(valid)} validation runs")
print("validation never shares a run with training:", set(train) & set(valid) == set())

sample = None
for run_id in run_ids:  # small runs can stay outbreak-free; find one that didn't
    records = read_records(tmp / f"{run_id}.records.jsonl")
    sample = next((r for r in records if sum(r["targets"]) > 0), sample)
if sample is None:
    sample = records[0]
print("\none infected agent-day record:")
print(json.dumps({k: sample[k] for k in ("agent_id", "day", "profile")}, indent=2))
print("targets (newest first):",
      [round(t, 3) for t in sample["targets"][:6]], "...")
print("today's clustered encounters:", sample["encounters"][0])

# a perfect predictor, replayed: one oracle run's ground-truth targets, fed
# back as external predictions, must reproduce that run
cfg = base.replace(predictor="oracle", global_mobility_scale=3.75,
                   initial_exposed_fraction=0.02)
oracle = run(cfg)
export_training_records(oracle, tmp / "oracle.records.jsonl")
preds = tmp / "oracle.predictions.jsonl"
with open(preds, "w") as fh:
    for rec in read_records(tmp / "oracle.records.jsonl"):
        fh.write(json.dumps({"agent_id": rec["agent_id"], "day": rec["day"],
                             "y_hat": rec["targets"]}) + "\n")
replay = run(cfg.replace(predictor="external", external_predictions=str(preds)))
messages = sum(r.messages for r in oracle.day_reports)
print(f"\noracle run: {len(oracle.events)} infections, {messages} messages")
print(f"its targets replayed through predictor: external: {len(replay.events)} infections")
if not np.array_equal(replay.events, oracle.events) or replay.day_reports != oracle.day_reports:
    raise SystemExit("the replay diverged from the oracle run")
